"""Tests of the benchmark itself: python3 -m pytest bench

They start real workers (one pass each), so they take about half a minute.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import known  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Two untraced workers per workload at seed 0, with the known answers."""
    out = {}
    for workload in gen.WORKLOADS:
        run_dir = tmp_path_factory.mktemp(workload)
        gen.write_inputs(workload, 0, run_dir)
        inputs = json.loads((run_dir / "inputs.json").read_text(encoding="utf-8"))
        deadline = time.monotonic() + run.RUN_LIMIT_S
        workers = [run.spawn(workload, run_dir, i, False, deadline) for i in range(2)]
        assert all(w is not None for w in workers), workload
        out[workload] = (workers, run.expected_answers(inputs))
    return out


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    texts = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.write_inputs(workload, seed, tmp_path / name)
        texts[name] = (tmp_path / name / "inputs.json").read_bytes()
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]


def test_membership_has_enough_queries_for_p99():
    queries = gen.membership_inputs(0)["queries"]
    assert len(queries) >= 1000
    assert {q["space"] for q in queries} >= set(gen.SPACES)


def test_cone_rule_for_cross():
    assert gen._cone_expect("cross", (0, 0), (1, 0)) == "in"
    assert gen._cone_expect("cross", (0, 0), (1, -1)) == "out"
    assert gen._cone_expect("cross", (3, 0), (-1, 0)) == "in"
    assert gen._cone_expect("cross", (3, 0), (1, 1)) == "out"
    assert gen._cone_expect("cross", (0, 2), (0, 1)) == "in"


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_error_ratio_is_zero_on_current_code(passes, workload):
    workers, expected = passes[workload]
    attempted, errors, _, lost, notes = run.score(workers, expected)
    assert attempted == 2 * len(expected)
    assert errors == 0 and lost == 0, notes


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_query_has_its_own_latency(passes, workload):
    workers, expected = passes[workload]
    queries = {worker.command(q) for q in expected} if workload == "suite" else set(expected)
    for w in workers:
        assert sorted(qid for qid, _ in w["requests"]) == sorted(queries)
        assert all(ms > 0 for _, ms in w["requests"])


def test_suite_commands():
    assert worker.command("axioms:cross:covering") == "axioms:cross"
    assert worker.command("tangent-cone:cross:1,0:-1,0") == "tangent-cone:cross:1,0"
    assert worker.command("smooth:axis-inclusion") == "smooth:axis-inclusion"


def test_suite_report_is_byte_identical_across_workers(passes):
    workers, _ = passes["suite"]
    assert workers[0]["report_sha256"] == workers[1]["report_sha256"]


def test_planted_wrong_answer_is_caught(passes):
    workers, expected = passes["suite"]
    planted = dict(expected)
    planted["axioms:cross:covering"] = "no"
    _, errors, _, _, notes = run.score(workers, planted)
    assert errors == 2
    assert "axioms:cross:covering: expected no, got yes" in notes


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_planted_unknown_is_a_lost_verdict(passes, workload):
    workers, expected = passes[workload]
    qid, status = workers[1]["results"][0]
    assert status != "unknown"
    results = [[q, "unknown" if q == qid else s] for q, s in workers[1]["results"]]
    planted = dict(workers[1], results=results)
    _, errors, unknowns, lost, notes = run.score([planted, planted], expected)
    assert errors == 0 and lost == 2
    assert f"{qid}: expected {expected[qid]}, got unknown (a lost verdict)" in notes
    _, _, before, _, _ = run.score(workers, expected)
    assert unknowns == before + 2


def test_differing_report_and_missing_check_are_errors(passes):
    workers, expected = passes["suite"]
    changed = dict(workers[1], report_sha256="0" * 64)
    _, errors, _, _, _ = run.score([workers[0], changed], expected)
    assert errors == 1
    _, errors, _, _, _ = run.score(workers, {**expected, "smooth:no-such-map": "yes"})
    assert errors == 2


def test_unknown_is_never_an_error():
    assert not known.is_error("no", "unknown")
    assert known.is_error("no", "yes")
    assert not known.is_error("in", "in")


def test_only_the_known_unknown_is_not_lost():
    assert not known.is_lost("subduction:axis-inclusion", "unknown")
    assert known.is_lost("subduction:cross-projection", "unknown")
    assert not known.is_lost("subduction:cross-projection", "yes")


def test_benchmark_json_names_every_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == (
        tracer.metric_names() + [run.OVERHEAD]
    )
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)


def test_untraced_result_carries_every_end_to_end_metric(passes):
    workers, _ = passes["membership"]
    assert set(run.end_to_end(workers)) == {n for n, _ in run.END_TO_END}


def test_traced_run_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "calculus", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=run.RUN_LIMIT_S,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    names = tracer.metric_names() + [run.OVERHEAD]
    assert list(result["metrics"]) == [n for n, _ in names]
    text = "\n".join(lines[:-1])
    for name, unit in run.END_TO_END + run.RATIOS + names:
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in text.splitlines()), name


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    names = [name for name, *_ in tracer.LAYERS]
    compose, new, plot = (names.index(n) for n in
                          ("expr.Expr.compose", "expr.Expr.new", "spaces.is_plot"))
    unknown = tracer.PLOT_KINDS.index("unknown")
    for layer, start, end, parent, tag in (
        (compose, 0.0, 10.0, -1, 0), (new, 2.0, 5.0, 0, 0), (new, 6.0, 7.0, 0, 0),
        (plot, 20.0, 24.0, -1, unknown), (plot, 21.0, 22.0, 3, 0),
    ):
        t.layer.append(layer)
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.tag.append(tag)
    out = t.summarise()
    assert out["expr.Expr.compose.self_s"] == 6.0
    assert out["expr.Expr.new.calls"] == 2 and out["expr.Expr.new.self_s"] == 4.0
    assert out["spaces.is_plot.self_s.unknown"] == 3.0
    assert out["spaces.is_plot.self_s.constant"] == 1.0
    assert out["spaces.is_plot.unknown_ratio"] == 0.5


def test_rescale_turns_wall_time_into_reference_seconds():
    record = {"setup_s": 1.0, "verdict_s": 2.0, "requests": [["q", 4.0]],
              "layers": {"expr.Expr.new.self_s": 0.5, "expr.Expr.new.calls": 10}}
    out = run.rescale(record, 0.5)
    assert (out["setup_s"], out["verdict_s"], out["requests"]) == (0.5, 1.0, [["q", 2.0]])
    assert out["layers"] == {"expr.Expr.new.self_s": 0.25, "expr.Expr.new.calls": 10}
    assert out["wall"] == {"setup_s": 1.0, "verdict_s": 2.0}
    assert 0 < run.calibrate() < 10


def test_percentile_interpolates_between_closest_ranks():
    assert run.percentile([1.0, 2.0, 4.0, 8.0], 0.5) == 3.0
    assert run.percentile([5.0], 0.99) == 5.0
    assert run.percentile(list(range(1001)), 0.99) == 990
