"""diffeokit benchmark: one command, three seeded workloads.

    python3 bench/run.py --workload suite|membership|calculus --seed N \\
        --seconds S --trace 0|1

Load shape: a closed loop with one client.  Each worker is a fresh
interpreter (bench/worker.py) that runs one pass of the workload, so the
imports, module state and the per-space is_plot memos start cold, as they
do for every diffeokit invocation.  The next worker starts only after the
previous one has exited.  Workers are started until S seconds have passed
(at least MIN_WORKERS).

Inputs come from bench/gen.py and the seed alone; every verdict is checked
against an answer known without running the code under test (bench/known.py
and the generator).  The last line of standard output is one JSON object:
with --trace 0 it carries the end-to-end metrics of the untraced workers;
with --trace 1 untraced and traced workers alternate, and it carries the
per-layer metrics from the traced workers plus the tracing overhead (median
traced minus median untraced verdict_s).  Traced and untraced verdicts
must agree.  Exit code 2 means the benchmark could not run.

Host speed: on a shared host the same pass can take half as long again
from one minute to the next.  So the run times a fixed calibration loop,
which never touches diffeokit, just before and just after each worker, and
reports every time of that worker in reference seconds: its wall time
multiplied by REFERENCE_S / (mean calibration time around it).  A change
to diffeokit cannot move the calibration loop, so it moves these times as
it would move wall time on a host of steady speed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import known  # noqa: E402
import tracer  # noqa: E402

MIN_WORKERS = 3
RUN_LIMIT_S = 170.0  # every run ends well inside three minutes
CALIBRATION_REPS = 6  # calibration loops before and after each worker
# calibrate() on an idle 2.1 GHz Xeon vCPU under CPython 3.11: times are
# reported as they would read on that host
REFERENCE_S = 0.030

END_TO_END = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("query_ms.p50", "ms"),
    ("query_ms.p99", "ms"),
    ("peak_rss_mb", "MB"),
]
# printed for every workload, kept out of the JSON result because they are
# 0 on membership and calculus, and a gated metric must never be 0.  The
# result carries them as `failed` and `correct` instead: every error, and
# every unknown beyond known.UNKNOWN_TODAY, is counted as failed.
RATIOS = [("unknown_ratio", "ratio"), ("error_ratio", "ratio")]
OVERHEAD = ("trace.overhead_s", "s")


def percentile(values, q: float) -> float:
    """Percentile by linear interpolation between the closest ranks, so that
    a gap between neighbouring queries' latencies does not make it jump."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def expected_answers(inputs: dict) -> dict:
    if inputs["workload"] == "suite":
        return known.suite_expected(inputs["generated_check"])
    rows = inputs["queries"] if inputs["workload"] == "membership" else inputs["checks"]
    return {row["id"]: row["expect"] for row in rows}


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of the kind diffeokit runs:
    Fraction arithmetic and dict updates."""
    started = time.perf_counter()
    acc = {}
    q = Fraction(1, 3)
    for i in range(6000):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + q * (i % 11) / (1 + i % 13)
    return time.perf_counter() - started


def rescale(record: dict, scale: float) -> dict:
    """A worker's times in reference seconds: each multiplied by scale.
    The wall times stay under "wall"."""
    record["wall"] = {"setup_s": record["setup_s"], "verdict_s": record["verdict_s"]}
    record["setup_s"] *= scale
    record["verdict_s"] *= scale
    record["requests"] = [[qid, ms * scale] for qid, ms in record["requests"]]
    layers = record.get("layers", {})
    for name, unit in tracer.metric_names():
        if unit == "s" and name in layers:
            layers[name] *= scale
    return record


def spawn(workload: str, run_dir: Path, index: int, trace: bool, deadline: float) -> dict | None:
    """Run one worker to completion, its times in reference seconds; None
    when it failed."""
    around = [calibrate() for _ in range(CALIBRATION_REPS)]
    # fixture files named in the environment would change the workload
    env = {k: v for k, v in os.environ.items() if k != "DIFFEO_FIXTURE_PATH"}
    spawned = time.monotonic()
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(run_dir), str(index),
            repr(spawned), "1" if trace else "0"]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print(f"worker {index} timed out", file=sys.stderr)
        return None
    out = run_dir / f"worker-{index}.json"
    if proc.returncode != 0 or not out.is_file():
        print(f"worker {index} failed with code {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    around += [calibrate() for _ in range(CALIBRATION_REPS)]
    record = json.loads(out.read_text(encoding="utf-8"))
    record["calibration_s"] = statistics.fmean(around)
    return rescale(record, REFERENCE_S / record["calibration_s"])


def score(workers: list, expected: dict) -> tuple[int, int, int, int, list]:
    """(attempted, errors, unknowns, lost, notes) over every worker's verdicts.

    An error is a verdict that contradicts the known answer, an exception,
    a missing or unexpected check, a suite report that differs byte for
    byte from the first worker's, or a verdict that differs from the first
    worker's (traced and untraced workers must agree).  An unknown is never
    an error; it is lost when the current code decides that check.
    """
    attempted = errors = unknowns = lost = 0
    notes = []
    first = workers[0]
    for w in workers:
        got = dict(w["results"])
        attempted += len(expected)
        for qid, want in expected.items():
            status = got.get(qid, "missing")
            if known.is_lost(qid, status):
                lost += 1
                notes.append(f"{qid}: expected {want}, got unknown (a lost verdict)")
            if status == "unknown":
                unknowns += 1
            elif known.is_error(want, status):
                errors += 1
                notes.append(f"{qid}: expected {want}, got {status}")
        for qid in got.keys() - expected.keys():
            errors += 1
            notes.append(f"{qid}: unexpected check")
        if w is not first:
            if w.get("report_sha256") != first.get("report_sha256"):
                errors += 1
                notes.append("suite report differs byte for byte from the first worker's")
            if w["results"] != first["results"]:
                errors += 1
                notes.append("verdicts differ from the first worker's")
    return attempted, errors, unknowns, lost, notes


def query_latencies(workers: list) -> list:
    """Each distinct query's latency: its median over the workers, which
    all run the same queries.  Percentiles are taken over distinct queries,
    so a pause that lands on one query in one worker does not move them.
    A query is one top-level API call for membership and calculus, and one
    subcommand of `diffeokit all` (worker.command), timed by the CLI, for
    suite."""
    per_query = {}
    for w in workers:
        for qid, ms in w["requests"]:
            per_query.setdefault(qid, []).append(ms)
    return [statistics.median(v) for v in per_query.values()]


def end_to_end(workers: list) -> dict:
    queries = query_latencies(workers)
    return {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "verdict_s": statistics.median(w["verdict_s"] for w in workers),
        "query_ms.p50": percentile(queries, 0.50),
        "query_ms.p99": percentile(queries, 0.99),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }


def per_layer(traced: list, untraced: list) -> dict:
    out = {
        name: statistics.median(w["layers"][name] for w in traced)
        for name, _ in tracer.metric_names()
    }
    out[OVERHEAD[0]] = (statistics.median(w["verdict_s"] for w in traced)
                        - statistics.median(w["verdict_s"] for w in untraced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "diffeokit" / "__init__.py").is_file():
        print(f"bench: no diffeokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + args.seconds
    hard_deadline = started + RUN_LIMIT_S
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    gen.write_inputs(args.workload, args.seed, run_dir)
    inputs = json.loads((run_dir / "inputs.json").read_text(encoding="utf-8"))
    expected = expected_answers(inputs)

    workers, last = [], 0.0
    while True:
        now = time.monotonic()
        enough = len(workers) >= (MIN_WORKERS if not args.trace else 2)
        if enough and now + last > deadline:
            break
        if now + last > hard_deadline:
            break
        trace = bool(args.trace) and len(workers) % 2 == 1
        record = spawn(args.workload, run_dir, len(workers), trace, hard_deadline)
        if record is None:
            return 2
        workers.append(record)
        last = time.monotonic() - now

    untraced = [w for w in workers if not w["traced"]]
    traced = [w for w in workers if w["traced"]]
    attempted, errors, unknowns, lost, notes = score(workers, expected)
    e2e = end_to_end(untraced)
    e2e["unknown_ratio"] = unknowns / attempted
    e2e["error_ratio"] = errors / attempted

    queries = len(query_latencies(untraced))
    print(f"# workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and"
          f" {len(traced)} traced workers, closed loop, one client, a fresh process each")
    print(f"# queries: {queries} distinct, {queries - 1 - math.ceil(0.99 * (queries - 1))} beyond p99;"
          f" timings are medians over workers")
    print(f"# times in reference seconds: wall time x {REFERENCE_S * 1000:g} ms / calibration"
          f" (median {statistics.median(w['calibration_s'] for w in untraced) * 1000:.4g} ms);"
          f" median wall"
          f" setup_s {statistics.median(w['wall']['setup_s'] for w in untraced):.4g} s and"
          f" verdict_s {statistics.median(w['wall']['verdict_s'] for w in untraced):.4g} s")
    print(f"# {errors} errors and {lost} lost verdicts (unknown where the current code decides)")
    for note in notes[:20]:
        print(f"# error: {note}")
    rows = [(name, e2e[name], unit) for name, unit in END_TO_END + RATIOS]
    if args.trace:
        metrics = per_layer(traced, untraced)
        units = dict(tracer.metric_names() + [OVERHEAD])
        print(f"# {traced[0]['spans']} spans per traced worker; overhead is"
              f" {metrics[OVERHEAD[0]] / e2e['verdict_s']:.1%} of untraced verdict_s")
    else:
        metrics = {name: e2e[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    rows += [(name, value, units[name]) for name, value in metrics.items() if name not in e2e]
    for name, value, unit in rows:
        print(f"{name:<40} {value:.6g} {unit}")
    result = {
        "correct": errors + lost == 0,
        "attempted": attempted,
        "failed": errors + lost,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
