"""One benchmark worker: a fresh interpreter running one pass of a workload.

    python3 bench/worker.py WORKLOAD RUN_DIR INDEX SPAWNED TRACE

SPAWNED is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start, imports and the registry.  The worker writes
RUN_DIR/worker-INDEX.json with its timings, one [id, verdict] row and one
[id, ms] row per query (a subcommand of `diffeokit all` for suite), and with TRACE=1 the per-layer summary of
its spans.  Set-up ends when the fixture registry is loaded; building each
query's objects from its input text counts in that query's time.
"""

import hashlib
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import diffeokit from this checkout's src/, never from elsewhere."""
    if not (SRC / "diffeokit" / "__init__.py").is_file():
        raise SystemExit(f"worker: no diffeokit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diffeokit
    import diffeokit.cli  # noqa: F401  (imports every layer the workloads use)

    if SRC.resolve() not in Path(diffeokit.__file__).resolve().parents:
        raise SystemExit(f"worker: imported diffeokit from {diffeokit.__file__}")


# ---------------------------------------------------------------------------
# suite: `diffeokit all` through cli.main
# ---------------------------------------------------------------------------


def command(check_id: str) -> str:
    """The subcommand of `diffeokit all` that a check belongs to: the three
    axioms of a space, and the probes at one cone point, run as one command
    (`diffeokit axioms SPACE`, `diffeokit tangent-cone SPACE --point X`);
    every other check is a command of its own."""
    if check_id.split(":", 1)[0] in ("axioms", "tangent-cone"):
        return check_id.rsplit(":", 1)[0]
    return check_id


def run_suite(inputs: dict, run_dir: Path, index: int) -> dict:
    from diffeokit import cli

    marks, checks = [], []
    load, render = cli.load_registry, cli.render_json

    def load_and_mark(paths=()):
        reg = load(paths)
        marks.append(time.monotonic())
        return reg

    def render_and_keep(fixture, budget, seed, results):
        checks.extend(results)
        return render(fixture, budget, seed, results)

    cli.load_registry, cli.render_json = load_and_mark, render_and_keep
    report = run_dir / f"report-{index}.json"
    argv = [
        "all", "--budget", str(inputs["budget"]), "--format", "json",
        "--seed", str(inputs["seed"]), "--fixtures", str(run_dir / "fixture.json"),
        "--out", str(report),
    ]
    cli.main(argv)
    done = time.monotonic()
    text = report.read_bytes()
    # each command's time is the sum of its checks' times as the CLI
    # measures them (what --timings prints)
    requests = {}
    for c in checks:
        requests[command(c.check_id)] = requests.get(command(c.check_id), 0.0) + c.elapsed * 1000
    return {
        "ready": marks[0],
        "done": done,
        "results": [[c["id"], c["verdict"]] for c in json.loads(text)["checks"]],
        "requests": list(requests.items()),
        "report_sha256": hashlib.sha256(text).hexdigest(),
    }


# ---------------------------------------------------------------------------
# membership and calculus: queries through the Python API
# ---------------------------------------------------------------------------


def _domain(spec: dict):
    from diffeokit.domains import Box, Domain, Interval

    if "boxes" not in spec:
        return Domain.full(spec["dim"])
    boxes = [
        Box(tuple(Interval(Fraction(lo), Fraction(hi)) for lo, hi in box))
        for box in spec["boxes"]
    ]
    return Domain(spec["dim"], boxes)


def _timed_queries(queries, answer) -> dict:
    """Run each query; an exception is recorded as that query's verdict."""
    results, requests = [], []
    for qid, query in queries:
        t0 = time.perf_counter()
        try:
            status = answer(query)
        except Exception as err:  # a failing query must not stop the pass
            status = "error: " + "".join(traceback.format_exception_only(err)).strip()
        requests.append([qid, (time.perf_counter() - t0) * 1000])
        results.append([qid, status])
    return {"results": results, "requests": requests}


def run_membership(inputs: dict, run_dir: Path, index: int) -> dict:
    from diffeokit import fixtures, spaces, tangent
    from diffeokit.expr import ExprVec

    budget = inputs["budget"]
    reg = fixtures.load_registry()
    ready = time.monotonic()

    def answer(q: dict) -> str:
        space = reg.space(q["space"])
        if q["kind"] == "cone":
            point = tuple(Fraction(c) for c in q["point"])
            vector = tuple(Fraction(c) for c in q["vector"])
            return tangent.cone_membership(space, point, vector, budget).status
        domain = _domain(q["domain"])
        plot = spaces.Plot(domain, ExprVec.parse(q["map"], domain.dim))
        verdict = spaces.is_plot(space, plot, budget)
        if verdict.is_yes and not spaces.verify_certificate(
            space, plot, verdict.certificate, budget
        ):
            return "replay-failed"
        return verdict.status

    out = _timed_queries([(q["id"], q) for q in inputs["queries"]], answer)
    return {"ready": ready, "done": time.monotonic(), **out}


def _connection(setup: str, spec: dict, plots: dict):
    from diffeokit.calculus import covariant_derivative

    k = len(spec["fine"])
    coarse = plots[setup]["coarse"]
    assignments = [(p, [mat]) for p, mat in zip(coarse, spec["coarse"])]
    assignments.append((plots[setup]["fine"], [spec["fine"]]))
    return covariant_derivative(k, assignments)


def run_calculus(inputs: dict, run_dir: Path, index: int) -> dict:
    from diffeokit import autgroups, bundles, calculus, fixtures, spaces
    from diffeokit.domains import Domain
    from diffeokit.expr import ExprVec

    reg = fixtures.load_registry([run_dir / "fixture.json"])
    ready = time.monotonic()
    line = spaces.Plot(Domain.full(1), ExprVec.identity(1))
    cubic = ExprVec.parse(["x0^3"], 1)
    axis = reg.space("cross").generators
    plots = {
        "line": {"coarse": (line,), "fine": spaces.Plot(Domain.full(1), cubic)},
        "plane": {"coarse": (line,), "fine": spaces.Plot(Domain.full(1), cubic)},
        "cross": {
            "coarse": axis,
            "fine": spaces.Plot(axis[0].domain, axis[0].map.compose(cubic)),
        },
    }
    overlaps = {
        name: (calculus.OverlapPair(p["fine"], p["coarse"][0], cubic),)
        for name, p in plots.items()
    }
    plane = spaces.Plot(Domain.full(2), ExprVec.identity(2))
    model = reg.frame_model("frame-plane")
    seed = inputs["seed"]

    def affine(c: dict) -> str:
        rng = random.Random(f"{seed}:{c['id']}")
        pairs = overlaps[c["setup"]]
        first = _connection(c["setup"], c["first"], plots)
        second = _connection(c["setup"], c["second"], plots)
        verdicts = [
            calculus.validate_covariant(first, pairs, rng=rng, trials=1),
            calculus.validate_covariant(second, pairs, rng=rng, trials=1),
        ]
        diff = calculus.affine_structure(first, second)
        verdicts.append(calculus.validate_form(diff, pairs))
        back = calculus.affine_structure(second, first)
        if not calculus.connections_equal(calculus.translate(second, diff), first):
            return "no"
        if not calculus.connections_equal(calculus.translate(first, back), second):
            return "no"
        statuses = {v.status for v in verdicts}
        return "no" if "no" in statuses else ("unknown" if "unknown" in statuses else "yes")

    def samples(c: dict) -> list:
        return [[[Fraction(v) for v in row] for row in sample] for sample in c["samples"]]

    def answer(c: dict) -> str:
        kind = c["kind"]
        if kind == "affine":
            return affine(c)
        if kind == "dd":
            vecs = [ExprVec.parse([t], 2) for t in c["coefficients"]]
            table = {(): vecs[0]} if c["degree"] == 0 else dict(enumerate(vecs))
            form = calculus.plot_form(c["degree"], 1, [(plane, table)])
            twice = calculus.form_d(calculus.form_d(form))
            values = twice.coefficients(plane).values()
            return "zero" if all(e.is_zero() for vec in values for e in vec) else "nonzero"
        if kind == "frames":
            bundle = reg.bundle(c["bundle"])
            x = tuple(Fraction(v) for v in c["point"])
            frames = [
                (autgroups.frame(bundle, x, a), autgroups.frame(bundle, x, b))
                for a, b in c["pairs"]
            ]
            return "yes" if autgroups.frame_bundle_check(bundle, frames).ok else "no"
        if kind == "maurer-cartan":
            return calculus.check_connection_form(model.theta, model.plots, samples(c)).status
        if kind == "raw-differential":
            planted = calculus.raw_frame_differential(model.base_dim, model.dim_f)
            verdict = calculus.check_connection_form(planted, model.plots, samples(c))
            if verdict.is_no and verdict.obstruction.kind != "equivariance":
                return f"no ({verdict.obstruction.kind})"
            return verdict.status
        group = reg.group(c["group"])
        bundle = group.bundle
        morphism = (group.generators + group.inverses)[c["morphism"]]
        try:
            inverse = bundles.invert_isomorphism(morphism, bundle, bundle)
        except bundles.NoInverseFound:
            return "no"
        return bundles.check_morphism(inverse, bundle, bundle).status

    out = _timed_queries([(c["id"], c) for c in inputs["checks"]], answer)
    return {"ready": ready, "done": time.monotonic(), **out}


PASSES = {"suite": run_suite, "membership": run_membership, "calculus": run_calculus}


def main(argv) -> int:
    workload, run_dir, index, spawned, trace = argv
    run_dir, index, spawned = Path(run_dir), int(index), float(spawned)
    inputs = json.loads((run_dir / "inputs.json").read_text(encoding="utf-8"))
    import_package()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = PASSES[workload](inputs, run_dir, index)
    ready, done = out.pop("ready"), out.pop("done")
    record = {
        "setup_s": ready - spawned,
        "verdict_s": done - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traced": tracer is not None,
        **out,
    }
    if tracer is not None:
        record["layers"] = tracer.summarise()
        record["spans"] = len(tracer.layer)
        tracer.dump(run_dir / f"spans-{index}.bin")
    (run_dir / f"worker-{index}.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
