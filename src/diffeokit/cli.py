"""Command line driver: run checks on named fixtures and emit reports."""

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .autgroups import exact_sequence_check, frame_bundle_check, random_frame
from .bundles import validate_bundle
from .calculus import (
    affine_structure,
    check_connection_form,
    connections_equal,
    translate,
    validate_covariant,
    validate_form,
)
from .domains import Box, Domain, Interval, format_point
from .expr import Expr, ExprError, ExprVec
from .fixtures import FixtureError, FixtureRegistry, load_registry
from .spaces import (
    DEFAULT_BUDGET,
    Plot,
    Verdict,
    is_plot,
    is_smooth,
    is_subduction,
    verify_certificate,
)
from .tangent import cone_membership

ANCHORS = {
    "axioms": "plot-family-axioms",
    "smooth": "smooth-map-membership",
    "subduction": "subduction-lifting",
    "tangent-cone": "tangent-cone-membership",
    "bundle-validate": "bundle-operations",
    "exact-sequence": "automorphism-exact-sequence",
    "frame-check": "frame-action-free-transitive",
    "forms-validate": "form-overlap-compatibility",
    "frame-model": "connection-form-equivariance",
    "connection-validate": "covariant-derivative-laws",
    "affine-check": "connection-affine-structure",
}


@dataclass(frozen=True)
class CheckResult:
    """One executed check; verdicts never coerce Unknown to pass or fail."""

    check_id: str
    anchor: str
    verdict: str
    witnesses: tuple[str, ...]
    budget: int
    elapsed: float


# ---------------------------------------------------------------------------
# verdict and witness rendering
# ---------------------------------------------------------------------------


def _describe_certificate(cert) -> str:
    kind = getattr(cert, "kind", "")
    if kind == "constant":
        return "constant at (" + ", ".join(str(v) for v in cert.point) + ")"
    if kind == "generator":
        return f"generator {cert.index}"
    if kind == "factored":
        return f"factored through generator {cert.index}"
    if kind == "glue":
        return f"glued over {len(cert.parts)} pieces"
    if kind == "rule":
        return f"rule {cert.rule}"
    if kind == "carrier":
        return "carrier membership"
    if kind == "checks":
        return cert.summary
    return "certificate"


def _describe_obstruction(ob) -> str:
    parts = [ob.kind]
    if ob.component:
        parts.append(f"component {ob.component!r}")
    if ob.point is not None:
        parts.append("at " + format_point(ob.point))
    if ob.detail:
        parts.append(ob.detail)
    return ": ".join(parts)


def _verdict_witnesses(v: Verdict) -> tuple[str, ...]:
    out = []
    if v.certificate is not None:
        out.append(_describe_certificate(v.certificate))
    if v.obstruction is not None:
        out.append(_describe_obstruction(v.obstruction))
    if v.detail:
        out.append(v.detail)
    return tuple(out)


def _from_verdict(check_id: str, anchor: str, v: Verdict, budget: int, t0: float) -> CheckResult:
    return CheckResult(
        check_id, anchor, v.status, _verdict_witnesses(v), budget, time.perf_counter() - t0
    )


def _tally(
    check_id: str, anchor: str, failures, passed, budget: int, t0: float
) -> CheckResult:
    """A check made of sub-checks.  `failures` pairs the status of each
    sub-check that did not hold ("no" or "unknown") with its witness: the
    check is no when one failed, otherwise unknown when one is still open,
    otherwise yes with the `passed` witnesses."""
    statuses = {status for status, _ in failures}
    verdict = "no" if "no" in statuses else ("unknown" if statuses else "yes")
    witnesses = tuple(text for _, text in failures) or tuple(passed)
    return CheckResult(
        check_id, anchor, verdict, witnesses, budget, time.perf_counter() - t0
    )


def _parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as err:
        raise FixtureError(f"bad point {text!r}: {err}") from err


def _fmt_point(point) -> str:
    return ",".join(str(v) for v in point)


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------


def _is_full(domain: Domain) -> bool:
    return len(domain.boxes) == 1 and all(
        iv.lo is None and iv.hi is None for iv in domain.boxes[0].intervals
    )


def _random_poly(rng: random.Random, arity: int, degree: int) -> Expr:
    total = Expr.zero(arity)
    for k in range(degree + 1):
        term = Expr.constant(arity, rng.randint(-3, 3))
        for _ in range(k):
            term = term * Expr.variable(arity, rng.randrange(arity))
        total = total + term
    if total.is_zero():
        total = Expr.constant(arity, 1)
    return total


def _axioms_checks(
    reg: FixtureRegistry, name: str, budget: int, seed: int, trials: int = 10
) -> list[CheckResult]:
    space = reg.space(name)
    rng = random.Random(f"{seed}:axioms:{name}")
    out = []

    t0 = time.perf_counter()
    failures, count = [], 0
    for gen in space.generators:
        for u in gen.domain.sample_points(2):
            value = tuple(c.eval(u) for c in gen.map.components)
            candidate = Plot(Domain.full(2), ExprVec.constant(2, value), gen.component)
            count += 1
            v = is_plot(space, candidate, budget)
            if not v.is_yes:
                failures.append(
                    (v.status, f"constant at ({_fmt_point(value)}) -> {v.status}")
                )
    out.append(
        _tally(
            f"axioms:{name}:covering", ANCHORS["axioms"], failures,
            (f"{count} constant parametrisations certified",), budget, t0,
        )
    )

    t0 = time.perf_counter()
    failures, count = [], 0
    for idx, gen in enumerate(space.generators):
        if not _is_full(gen.domain):
            continue
        n = gen.domain.dim
        for _ in range(trials):
            arity = rng.randint(1, 2)
            factor = [_random_poly(rng, arity, 3) for _ in range(n)]
            candidate = Plot(
                Domain.full(arity),
                gen.map.compose(factor),
                gen.component,
            )
            count += 1
            v = is_plot(space, candidate, budget)
            if not v.is_yes:
                factor_text = ", ".join(f.to_str() for f in factor)
                failures.append(
                    (v.status, f"generator {idx} after ({factor_text}) -> {v.status}")
                )
    out.append(
        _tally(
            f"axioms:{name}:precompose", ANCHORS["axioms"], failures,
            (f"{count} random precompositions certified",), budget, t0,
        )
    )

    t0 = time.perf_counter()
    failures, count = [], 0
    for idx, gen in enumerate(space.generators):
        n = gen.domain.dim
        sub = Domain(n, (Box(tuple(Interval(Fraction(-1), Fraction(1)) for _ in range(n))),))
        sub = sub.intersect(gen.domain)
        if sub.is_empty:
            continue
        candidate = Plot(sub, gen.map, gen.component)
        count += 1
        v = is_plot(space, candidate, budget)
        if not v.is_yes:
            failures.append((v.status, f"restriction of generator {idx} -> {v.status}"))
        elif not verify_certificate(space, candidate, v.certificate, budget):
            failures.append(
                ("no", f"restriction of generator {idx}: certificate replay failed")
            )
    out.append(
        _tally(
            f"axioms:{name}:locality", ANCHORS["axioms"], failures,
            (f"{count} restrictions certified and replayed",), budget, t0,
        )
    )
    return out


def _smooth_check(reg, name, budget) -> list[CheckResult]:
    t0 = time.perf_counter()
    v = is_smooth(reg.map(name), budget)
    return [_from_verdict(f"smooth:{name}", ANCHORS["smooth"], v, budget, t0)]


def _subduction_check(reg, name, budget) -> list[CheckResult]:
    t0 = time.perf_counter()
    v = is_subduction(reg.map(name), budget)
    return [_from_verdict(f"subduction:{name}", ANCHORS["subduction"], v, budget, t0)]


def _default_probes(dim: int) -> list[tuple[Fraction, ...]]:
    probes = []
    for i in range(dim):
        for sign in (1, -1):
            probes.append(tuple(Fraction(sign if j == i else 0) for j in range(dim)))
    if dim >= 2:
        probes.append(tuple(Fraction(1 if j < 2 else 0) for j in range(dim)))
        probes.append(
            tuple(Fraction(1 if j == 0 else (-1 if j == 1 else 0)) for j in range(dim))
        )
    return probes


def _cone_checks(reg, name, x, budget) -> list[CheckResult]:
    space = reg.space(name)
    out = []
    for v in _default_probes(len(x)):
        t0 = time.perf_counter()
        try:
            cv = cone_membership(space, x, v, budget)
        except ValueError as err:
            raise FixtureError(str(err)) from err
        witnesses = []
        if cv.germ is not None:
            witnesses.append(f"path ({', '.join(c.to_str() for c in cv.germ.path.components)})")
        if cv.obstruction is not None:
            witnesses.append(_describe_obstruction(cv.obstruction))
        if cv.detail:
            witnesses.append(cv.detail)
        out.append(
            CheckResult(
                f"tangent-cone:{name}:{_fmt_point(x)}:{_fmt_point(v)}",
                ANCHORS["tangent-cone"], cv.status, tuple(witnesses), budget,
                time.perf_counter() - t0,
            )
        )
    return out


def _bundle_check(reg, name, budget) -> list[CheckResult]:
    bundle = reg.bundle(name)
    t0 = time.perf_counter()
    v = validate_bundle(bundle, budget)
    return [_from_verdict(f"bundle-validate:{name}", ANCHORS["bundle-validate"], v, budget, t0)]


def _exact_sequence_check(reg, bundle_name, group_name, budget) -> list[CheckResult]:
    bundle = reg.bundle(bundle_name)
    group = reg.group(group_name)
    if group.bundle is not bundle:
        raise FixtureError(
            f"group {group_name!r} acts on bundle {group.bundle.name!r}, not {bundle_name!r}"
        )
    t0 = time.perf_counter()
    v = exact_sequence_check(bundle, group, budget)
    return [
        _from_verdict(
            f"exact-sequence:{bundle_name}:{group_name}", ANCHORS["exact-sequence"],
            v, budget, t0,
        )
    ]


def _frame_checks(reg, name, budget, seed) -> list[CheckResult]:
    bundle = reg.bundle(name)
    points = reg.frame_points.get(name)
    if not points:
        raise FixtureError(f"no frame base points registered for bundle {name!r}")
    rng = random.Random(f"{seed}:frame-check:{name}")
    t0 = time.perf_counter()
    pairs = []
    for x in points:
        for _ in range(10):
            pairs.append((random_frame(bundle, x, rng), random_frame(bundle, x, rng)))
    report = frame_bundle_check(bundle, pairs)
    return [
        _tally(
            f"frame-check:{name}", ANCHORS["frame-check"],
            [("no", failure) for failure in report.failures],
            (f"{report.pairs} frame pairs free and transitive",), budget, t0,
        )
    ]


def _forms_checks(reg, name, budget) -> list[CheckResult]:
    if name in reg.forms:
        fx = reg.forms[name]
        t0 = time.perf_counter()
        v = validate_form(fx.form, fx.overlaps)
        return [_from_verdict(f"forms-validate:{name}", ANCHORS["forms-validate"], v, budget, t0)]
    if name in reg.frame_models:
        fm = reg.frame_models[name]
        t0 = time.perf_counter()
        try:
            v = check_connection_form(fm.theta, fm.plots, fm.samples)
        except ValueError as err:
            raise FixtureError(str(err)) from err
        return [_from_verdict(f"forms-validate:{name}", ANCHORS["frame-model"], v, budget, t0)]
    known = ", ".join(sorted([*reg.forms, *reg.frame_models])) or "none"
    raise FixtureError(f"unknown form or frame model fixture {name!r} (available: {known})")


def _connection_checks(reg, name, budget) -> list[CheckResult]:
    fx = reg.connection(name)
    t0 = time.perf_counter()
    v = validate_covariant(fx.nabla, fx.overlaps)
    return [
        _from_verdict(
            f"connection-validate:{name}", ANCHORS["connection-validate"], v, budget, t0
        )
    ]


def _affine_checks(reg, name, budget) -> list[CheckResult]:
    fx = reg.affine_pair(name)
    t0 = time.perf_counter()
    witnesses, failures = [], []

    for label, nabla in (("first", fx.first), ("second", fx.second)):
        v = validate_covariant(nabla, fx.overlaps)
        if v.is_yes:
            witnesses.append(f"{label} connection satisfies the derivative laws")
        else:
            failures.append(
                (v.status, f"{label} connection: " + "; ".join(_verdict_witnesses(v)))
            )

    try:
        diff = affine_structure(fx.first, fx.second)
    except ValueError as err:
        raise FixtureError(str(err)) from err
    v = validate_form(diff, fx.overlaps)
    if v.is_yes:
        witnesses.append("difference is a compatible matrix-valued 1-form")
    else:
        failures.append((v.status, "difference form: " + "; ".join(_verdict_witnesses(v))))

    if connections_equal(translate(fx.second, diff), fx.first):
        witnesses.append("translating the second by the difference recovers the first")
    else:
        failures.append(("no", "translation by the difference misses the first connection"))
    back = affine_structure(fx.second, fx.first)
    if connections_equal(translate(fx.first, back), fx.second):
        witnesses.append("reverse translation recovers the second")
    else:
        failures.append(("no", "reverse translation misses the second connection"))
    return [
        _tally(
            f"affine-check:{name}", ANCHORS["affine-check"], failures, witnesses,
            budget, t0,
        )
    ]


def _all_checks(reg, budget, seed) -> list[CheckResult]:
    out = []
    for name in sorted(reg.spaces):
        out.extend(_axioms_checks(reg, name, budget, seed))
    for name in sorted(reg.maps):
        out.extend(_smooth_check(reg, name, budget))
        out.extend(_subduction_check(reg, name, budget))
    for name, points in sorted(reg.cone_points.items()):
        for x in points:
            out.extend(_cone_checks(reg, name, x, budget))
    for name in sorted(reg.bundles):
        out.extend(_bundle_check(reg, name, budget))
        if name in reg.frame_points:
            out.extend(_frame_checks(reg, name, budget, seed))
    for name in sorted(reg.groups):
        out.extend(
            _exact_sequence_check(reg, reg.groups[name].bundle.name, name, budget)
        )
    for name in sorted(reg.forms):
        out.extend(_forms_checks(reg, name, budget))
    for name in sorted(reg.frame_models):
        out.extend(_forms_checks(reg, name, budget))
    for name in sorted(reg.connections):
        out.extend(_connection_checks(reg, name, budget))
    for name in sorted(reg.affine):
        out.extend(_affine_checks(reg, name, budget))
    return out


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def render_json(fixture: str, budget: int, seed: int, checks) -> str:
    # elapsed is reported as null so reports stay byte-identical run to run
    body = {
        "fixture": fixture,
        "budget": budget,
        "seed": seed,
        "checks": [
            {
                "id": c.check_id,
                "anchor": c.anchor,
                "verdict": c.verdict,
                "witnesses": list(c.witnesses),
                "budget": c.budget,
                "elapsed": None,
            }
            for c in checks
        ],
    }
    return json.dumps(body, indent=2, ensure_ascii=False) + "\n"


def render_text(fixture: str, budget: int, seed: int, checks, timings: bool = False) -> str:
    lines = [f"fixture: {fixture}  budget: {budget}  seed: {seed}"]
    width = max((len(c.check_id) for c in checks), default=0)
    for c in checks:
        head = f"{c.verdict:<8} {c.check_id:<{width}}  [{c.anchor}]"
        if timings:
            head += f"  ({c.elapsed:.2f}s)"
        lines.append(head)
        for w in c.witnesses:
            lines.append(f"         - {w}")
    totals = {}
    for c in checks:
        totals[c.verdict] = totals.get(c.verdict, 0) + 1
    summary = ", ".join(f"{totals[k]} {k}" for k in sorted(totals))
    lines.append(f"summary: {summary or 'no checks'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="search depth for factorizations and the membership searches behind certificates",
    )
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--out", type=Path, help="write the report to this file")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    common.add_argument(
        "--strict-unknown", action="store_true",
        help="treat unknown verdicts as failures for the exit status",
    )
    common.add_argument(
        "--timings", action="store_true",
        help="include elapsed seconds in text reports (breaks byte-for-byte stability)",
    )
    common.add_argument(
        "--fixtures", action="append", default=[], metavar="FILE",
        help="extra fixture files (also searched via DIFFEO_FIXTURE_PATH)",
    )

    parser = argparse.ArgumentParser(
        prog="diffeokit",
        description="Run membership, bundle, group, and calculus checks on fixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", parents=[common], help="plot family axioms of a space")
    p.add_argument("space")
    p = sub.add_parser("smooth", parents=[common], help="smoothness of a named map")
    p.add_argument("map")
    p = sub.add_parser("subduction", parents=[common], help="subduction property of a named map")
    p.add_argument("map")
    p = sub.add_parser("tangent-cone", parents=[common], help="cone membership at a base point")
    p.add_argument("space")
    p.add_argument("point", help="rational coordinates, e.g. 0,0 or 1/2,-3")
    p = sub.add_parser("bundle-validate", parents=[common], help="bundle construction checks")
    p.add_argument("bundle")
    p = sub.add_parser(
        "exact-sequence", parents=[common], help="kernel = fiberwise linear part",
        description="Prove kernel = fiberwise linear part on every word from the generator, "
        "inverse and projection certificates. --budget bounds the membership searches "
        f"behind those certificates (never below {DEFAULT_BUDGET}), not word length.",
    )
    p.add_argument("bundle")
    p.add_argument("group")
    p = sub.add_parser("frame-check", parents=[common], help="free transitive frame action")
    p.add_argument("bundle")
    p = sub.add_parser("forms-validate", parents=[common], help="form storage and overlap compatibility")
    p.add_argument("fixture")
    p = sub.add_parser("connection-validate", parents=[common], help="covariant derivative laws")
    p.add_argument("fixture")
    p = sub.add_parser("affine-check", parents=[common], help="difference-form and translation laws")
    p.add_argument("fixture")
    sub.add_parser("all", parents=[common], help="full built-in suite")
    return parser


def _dispatch(args, reg: FixtureRegistry) -> tuple[str, list[CheckResult]]:
    budget, seed = args.budget, args.seed
    if args.command == "axioms":
        return args.space, _axioms_checks(reg, args.space, budget, seed)
    if args.command == "smooth":
        return args.map, _smooth_check(reg, args.map, budget)
    if args.command == "subduction":
        return args.map, _subduction_check(reg, args.map, budget)
    if args.command == "tangent-cone":
        x = _parse_point(args.point)
        return args.space, _cone_checks(reg, args.space, x, budget)
    if args.command == "bundle-validate":
        return args.bundle, _bundle_check(reg, args.bundle, budget)
    if args.command == "exact-sequence":
        return (
            f"{args.bundle}/{args.group}",
            _exact_sequence_check(reg, args.bundle, args.group, budget),
        )
    if args.command == "frame-check":
        return args.bundle, _frame_checks(reg, args.bundle, budget, seed)
    if args.command == "forms-validate":
        return args.fixture, _forms_checks(reg, args.fixture, budget)
    if args.command == "connection-validate":
        return args.fixture, _connection_checks(reg, args.fixture, budget)
    if args.command == "affine-check":
        return args.fixture, _affine_checks(reg, args.fixture, budget)
    return "all", _all_checks(reg, budget, seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.budget < 1:
        print("fixture error: --budget must be at least 1", file=sys.stderr)
        return 2
    try:
        reg = load_registry(args.fixtures)
        fixture, checks = _dispatch(args, reg)
    except FixtureError as err:
        print(f"fixture error: {err}", file=sys.stderr)
        return 2
    except ExprError as err:
        print(f"fixture error: {err}", file=sys.stderr)
        return 2

    checks.sort(key=lambda c: c.check_id)
    if args.format == "json":
        report = render_json(fixture, args.budget, args.seed, checks)
    else:
        report = render_text(fixture, args.budget, args.seed, checks, args.timings)
    if args.out is not None:
        try:
            args.out.write_text(report, encoding="utf-8")
        except OSError as err:
            print(f"cannot write {args.out}: {err.strerror or err}", file=sys.stderr)
            return 2
        failed_count = sum(1 for c in checks if c.verdict == "no")
        print(f"wrote {args.out} ({len(checks)} checks, {failed_count} failed)")
    else:
        sys.stdout.write(report)

    failed = any(c.verdict == "no" for c in checks)
    if args.strict_unknown:
        failed = failed or any(c.verdict == "unknown" for c in checks)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
