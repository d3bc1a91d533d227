"""Command line driver: run checks on named fixtures and emit reports."""

import argparse
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator

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
from .expr import Expr, ExprError, ExprVec, Record
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


class CheckResult(Record):
    """One executed check; verdicts never coerce Unknown to pass or fail."""

    check_id: str
    anchor: str
    verdict: str
    witnesses: tuple[str, ...]
    elapsed: float


class Run(Record):
    """What a check runner reads besides its subject."""

    reg: FixtureRegistry
    budget: int
    seed: int


# ---------------------------------------------------------------------------
# verdict and witness rendering
# ---------------------------------------------------------------------------


def _describe_certificate(cert) -> str:
    """A command's yes carries a `RuleCert` or a `ChecksCert`."""
    if cert.kind == "checks":
        return cert.summary
    return f"rule {cert.rule}"


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


def _tally(failures, passed) -> tuple[str, tuple[str, ...]]:
    """The status and witnesses of a check made of sub-checks.  `failures`
    pairs the status of each sub-check that did not hold ("no" or
    "unknown") with its witness: the check is no when one failed, otherwise
    unknown when one is still open, otherwise yes with the `passed`
    witnesses."""
    statuses = {status for status, _ in failures}
    verdict = "no" if "no" in statuses else ("unknown" if statuses else "yes")
    return verdict, tuple(text for _, text in failures) or tuple(passed)


def _parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except ValueError as err:
        raise FixtureError(f"bad point {text!r}: {err}") from err
    except ZeroDivisionError as err:
        raise FixtureError(f"bad point {text!r}: zero denominator") from err


def _fmt_point(point) -> str:
    return ",".join(str(v) for v in point)


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------


def _random_poly(rng: random.Random, arity: int, degree: int) -> Expr:
    """c_0 + c_1 m_1 + ... + c_degree m_degree, each c_k drawn from -3..3
    and m_k a product of k variables drawn one at a time, also when c_k is
    0, so the stream of draws never depends on a coefficient.  Terms of
    different degrees never meet, so each nonzero one is its own term, in
    degree order; an all-zero draw gives the constant 1."""
    terms = {}
    for k in range(degree + 1):
        coeff = rng.randint(-3, 3)
        mono = [0] * arity
        for _ in range(k):
            mono[rng.randrange(arity)] += 1
        if coeff:
            terms[tuple(mono)] = coeff
    return Expr._poly(arity, terms) if terms else Expr.constant(arity, 1)


def _constants(space):
    for gen in space.generators:
        for u in gen.domain.sample_points(2):
            value = tuple(c.eval(u) for c in gen.map.components)
            candidate = Plot(Domain.full(2), ExprVec.constant(2, value), gen.component)
            yield candidate, lambda: f"constant at ({_fmt_point(value)})"


def _precompositions(space, rng: random.Random, trials: int):
    for idx, gen in enumerate(space.generators):
        if not gen.domain.whole:
            continue
        n = gen.domain.dim
        for _ in range(trials):
            arity = rng.randint(1, 2)
            factor = [_random_poly(rng, arity, 3) for _ in range(n)]
            candidate = Plot(Domain.full(arity), gen.map.compose(factor), gen.component)
            yield candidate, lambda: (
                f"generator {idx} after ({', '.join(f.to_str() for f in factor)})"
            )


def _restrictions(space):
    for idx, gen in enumerate(space.generators):
        n = gen.domain.dim
        sub = Domain(n, (Box(tuple(Interval(Fraction(-1), Fraction(1)) for _ in range(n))),))
        sub = sub.intersect(gen.domain)
        if not sub.is_empty:
            yield Plot(sub, gen.map, gen.component), lambda: f"restriction of generator {idx}"


def _axioms_checks(run: Run, name: str, trials: int = 10):
    """One check per plot-family law: each candidate must be certified a plot,
    and under locality its certificate must replay.  A candidate's label
    function runs only on a failure, before the law's generator moves on."""
    space = run.reg.space(name)
    rng = random.Random(f"{run.seed}:axioms:{name}")
    laws = (
        ("covering", "constant parametrisations certified", _constants(space)),
        ("precompose", "random precompositions certified",
         _precompositions(space, rng, trials)),
        ("locality", "restrictions certified and replayed", _restrictions(space)),
    )
    for law, passed, candidates in laws:
        failures, count = [], 0
        for candidate, label in candidates:
            count += 1
            v = is_plot(space, candidate, run.budget)
            if not v.is_yes:
                failures.append((v.status, f"{label()} -> {v.status}"))
            elif law == "locality" and not verify_certificate(
                space, candidate, v.certificate, run.budget
            ):
                failures.append(("no", f"{label()}: certificate replay failed"))
        yield law, "plot-family-axioms", _tally(failures, (f"{count} {passed}",))


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


def _cone_checks(run: Run, name, x):
    space = run.reg.space(name)
    for v in _default_probes(len(x)):
        cv = cone_membership(space, x, v, run.budget)
        witnesses = []
        if cv.germ is not None:
            witnesses.append(f"path ({', '.join(c.to_str() for c in cv.germ.path.components)})")
        if cv.obstruction is not None:
            witnesses.append(_describe_obstruction(cv.obstruction))
        if cv.detail:
            witnesses.append(cv.detail)
        yield _fmt_point(v), "tangent-cone-membership", (cv.status, tuple(witnesses))


def _exact_sequence(run: Run, bundle_name, group_name) -> Verdict:
    bundle = run.reg.bundle(bundle_name)
    group = run.reg.group(group_name)
    if group.bundle is not bundle:
        raise FixtureError(
            f"group {group_name!r} acts on bundle {group.bundle.name!r}, not {bundle_name!r}"
        )
    return exact_sequence_check(bundle, group, run.budget)


def _connection_laws(run: Run, name) -> Verdict:
    fx = run.reg.connection(name)
    return validate_covariant(fx.nabla, fx.overlaps)


def _frame_checks(run: Run, name):
    bundle = run.reg.bundle(name)
    points = run.reg.frame_points.get(name)
    if not points:
        raise FixtureError(f"no frame base points registered for bundle {name!r}")
    rng = random.Random(f"{run.seed}:frame-check:{name}")
    pairs = [
        (random_frame(bundle, x, rng), random_frame(bundle, x, rng))
        for x in points for _ in range(10)
    ]
    report = frame_bundle_check(bundle, pairs)
    yield "", "frame-action-free-transitive", _tally(
        [("no", failure) for failure in report.failures],
        (f"{report.pairs} frame pairs free and transitive",),
    )


def _forms_checks(run: Run, name):
    """A form's overlap compatibility, or a frame model's connection-form
    equivariance: the two kinds share one namespace on the command line."""
    reg = run.reg
    if name in reg.forms:
        fx = reg.forms[name]
        yield "", "form-overlap-compatibility", validate_form(fx.form, fx.overlaps)
    elif name in reg.frame_models:
        fm = reg.frame_models[name]
        yield "", "connection-form-equivariance", check_connection_form(
            fm.theta, fm.plots, fm.samples
        )
    else:
        known = ", ".join(sorted([*reg.forms, *reg.frame_models])) or "none"
        raise FixtureError(f"unknown form or frame model fixture {name!r} (available: {known})")


def _affine_checks(run: Run, name):
    fx = run.reg.affine_pair(name)
    # each sub-check: (status, witness when it holds, witness when it does not)
    subs = []
    for label, nabla in (("first", fx.first), ("second", fx.second)):
        v = validate_covariant(nabla, fx.overlaps)
        subs.append((v.status, f"{label} connection satisfies the derivative laws",
                     f"{label} connection: " + "; ".join(_verdict_witnesses(v))))
    diff = affine_structure(fx.first, fx.second)
    v = validate_form(diff, fx.overlaps)
    subs.append((v.status, "difference is a compatible matrix-valued 1-form",
                 "difference form: " + "; ".join(_verdict_witnesses(v))))
    for holds, text, miss in (
        (connections_equal(translate(fx.second, diff), fx.first),
         "translating the second by the difference recovers the first",
         "translation by the difference misses the first connection"),
        (connections_equal(translate(fx.first, affine_structure(fx.second, fx.first)),
                           fx.second),
         "reverse translation recovers the second",
         "reverse translation misses the second connection"),
    ):
        subs.append(("yes" if holds else "no", text, miss))
    failures = [(status, miss) for status, _, miss in subs if status != "yes"]
    witnesses = [text for status, text, _ in subs if status == "yes"]
    yield "", "connection-affine-structure", _tally(failures, witnesses)


def _verdict(anchor: str, decide: Callable[..., Verdict]):
    """The runner of a command that is the one verdict `decide(run, *subject)`."""
    def runner(run: Run, *subject):
        yield "", anchor, decide(run, *subject)
    return runner


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


class Command(Record):
    """One subcommand, read by the parser, the dispatch and `all`.  `args`
    name fixtures, and the report's fixture field joins them with "/"; with
    `point_help` a base point follows them.  `all` runs the command on each
    of `subjects(reg)`.  `runner(run, *subject)` yields one (id suffix,
    anchor, outcome) per check, where the outcome is a `Verdict` or a
    (status, witnesses) pair."""

    name: str
    args: tuple[str, ...]
    help: str
    subjects: Callable[[FixtureRegistry], Iterable[tuple]]
    runner: Callable[..., Iterator[tuple[str, str, object]]]
    point_help: str | None = None
    description: str | None = None

    def run(self, run: Run, subject: tuple) -> list[CheckResult]:
        """The runner's checks.  An id joins the command's name, the subject
        and a nonempty suffix with ":"; elapsed is the time the runner took
        to yield the check, and a `Verdict` is rendered after the clock
        stops.  A `ValueError` from the library is a fixture error."""
        prefix = ":".join(
            (self.name, *(s if isinstance(s, str) else _fmt_point(s) for s in subject))
        )
        results = []
        try:
            t0 = time.perf_counter()
            for suffix, anchor, outcome in self.runner(run, *subject):
                elapsed = time.perf_counter() - t0
                if isinstance(outcome, Verdict):
                    outcome = outcome.status, _verdict_witnesses(outcome)
                check_id = f"{prefix}:{suffix}" if suffix else prefix
                results.append(CheckResult(check_id, anchor, *outcome, elapsed))
                t0 = time.perf_counter()
        except ValueError as err:
            raise FixtureError(str(err)) from err
        return results


def _each(names) -> list[tuple[str]]:
    return [(name,) for name in sorted(names)]


COMMANDS = (
    Command("axioms", ("space",), "plot family axioms of a space",
            lambda reg: _each(reg.spaces), _axioms_checks),
    Command("smooth", ("map",), "smoothness of a named map", lambda reg: _each(reg.maps),
            _verdict("smooth-map-membership",
                     lambda run, name: is_smooth(run.reg.map(name), run.budget))),
    Command("subduction", ("map",), "subduction property of a named map",
            lambda reg: _each(reg.maps),
            _verdict("subduction-lifting",
                     lambda run, name: is_subduction(run.reg.map(name), run.budget))),
    Command("tangent-cone", ("space",), "cone membership at a base point",
            lambda reg: [(name, x) for name, points in sorted(reg.cone_points.items())
                         for x in points],
            _cone_checks, point_help="rational coordinates, e.g. 0,0 or 1/2,-3"),
    Command("bundle-validate", ("bundle",), "bundle construction checks",
            lambda reg: _each(reg.bundles),
            _verdict("bundle-operations",
                     lambda run, name: validate_bundle(run.reg.bundle(name), run.budget))),
    Command("exact-sequence", ("bundle", "group"), "kernel = fiberwise linear part",
            lambda reg: [(reg.groups[name].bundle.name, name) for name in sorted(reg.groups)],
            _verdict("automorphism-exact-sequence", _exact_sequence),
            description="Prove kernel = fiberwise linear part on every word from the "
            "generator, inverse and projection certificates. --budget bounds the membership "
            f"searches behind those certificates (never below {DEFAULT_BUDGET}), not word "
            "length."),
    Command("frame-check", ("bundle",), "free transitive frame action",
            lambda reg: _each(name for name in reg.bundles if reg.frame_points.get(name)),
            _frame_checks),
    Command("forms-validate", ("fixture",), "form storage and overlap compatibility",
            lambda reg: _each([*reg.forms, *reg.frame_models]), _forms_checks),
    Command("connection-validate", ("fixture",), "covariant derivative laws",
            lambda reg: _each(reg.connections),
            _verdict("covariant-derivative-laws", _connection_laws)),
    Command("affine-check", ("fixture",), "difference-form and translation laws",
            lambda reg: _each(reg.affine), _affine_checks),
)


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
                "budget": budget,
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
    totals = Counter(c.verdict for c in checks)
    summary = ", ".join(f"{totals[k]} {k}" for k in sorted(totals))
    lines.append(f"summary: {summary or 'no checks'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _budget(text: str) -> int:
    """A --budget value: an int of at least 1, or an argument error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget", type=_budget, default=DEFAULT_BUDGET,
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
    for command in COMMANDS:
        p = sub.add_parser(
            command.name, parents=[common], help=command.help,
            description=command.description,
        )
        for arg in command.args:
            p.add_argument(arg)
        if command.point_help:
            p.add_argument("point", help=command.point_help)
    sub.add_parser("all", parents=[common], help="full built-in suite")
    return parser


def _run_command(args, reg: FixtureRegistry) -> tuple[str, list[CheckResult]]:
    """The report's fixture field and its checks."""
    run = Run(reg, args.budget, args.seed)
    if args.command == "all":
        return "all", [check for command in COMMANDS for subject in command.subjects(reg)
                       for check in command.run(run, subject)]
    command = next(c for c in COMMANDS if c.name == args.command)
    names = tuple(getattr(args, arg) for arg in command.args)
    point = (_parse_point(args.point),) if command.point_help else ()
    return "/".join(names), command.run(run, names + point)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        reg = load_registry(args.fixtures)
        fixture, checks = _run_command(args, reg)
    except (FixtureError, ExprError) as err:
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

    failing = ("no", "unknown") if args.strict_unknown else ("no",)
    return 1 if any(c.verdict in failing for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
