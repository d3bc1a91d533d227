"""Tangent cones at points of generated spaces, via certified path germs.

A vector sits in the cone at x when some certified one-parameter plot
through x has that velocity.  Witnesses come from straight lines and
from first-order jets pushed through a generator; refutations come from
three sound obstructions that hold for arbitrary smooth germs, not just
the rational ones this package can write down:

  * linear: a defining polynomial q forces grad q(x) . v = 0;
  * monomial: if q is a single monomial, the lowest-order t-coefficient
    of q along a path with velocity v is a product of the v_i over the
    coordinates vanishing at x, so all those v_i nonzero is impossible;
  * annihilation: a germ through a generated space factors through one
    generator near 0, so coordinates the generator keeps constant must
    have zero velocity, and generators whose image misses x are out.

An independent series search double-checks refutations: expanding the
defining polynomials along a path with unknown higher coefficients, a
t-coefficient that is a nonzero constant rules out every polynomial
germ of the searched degree at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .domains import Box, Domain, Interval, Point, image_within
from .expr import Expr, ExprVec
from .linalg import affine_parts, solve_rational
from .spaces import DEFAULT_BUDGET, DiffSpace, Obstruction, Plot, is_plot

__all__ = [
    "PathGerm",
    "ConeVerdict",
    "ConeReport",
    "GermSearchReport",
    "cone_membership",
    "cone_at",
    "exhaustive_germ_search",
    "sign_probes",
]


@dataclass(frozen=True)
class PathGerm:
    """A certified plot on an interval around 0 with prescribed 1-jet."""

    path: ExprVec
    domain: Domain
    basepoint: Point
    certificate: object

    def velocity(self) -> Point:
        return tuple(c.differentiate(0).eval((Fraction(0),)) for c in self.path.components)


@dataclass(frozen=True)
class ConeVerdict:
    vector: Point
    status: str  # "in" | "out" | "unknown"
    germ: PathGerm | None = None
    obstruction: Obstruction | None = None
    detail: str = ""

    @property
    def is_in(self) -> bool:
        return self.status == "in"

    @property
    def is_out(self) -> bool:
        return self.status == "out"


def cone_membership(
    space: DiffSpace, x: Point, v, budget: int = DEFAULT_BUDGET
) -> ConeVerdict:
    x = tuple(Fraction(c) for c in x)
    v = tuple(Fraction(c) for c in v)
    eqs = space.carrier.equations("")
    if any(eq.eval(x) != 0 for eq in eqs):
        raise ValueError("basepoint does not lie on the carrier")
    if len(v) != len(x):
        raise ValueError("vector dimension does not match the carrier")

    if all(c == 0 for c in v):
        dom = _interval_domain(Fraction(1))
        path = ExprVec.constant(1, x)
        cert = is_plot(space, Plot(dom, path), budget).certificate
        return ConeVerdict(v, "in", germ=PathGerm(path, dom, x, cert))

    germ = _find_germ(space, x, v, budget)
    if germ is not None:
        return ConeVerdict(v, "in", germ=germ)

    blocked = _linear_obstruction(eqs, x, v) or _monomial_obstruction(eqs, x, v)
    if blocked is None:
        blocked = _annihilation_obstruction(space, x, v)
    if blocked is not None:
        return ConeVerdict(v, "out", obstruction=blocked)
    return ConeVerdict(v, "unknown", detail="no witness and no obstruction in budget")


def _interval_domain(radius: Fraction) -> Domain:
    return Domain(1, [Box((Interval(-radius, radius),))])


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def _find_germ(space: DiffSpace, x: Point, v: Point, budget: int) -> PathGerm | None:
    line = ExprVec(
        [Expr.constant(1, a) + Expr.constant(1, b) * Expr.variable(1, 0)
         for a, b in zip(x, v)]
    )
    for exponent in range(4):
        dom = _interval_domain(Fraction(1, 2**exponent))
        verdict = is_plot(space, Plot(dom, line), budget)
        if verdict.is_yes:
            return PathGerm(line, dom, x, verdict.certificate)

    for _, gen in space.component_generators(""):
        for u0 in _preimages(gen, x):
            jet = _jet_through(gen, u0, v)
            if jet is None:
                continue
            dom = _jet_domain(jet, u0, gen.domain)
            if dom is None:
                continue
            path = gen.map.compose(jet)
            verdict = is_plot(space, Plot(dom, path), budget)
            if verdict.is_yes:
                return PathGerm(path, dom, x, verdict.certificate)
    return None


def _preimages(gen: Plot, x: Point, count: int = 60) -> list[Point]:
    hits = [u for u in gen.domain.sample_points(count) if gen.map.eval(u) == x]
    parts = affine_parts(gen.map)
    if parts is not None:
        solved = parts.preimage(x)
        if solved is not None and gen.domain.contains(tuple(solved)):
            u = tuple(solved)
            if u not in hits:
                hits.append(u)
    return hits


def _jet_through(gen: Plot, u0: Point, v: Point) -> ExprVec | None:
    """An affine curve u0 + t*u1 in the generator domain with
    d/dt gen(u0 + t*u1) |_0 = v, found by one exact linear solve."""
    jac = [[entry.eval(u0) for entry in row] for row in gen.map.jacobian()]
    u1 = solve_rational(jac, list(v))
    if u1 is None:
        return None
    t = Expr.variable(1, 0)
    return ExprVec(
        [Expr.constant(1, a) + Expr.constant(1, b) * t for a, b in zip(u0, u1)]
    )


def _jet_domain(jet: ExprVec, u0: Point, target: Domain) -> Domain | None:
    for exponent in range(10):
        dom = _interval_domain(Fraction(1, 2**exponent))
        if image_within(jet, dom, target):
            return dom
    return None


# ---------------------------------------------------------------------------
# obstructions
# ---------------------------------------------------------------------------


def _linear_obstruction(eqs, x: Point, v: Point) -> Obstruction | None:
    for eq in eqs:
        pairing = sum(
            (eq.differentiate(i).eval(x) * vi for i, vi in enumerate(v)),
            Fraction(0),
        )
        if pairing != 0:
            return Obstruction(
                "gradient",
                point=x,
                detail=f"grad({eq.to_str()}) . v = {pairing} along any smooth path",
            )
    return None


def _monomial_obstruction(eqs, x: Point, v: Point) -> Obstruction | None:
    for eq in eqs:
        if not eq.is_polynomial or len(eq.num) != 1:
            continue
        exponents = next(iter(eq.num))
        zero_support = [
            i for i, e in enumerate(exponents) if e > 0 and x[i] == 0
        ]
        if zero_support and all(v[i] != 0 for i in zero_support):
            order = sum(exponents[i] for i in zero_support)
            return Obstruction(
                "vanishing-order",
                point=x,
                detail=(
                    f"{eq.to_str()} along the path has forced nonzero "
                    f"t^{order} coefficient"
                ),
            )
    return None


def _annihilation_obstruction(space: DiffSpace, x: Point, v: Point) -> Obstruction | None:
    # sound only when plots are exactly the generated closure of the family
    if space.provenance[0] != "generated" or not space.generators_complete:
        return None
    if space.carrier.components() != ("",):
        return None
    reasons = []
    for idx, gen in space.component_generators(""):
        reason = _generator_blocks(gen, x, v)
        if reason is None:
            return None
        reasons.append(f"generator {idx}: {reason}")
    if not reasons:
        # no generators at all: only constant plots, and v is nonzero here
        reasons.append("only constant plots exist")
    return Obstruction("annihilation", point=x, detail="; ".join(reasons))


def _generator_blocks(gen: Plot, x: Point, v: Point) -> str | None:
    for i, comp in enumerate(gen.map.components):
        if comp.is_constant:
            value = comp.constant_value()
            if value != x[i]:
                return f"image has coordinate {i} pinned to {value}"
            if v[i] != 0:
                return f"coordinate {i} is constant along it but v[{i}] != 0"
    parts = affine_parts(gen.map)
    if parts is not None and any(parts.residuals(x)):
        return "affine image misses the basepoint"
    return None


# ---------------------------------------------------------------------------
# independent series search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GermSearchReport:
    """Outcome of the unknown-coefficient expansion up to a path degree.

    refuted: some t-coefficient of a defining polynomial is a nonzero
    constant, so no polynomial path of that degree (or any other, when
    the coefficient involves no unknowns) can stay in the carrier.
    witness: every coefficient vanishes identically; the straight line
    itself works.  inconclusive: coefficients involve the unknowns.
    """

    status: str  # "refuted" | "witness" | "inconclusive"
    equation: str = ""
    order: int | None = None
    value: Fraction | None = None


def exhaustive_germ_search(
    space: DiffSpace, x: Point, v, degree: int = 6
) -> GermSearchReport:
    x = tuple(Fraction(c) for c in x)
    v = tuple(Fraction(c) for c in v)
    n = len(x)
    unknowns = n * max(0, degree - 1)

    def coeff_index(i: int, k: int) -> int:
        return i * (degree - 1) + (k - 2)

    # path_i(t) = x_i + v_i t + sum_{k=2..degree} c_{i,k} t^k
    series = []
    for i in range(n):
        coeffs = {0: Expr.constant(unknowns, x[i]), 1: Expr.constant(unknowns, v[i])}
        for k in range(2, degree + 1):
            coeffs[k] = Expr.variable(unknowns, coeff_index(i, k))
        series.append(coeffs)

    all_zero = True
    for eq in space.carrier.equations(""):
        if not eq.is_polynomial:
            continue
        expanded = _series_eval(eq, series, unknowns)
        for order in sorted(expanded):
            c = expanded[order]
            if c.is_zero():
                continue
            all_zero = False
            if c.is_constant:
                return GermSearchReport(
                    "refuted", equation=eq.to_str(), order=order,
                    value=c.constant_value(),
                )
    if all_zero:
        return GermSearchReport("witness")
    return GermSearchReport("inconclusive")


def _series_eval(eq: Expr, series, unknowns: int) -> dict[int, Expr]:
    total: dict[int, Expr] = {}
    for exponents, coeff in eq.num.items():
        term = {0: Expr.constant(unknowns, coeff)}
        for i, e in enumerate(exponents):
            for _ in range(e):
                term = _series_mul(term, series[i])
        total = _series_add(total, term)
    return total


def _series_add(a: dict[int, Expr], b: dict[int, Expr]) -> dict[int, Expr]:
    out = dict(a)
    for k, val in b.items():
        out[k] = out[k] + val if k in out else val
    return out


def _series_mul(a: dict[int, Expr], b: dict[int, Expr]) -> dict[int, Expr]:
    out: dict[int, Expr] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            prod = va * vb
            out[k] = out[k] + prod if k in out else prod
    return out


# ---------------------------------------------------------------------------
# cone descriptions over a probe set
# ---------------------------------------------------------------------------


def sign_probes(dim: int) -> list[Point]:
    """All nonzero sign-pattern vectors over {-1, 0, 1}, in grid order."""
    probes = []
    for combo in itertools.product((-1, 0, 1), repeat=dim):
        if any(combo):
            probes.append(tuple(Fraction(c) for c in combo))
    return probes


@dataclass(frozen=True)
class ConeReport:
    basepoint: Point
    verdicts: tuple[ConeVerdict, ...]
    scaling_ok: bool

    def status_of(self, vector) -> str:
        wanted = tuple(Fraction(c) for c in vector)
        for v in self.verdicts:
            if v.vector == wanted:
                return v.status
        raise KeyError(f"probe {vector} was not tested")


def cone_at(
    space: DiffSpace,
    x: Point,
    probes=None,
    budget: int = DEFAULT_BUDGET,
    scales=(Fraction(1, 2), Fraction(3)),
) -> ConeReport:
    x = tuple(Fraction(c) for c in x)
    if probes is None:
        probes = sign_probes(space.carrier.ambient_dim(""))
    verdicts = []
    scaling_ok = True
    for probe in probes:
        verdict = cone_membership(space, x, probe, budget)
        verdicts.append(verdict)
        if verdict.is_in:
            # positive rescaling must stay in the cone: rerun on lambda*v
            for lam in scales:
                scaled = tuple(lam * c for c in verdict.vector)
                if not cone_membership(space, x, scaled, budget).is_in:
                    scaling_ok = False
    return ConeReport(x, tuple(verdicts), scaling_ok)
