"""Tangent cones at points of generated spaces, via certified path germs.

A vector sits in the cone at x when some certified one-parameter plot
through x has that velocity.  Witnesses come from straight lines and
from first-order jets pushed through a generator; refutations come from
two sound obstructions that hold for arbitrary smooth germs, not just
the rational ones this package can write down:

  * initial form: write an equation's numerator as q(x + y) = q_m(y) +
    (terms of degree > m).  Along a germ in the carrier with velocity v,
    0 = q = q_m(v) t^m + O(t^(m+1)) (denominators are positive), so
    q_m(v) != 0 is impossible (Cox, Little and O'Shea, *Ideals, Varieties,
    and Algorithms*, ch. 9 sec. 7).  It is reported as a gradient test when
    m = 1 and as a vanishing order when m >= 2, in any coordinates;
  * annihilation: a germ through a generated space factors through one
    generator near 0, so coordinates the generator keeps constant must
    have zero velocity, and generators whose image misses x are out.

`cone_membership` runs the obstructions first and the witness search only
when none fires.  The order changes no verdict: a witness is a certified
plot through x with velocity v, hence a smooth germ of exactly the kind
each obstruction rules out, so the two never both succeed.  It changes the
cost, since an obstruction is one expansion per equation and the search
runs is_plot on up to LINE_STEPS lines and a jet per generator preimage.

An independent series search, `exhaustive_germ_search`, is kept for the
tests to cross-check refutations against; no check calls it.  Expanding
the defining polynomials along a path with unknown higher coefficients,
a t-coefficient up to the searched degree that is a nonzero constant
rules out every smooth germ with that velocity at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .domains import Box, Domain, Interval, Point, image_within
from .expr import Expr, ExprVec, _const, _subst_poly, _var
from .linalg import affine_parts, solve_rational
from .spaces import DEFAULT_BUDGET, DiffSpace, Obstruction, Plot, Verdict, is_plot

__all__ = [
    "PathGerm",
    "ConeVerdict",
    "cone_membership",
    "exhaustive_germ_search",
]

# radii 1, 1/2, ... of the straight-line search
LINE_STEPS = 4
# generator sample points searched for preimages of the basepoint
PREIMAGE_SAMPLES = 60


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
    n = space.carrier.ambient_dim("")
    if len(x) != n:
        raise ValueError(
            f"basepoint has {len(x)} coordinates but the carrier lies in dimension {n}"
        )
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

    # cheap obstructions first: each holds for every smooth germ, so no
    # certified germ exists when one fires (see the module docstring)
    blocked = _initial_form_obstruction(eqs, x, v) or _annihilation_obstruction(space, x, v)
    if blocked is not None:
        return ConeVerdict(v, "out", obstruction=blocked)

    germ, found = _find_germ(space, x, v, budget)
    if germ is not None:
        return ConeVerdict(v, "in", germ=germ)
    return ConeVerdict(v, "unknown", detail=(
        f"no witness and no obstruction in budget: the line search found no plot "
        f"on radii 1 to 1/{2 ** (LINE_STEPS - 1)} at budget {budget}; the jet search "
        f"found no plot through the basepoint's generator preimages ({found} from "
        f"{PREIMAGE_SAMPLES} samples per generator and the affine solves); "
        f"the gradient, vanishing-order and annihilation obstructions do not apply"
    ))


def _interval_domain(radius: Fraction) -> Domain:
    return Domain(1, [Box((Interval(-radius, radius),))])


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def _find_germ(
    space: DiffSpace, x: Point, v: Point, budget: int
) -> tuple[PathGerm | None, int]:
    """A certified germ through x with velocity v, or None, with the number
    of generator preimages of x the jet search tried."""
    line = ExprVec(
        [Expr.constant(1, a) + Expr.constant(1, b) * Expr.variable(1, 0)
         for a, b in zip(x, v)]
    )
    for exponent in range(LINE_STEPS):
        dom = _interval_domain(Fraction(1, 2**exponent))
        verdict = is_plot(space, Plot(dom, line), budget)
        if verdict.is_yes:
            return PathGerm(line, dom, x, verdict.certificate), 0

    found = 0
    for _, gen in space.component_generators(""):
        preimages = _preimages(gen, x)
        found += len(preimages)
        for u0 in preimages:
            jet = _jet_through(gen, u0, v)
            if jet is None:
                continue
            dom = _jet_domain(jet, gen.domain)
            if dom is None:
                continue
            path = gen.map.compose(jet)
            verdict = is_plot(space, Plot(dom, path), budget)
            if verdict.is_yes:
                return PathGerm(path, dom, x, verdict.certificate), found
    return None, found


def _preimages(gen: Plot, x: Point) -> list[Point]:
    """The generator's first PREIMAGE_SAMPLES sample points that map to x,
    in sample order, then the affine solve for x when the map is affine and
    that point is new."""
    hits = [u for u in gen.domain.sample_points(PREIMAGE_SAMPLES) if gen.map.eval(u) == x]
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


def _jet_domain(jet: ExprVec, target: Domain) -> Domain | None:
    for exponent in range(10):
        dom = _interval_domain(Fraction(1, 2**exponent))
        if image_within(jet, dom, target):
            return dom
    return None


# ---------------------------------------------------------------------------
# obstructions
# ---------------------------------------------------------------------------


def _initial_form_obstruction(eqs, x: Point, v: Point) -> Obstruction | None:
    """The first equation whose lowest-degree form at x is nonzero at v."""
    n = len(x)
    shifted = [{**_const(n, xi), **_var(n, i)} for i, xi in enumerate(x)]
    for eq in eqs:
        local = _subst_poly(eq.num, shifted, n)  # the numerator of eq(x + y)
        m = min(map(sum, local), default=0)  # >= 1: eq(x) = 0
        value = sum((c * math.prod(vi**e for vi, e in zip(v, mono) if e)
                     for mono, c in local.items() if sum(mono) == m), Fraction(0))
        if value and m > 1:
            return Obstruction("vanishing-order", point=x, detail=(
                f"{eq.to_str()} along the path has forced nonzero t^{m} coefficient"))
        if value:
            if not eq.is_polynomial:  # grad(num/den) = grad(num)/den where num = 0
                value /= Expr._poly(n, eq.den).eval(x)
            return Obstruction("gradient", point=x, detail=(
                f"grad({eq.to_str()}) . v = {value} along any smooth path"))
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


def exhaustive_germ_search(
    space: DiffSpace, x: Point, v, degree: int = 6
) -> Verdict:
    """Expand the defining polynomials along x + v t + sum_{k=2..degree}
    c_k t^k with unknown c_k.  The t^k coefficient for k <= degree depends
    only on the k-jet of a path, so when one is a nonzero constant no smooth
    germ with velocity v stays in the carrier: no, with a "series"
    obstruction.  Coefficients above the degree would need the jet terms
    the search leaves out, so they are not read.  Otherwise unknown:
    coefficients that involve the unknowns decide nothing, coefficients that
    all vanish only say that the straight line stays in the carrier, which
    is no certified plot, and a rational equation is skipped and named."""
    x = tuple(Fraction(c) for c in x)
    v = tuple(Fraction(c) for c in v)
    n = len(x)
    unknowns = n * max(0, degree - 1)

    def coeff_index(i: int, k: int) -> int:
        return i * (degree - 1) + (k - 2)

    series = []
    for i in range(n):
        coeffs = {0: Expr.constant(unknowns, x[i]), 1: Expr.constant(unknowns, v[i])}
        for k in range(2, degree + 1):
            coeffs[k] = Expr.variable(unknowns, coeff_index(i, k))
        series.append(coeffs)

    all_zero = True
    skipped = []
    for eq in space.carrier.equations(""):
        if not eq.is_polynomial:
            skipped.append(eq.to_str())
            continue
        expanded = _series_eval(eq, series, unknowns)
        for order in range(degree + 1):
            c = expanded.get(order)
            if c is None or c.is_zero():
                continue
            all_zero = False
            if c.is_constant:
                return Verdict.no(Obstruction(
                    "series",
                    point=x,
                    detail=(
                        f"{eq.to_str()} has t^{order} coefficient "
                        f"{c.constant_value()} along every path of degree at most {degree}"
                    ),
                ))
    if skipped:
        return Verdict.unknown(
            f"germ series search: skipped the rational equation(s) {', '.join(skipped)}; "
            f"no polynomial equation decides the path at degree cap {degree}"
        )
    if all_zero:
        return Verdict.unknown(
            f"germ series search: the straight line keeps every equation at 0 "
            f"up to t^{degree}, which certifies no plot (degree cap {degree})"
        )
    return Verdict.unknown(f"germ series search inconclusive at degree cap {degree}")


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
