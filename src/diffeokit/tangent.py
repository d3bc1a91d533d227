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

`cone_membership` runs the obstructions first and the witness search only
when none fires.  The order changes no verdict: a witness is a certified
plot through x with velocity v, hence a smooth germ of exactly the kind
each obstruction rules out, so the two never both succeed.  It changes the
cost, since an obstruction is a few evaluations and the search runs
is_plot on up to LINE_STEPS lines and a jet per generator preimage.

An independent series search, `exhaustive_germ_search`, is kept for the
tests to cross-check refutations against; no check calls it.  Expanding
the defining polynomials along a path with unknown higher coefficients,
a t-coefficient that is a nonzero constant rules out every polynomial
germ of the searched degree at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .domains import Box, Domain, Interval, Point, image_within
from .expr import Expr, ExprVec
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
# distinct generator image tables held
PREIMAGE_CACHE_SIZE = 256


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
    blocked = _linear_obstruction(eqs, x, v) or _monomial_obstruction(eqs, x, v)
    if blocked is None:
        blocked = _annihilation_obstruction(space, x, v)
    if blocked is not None:
        return ConeVerdict(v, "out", obstruction=blocked)

    germ = _find_germ(space, x, v, budget)
    if germ is not None:
        return ConeVerdict(v, "in", germ=germ)
    found = sum(len(_preimages(gen, x)) for _, gen in space.component_generators(""))
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


def _find_germ(space: DiffSpace, x: Point, v: Point, budget: int) -> PathGerm | None:
    line = ExprVec(
        [Expr.constant(1, a) + Expr.constant(1, b) * Expr.variable(1, 0)
         for a, b in zip(x, v)]
    )
    for exponent in range(LINE_STEPS):
        dom = _interval_domain(Fraction(1, 2**exponent))
        verdict = is_plot(space, Plot(dom, line), budget)
        if verdict.is_yes:
            return PathGerm(line, dom, x, verdict.certificate)

    for _, gen in space.component_generators(""):
        for u0 in _preimages(gen, x):
            jet = _jet_through(gen, u0, v)
            if jet is None:
                continue
            dom = _jet_domain(jet, gen.domain)
            if dom is None:
                continue
            path = gen.map.compose(jet)
            verdict = is_plot(space, Plot(dom, path), budget)
            if verdict.is_yes:
                return PathGerm(path, dom, x, verdict.certificate)
    return None


def _preimages(gen: Plot, x: Point) -> list[Point]:
    """The generator's sample points that map to x, in sample order, then
    the affine solve for x when the map is affine and that point is new.
    The list is the caller's own."""
    hits = list(_image_table(gen).get(x, ()))
    parts = affine_parts(gen.map)
    if parts is not None:
        solved = parts.preimage(x)
        if solved is not None and gen.domain.contains(tuple(solved)):
            u = tuple(solved)
            if u not in hits:
                hits.append(u)
    return hits


@functools.lru_cache(maxsize=PREIMAGE_CACHE_SIZE)
def _image_table(gen: Plot) -> dict[Point, tuple[Point, ...]]:
    """Each image of the generator's first PREIMAGE_SAMPLES sample points,
    with the sample points that map to it in sample order.  Read-only: the
    values are tuples, and `_preimages` copies the one it reads."""
    table: dict[Point, list[Point]] = {}
    for u in gen.domain.sample_points(PREIMAGE_SAMPLES):
        table.setdefault(gen.map.eval(u), []).append(u)
    return {x: tuple(us) for x, us in table.items()}


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


def exhaustive_germ_search(
    space: DiffSpace, x: Point, v, degree: int = 6
) -> Verdict:
    """Expand the defining polynomials along x + v t + sum_{k=2..degree}
    c_k t^k with unknown c_k.  A t-coefficient that is a nonzero constant
    rules out every such path: no, with a "series" obstruction.  Otherwise
    unknown: coefficients that involve the unknowns decide nothing, and
    coefficients that all vanish only say that the straight line stays in
    the carrier, which is no certified plot."""
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
                return Verdict.no(Obstruction(
                    "series",
                    point=x,
                    detail=(
                        f"{eq.to_str()} has t^{order} coefficient "
                        f"{c.constant_value()} along every path of degree at most {degree}"
                    ),
                ))
    if all_zero:
        return Verdict.unknown(
            f"germ series search: the straight line keeps every equation at 0, "
            f"which certifies no plot (degree cap {degree})"
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
