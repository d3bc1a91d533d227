"""Tangent cones at points of generated spaces, via certified path germs.

A vector sits in the cone at x when some certified one-parameter plot
through x has that velocity.  Witnesses come from straight lines and
from first-order jets pushed through a generator; refutations come from
two sound obstructions that hold for arbitrary smooth germs, not just
the rational ones this package can write down:

  * jet: expand an equation's numerator q along x + v t + sum_{k=2..K}
    c_k t^k with unknown c_k, every product cut at t^max(K, m), where
    q(x + y) = q_m(y) + (terms of degree > m).  The t^j coefficient of q
    along a smooth germ depends only on its j-jet, so for j <= K it is
    the expanded one at the germ's c_k; below t^m every coefficient is 0
    and the t^m one is q_m(v) whatever the jet.  A coefficient of order
    j <= max(K, m) that is a nonzero constant therefore rules out every
    germ in the carrier with velocity v (denominators are positive).  The
    t^m case is the initial form (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 9 sec. 7), reported as a gradient
    test when m = 1 and as a vanishing order when m >= 2, in any
    coordinates; a higher order is reported as a jet;
  * annihilation: a germ through a generated space factors through one
    generator near 0, so coordinates the generator keeps constant must
    have zero velocity, and generators whose image misses x are out.

`cone_membership` runs the initial form (K = 1) and annihilation first,
the witness search only when neither fires, and the jet rule to K =
budget only when the search has failed.  The order changes no verdict: a
witness is a certified plot through x with velocity v, hence a smooth
germ of exactly the kind each obstruction rules out, so the two never
both succeed.  It changes the cost.  The initial form is one expansion
per equation and the search runs is_plot on up to LINE_STEPS lines and a
jet per generator preimage, but the expansion to order budget carries
n (budget - 1) unknowns and costs more than the search on the probes the
search confirms.
"""

from __future__ import annotations

from fractions import Fraction

from .domains import Box, Domain, Interval, Point, image_within
from .expr import (
    Expr, ExprVec, Record, _add_into, _const, _constant_value, _is_constant, _mul, _subst_poly,
    _var,
)
from .linalg import affine_parts, solve_rational
from .spaces import (
    DEFAULT_BUDGET, DiffSpace, FactoredCert, Obstruction, Plot, is_plot, verify_certificate,
)

__all__ = [
    "PathGerm",
    "ConeVerdict",
    "cone_membership",
]

# radii 1, 1/2, ... of the straight-line search
LINE_STEPS = 4
# generator sample points searched for preimages of the basepoint
PREIMAGE_SAMPLES = 60


class PathGerm(Record):
    """A certified plot on an interval around 0 with prescribed 1-jet."""

    path: ExprVec
    domain: Domain
    basepoint: Point
    certificate: object

    def velocity(self) -> Point:
        return tuple(c.differentiate(0).eval((Fraction(0),)) for c in self.path.components)


class ConeVerdict(Record):
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
    blocked = _jet_obstruction(eqs, x, v, 1) or _annihilation_obstruction(space, x, v)
    if blocked is not None:
        return ConeVerdict(v, "out", obstruction=blocked)

    germ, found = _find_germ(space, x, v, budget)
    if germ is not None:
        return ConeVerdict(v, "in", germ=germ)
    # the expansion to order budget costs more than the search, so it runs
    # only where the search failed
    blocked = _jet_obstruction(eqs, x, v, budget)
    if blocked is not None:
        return ConeVerdict(v, "out", obstruction=blocked)
    return ConeVerdict(v, "unknown", detail=(
        f"no witness and no obstruction in budget: the line search found no plot "
        f"on radii 1 to 1/{2 ** (LINE_STEPS - 1)} at budget {budget}; the jet search "
        f"found no plot through the basepoint's generator preimages ({found} from "
        f"{PREIMAGE_SAMPLES} samples per generator and the affine solves); "
        f"the gradient, vanishing-order and annihilation obstructions do not apply, "
        f"nor the jet obstruction up to t^{budget}"
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
    of generator preimages of x the jet search tried.  A jet path gen o jet
    that `is_plot` leaves unknown is certified by the factor the search
    built, once `verify_certificate` replays it."""
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
    for idx, gen in space.component_generators(""):
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
            candidate = Plot(dom, path)
            verdict = is_plot(space, candidate, budget)
            if verdict.is_yes:
                return PathGerm(path, dom, x, verdict.certificate), found
            factored = FactoredCert(idx, jet)
            if verdict.is_unknown and verify_certificate(space, candidate, factored, budget):
                return PathGerm(path, dom, x, factored), found
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


def _jet_obstruction(eqs, x: Point, v: Point, order: int) -> Obstruction | None:
    """The first equation whose numerator, expanded along x + v t +
    sum_{k=2..order} c_k t^k with unknown c_k, has a t^j coefficient with
    j <= max(order, m) that is a nonzero constant; m is the lowest degree
    of eq(x + y), and the t^m coefficient is that form at v."""
    n = len(x)
    shifted = [{**_const(n, xi), **_var(n, i)} for i, xi in enumerate(x)]
    for eq in eqs:
        local = _subst_poly(eq.num, shifted, n)  # the numerator of eq(x + y)
        m = min(map(sum, local), default=0)  # >= 1: eq(x) = 0
        top = max(order, m)
        series = _expand(local, v, order, top)
        for j in range(m, top + 1):
            c = series.get(j)
            if not c or not _is_constant(c):
                continue
            value = _constant_value(c)
            if j > m:
                name = eq.to_str() if eq.is_polynomial else f"the numerator of {eq.to_str()}"
                return Obstruction("jet", point=x, detail=(
                    f"{name} along the path has forced t^{j} coefficient {value}"))
            if m > 1:
                return Obstruction("vanishing-order", point=x, detail=(
                    f"{eq.to_str()} along the path has forced nonzero t^{m} coefficient"))
            if not eq.is_polynomial:  # grad(num/den) = grad(num)/den where num = 0
                value /= Expr._poly(n, eq.den).eval(x)
            return Obstruction("gradient", point=x, detail=(
                f"grad({eq.to_str()}) . v = {value} along any smooth path"))
    return None


def _expand(local, v: Point, order: int, top: int) -> dict[int, dict]:
    """The polynomial local in y along y = v t + sum_{k=2..order} c_k t^k,
    as {j: t^j coefficient in the unknown c_{i,k}} for j <= top; no
    product keeps a power of t above top."""
    unknowns = len(v) * (order - 1)
    path = [
        {k: c for k, c in [(1, _const(unknowns, vi))] + [
            (k, _var(unknowns, i * (order - 1) + k - 2)) for k in range(2, order + 1)] if c}
        for i, vi in enumerate(v)
    ]
    total: dict[int, dict] = {}
    for mono, coeff in local.items():
        if sum(mono) > top:  # every y_i is O(t)
            continue
        term = {0: _const(unknowns, coeff)}
        for i, e in enumerate(mono):
            for _ in range(e):
                term = _jet_mul(term, path[i], top)
        for j, c in term.items():
            _add_into(total.setdefault(j, {}), c.items())
    return total


def _jet_mul(a: dict[int, dict], b: dict[int, dict], top: int) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if ka + kb <= top:
                _add_into(out.setdefault(ka + kb, {}), _mul(ca, cb).items())
    return {k: c for k, c in out.items() if c}


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
