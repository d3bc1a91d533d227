"""Structures on a carrier described by scalar functions instead of plots.

A function family F on a set X picks out the curves c: R -> X along which
every f in F stays smooth; those curves in turn pick out the functions
that stay smooth along every curve.  Within this package all candidate
curves and functions are rational maps with certified denominators, so
"stays smooth" is automatic and the computational content is (a) carrier
containment of curves and (b) the constant-only collapse for discrete
spaces, where the true function family is too large to list and forces
every curve to be constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .domains import Domain
from .expr import Expr, ExprError, ExprVec
from .spaces import (
    DEFAULT_BUDGET,
    Carrier,
    DiffSpace,
    Obstruction,
    Plot,
    RuleCert,
    SmoothMap,
    Verdict,
    euclidean_space,
    is_smooth,
    nonzero_sample,
    smooth_map,
)

__all__ = [
    "CurveSpace",
    "generate",
    "is_contour",
    "is_function",
    "completion",
    "compare_p1_pinfty",
    "P1PinftyReport",
    "smoothness_pair",
]


@dataclass(frozen=True)
class CurveSpace:
    """A carrier plus a finite scalar function family.

    discrete=True records that the family stands in for *all* real-valued
    functions (the case of a space whose plots are locally constant);
    then the only curves are the constant ones, which no finite list of
    rational functions could enforce by itself.
    """

    name: str
    carrier: Carrier
    functions: tuple[Expr, ...]
    discrete: bool = False
    source: DiffSpace | None = field(default=None, compare=False)

    def ambient_dim(self) -> int:
        return self.carrier.ambient_dim("")


def generate(name: str, carrier: Carrier, functions) -> CurveSpace:
    """Build the structure generated by scalar maps on the ambient space."""
    n = carrier.ambient_dim("")
    funcs = tuple(
        f if isinstance(f, Expr) else Expr.parse(f, n) for f in functions
    )
    for f in funcs:
        if f.arity != n:
            raise ExprError("generating function arity does not match carrier")
    return CurveSpace(name, carrier, funcs)


def is_contour(space: CurveSpace, path: ExprVec) -> Verdict:
    """Test a candidate curve R -> carrier.

    Every generating function composes to a certified rational function
    automatically; what can fail is the image condition (a defining
    polynomial of the carrier stays nonzero) or, for discrete spaces,
    nonconstancy.  A yes carries the pulled-back functions as the parts
    of a RuleCert "contour"; a no carries a carrier witness.
    """
    if path.arity != 1:
        raise ExprError("a contour takes a single real parameter")
    if len(path) != space.ambient_dim():
        raise ExprError("contour does not land in the ambient space")
    full = Domain.full(1)
    for eq in space.carrier.equations(""):
        residual = eq.compose(path.components)
        if residual.is_zero():
            continue
        return Verdict.no(
            Obstruction(
                "carrier",
                point=nonzero_sample([residual], full, 80),
                detail=f"{eq.to_str()} does not vanish along the curve",
            )
        )
    if space.discrete and not path.is_constant:
        return Verdict.no(
            Obstruction(
                "discrete",
                detail="every scalar function is smooth out of this space, "
                "so only constant curves compose smoothly with all of them",
            )
        )
    pulled = tuple(f.compose(path.components) for f in space.functions)
    return Verdict.yes(RuleCert("contour", pulled))


# ---------------------------------------------------------------------------
# probe curves and the dual function test
# ---------------------------------------------------------------------------


def probe_contours(space: CurveSpace, degree: int = 3) -> list[ExprVec]:
    """A finite family of accepted curves used to probe candidate
    functions: constants at carrier points plus single-coordinate
    monomial curves that survive the contour test."""
    n = space.ambient_dim()
    probes: list[ExprVec] = []
    base_points = _carrier_points(space, 3)
    for pt in base_points:
        probes.append(ExprVec.constant(1, pt))
    t = Expr.variable(1, 0)
    for pt in base_points[:1] or [tuple(Fraction(0) for _ in range(n))]:
        for axis in range(n):
            for d in range(1, degree + 1):
                comps = [Expr.constant(1, v) for v in pt]
                comps[axis] = comps[axis] + t**d
                cand = ExprVec(comps)
                if is_contour(space, cand).is_yes:
                    probes.append(cand)
    return probes


def _carrier_points(space: CurveSpace, count: int):
    eqs = space.carrier.equations("")
    out = []
    for pt in Domain.full(space.ambient_dim()).sample_points(40):
        if all(eq.eval(pt) == 0 for eq in eqs):
            out.append(pt)
            if len(out) == count:
                break
    return out


def is_function(space: CurveSpace, candidate: Expr, degree: int = 3) -> Verdict:
    """Dual test: the candidate composed with each probe curve must be a
    certified rational function of one variable.

    Within this expression language composition always succeeds, so the
    verdict is Yes by budget; the probe family is returned as evidence.
    A No would require a curve along which the candidate loses
    smoothness, which no rational candidate admits.
    """
    if candidate.arity != space.ambient_dim():
        raise ExprError("function arity does not match carrier")
    probes = probe_contours(space, degree)
    pulled = tuple(candidate.compose(c.components) for c in probes)
    return Verdict.yes(
        RuleCert("function-probe", pulled),
        detail=f"checked against {len(probes)} probe curves",
    )


# ---------------------------------------------------------------------------
# completion of a generated diffeology
# ---------------------------------------------------------------------------


def completion(space: DiffSpace, budget: int = DEFAULT_BUDGET) -> CurveSpace:
    """The finest curve/function structure through which the space's
    plots factor.

    The function family is presented by the ambient coordinate functions
    that are certified smooth out of the space.  When every generator is
    constant the space is discrete, all scalar functions are smooth out
    of it, and the completed structure keeps constants only; the probe
    presentation is then padded with coordinate powers to witness the
    breadth of the true family.
    """
    n = space.carrier.ambient_dim("")
    line = euclidean_space(1)
    funcs: list[Expr] = []
    for i in range(n):
        coord = smooth_map(space, line, ExprVec([Expr.variable(n, i)]))
        if is_smooth(coord, budget).is_yes:
            funcs.append(Expr.variable(n, i))
    discrete = bool(space.generators) and all(
        g.is_constant() for g in space.generators
    )
    if discrete:
        extra = [Expr.variable(n, i) ** d for i in range(n) for d in (2, 3)]
        funcs.extend(extra)
    return CurveSpace(
        f"{space.name}.completion",
        space.carrier,
        tuple(funcs),
        discrete=discrete,
        source=space,
    )


# ---------------------------------------------------------------------------
# single-curve versus full-family membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class P1PinftyReport:
    """Membership of a parametrisation under the two induced diffeologies:
    factorization through one curve versus pullback of all functions."""

    single_curve: Verdict
    all_functions: Verdict
    consistent: bool


def compare_p1_pinfty(
    space: CurveSpace, candidate: Plot, budget: int = DEFAULT_BUDGET
) -> P1PinftyReport:
    pinf = _all_functions_membership(space, candidate)
    p1 = _single_curve_membership(space, candidate, budget)
    # the curve-generated diffeology is never larger than the dual one
    consistent = not (p1.is_yes and pinf.is_no)
    return P1PinftyReport(p1, pinf, consistent)


def _all_functions_membership(space: CurveSpace, candidate: Plot) -> Verdict:
    for eq in space.carrier.equations(""):
        residual = eq.compose(candidate.map.components)
        if not residual.is_zero():
            return Verdict.no(
                Obstruction(
                    "carrier",
                    point=nonzero_sample([residual], candidate.domain, 80),
                    detail=f"{eq.to_str()} does not vanish on the image",
                )
            )
    if space.discrete and not candidate.is_constant():
        return Verdict.no(Obstruction("discrete"))
    return Verdict.yes(RuleCert("function-pullback", ()))


def _single_curve_membership(
    space: CurveSpace, candidate: Plot, budget: int
) -> Verdict:
    if candidate.is_constant():
        return Verdict.yes(RuleCert("constant-curve", ()))
    # c o g with g scalar: try forcing g from a coordinate of the curve,
    # as in the generator factor search
    for curve in probe_contours(space, min(budget, 3)) + _coordinate_curves(space):
        if not is_contour(space, curve).is_yes:
            continue
        factor = _solve_scalar_factor(curve, candidate.map, budget)
        if factor is None:
            continue
        if curve.compose([factor]) == candidate.map:
            return Verdict.yes(
                RuleCert("curve-factor", (curve, factor)),
                detail="factors through a single curve",
            )
    return Verdict.unknown("no single-curve factorization found within budget")


def _coordinate_curves(space: CurveSpace) -> list[ExprVec]:
    n = space.ambient_dim()
    t = Expr.variable(1, 0)
    out = []
    for axis in range(n):
        comps = [Expr.constant(1, Fraction(0)) for _ in range(n)]
        comps[axis] = t
        out.append(ExprVec(comps))
    return out


def _solve_scalar_factor(curve: ExprVec, target: ExprVec, budget: int) -> Expr | None:
    # a bare-variable coordinate of the curve pins the factor down exactly
    for i, comp in enumerate(curve.components):
        if comp == Expr.variable(1, 0):
            cand = target.components[i]
            if cand.degree() <= budget:
                return cand
    return None


# ---------------------------------------------------------------------------
# the two notions of smoothness agree on completions
# ---------------------------------------------------------------------------


def smoothness_pair(
    f: SmoothMap, budget: int = DEFAULT_BUDGET
) -> tuple[Verdict, Verdict, bool]:
    """Verdict via plots pushing forward and via functions pulling back.

    Returns (plot_verdict, curve_verdict, agree) for a map between spaces
    whose completions use ambient coordinates; the curve-side check runs
    the map over probe curves of the completed source and demands the
    composites be curves of the completed target.
    """
    plot_side = is_smooth(f, budget)
    src = completion(f.source, budget)
    dst = completion(f.target, budget)
    _, vec = f.piece("")
    bad = None
    for curve in probe_contours(src):
        verdict = is_contour(dst, vec.compose(curve))
        if verdict.is_no:
            bad = verdict
            break
    if bad is None:
        curve_side = Verdict.yes(RuleCert("curves-push-forward", ()))
    else:
        curve_side = Verdict.no(bad.obstruction)
    agree = (plot_side.is_yes and curve_side.is_yes) or (
        plot_side.is_no and curve_side.is_no
    )
    return plot_side, curve_side, agree
