"""Families of vector spaces fibered over a space, without local charts.

A bundle here is a total space whose ambient coordinates split into a
leading base block and a trailing fiber block, a projection that is a
subduction onto the base, and fiberwise addition and scaling given as
ambient rational maps.  Fibers may jump in dimension from point to
point; each one is read off exactly by substituting the base point into
the defining equations, which must then be linear in the fiber block.

Validation is symbolic where it can be: the vector-space laws are
checked with symbolic fiber coefficients at sampled base points, and
morphism identities are polynomial identities on the ambient model, not
spot checks.
"""

from __future__ import annotations

from fractions import Fraction

from .domains import Box, Domain, Point, format_point
from .expr import Expr, ExprError, ExprVec, Record
from .linalg import Matrix, affine_parts, left_null_space
from .spaces import (
    DEFAULT_BUDGET,
    AlgebraicCarrier,
    DiffSpace,
    EuclideanCarrier,
    Obstruction,
    Plot,
    ProductCarrier,
    RelationPair,
    RuleCert,
    SmoothMap,
    Verdict,
    VerdictMemo,
    all_hold,
    compose_maps,
    conjunction,
    euclidean_space,
    holds,
    identity_map,
    is_smooth,
    is_subduction,
    maps_equal_mod_relation,
    product_space,
    pullback_space,
    quotient_space,
    smooth_map,
    union_space,
    _has_quotient,
    _separating_point,
)

__all__ = [
    "PseudoBundle",
    "BundleMorphism",
    "FiberChart",
    "InvariantViolation",
    "NoInverseFound",
    "build_bundle",
    "fibered_pairs",
    "fiber_at",
    "check_morphism",
    "difference_witness",
    "invert_isomorphism",
    "zero_bundle",
    "homotopy_to_zero",
]


class InvariantViolation(Exception):
    """A bundle axiom failed; carries the check name and a witness."""

    def __init__(self, check: str, witness: str):
        super().__init__(f"{check}: {witness}")
        self.check = check
        self.witness = witness


class NoInverseFound(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class PseudoBundle(Record):
    name: str
    total: DiffSpace
    base: DiffSpace
    base_dim: int  # leading ambient coordinates of the total space
    projection: SmoothMap
    add: SmoothMap
    scale: SmoothMap
    zero: SmoothMap
    pairs: DiffSpace
    # verdict memos kept on the bundle, each a `spaces.VerdictMemo`:
    # `check_morphism` with this bundle as the source (an entry holds the
    # target bundle and the maps' spaces), and the construction checks by
    # sample_count.  `_charts` keeps `fiber_at`'s chart for each base point
    # it has charted, with no bound.  Slots, not fields, so no memo takes
    # part in equality, hashing or repr.
    __slots__ = ("_morphisms", "_validated", "_charts")

    def __post_init__(self) -> None:
        object.__setattr__(self, "_morphisms", VerdictMemo())
        object.__setattr__(self, "_validated", VerdictMemo())
        object.__setattr__(self, "_charts", {})

    @property
    def ambient_dim(self) -> int:
        return self.total.carrier.ambient_dim("")

    @property
    def fiber_block(self) -> int:
        return self.ambient_dim - self.base_dim


class BundleMorphism(Record):
    phi: SmoothMap
    varphi: SmoothMap


class FiberChart(Record):
    """The fiber over one base point: an exact affine chart of solutions."""

    basepoint: Point
    origin: Point
    basis: tuple[Point, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def embed(self, arity: int, offset: int) -> ExprVec:
        """Origin plus symbolic combination of the basis, as an ambient
        vector whose coefficients are variables offset.. offset+dim-1."""
        comps = []
        for j in range(len(self.origin)):
            acc = Expr.constant(arity, self.origin[j])
            for i, vec in enumerate(self.basis):
                if vec[j]:
                    acc = acc + Expr.constant(arity, vec[j]) * Expr.variable(
                        arity, offset + i
                    )
            comps.append(acc)
        return ExprVec(comps)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_bundle(
    name: str,
    total: DiffSpace,
    base: DiffSpace,
    add,
    scale,
    zero,
    projection=None,
    pairs_complete: bool = True,
    budget: int = DEFAULT_BUDGET,
    sample_count: int = 6,
) -> PseudoBundle:
    """Assemble and validate a bundle.

    The projection defaults to the coordinate projection onto the base
    block.  add acts on the doubled ambient space of same-fiber pairs,
    scale on a scalar prepended to the ambient space, zero embeds the
    base; all three may be given as expression texts.  The scaling checks
    run on scale's source, so a scale given as a map must act on R times
    the total space: its source's carrier is checked to be that product's.
    """
    if isinstance(scale, SmoothMap):
        if scale.source.carrier != ProductCarrier(EuclideanCarrier(1), total.carrier):
            raise ValueError(f"{name}.scale must act on R times {total.name}")
    else:
        scalars = product_space(f"R*{total.name}", euclidean_space(1), total)
        scale = smooth_map(scalars, total, scale, name=f"{name}.scale")
    n = base.carrier.ambient_dim("")
    if projection is None:
        projection = [f"x{i}" for i in range(n)]
    proj = _as_map(total, base, projection, f"{name}.proj")
    pairs = fibered_pairs(name, total, proj, n, pairs_complete)
    bundle = PseudoBundle(
        name,
        total,
        base,
        n,
        proj,
        _as_map(pairs, total, add, f"{name}.add"),
        scale,
        _as_map(base, total, zero, f"{name}.zero"),
        pairs,
    )
    verdict = _validate(bundle, budget, sample_count)
    if verdict.is_no:
        raise InvariantViolation(verdict.obstruction.kind, verdict.obstruction.detail)
    if verdict.is_unknown:
        check, _, witness = verdict.detail.partition(": ")
        raise InvariantViolation(check, witness)
    return bundle


def validate_bundle(
    bundle: PseudoBundle, budget: int = DEFAULT_BUDGET, sample_count: int = 6
) -> Verdict:
    """The construction-time checks of a built bundle: yes when all hold,
    otherwise the first refutation or the first check left open, named as
    `all_hold` names it.  The verdict is memoised on the bundle by
    sample_count and the budget rule of `spaces.VerdictMemo`, so with the
    sample count `build_bundle` used, a bundle it accepted answers yes at
    its budget and every larger one without running the checks again."""
    return _validate(bundle, budget, sample_count)


def _as_map(source: DiffSpace, target: DiffSpace, mapping, name: str) -> SmoothMap:
    if isinstance(mapping, SmoothMap):
        return mapping
    return smooth_map(source, target, mapping, name=name)


def fibered_pairs(
    name: str,
    total: DiffSpace,
    projection: SmoothMap,
    base_dim: int,
    complete: bool = True,
) -> DiffSpace:
    """The space of pairs in a common fiber, as a pullback inside the
    product of the total space with itself, generated by the total
    space's generators with their fiber parameters doubled."""
    d = total.carrier.ambient_dim("")
    eqs = list(total.carrier.equations(""))
    doubled = [eq.lift(2 * d) for eq in eqs] + [eq.lift(2 * d, d) for eq in eqs]
    _, proj_vec = projection.piece("")
    for comp in proj_vec.components:
        doubled.append(comp.lift(2 * d) - comp.lift(2 * d, d))
    carrier = AlgebraicCarrier(2 * d, tuple(doubled))
    generators = []
    for g in total.generators:
        doubled_gen = _doubled_generator(g, base_dim)
        if doubled_gen is None:
            raise ExprError(
                f"cannot synthesize pair generators for {g.to_str()}: its base "
                "and fiber blocks share parameters"
            )
        generators.append(doubled_gen)
    both = product_space(f"{total.name}^2", total, total)
    forward = (("", "", ExprVec.identity(2 * d)),)
    return pullback_space(
        f"{name}.pairs", carrier, forward, both, generators, complete
    )


def _doubled_generator(g: Plot, base_dim: int) -> Plot | None:
    """Duplicate the fiber parameters of a generator so it parametrizes
    pairs over the same base point.  Needs the base and fiber blocks to
    use disjoint parameters."""
    m = g.map.arity
    base_vars = _used_vars(g.map.components[:base_dim])
    fiber_vars = sorted(_used_vars(g.map.components[base_dim:]))
    if base_vars & set(fiber_vars):
        return None
    extra = len(fiber_vars)
    arity = m + extra
    position = {v: m + i for i, v in enumerate(fiber_vars)}
    args = [Expr.variable(arity, position.get(i, i)) for i in range(m)]
    first = g.map.lift(arity)
    second = g.map.compose(args)
    boxes = [
        Box(b.intervals + tuple(b.intervals[v] for v in fiber_vars))
        for b in g.domain.boxes
    ]
    return Plot(Domain(arity, boxes), first.concat(second))


def _used_vars(components) -> set[int]:
    used: set[int] = set()
    for comp in components:
        for table in (comp.num, comp.den):
            for exponents in table:
                used.update(i for i, e in enumerate(exponents) if e)
    return used


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _validate(bundle: PseudoBundle, budget: int, sample_count: int) -> Verdict:
    return bundle._validated.verdict(
        sample_count, budget,
        lambda: all_hold(
            "construction checks replayed", _construction_checks(bundle, budget, sample_count)
        ),
    )


def _construction_checks(bundle: PseudoBundle, budget: int, sample_count: int):
    """The construction checks in order, each run only when drawn, so a
    refutation stops the ones after it.  `fibered_pairs` pairs
    representatives, not classes, so a bundle over a quotient is never yes."""
    if _has_quotient(bundle.base.carrier) or _has_quotient(bundle.total.carrier):
        yield "fibered-product", Verdict.unknown("fibered product over a quotient not modelled")
    yield "projection-smooth", is_smooth(bundle.projection, budget)
    yield "projection-subduction", is_subduction(
        bundle.projection, budget, sections=(bundle.zero,)
    )
    yield "zero-smooth", is_smooth(bundle.zero, budget)
    yield "add-smooth", is_smooth(bundle.add, budget)
    yield "scale-smooth", is_smooth(bundle.scale, budget)

    _, proj_vec = bundle.projection.piece("")
    _, zero_vec = bundle.zero.piece("")
    yield "zero-section", _agree(
        bundle.base, proj_vec.compose(zero_vec), ExprVec.identity(bundle.base_dim), budget
    )

    _, add_vec = bundle.add.piece("")
    _, scale_vec = bundle.scale.piece("")
    d = bundle.ambient_dim

    # the fiber operations stay inside the fiber where they started
    first = ExprVec([Expr.variable(2 * d, i) for i in range(d)])
    yield "add-fiberwise", _difference_verdict(
        bundle.pairs, proj_vec.compose(add_vec), proj_vec.compose(first), budget
    )
    carried = ExprVec([Expr.variable(1 + d, 1 + i) for i in range(d)])
    yield "scale-fiberwise", _difference_verdict(
        bundle.scale.source,
        proj_vec.compose(scale_vec), proj_vec.compose(carried), budget,
    )

    try:
        failure = None
        for x in bundle.base.sample_carrier_points("", sample_count):
            bad = _chart_axioms(bundle, fiber_at(bundle, x))
            if bad:
                failure = f"at base point {format_point(x)}: {bad}"
                break
    except InvariantViolation as err:  # fiber_at: no affine chart
        yield err.check, holds(err.witness)
    else:
        yield "fiber-axioms", holds(failure)


def difference_witness(
    space: DiffSpace, lhs: ExprVec, rhs: ExprVec, budget: int
) -> str | None:
    """None when lhs and rhs agree on the carrier of space; otherwise
    `_separating_point`'s answer as text, with a carrier sample point when
    one separates the two sides."""
    found = _separating_point(lhs, rhs, (space, ""), budget)
    if found is None:
        return None
    i, pt = found
    if pt is None:
        return f"component {i} not certified equal"
    return f"component {i} differs at {format_point(pt)}"


def _difference_verdict(
    space: DiffSpace, lhs: ExprVec, rhs: ExprVec, budget: int
) -> Verdict:
    """`difference_witness` as a verdict: yes when the sides agree, no at a
    separating sample point, unknown when the difference is neither
    certified zero nor separated.  Every check reads a difference through
    here and nowhere else."""
    bad = difference_witness(space, lhs, rhs, budget)
    if bad is None:
        return Verdict.yes(None)
    if "not certified" in bad:
        return Verdict.unknown(bad)
    return holds(bad)


def _agree(space: DiffSpace, lhs: ExprVec, rhs: ExprVec, budget: int) -> Verdict:
    """Two maps out of space: equal formulas are a yes at once, and every
    other pair is read by `_difference_verdict`."""
    if lhs == rhs:
        return Verdict.yes(None)
    return _difference_verdict(space, lhs, rhs, budget)


def fiber_at(bundle: PseudoBundle, x) -> FiberChart:
    """Exact chart of the fiber over a base point.

    Substitutes the base point into the total-space equations; what is
    left must be affine in the fiber block.  The chart is kept on the
    bundle, keyed by the point; a point refused with `InvariantViolation`
    is not kept, so it is refused again on the next call.
    """
    # an int and the equal Fraction hash and compare alike, so only a miss
    # needs the point in Fractions
    x = tuple(x)
    chart = bundle._charts.get(x)
    if chart is None:
        x = tuple(Fraction(c) for c in x)
        chart = bundle._charts[x] = _fiber_chart(bundle, x)
    return chart


def _fiber_chart(bundle: PseudoBundle, x: Point) -> FiberChart:
    d, n = bundle.ambient_dim, bundle.base_dim
    k = d - n
    _, zero_vec = bundle.zero.piece("")
    origin = zero_vec.eval(x)
    rows: list[list[Fraction]] = []
    for eq in bundle.total.carrier.equations(""):
        pinned = eq.compose(
            [Expr.constant(k, c) for c in x]
            + [Expr.variable(k, j) for j in range(k)]
        )
        parts = affine_parts(ExprVec([pinned]))
        if parts is None:
            raise InvariantViolation(
                "fiber-chart", f"{eq.to_str()} is not affine over base point {format_point(x)}"
            )
        rows.append(parts.matrix[0])
        if pinned.eval(origin[n:]) != 0:
            raise InvariantViolation("fiber-chart", "zero section misses the fiber at "
                                     + format_point(x))
    if rows:
        transpose = [[rows[r][c] for r in range(len(rows))] for c in range(k)]
        kernel = left_null_space(transpose)
    else:
        kernel = [[Fraction(i == j) for j in range(k)] for i in range(k)]
    basis = tuple(
        tuple([Fraction(0)] * n) + tuple(vec) for vec in kernel
    )
    return FiberChart(x, origin, basis)


def _chart_axioms(bundle: PseudoBundle, chart: FiberChart) -> str | None:
    """Vector-space laws over one base point, with symbolic coefficients
    for three fiber vectors and two scalars."""
    k = chart.dim
    arity = 3 * k + 2
    u = chart.embed(arity, 0)
    v = chart.embed(arity, k)
    w = chart.embed(arity, 2 * k)
    lam = Expr.variable(arity, 3 * k)
    mu = Expr.variable(arity, 3 * k + 1)
    origin = ExprVec.constant(arity, chart.origin)

    _, add_vec = bundle.add.piece("")
    _, scale_vec = bundle.scale.piece("")

    def plus(a: ExprVec, b: ExprVec) -> ExprVec:
        return add_vec.compose(a.components + b.components)

    def times(s: Expr, a: ExprVec) -> ExprVec:
        return scale_vec.compose((s,) + a.components)

    total_eqs = bundle.total.carrier.equations("")
    closure = plus(u, v)
    for eq in total_eqs:
        if not eq.compose(closure.components).is_zero():
            return "sum leaves the carrier"
    if closure.slice(0, bundle.base_dim) != u.slice(0, bundle.base_dim):
        return "sum moves the base point"

    laws = [
        ("commutativity", plus(u, v), plus(v, u)),
        ("associativity", plus(plus(u, v), w), plus(u, plus(v, w))),
        ("zero is neutral", plus(u, origin), u),
        ("unit scalar", times(Expr.one(arity), u), u),
        ("zero scalar", times(Expr.zero(arity), u), origin),
        ("distributivity over vectors", times(lam, plus(u, v)), plus(times(lam, u), times(lam, v))),
        ("distributivity over scalars", times(lam + mu, u), plus(times(lam, u), times(mu, u))),
        ("scalar associativity", times(lam * mu, u), times(lam, times(mu, u))),
    ]
    for label, lhs, rhs in laws:
        if lhs != rhs:
            return label
    scaled = times(lam, u)
    for eq in total_eqs:
        if not eq.compose(scaled.components).is_zero():
            return "scaling leaves the carrier"
    return None


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


def check_morphism(
    m: BundleMorphism,
    src: PseudoBundle,
    dst: PseudoBundle,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Commuting square plus fiberwise linearity, as ambient identities.

    Memoised on the source bundle by the canonical keys of phi and varphi,
    the source and target spaces of both maps and the target bundle (all
    three by identity), in a `spaces.VerdictMemo`: by its budget rule, for
    the last MEMO_ENTRIES questions.  No verdict reads a map's name, so
    names are not in the key."""
    key = (
        m.phi.key(), m.varphi.key(), m.phi.source, m.phi.target,
        m.varphi.source, m.varphi.target, id(dst),
    )
    # the entry holds dst, so its id is not reused while the entry lives
    return src._morphisms.verdict(
        key, budget, lambda: _check_morphism_uncached(m, src, dst, budget), held=dst
    )


def _check_morphism_uncached(
    m: BundleMorphism, src: PseudoBundle, dst: PseudoBundle, budget: int
) -> Verdict:
    smooth_phi = is_smooth(m.phi, budget)
    if not smooth_phi.is_yes:
        return smooth_phi if smooth_phi.is_no else Verdict.unknown("phi not certified smooth")
    smooth_base = is_smooth(m.varphi, budget)
    if not smooth_base.is_yes:
        return smooth_base if smooth_base.is_no else Verdict.unknown("varphi not certified smooth")

    _, phi = m.phi.piece("")
    _, varphi = m.varphi.piece("")
    d = src.ambient_dim
    _, proj_src = src.projection.piece("")
    _, proj_dst = dst.projection.piece("")
    _, add_src = src.add.piece("")
    _, add_dst = dst.add.piece("")
    _, scale_src = src.scale.piece("")
    _, scale_dst = dst.scale.piece("")
    _, zero_src = src.zero.piece("")
    _, zero_dst = dst.zero.piece("")

    checks = []
    checks.append(("square", src.total, proj_dst.compose(phi), varphi.compose(proj_src)))

    pr1 = ExprVec([Expr.variable(2 * d, i) for i in range(d)])
    pr2 = ExprVec([Expr.variable(2 * d, d + i) for i in range(d)])
    phi_pair = phi.compose(pr1).concat(phi.compose(pr2))
    checks.append(
        ("additivity", src.pairs, phi.compose(add_src), add_dst.compose(phi_pair))
    )

    lam = Expr.variable(1 + d, 0)
    point = ExprVec([Expr.variable(1 + d, 1 + i) for i in range(d)])
    lifted = ExprVec([lam]).concat(phi.compose(point))
    checks.append(
        ("homogeneity", src.scale.source,
         phi.compose(scale_src), scale_dst.compose(lifted))
    )
    checks.append(("zero section", src.base, phi.compose(zero_src), zero_dst.compose(varphi)))

    verdicts = []
    for label, space, lhs, rhs in checks:
        v = _difference_verdict(space, lhs, rhs, budget)
        if v.is_no:
            return Verdict.no(
                Obstruction("morphism", detail=f"{label}: {v.obstruction.detail}")
            )
        verdicts.append(
            Verdict.yes(RuleCert(label, ())) if v.is_yes
            else Verdict.unknown(f"{label}: {v.detail}")
        )
    return conjunction("bundle-morphism", verdicts)


def invert_isomorphism(
    m: BundleMorphism,
    src: PseudoBundle,
    dst: PseudoBundle,
    budget: int = DEFAULT_BUDGET,
    supplied: BundleMorphism | None = None,
) -> BundleMorphism:
    """Invert a certified morphism, or verify a supplied inverse.

    The search splits the map into an affine base block and a fiber
    block linear over the base, and inverts both exactly; the recovered
    base inverse must agree with the zero-section restriction.
    """
    if not check_morphism(m, src, dst, budget).is_yes:
        raise NoInverseFound("the forward map is not a certified morphism")

    if supplied is None:
        supplied = _solve_inverse(m, src, dst)

    _, phi = m.phi.piece("")
    _, phi_inv = supplied.phi.piece("")
    for side, bundle, round_trip in (
        ("source", src, phi_inv.compose(phi)), ("target", dst, phi.compose(phi_inv))
    ):
        v = _difference_verdict(
            bundle.total, round_trip, ExprVec.identity(bundle.ambient_dim), budget
        )
        if v.is_no:
            raise NoInverseFound(f"inverse fails on the {side} side")
        if v.is_unknown:
            raise NoInverseFound(f"inverse not certified on the {side} side")

    # the base inverse is the candidate restricted to the zero section
    _, zero_dst = dst.zero.piece("")
    _, proj_src = src.projection.piece("")
    restricted = proj_src.compose(phi_inv.compose(zero_dst))
    _, varphi_inv = supplied.varphi.piece("")
    v = _agree(dst.base, restricted, varphi_inv, budget)
    if v.is_no:
        raise NoInverseFound("base inverse is not the zero-section restriction")
    if v.is_unknown:
        raise NoInverseFound("base inverse not certified as the zero-section restriction")

    verdict = check_morphism(supplied, dst, src, budget)
    if not verdict.is_yes:
        raise NoInverseFound("the inverse is not a certified morphism")
    return supplied


def _solve_inverse(m: BundleMorphism, src: PseudoBundle, dst: PseudoBundle) -> BundleMorphism:
    _, phi = m.phi.piece("")
    d, n = src.ambient_dim, src.base_dim
    dn = dst.base_dim
    if n != dn or d != dst.ambient_dim:
        raise NoInverseFound("source and target have different ambient shapes")
    k = d - n

    base_block = list(phi.components[:dn])
    if _used_vars(base_block) - set(range(n)):
        raise NoInverseFound("base block depends on fiber coordinates")
    parts = affine_parts(ExprVec(base_block))
    if parts is None:
        raise NoInverseFound("base block is not affine")
    dd = dst.ambient_dim
    # the fiber columns of A are zero, so the preimage of the target's base
    # coordinates exists exactly when the base block is invertible
    solved = parts.preimage([Expr.variable(dd, j) for j in range(dn)])
    if solved is None:
        raise NoInverseFound("base block is not invertible")
    base_inv = solved.particular[:n]

    # fiber block: linear over the base with an invertible coefficient matrix
    fiber_inv: list[Expr] = []
    if k:
        entries = []
        for i in range(k):
            comp = phi.components[dn + i]
            row = []
            residual = comp
            for j in range(k):
                coeff = comp.differentiate(n + j)
                if _used_vars([coeff]) - set(range(n)):
                    raise NoInverseFound("fiber block is not linear in the fiber")
                row.append(coeff)
                residual = residual - coeff * Expr.variable(d, n + j)
            if not residual.is_zero():
                raise NoInverseFound("fiber block has a nonlinear or offset term")
            entries.append(row)
        inv = Matrix(entries).try_inverse()
        if inv is None:
            witness = _collision_witness(src, phi)
            raise NoInverseFound(
                "fiber matrix is not invertible" + (f"; {witness}" if witness else "")
            )
        # express everything in the target coordinates via the base inverse
        subst = base_inv + [Expr.zero(dd)] * k
        inv_at = inv.compose(subst[:d])
        for i in range(k):
            acc = Expr.zero(dd)
            for j in range(k):
                entry = inv_at.rows[i][j]
                if not entry.is_zero():
                    acc = acc + entry * Expr.variable(dd, dn + j)
            fiber_inv.append(acc)

    phi_inv = ExprVec(base_inv + fiber_inv)
    varphi_inv = ExprVec(_trim(base_inv, dn))
    return BundleMorphism(
        smooth_map(dst.total, src.total, phi_inv, name="phi-inv"),
        smooth_map(dst.base, src.base, varphi_inv, name="varphi-inv"),
    )


def _trim(components, arity: int):
    """Reinterpret expressions using only the first `arity` variables."""
    out = []
    for comp in components:
        if _used_vars([comp]) - set(range(arity)):
            raise NoInverseFound("base inverse depends on fiber coordinates")
        args = [Expr.variable(arity, i) for i in range(arity)]
        args += [Expr.zero(arity)] * (comp.arity - arity)
        out.append(comp.compose(args))
    return out


def _collision_witness(src: PseudoBundle, phi: ExprVec) -> str:
    for x in src.base.sample_carrier_points("", 4):
        chart = fiber_at(src, x)
        if chart.dim == 0:
            continue
        a = chart.origin
        b = tuple(o + e for o, e in zip(chart.origin, chart.basis[0]))
        if phi.eval(a) == phi.eval(b):
            return "{} and {} share the image {}".format(*map(format_point, (a, b, phi.eval(a))))
    return ""


# ---------------------------------------------------------------------------
# the zero bundle and the homotopy to it
# ---------------------------------------------------------------------------


def zero_bundle(base: DiffSpace, budget: int = DEFAULT_BUDGET) -> PseudoBundle:
    """The bundle whose every fiber is the zero vector space."""
    n = base.carrier.ambient_dim("")
    first = [f"x{i}" for i in range(n)]
    return build_bundle(
        f"{base.name}.zero-bundle",
        base,
        base,
        add=[f"x{i}" for i in range(n)] if n else [],
        scale=[f"x{1 + i}" for i in range(n)],
        zero=first,
        projection=first,
        budget=budget,
        sample_count=3,
    )


def homotopy_to_zero(bundle: PseudoBundle, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Deform the bundle to the zero bundle over base x line.

    The deformation total space glues the whole bundle over parameter 0
    to the cylinder base x line along the zero section.  The verdict
    folds, with `all_hold`, the bundle structure of the result and the
    two endpoint statements: at 0 the restriction collapses back to the
    original bundle (mutually inverse smooth maps through the gluing,
    checks t0-*), at 1 it is the zero bundle on the nose (checks t1-*).
    """
    if not isinstance(bundle.base.carrier, EuclideanCarrier):
        raise ValueError("the deformation needs a vector-space base")
    E, X = bundle.total, bundle.base
    n = X.carrier.ambient_dim("")
    d = bundle.ambient_dim
    cylinder = product_space(f"{X.name}*I", X, euclidean_space(1))
    union = union_space(f"{bundle.name}.h-parts", (("e", E), ("xt", cylinder)))
    _, zero_vec = bundle.zero.piece("")
    glue = RelationPair(
        "e", zero_vec,
        "xt", ExprVec.identity(n).concat(ExprVec([Expr.zero(n)])),
        Domain.full(n),
    )
    H, _ = quotient_space(f"{bundle.name}.h", union, (glue,))
    _, proj_vec = bundle.projection.piece("")
    pi = SmoothMap(
        H, cylinder,
        (("e", "", proj_vec.concat(ExprVec([Expr.zero(d)]))),
         ("xt", "", ExprVec.identity(n + 1))),
        name="h.proj",
    )
    zero_h = SmoothMap(cylinder, H, (("", "xt", ExprVec.identity(n + 1)),), name="h.zero")

    _, section = compose_maps(pi, zero_h).piece("")
    checks = [
        ("projection-subduction", is_subduction(pi, budget, sections=(zero_h,))),
        ("zero-section", _agree(cylinder, section, ExprVec.identity(n + 1), budget)),
    ]
    checks.extend(_restriction_at_zero(bundle, budget))
    checks.extend(_restriction_at_one(bundle, pi, budget))
    return all_hold("the bundle deforms to the zero bundle", checks)


def _restriction_at_zero(bundle: PseudoBundle, budget: int) -> list[tuple[str, Verdict]]:
    """The parameter-0 slice: the glued union of the bundle and its base
    collapses onto the bundle via mutually inverse smooth maps."""
    E, X = bundle.total, bundle.base
    n, d = bundle.base_dim, bundle.ambient_dim
    _, zero_vec = bundle.zero.piece("")
    union = union_space(f"{bundle.name}.h0-parts", (("e", E), ("xt", X)))
    glue = RelationPair("e", zero_vec, "xt", ExprVec.identity(n), Domain.full(n))
    slice0, _ = quotient_space(f"{bundle.name}.h0", union, (glue,))

    into = SmoothMap(E, slice0, (("", "e", ExprVec.identity(d)),), name="h0.in")
    onto = SmoothMap(
        slice0, E,
        (("e", "", ExprVec.identity(d)), ("xt", "", zero_vec)),
        name="h0.out",
    )
    # is_smooth checks that the collapse respects the gluing
    out = [
        ("t0-inclusion-smooth", is_smooth(into, budget)),
        ("t0-collapse-smooth", is_smooth(onto, budget)),
    ]
    _, round_e = compose_maps(onto, into).piece("")
    out.append(("t0-roundtrip-on-bundle", _agree(E, round_e, ExprVec.identity(d), budget)))
    round_h = compose_maps(into, onto)
    out.append((
        "t0-roundtrip-on-slice",
        maps_equal_mod_relation(round_h, identity_map(slice0), budget),
    ))
    return out


def _restriction_at_one(
    bundle: PseudoBundle, pi: SmoothMap, budget: int
) -> list[tuple[str, Verdict]]:
    """The parameter-1 slice misses the glued copy entirely and is the
    zero bundle over the base, certified by an actual isomorphism."""
    _, e_piece = pi.piece("e")
    # the parameter coordinate of the projection is frozen at 0 on the
    # bundle part, so the slice at 1 sees only the cylinder part
    t_comp = e_piece.components[-1]
    out = [("t1-bundle-part-absent", holds(
        None if t_comp.is_constant and t_comp.constant_value() == 0
        else "the bundle part reaches parameter 1"
    ))]
    zb = zero_bundle(bundle.base, budget)
    ident = BundleMorphism(identity_map(zb.total), identity_map(zb.base))
    out.append(("t1-zero-bundle-morphism", check_morphism(ident, zb, zb, budget)))
    try:
        invert_isomorphism(ident, zb, zb, budget)
        out.append(("t1-zero-bundle-inverse", holds(None)))
    except NoInverseFound as err:
        out.append(("t1-zero-bundle-inverse", holds(err.reason)))
    return out
