"""Spaces of plots with certificate-producing membership checks.

A space is a carrier (a subset of some R^n, possibly a tagged disjoint
union or a quotient) together with a family of generating plots.  The
membership question "is this map a plot?" gets a three-valued answer:

* yes, with a certificate that replays (constant, equal to a generator,
  factored through a generator, glued from pieces, or built by the rule
  that constructed the space);
* no, with a finite obstruction (a sample point off the carrier, a
  discreteness argument, or image equations no generator can satisfy);
* unknown, when the search at the given degree budget is inconclusive.

Soundness notes used throughout: candidate maps are rational with
globally nonvanishing denominators, hence analytic on all of R^n.  A
nonzero such function cannot vanish on an open box, so identities checked
symbolically hold on every box iff they hold globally, and per-box
constancy equals global constancy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .domains import Box, Domain, image_within
from .expr import Expr, ExprError, ExprVec
from .linalg import AffineParts, affine_parts, rank, solve_rational

Point = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------


class Carrier:
    """Base class; a carrier names components and their ambient equations."""

    def components(self) -> tuple[str, ...]:
        raise NotImplementedError

    def ambient_dim(self, component: str = "") -> int:
        raise NotImplementedError

    def equations(self, component: str = "") -> tuple[Expr, ...]:
        raise NotImplementedError

    def contains_point(self, point: Point, component: str = "") -> bool:
        if len(point) != self.ambient_dim(component):
            return False
        return all(eq.eval(point) == 0 for eq in self.equations(component))


@dataclass(frozen=True)
class EuclideanCarrier(Carrier):
    dim: int

    def components(self) -> tuple[str, ...]:
        return ("",)

    def ambient_dim(self, component: str = "") -> int:
        return self.dim

    def equations(self, component: str = "") -> tuple[Expr, ...]:
        return ()


@dataclass(frozen=True)
class AlgebraicCarrier(Carrier):
    """Zero set of polynomial equations inside R^dim."""

    dim: int
    eqs: tuple[Expr, ...]

    def components(self) -> tuple[str, ...]:
        return ("",)

    def ambient_dim(self, component: str = "") -> int:
        return self.dim

    def equations(self, component: str = "") -> tuple[Expr, ...]:
        return self.eqs


@dataclass(frozen=True)
class ProductCarrier(Carrier):
    left: Carrier
    right: Carrier

    def components(self) -> tuple[str, ...]:
        return ("",)

    def ambient_dim(self, component: str = "") -> int:
        return self.left.ambient_dim("") + self.right.ambient_dim("")

    def equations(self, component: str = "") -> tuple[Expr, ...]:
        n_l = self.left.ambient_dim("")
        n = self.ambient_dim("")
        out = [eq.lift(n) for eq in self.left.equations("")]
        out += [eq.lift(n, n_l) for eq in self.right.equations("")]
        return tuple(out)


@dataclass(frozen=True)
class UnionCarrier(Carrier):
    """Tagged disjoint union; plots stay in one tag per connected piece."""

    parts: tuple[tuple[str, Carrier], ...]

    def components(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.parts)

    def part(self, component: str) -> Carrier:
        for tag, carrier in self.parts:
            if tag == component:
                return carrier
        raise KeyError(component)

    def ambient_dim(self, component: str = "") -> int:
        return self.part(component).ambient_dim("")

    def equations(self, component: str = "") -> tuple[Expr, ...]:
        return self.part(component).equations("")


@dataclass(frozen=True)
class RelationPair:
    """One generating identification: left(u) ~ right(u) for u in domain."""

    left_component: str
    left_map: ExprVec
    right_component: str
    right_map: ExprVec
    domain: Domain


@dataclass(frozen=True)
class QuotientCarrier(Carrier):
    """Base carrier with points identified by generated relation pairs."""

    base: Carrier
    relations: tuple[RelationPair, ...]

    def components(self) -> tuple[str, ...]:
        return self.base.components()

    def ambient_dim(self, component: str = "") -> int:
        return self.base.ambient_dim(component)

    def equations(self, component: str = "") -> tuple[Expr, ...]:
        return self.base.equations(component)


# ---------------------------------------------------------------------------
# plots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plot:
    """A candidate or generating plot: a rational map on a box domain.

    The map lands in the ambient coordinates of one carrier component.
    """

    domain: Domain
    map: ExprVec
    component: str = ""

    def __post_init__(self):
        if self.map.arity != self.domain.dim:
            raise ExprError("plot map arity does not match its domain")

    @property
    def dim(self) -> int:
        return self.domain.dim

    def key(self):
        return (self.component, self.domain, self.map.canonical_key())

    def restrict(self, domain: Domain) -> "Plot":
        return Plot(domain, self.map, self.component)

    def is_constant(self) -> bool:
        return self.map.is_constant

    def constant_point(self) -> Point:
        return self.map.constant_point()

    def to_str(self) -> str:
        tag = f"[{self.component}] " if self.component else ""
        return f"{tag}{self.map.to_str()} on {self.domain.to_str()}"


def plot(domain: Domain, texts: Sequence[str] | ExprVec, component: str = "") -> Plot:
    if isinstance(texts, ExprVec):
        return Plot(domain, texts, component)
    return Plot(domain, ExprVec.parse(texts, domain.dim), component)


# ---------------------------------------------------------------------------
# certificates and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantCert:
    component: str
    point: Point

    kind = "constant"


@dataclass(frozen=True)
class GeneratorCert:
    index: int

    kind = "generator"


@dataclass(frozen=True)
class FactoredCert:
    """plot = generators[index] o factor on the plot's whole domain."""

    index: int
    factor: ExprVec

    kind = "factored"


@dataclass(frozen=True)
class GlueCert:
    """Certificates on subdomains that cover the plot's domain."""

    parts: tuple[tuple[Domain, object], ...]

    kind = "glue"


@dataclass(frozen=True)
class RuleCert:
    """Certificate following the construction of the space."""

    rule: str
    parts: tuple = ()

    kind = "rule"


@dataclass(frozen=True)
class CarrierCert:
    """For spaces carrying the full diffeology of their carrier: landing
    in the carrier is the whole proof."""

    kind = "carrier"


@dataclass(frozen=True)
class ChecksCert:
    """Evidence from named sub-checks that all hold; the summary says what
    they establish together."""

    summary: str
    parts: tuple[tuple[str, object], ...]

    kind = "checks"


@dataclass(frozen=True)
class Obstruction:
    kind: str
    component: str = ""
    point: Point | None = None
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "unknown"
    certificate: object = None
    obstruction: Obstruction | None = None
    detail: str = ""

    @staticmethod
    def yes(certificate, detail: str = "") -> "Verdict":
        return Verdict("yes", certificate=certificate, detail=detail)

    @staticmethod
    def no(obstruction: Obstruction, detail: str = "") -> "Verdict":
        return Verdict("no", obstruction=obstruction, detail=detail)

    @staticmethod
    def unknown(detail: str = "") -> "Verdict":
        return Verdict("unknown", detail=detail)

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"

    @property
    def is_no(self) -> bool:
        return self.status == "no"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


def conjunction(rule: str, verdicts: Sequence[Verdict]) -> Verdict:
    """All must hold; the first refutation wins, unknowns dominate yes."""
    for v in verdicts:
        if v.is_no:
            return v
    if all(v.is_yes for v in verdicts):
        return Verdict.yes(RuleCert(rule, tuple(v.certificate for v in verdicts)))
    pending = next(v for v in verdicts if v.is_unknown)
    return Verdict.unknown(pending.detail or f"{rule}: subcheck inconclusive")


def all_hold(summary: str, checks: Iterable[tuple[str, Verdict]]) -> Verdict:
    """Named sub-checks folded by `conjunction`, drawn until the first
    refutation.  A no carries the failed sub-check's name as its
    obstruction kind; an unknown carries it before ': ' in its detail."""
    names, verdicts = [], []
    for name, v in checks:
        if v.is_no:
            ob = v.obstruction
            v = Verdict.no(Obstruction(name, ob.component, ob.point, ob.detail or v.detail))
        elif v.is_unknown:
            v = Verdict.unknown(f"{name}: {v.detail or 'not certified'}")
        names.append(name)
        verdicts.append(v)
        if v.is_no:
            break
    folded = conjunction(summary, verdicts)
    if not folded.is_yes:
        return folded
    return Verdict.yes(ChecksCert(summary, tuple(zip(names, folded.certificate.parts))))


def holds(failure: str | None) -> Verdict:
    """The verdict of a direct check that reports None or what failed."""
    if failure is None:
        return Verdict.yes(None)
    return Verdict.no(Obstruction("failure", detail=failure))


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


DEFAULT_BUDGET = 4


class DiffSpace:
    """A carrier with a generating family of plots.

    standard=True means the diffeology is the full one induced from the
    ambient Euclidean space: every rational map landing in the carrier is
    a plot.  generators_complete records whether the declared generators
    exhaust the diffeology (within the rational fragment); smoothness
    checks on maps out of the space lean on that flag.

    provenance is ("generated",), ("quotient", base) or ("initial", rule,
    parts), where parts pairs each target with a structure map's pieces.
    """

    def __init__(
        self,
        name: str,
        carrier: Carrier,
        generators: Sequence[Plot] = (),
        provenance: tuple = ("generated",),
        standard: bool = False,
        generators_complete: bool = True,
    ):
        self.name = name
        self.carrier = carrier
        self.generators = tuple(generators)
        self.provenance = provenance
        self.standard = standard
        self.generators_complete = generators_complete
        self._memo: dict = {}
        self._carrier_samples: dict[tuple[str, int], tuple[Point, ...]] = {}
        for g in self.generators:
            if g.component not in carrier.components():
                raise ExprError(f"generator component {g.component!r} not in carrier")
            if len(g.map) != carrier.ambient_dim(g.component):
                raise ExprError("generator does not match ambient dimension")

    def __repr__(self) -> str:
        return f"DiffSpace({self.name!r})"

    def component_generators(self, component: str) -> list[tuple[int, Plot]]:
        return [(i, g) for i, g in enumerate(self.generators) if g.component == component]

    def sample_carrier_points(self, component: str = "", count: int = 12) -> list[Point]:
        """Points guaranteed to lie on the carrier, via generator images.

        Memoised per space by (component, count); each call gets its own list."""
        key = (component, count)
        points = self._carrier_samples.get(key)
        if points is None:
            points = self._carrier_samples[key] = tuple(self._carrier_points(component, count))
        return list(points)

    def _carrier_points(self, component: str, count: int) -> list[Point]:
        """`sample_carrier_points` without the memo."""
        eqs = self.carrier.equations(component)
        out: list[Point] = []
        seen: set[Point] = set()
        if not eqs:
            for p in Domain.full(self.carrier.ambient_dim(component)).sample_points(count):
                if p not in seen:
                    seen.add(p)
                    out.append(p)
            return out[:count]
        for _, g in self.component_generators(component):
            for u in g.domain.sample_points(max(2, count // max(1, len(self.generators)))):
                p = g.map.eval(u)
                if p not in seen:
                    seen.add(p)
                    out.append(p)
        return out[:count]


# ---------------------------------------------------------------------------
# membership engine
# ---------------------------------------------------------------------------


def is_plot(space: DiffSpace, candidate: Plot, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide membership of the candidate in the space's diffeology."""
    key = candidate.key()
    for stored_budget, verdict in space._memo.get(key, ()):
        if not verdict.is_unknown and stored_budget <= budget:
            return verdict
        if verdict.is_unknown and stored_budget >= budget:
            return verdict
    verdict = _is_plot_uncached(space, candidate, budget)
    space._memo.setdefault(key, []).append((budget, verdict))
    return verdict


def _is_plot_uncached(space: DiffSpace, candidate: Plot, budget: int) -> Verdict:
    carrier = space.carrier
    if candidate.component not in carrier.components():
        return Verdict.no(
            Obstruction("component", detail=f"no component {candidate.component!r}")
        )
    if len(candidate.map) != carrier.ambient_dim(candidate.component):
        return Verdict.no(
            Obstruction("shape", detail="map does not match ambient dimension")
        )
    if candidate.domain.is_empty:
        return Verdict.yes(GlueCert(()), detail="empty domain")

    bad = _carrier_violation(carrier, candidate)
    if bad is not None:
        return Verdict.no(bad)

    if candidate.is_constant():
        return Verdict.yes(
            ConstantCert(candidate.component, candidate.constant_point())
        )

    if space.standard:
        return Verdict.yes(CarrierCert())
    kind = space.provenance[0]
    if kind == "initial":
        _, rule, parts = space.provenance
        verdicts = []
        for target, pieces in parts:
            composed = _apply_pieces(pieces, candidate)
            if composed is None:
                return Verdict.no(
                    Obstruction("component", component=candidate.component,
                                detail=f"{rule} structure map undefined on this component")
                )
            verdicts.append(is_plot(target, composed, budget))
        return conjunction(rule, verdicts)
    if kind == "quotient":
        return _quotient_membership(space, candidate, budget)
    return _generated_membership(space, candidate, budget)


Pieces = tuple[tuple[str, str, ExprVec], ...]


def _apply_pieces(pieces: Pieces, candidate: Plot) -> Plot | None:
    for src, dst, vec in pieces:
        if src == candidate.component:
            return Plot(
                candidate.domain, vec.compose(candidate.map.components), dst
            )
    return None


def _carrier_violation(carrier: Carrier, candidate: Plot) -> Obstruction | None:
    """None when the map lands in the carrier; otherwise a sample witness.

    Symbolic vanishing on a box equals global vanishing for our maps, so
    composing the equations decides containment outright.
    """
    eqs = carrier.equations(candidate.component)
    for eq in eqs:
        residual = eq.compose(candidate.map.components)
        if residual.is_zero():
            continue
        point = nonzero_sample([residual], candidate.domain, 120)
        return Obstruction(
            "carrier",
            component=candidate.component,
            point=point,
            detail=f"carrier equation {eq.to_str()} fails",
        )
    return None


def nonzero_sample(residuals: Sequence[Expr], domain: Domain, count: int) -> Point | None:
    """The first of `count` sample points of the domain where no residual
    vanishes."""
    for pt in domain.sample_points(count):
        if all(r.eval(pt) != 0 for r in residuals):
            return pt
    return None


# -- factoring through generators -------------------------------------------


def _generated_membership(space: DiffSpace, candidate: Plot, budget: int) -> Verdict:
    gens = space.component_generators(candidate.component)

    whole = _exact_generator_match(gens, candidate)
    if whole is not None:
        return Verdict.yes(whole)

    pieces: list[tuple[Domain, object]] = []
    stuck_boxes: list[Box] = []
    for box in candidate.domain.boxes:
        cert = _factor_over_box(gens, candidate, box, budget)
        if cert is None:
            stuck_boxes.append(box)
        else:
            pieces.append((Domain(candidate.domain.dim, (box,)), cert))

    if not stuck_boxes:
        if len(pieces) == 1 and pieces[0][0].same_set(candidate.domain):
            return Verdict.yes(pieces[0][1])
        return Verdict.yes(GlueCert(tuple(pieces)))

    refutation = _refute_generated(space, gens, candidate, budget)
    if refutation is not None:
        return refutation
    return Verdict.unknown(
        f"no factorization through {len(gens)} generator(s) found at budget {budget}"
    )


def _exact_generator_match(
    gens: Sequence[tuple[int, Plot]], candidate: Plot
) -> GeneratorCert | None:
    for idx, g in gens:
        if (
            g.map.arity == candidate.map.arity
            and g.map == candidate.map
            and g.domain.covers(candidate.domain)
        ):
            return GeneratorCert(idx)
    return None


def _factor_over_box(
    gens: Sequence[tuple[int, Plot]], candidate: Plot, box: Box, budget: int
) -> object | None:
    domain = Domain(box.dim, (box,))
    restricted = candidate.restrict(domain)
    for idx, g in gens:
        factor = _factor_through(g, restricted, budget)
        if factor is not None:
            return FactoredCert(idx, factor)
    return None


def _factor_through(gen: Plot, candidate: Plot, budget: int) -> ExprVec | None:
    """Find smooth F with candidate = gen o F on the candidate's domain."""
    parts = affine_parts(gen.map)
    if parts is not None:
        return _factor_affine(parts, gen, candidate, budget)
    return _factor_forced(gen, candidate, budget)


def _factor_affine(
    parts: AffineParts, gen: Plot, candidate: Plot, budget: int
) -> ExprVec | None:
    arity = candidate.map.arity
    sol = parts.preimage(candidate.map.components)
    if sol is None:
        return None
    base = ExprVec(tuple(sol.particular))
    if base.degree() > budget:
        return None
    candidates = [base]
    # shift along the null space to pull the image into the generator's
    # domain: aim the factor at sampled anchor points of that domain
    if sol.null_basis:
        candidates.extend(
            _null_shift_candidates(sol, gen.domain, candidate.domain, arity)
        )
    for cand in candidates:
        if image_within(cand, candidate.domain, gen.domain):
            if _compose_matches(gen.map, cand, candidate.map):
                return cand
    return None


def _null_shift_candidates(
    sol, gen_domain: Domain, candidate_domain: Domain, arity: int
) -> list[ExprVec]:
    out = []
    base_pts = candidate_domain.sample_points(1)
    if not base_pts:
        return out
    x0 = base_pts[0]
    value0 = [e.eval(x0) for e in sol.particular]
    k = len(sol.particular)
    mat = [[col[i] for col in sol.null_basis] for i in range(k)]
    for anchor in gen_domain.sample_points(3):
        rhs = [anchor[i] - value0[i] for i in range(k)]
        coeffs = solve_rational(mat, rhs)
        if coeffs is None:
            continue
        shifted = [
            e + Expr.constant(
                arity, sum(c * col[i] for c, col in zip(coeffs, sol.null_basis))
            )
            for i, e in enumerate(sol.particular)
        ]
        out.append(ExprVec(tuple(shifted)))
    return out


def _compose_matches(gen_map: ExprVec, factor: ExprVec, target: ExprVec) -> bool:
    try:
        composed = gen_map.compose(factor.components)
    except ExprError:
        return False
    return composed == target


def _factor_forced(gen: Plot, candidate: Plot, budget: int) -> ExprVec | None:
    """Nonaffine generator: coordinate components force the factor.

    When the generator exposes each of its variables as some coordinate
    (graph-style parametrizations), the factor is read off and verified.
    """
    k = gen.map.arity
    forced: list[Expr | None] = [None] * k
    for gi, comp in enumerate(gen.map.components):
        if not comp.is_polynomial or comp.degree() != 1:
            continue
        terms = comp.num
        if len(terms) != 1:
            continue
        (mono, coeff), = terms.items()
        if coeff != 1 or sum(mono) != 1:
            continue
        var = mono.index(1)
        if forced[var] is None:
            forced[var] = candidate.map.components[gi]
    if any(f is None for f in forced):
        return None
    factor = ExprVec(tuple(forced))
    if factor.degree() > budget:
        return None
    if not image_within(factor, candidate.domain, gen.domain):
        return None
    if _compose_matches(gen.map, factor, candidate.map):
        return factor
    return None


# -- refutations -------------------------------------------------------------


def _refute_generated(
    space: DiffSpace,
    gens: Sequence[tuple[int, Plot]],
    candidate: Plot,
    budget: int,
) -> Verdict | None:
    # discreteness: only constant generators, nonconstant candidate
    if all(g.is_constant() for _, g in gens):
        return Verdict.no(
            Obstruction(
                "discrete",
                component=candidate.component,
                detail="all generators are constant but the candidate is not",
            ),
            detail="nonconstant map into a discretely generated space",
        )
    # affine image equations: the candidate must take values in the union
    # of the generators' affine images; a sample point missing all of them
    # refutes every local factorization at once
    per_gen_residuals: list[list[Expr]] = []
    for _, g in gens:
        parts = affine_parts(g.map)
        if parts is None:
            return None  # a nonaffine generator blocks this refutation
        nonzero = [r for r in parts.residuals(candidate.map.components) if not r.is_zero()]
        if not nonzero:
            return None  # candidate lies in this generator's affine image
        per_gen_residuals.append(nonzero)
    # one nonzero residual per generator suffices; find a common witness
    for box in candidate.domain.boxes:
        dom = Domain(box.dim, (box,))
        picks = [res[0] for res in per_gen_residuals]
        point = nonzero_sample(picks, dom, 200)
        if point is not None:
            return Verdict.no(
                Obstruction(
                    "image",
                    component=candidate.component,
                    point=point,
                    detail="value lies outside every generator's affine image",
                ),
                detail="no generator image contains the candidate's values",
            )
    return None


# -- quotients ----------------------------------------------------------------


def _relation_rewrites(space: DiffSpace):
    """Rewriting moves induced by the relation pairs.

    Returns (moves, complete).  A move takes a representative map and
    returns (rewritten map | None, lossless).  lossless=True with None
    means the move provably has nothing to contribute for that map (off
    the source image except on a thin set, where a rational map cannot
    differ).  complete is False when some relation pair could not be
    turned into moves at all, so refutations must back off to unknown.
    """
    carrier = space.carrier
    if not isinstance(carrier, QuotientCarrier):
        return [], True
    moves = []
    complete = True
    for rel in carrier.relations:
        pair_moves, pair_complete = _moves_from_pair(rel)
        moves.extend(pair_moves)
        complete = complete and pair_complete
    return moves, complete


def _moves_from_pair(rel: RelationPair):
    """Turn left(u) ~ right(u) into substitution moves.

    Needs each side affine and injective in the parameters (rank equal to
    the arity): then a map landing in that side's image determines u
    exactly, and the move sends it to the other side's map of u.
    """
    moves = []
    complete = True
    for src_comp, src_map, dst_comp, dst_map in (
        (rel.left_component, rel.left_map, rel.right_component, rel.right_map),
        (rel.right_component, rel.right_map, rel.left_component, rel.left_map),
    ):
        parts = affine_parts(src_map)
        # an arity-0 side has no parameters to solve for
        if parts is None or src_map.arity == 0 or rank(parts.matrix) < src_map.arity:
            complete = False
            continue

        def move(vec: ExprVec, parts=parts, dst=dst_map, dom=rel.domain):
            sol = parts.preimage(vec.components)
            if sol is None:
                # the map misses the source image except on a thin set; a
                # rational map equal to it off that set is it
                return None, True
            u = ExprVec(sol.particular)
            if not image_within(u, Domain.full(vec.arity), dom):
                return None, False
            try:
                return dst.compose(u.components), True
            except ExprError:
                return None, False

        moves.append((src_comp, dst_comp, move))
    return moves, complete


def _rewrite_closure(moves, component: str, vec: ExprVec, depth_cap: int):
    """Breadth-first closure of one representative under the relation
    moves, at most depth_cap rewrites deep.

    Yields each distinct representative as (component, map) the moment it
    is found: the given one first, then level by level, each level in the
    order its moves reach it.  A caller that stops at the first hit never
    pays for the rewrites after it.  When drained, the generator returns
    (as StopIteration.value) whether the closure is exhaustive: False when
    a move could not decide a representative, or when the cap cut the
    search off with rewrites still flowing.
    """
    seen = {(component, vec.canonical_key())}
    yield component, vec
    frontier = [(component, vec)]
    complete = True
    for _ in range(depth_cap):
        nxt = []
        for comp, cur in frontier:
            for src, dst, move in moves:
                if src != comp:
                    continue
                got, lossless = move(cur)
                if got is None:
                    complete = complete and lossless
                    continue
                key = (dst, got.canonical_key())
                if key not in seen:
                    seen.add(key)
                    nxt.append((dst, got))
                    yield dst, got
        if not nxt:
            return complete
        frontier = nxt
    return False


def _quotient_membership(space: DiffSpace, candidate: Plot, budget: int) -> Verdict:
    """Test each representative against the base as the rewrite closure
    reaches it; the closure is finished only when no representative lifts."""
    base: DiffSpace = space.provenance[1]
    moves, complete = _relation_rewrites(space)
    closure = _rewrite_closure(moves, candidate.component, candidate.map, budget)
    tried = unknowns = 0
    while True:
        try:
            comp, vec = next(closure)
        except StopIteration as end:
            complete = complete and end.value
            break
        tried += 1
        sub = is_plot(base, Plot(candidate.domain, vec, comp), budget)
        if sub.is_yes:
            return Verdict.yes(
                RuleCert("quotient", (comp, vec, sub.certificate)),
                detail="a representative lifts to the base space",
            )
        if sub.is_unknown:
            unknowns += 1
    if unknowns == 0 and complete:
        return Verdict.no(
            Obstruction(
                "quotient",
                component=candidate.component,
                detail="no equivalent representative lifts to the base space",
            ),
            detail=f"all {tried} representative(s) refuted",
        )
    return Verdict.unknown(f"quotient rewrites inconclusive at depth cap {budget}")


# ---------------------------------------------------------------------------
# smooth maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothMap:
    """A map between spaces, given per source component in ambient form."""

    source: DiffSpace
    target: DiffSpace
    pieces: tuple[tuple[str, str, ExprVec], ...]  # (src comp, dst comp, map)
    name: str = ""

    def piece(self, component: str = "") -> tuple[str, ExprVec]:
        for src, dst, vec in self.pieces:
            if src == component:
                return dst, vec
        raise KeyError(component)

    def compose_plot(self, p: Plot) -> Plot:
        dst, vec = self.piece(p.component)
        return Plot(p.domain, vec.compose(p.map.components), dst)

    def key(self):
        return tuple(
            (src, dst, vec.canonical_key()) for src, dst, vec in self.pieces
        )

    def to_str(self) -> str:
        body = "; ".join(
            (f"{src or '.'}->{dst or '.'}: " if (src or dst) else "") + vec.to_str()
            for src, dst, vec in self.pieces
        )
        return f"{self.name or 'map'}({body})"


def smooth_map(
    source: DiffSpace,
    target: DiffSpace,
    mapping: Sequence[str] | ExprVec | Mapping[str, tuple[str, Sequence[str] | ExprVec]],
    name: str = "",
) -> SmoothMap:
    """Build a map; single-component spaces may give just the formula."""
    if isinstance(mapping, Mapping):
        pieces = []
        for src, (dst, vec) in mapping.items():
            arity = source.carrier.ambient_dim(src)
            if not isinstance(vec, ExprVec):
                vec = ExprVec.parse(vec, arity)
            pieces.append((src, dst, vec))
        return SmoothMap(source, target, tuple(pieces), name)
    arity = source.carrier.ambient_dim("")
    if not isinstance(mapping, ExprVec):
        mapping = ExprVec.parse(mapping, arity)
    return SmoothMap(source, target, (("", "", mapping),), name)


def compose_maps(outer: SmoothMap, inner: SmoothMap, name: str = "") -> SmoothMap:
    pieces = []
    for src, mid, vec in inner.pieces:
        dst, outer_vec = outer.piece(mid)
        pieces.append((src, dst, outer_vec.compose(vec.components)))
    return SmoothMap(inner.source, outer.target, tuple(pieces), name)


def identity_map(space: DiffSpace, name: str = "id") -> SmoothMap:
    pieces = []
    for comp in space.carrier.components():
        n = space.carrier.ambient_dim(comp)
        pieces.append((comp, comp, ExprVec.identity(n)))
    return SmoothMap(space, space, tuple(pieces), name)


def is_smooth(f: SmoothMap, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Is f a smooth map of spaces?

    Refutation path: a source carrier point whose image violates the
    target carrier kills smoothness via a constant plot.  Yes paths: for
    standard targets, target equations must vanish on the source carrier
    (checked symbolically, with a bounded-degree multiplier search); for
    generated targets, composites with a complete generator family must
    all be plots.
    """
    bad = _map_carrier_violation(f)
    if bad is not None:
        return Verdict.no(bad)

    if f.target.standard:
        verdicts = []
        for src, dst, vec in f.pieces:
            eqs = f.target.carrier.equations(dst)
            ok = True
            for eq in eqs:
                composed = eq.compose(vec.components)
                if composed.is_zero():
                    continue
                if not vanishes_on_carrier(f.source, composed, src, budget):
                    ok = False
                    break
            if ok:
                verdicts.append(Verdict.yes(RuleCert("carrier-map", (src,))))
            else:
                verdicts.append(
                    Verdict.unknown(
                        "target equations not certified to vanish on the source"
                    )
                )
        return conjunction("smooth", verdicts)

    if not f.source.generators_complete:
        return Verdict.unknown(
            "source generators are not known to exhaust the diffeology"
        )
    if not f.source.generators:
        return Verdict.yes(RuleCert("smooth", ()), detail="no generators to check")
    verdicts = []
    for g in f.source.generators:
        composed = f.compose_plot(g)
        sub = is_plot(f.target, composed, budget)
        if sub.is_no:
            return Verdict.no(
                sub.obstruction,
                detail=f"composite with generator {g.to_str()} is not a plot",
            )
        verdicts.append(sub)
    return conjunction("smooth", verdicts)


def _map_carrier_violation(f: SmoothMap) -> Obstruction | None:
    for src, dst, vec in f.pieces:
        eqs = f.target.carrier.equations(dst)
        if not eqs:
            continue
        for pt in f.source.sample_carrier_points(src, 24):
            image = vec.eval(pt)
            if not f.target.carrier.contains_point(image, dst):
                return Obstruction(
                    "point-image",
                    component=src,
                    point=pt,
                    detail="a carrier point maps off the target carrier",
                )
    return None


def maps_equal(f: SmoothMap, g: SmoothMap) -> bool:
    return f.key() == g.key()


def maps_equal_mod_relation(f: SmoothMap, g: SmoothMap, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Equality of maps into a quotient target, up to relation rewrites: no
    only when every rewrite closure is complete and misses the other map."""
    moves, complete = _relation_rewrites(f.target)
    pending = ""
    for src, dst, vec in f.pieces:
        try:
            dst_g, vec_g = g.piece(src)
        except KeyError:
            return Verdict.no(Obstruction("component", component=src))
        closure = _rewrite_closure(moves, dst, vec, budget)
        try:
            while next(closure) != (dst_g, vec_g):
                pass
        except StopIteration as end:
            if complete and end.value:
                return Verdict.no(Obstruction("rewrite", src, detail="no rewrite meets the other map"))
            pending = pending or f"quotient rewrites from {src!r}: depth cap {budget} hit or a move undecided"
    return Verdict.unknown(pending) if pending else Verdict.yes(None)


# ---------------------------------------------------------------------------
# vanishing on a carrier (bounded-degree multiplier search)
# ---------------------------------------------------------------------------


def monomials_up_to(arity: int, degree: int):
    """Exponent tuples of total degree at most `degree`, lowest degree first."""
    if arity == 0:
        yield ()
        return
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(arity), total):
            mono = [0] * arity
            for i in combo:
                mono[i] += 1
            yield tuple(mono)


def vanishes_on_carrier(
    space: DiffSpace, value: Expr, component: str = "", budget: int = DEFAULT_BUDGET
) -> bool:
    """Certify that a polynomial expression vanishes on the carrier.

    True when value = sum h_i * eq_i with polynomial multipliers of degree
    at most the budget (found by an exact sparse linear solve).  False
    means not certified, not a refutation; callers pair this with point
    sampling for the No direction.
    """
    if value.is_zero():
        return True
    if not value.is_polynomial:
        # clear the certified denominator: value vanishes iff its numerator does
        value = Expr(value.arity, dict(value.num))
    eqs = [eq for eq in space.carrier.equations(component) if not eq.is_zero()]
    if not eqs:
        return False
    arity = value.arity
    min_eq_degree = min(eq.degree() for eq in eqs)
    mult_degree = min(budget, max(0, value.degree() - min_eq_degree))
    # columns: multiplier monomial per equation; rows: product monomials
    col_entries: list[dict[tuple[int, ...], Fraction]] = []
    for eq in eqs:
        for mono in monomials_up_to(arity, mult_degree):
            entries: dict[tuple[int, ...], Fraction] = {}
            for emono, coeff in eq.num.items():
                key = tuple(a + b for a, b in zip(mono, emono))
                entries[key] = entries.get(key, Fraction(0)) + coeff
            col_entries.append(entries)
    return _sparse_consistent(col_entries, dict(value.num))


def _sparse_consistent(
    col_entries: list[dict[tuple, Fraction]], target: dict[tuple, Fraction]
) -> bool:
    """Does target lie in the column span?  Exact sparse elimination."""
    pivots: list[tuple[tuple, dict[tuple, Fraction]]] = []

    def reduce(vec: dict[tuple, Fraction]) -> dict[tuple, Fraction]:
        for row_key, col in pivots:
            c = vec.get(row_key)
            if c:
                for k, v in col.items():
                    nv = vec.get(k, Fraction(0)) - c * v
                    if nv:
                        vec[k] = nv
                    else:
                        vec.pop(k, None)
        return vec

    for col in col_entries:
        vec = reduce(dict(col))
        if not vec:
            continue
        row_key = min(vec)
        inv = 1 / vec[row_key]
        vec = {k: v * inv for k, v in vec.items()}
        pivots.append((row_key, vec))
    residual = reduce(dict(target))
    return not residual


# ---------------------------------------------------------------------------
# subductions
# ---------------------------------------------------------------------------


def is_subduction(
    f: SmoothMap,
    budget: int = DEFAULT_BUDGET,
    sections: Sequence[SmoothMap] = (),
) -> Verdict:
    """Smooth and locally lifts every target plot through f.

    The lift search tries declared sections first, then solves affinely
    through f's ambient formula per generator.  Requires the target's
    generator family to be complete for the Yes direction.
    """
    smooth = is_smooth(f, budget)
    if not smooth.is_yes:
        return smooth
    if not f.target.generators_complete:
        return Verdict.unknown("target generators not known to be complete")
    lifts = []
    for g in f.target.generators:
        lift = _lift_plot(f, g, budget, sections)
        if lift is None:
            return Verdict.unknown(
                f"no lift found for generator {g.to_str()} at budget {budget}"
            )
        lifts.append(lift)
    return Verdict.yes(RuleCert("subduction", tuple(lifts)), detail="all generators lift")


def _lift_plot(
    f: SmoothMap, g: Plot, budget: int, sections: Sequence[SmoothMap]
) -> object | None:
    for s in sections:
        try:
            candidate = s.compose_plot(g)
        except (KeyError, ExprError):
            continue
        composed = f.compose_plot(candidate)
        if composed.component == g.component and composed.map == g.map:
            sub = is_plot(f.source, candidate, budget)
            if sub.is_yes:
                return ("section", s.name, candidate, sub.certificate)
    # affine solve through each source component mapping onto g's component
    for src, dst, vec in f.pieces:
        if dst != g.component:
            continue
        parts = affine_parts(vec)
        if parts is None:
            continue
        sol = parts.preimage(g.map.components)
        if sol is None:
            continue
        lift_vec = ExprVec(tuple(sol.particular))
        if lift_vec.degree() > budget:
            continue
        candidate = Plot(g.domain, lift_vec, src)
        composed = f.compose_plot(candidate)
        if composed.map == g.map:
            sub = is_plot(f.source, candidate, budget)
            if sub.is_yes:
                return ("solve", src, candidate, sub.certificate)
    return None


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def euclidean_space(dim: int, name: str = "") -> DiffSpace:
    name = name or f"R^{dim}"
    ident = Plot(Domain.full(dim), ExprVec.identity(dim))
    return DiffSpace(
        name,
        EuclideanCarrier(dim),
        generators=(ident,),
        provenance=("generated",),
        standard=True,
        generators_complete=True,
    )


def generated_space(
    name: str,
    carrier: Carrier,
    generators: Sequence[Plot],
    complete: bool = True,
) -> DiffSpace:
    return DiffSpace(
        name,
        carrier,
        generators=generators,
        provenance=("generated",),
        standard=False,
        generators_complete=complete,
    )


def discrete_space(name: str, dim: int, points: Sequence[Point] = ()) -> DiffSpace:
    """Carrier R^dim with only locally constant maps as plots."""
    gens = tuple(
        Plot(Domain.full(1), ExprVec.constant(1, [Fraction(v) for v in pt]))
        for pt in points
    )
    return DiffSpace(
        name,
        EuclideanCarrier(dim),
        generators=gens,
        provenance=("generated",),
        standard=False,
        generators_complete=True,
    )


def subset_space(
    name: str,
    base: DiffSpace,
    equations: Sequence[Expr],
    generators: Sequence[Plot] = (),
    complete: bool = False,
) -> DiffSpace:
    ambient = base.carrier.ambient_dim("")
    eqs = tuple(base.carrier.equations("")) + tuple(equations)
    carrier = AlgebraicCarrier(ambient, eqs)
    return DiffSpace(
        name,
        carrier,
        generators=generators,
        provenance=("initial", "subset", ((base, (("", "", ExprVec.identity(ambient)),)),)),
        standard=base.standard,
        generators_complete=complete,
    )


def product_space(name: str, left: DiffSpace, right: DiffSpace) -> DiffSpace:
    carrier = ProductCarrier(left.carrier, right.carrier)
    n_l = left.carrier.ambient_dim("")
    coords = ExprVec.identity(carrier.ambient_dim(""))
    pieces = (coords.slice(0, n_l), coords.slice(n_l, len(coords)))
    projections = tuple((s, (("", "", p),)) for s, p in zip((left, right), pieces))
    gens = []
    for gl in left.generators:
        for gr in right.generators:
            dim_l = gl.domain.dim
            dim_r = gr.domain.dim
            dim = dim_l + dim_r
            boxes = [
                Box(bl.intervals + br.intervals)
                for bl in gl.domain.boxes
                for br in gr.domain.boxes
            ]
            dom = Domain(dim, boxes)
            lmap = gl.map.lift(dim)
            rmap = gr.map.lift(dim, dim_l)
            gens.append(Plot(dom, lmap.concat(rmap)))
    return DiffSpace(
        name,
        carrier,
        generators=tuple(gens),
        provenance=("initial", "product", projections),
        standard=left.standard and right.standard,
        generators_complete=left.generators_complete and right.generators_complete,
    )


def quotient_space(
    name: str, base: DiffSpace, relations: Sequence[RelationPair]
) -> tuple[DiffSpace, SmoothMap]:
    carrier = QuotientCarrier(base.carrier, tuple(relations))
    space = DiffSpace(
        name,
        carrier,
        generators=base.generators,
        provenance=("quotient", base),
        standard=False,
        generators_complete=base.generators_complete,
    )
    pieces = []
    for comp in base.carrier.components():
        n = base.carrier.ambient_dim(comp)
        pieces.append((comp, comp, ExprVec.identity(n)))
    projection = SmoothMap(base, space, tuple(pieces), name=f"{name}.proj")
    return space, projection


def pullback_space(
    name: str,
    carrier: Carrier,
    forward: Pieces,
    target: DiffSpace,
    generators: Sequence[Plot] = (),
    complete: bool = False,
) -> DiffSpace:
    return DiffSpace(
        name,
        carrier,
        generators=generators,
        provenance=("initial", "pullback", ((target, tuple(forward)),)),
        standard=False,
        generators_complete=complete,
    )


def pushforward_space(
    name: str,
    carrier: Carrier,
    base: DiffSpace,
    forward: Pieces,
) -> DiffSpace:
    gens = []
    for g in base.generators:
        composed = _apply_pieces(tuple(forward), g)
        if composed is None:
            raise ExprError(f"forward map undefined on component {g.component!r}")
        gens.append(composed)
    return DiffSpace(
        name,
        carrier,
        generators=tuple(gens),
        provenance=("generated",),
        standard=False,
        generators_complete=base.generators_complete,
    )


def intersection_space(
    name: str,
    carrier: Carrier,
    parts: Sequence[tuple[DiffSpace, Pieces]],
    generators: Sequence[Plot] = (),
    complete: bool = False,
) -> DiffSpace:
    packed = tuple((other, tuple(pieces)) for other, pieces in parts)
    return DiffSpace(
        name,
        carrier,
        generators=generators,
        provenance=("initial", "intersection", packed),
        standard=False,
        generators_complete=complete,
    )


def union_space(name: str, parts: Sequence[tuple[str, DiffSpace]]) -> DiffSpace:
    carrier = UnionCarrier(tuple((tag, s.carrier) for tag, s in parts))
    gens = []
    for tag, s in parts:
        for g in s.generators:
            gens.append(Plot(g.domain, g.map, tag))
    return DiffSpace(
        name,
        carrier,
        generators=tuple(gens),
        provenance=("generated",),
        standard=False,
        generators_complete=all(s.generators_complete for _, s in parts),
    )


# ---------------------------------------------------------------------------
# certificate replay
# ---------------------------------------------------------------------------


def verify_certificate(
    space: DiffSpace, candidate: Plot, cert, budget: int = DEFAULT_BUDGET
) -> bool:
    """Independently replay a membership certificate."""
    if isinstance(cert, ConstantCert):
        return (
            candidate.is_constant()
            and candidate.component == cert.component
            and candidate.constant_point() == cert.point
            and space.carrier.contains_point(cert.point, cert.component)
        )
    if isinstance(cert, GeneratorCert):
        if not 0 <= cert.index < len(space.generators):
            return False
        g = space.generators[cert.index]
        return (
            g.component == candidate.component
            and g.map == candidate.map
            and g.domain.covers(candidate.domain)
        )
    if isinstance(cert, FactoredCert):
        if not 0 <= cert.index < len(space.generators):
            return False
        g = space.generators[cert.index]
        if g.component != candidate.component:
            return False
        if not image_within(cert.factor, candidate.domain, g.domain):
            return False
        return _compose_matches(g.map, cert.factor, candidate.map)
    if isinstance(cert, GlueCert):
        if cert.parts:
            covering = cert.parts[0][0]
            for dom, _ in cert.parts[1:]:
                covering = covering.union(dom)
            if not covering.covers(candidate.domain):
                return False
        elif not candidate.domain.is_empty:
            return False
        return all(
            verify_certificate(space, candidate.restrict(dom), sub, budget)
            for dom, sub in cert.parts
        )
    if isinstance(cert, CarrierCert):
        return space.standard and _carrier_violation(space.carrier, candidate) is None
    if isinstance(cert, RuleCert):
        # rule certificates tie to the space's construction; replay the query
        return is_plot(space, candidate, budget).is_yes
    return False
