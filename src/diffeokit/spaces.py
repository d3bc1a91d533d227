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
import weakref
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .domains import Box, Domain, format_point, image_within
from .expr import Expr, ExprError, ExprVec, Record
from .linalg import AffineParts, affine_parts, rank, solve_rational

Point = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------


class Carrier(Record):
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


class EuclideanCarrier(Carrier):
    dim: int

    def components(self) -> tuple[str, ...]:
        return ("",)

    def ambient_dim(self, component: str = "") -> int:
        return self.dim

    def equations(self, component: str = "") -> tuple[Expr, ...]:
        return ()


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


class RelationPair(Record):
    """One generating identification: left(u) ~ right(u) for u in domain."""

    left_component: str
    left_map: ExprVec
    right_component: str
    right_map: ExprVec
    domain: Domain


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


class Plot(Record):
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


class ConstantCert(Record):
    component: str
    point: Point

    kind = "constant"


class GeneratorCert(Record):
    index: int

    kind = "generator"


class FactoredCert(Record):
    """plot = generators[index] o factor on the plot's whole domain."""

    index: int
    factor: ExprVec

    kind = "factored"


class GlueCert(Record):
    """Certificates on subdomains that cover the plot's domain."""

    parts: tuple[tuple[Domain, object], ...]

    kind = "glue"


class RuleCert(Record):
    """Certificate following the construction of the space."""

    rule: str
    parts: tuple = ()

    kind = "rule"


class CarrierCert(Record):
    """For spaces carrying the full diffeology of their carrier: landing
    in the carrier is the whole proof."""

    kind = "carrier"


class ChecksCert(Record):
    """Evidence from named sub-checks that all hold; the summary says what
    they establish together."""

    summary: str
    parts: tuple[tuple[str, object], ...]

    kind = "checks"


class Obstruction(Record):
    kind: str
    component: str = ""
    point: Point | None = None
    detail: str = ""


class Verdict(Record):
    status: str  # "yes" | "no" | "unknown"
    certificate: object = None
    obstruction: Obstruction | None = None
    detail: str = ""

    @staticmethod
    def yes(certificate, detail: str = "") -> "Verdict":
        return Verdict("yes", certificate, None, detail)

    @staticmethod
    def no(obstruction: Obstruction, detail: str = "") -> "Verdict":
        return Verdict("no", None, obstruction, detail)

    @staticmethod
    def unknown(detail: str = "") -> "Verdict":
        return Verdict("unknown", None, None, detail)

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

    provenance is ("generated",), ("generated", parts) for a union of the
    (tag, space) parts, ("quotient", base) or ("initial", rule, parts),
    where parts pairs each target with a structure map's pieces.
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
        # is_plot verdicts by candidate key
        self._memo = VerdictMemo()
        # is_smooth verdicts of maps out of this space, by target and then
        # map key; a target's memo goes when the target does
        self._smooth: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
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
        """Points guaranteed to lie on the carrier, via generator images."""
        if not self.carrier.equations(component):
            return Domain.full(self.carrier.ambient_dim(component)).sample_points(count)
        out: list[Point] = []
        seen: set[Point] = set()
        gens = self.component_generators(component)
        for _, g in gens:
            for u in g.domain.sample_points(max(2, count // max(1, len(gens)))):
                p = g.map.eval(u)
                if p not in seen:
                    seen.add(p)
                    out.append(p)
        return out[:count]


# ---------------------------------------------------------------------------
# membership engine
# ---------------------------------------------------------------------------


# keys a `VerdictMemo` keeps before it drops its least recently used one
MEMO_ENTRIES = 64


class _Question:
    """A memo key with its hash computed once.  Keys hold `Fraction`s,
    whose hash runs in Python, and the memo looks a key up two or three
    times per question."""

    __slots__ = ("key", "hash")

    def __init__(self, key):
        self.key = key
        self.hash = hash(key)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return isinstance(other, _Question) and self.key == other.key


class VerdictMemo(dict):
    """A bounded verdict memo: each key maps to the (budget, verdict, held)
    entries found for one question, where held is the object the key
    names by identity, kept so that its id is not reused while the entry
    lives.  Keys run from least to most recently used, and a memo holding
    more than MEMO_ENTRIES keys drops the oldest: a question dropped is
    asked afresh, and answered alike, on its next use.

    A yes or no found at budget b serves every budget >= b: its certificate
    or obstruction does not depend on how far a search was allowed to go.
    An unknown found at b serves every budget <= b, which searches less.
    `is_plot`, `is_smooth`, `check_morphism` and the bundle construction
    checks keep their verdicts by this rule."""

    __slots__ = ()

    def verdict(self, key, budget: int, run: Callable[[], Verdict], held=None) -> Verdict:
        """The verdict stored for key at this budget, else `run()`, stored
        at this budget."""
        key = _Question(key)
        entries = self.pop(key, None)
        if entries is not None:
            self[key] = entries  # a dict keeps insertion order: now the newest
            for stored, verdict, _ in entries:
                if stored >= budget if verdict.is_unknown else stored <= budget:
                    return verdict
        verdict = run()
        # run() may ask this memo other questions, which can drop key
        entries = self.get(key)
        if entries is None:
            entries = self[key] = []
            if len(self) > MEMO_ENTRIES:
                del self[next(iter(self))]
        entries.append((budget, verdict, held))
        return verdict


def is_plot(space: DiffSpace, candidate: Plot, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide membership of the candidate in the space's diffeology."""
    return space._memo.verdict(
        candidate.key(), budget, lambda: _is_plot_uncached(space, candidate, budget)
    )


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
    vanishes.

    The points are read in prefixes of 1, 4, 16, ... samples, capped at
    `count`, testing only those past the previous prefix; `None` comes only
    after the whole `count` prefix.  The witness is the one a scan of
    `sample_points(count)` finds, because `sample_points(k)` is a prefix of
    `sample_points(n)` for k <= n: each axis walk stops at its count, a
    smaller count only shrinks the caps of the graded index order, and a
    union of boxes is a round robin of such lists."""
    seen = 0
    k = 1
    while True:
        k = min(k, count)
        points = domain.sample_points(k)
        for pt in points[seen:]:
            if all(r.eval(pt) != 0 for r in residuals):
                return pt
        if k == count:
            return None
        seen = len(points)
        k *= 4


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

    refutation = _refute_generated(gens, candidate)
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
    # then shift along the null space to pull the image into the
    # generator's domain: aim the factor at sampled anchor points of it
    shifts = _null_shift_candidates(sol, gen.domain, candidate.domain, arity)
    for cand in itertools.chain((base,), shifts):
        if image_within(cand, candidate.domain, gen.domain):
            if _compose_matches(gen.map, cand, candidate.map):
                return cand
    return None


def _null_shift_candidates(
    sol, gen_domain: Domain, candidate_domain: Domain, arity: int
) -> Iterator[ExprVec]:
    """Shifts of the particular solution along the null space, one per
    anchor point of the generator's domain, drawn only when asked for."""
    base_pts = candidate_domain.sample_points(1) if sol.null_basis else ()
    if not base_pts:
        return
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
        yield ExprVec(tuple(shifted))


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


def _refute_generated(gens: Sequence[tuple[int, Plot]], candidate: Plot) -> Verdict | None:
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


def _chain_rewrites(carrier: QuotientCarrier):
    """The moves of every quotient down a chain of quotients, which
    together generate the chain's identifications.  complete is False
    also when a quotient hides below the chain, inside a product or a
    union part: its relations act on a block these moves do not see."""
    relations: list[RelationPair] = []
    while isinstance(carrier, QuotientCarrier):
        relations.extend(carrier.relations)
        carrier = carrier.base
    moves, complete = _moves_from_pairs(relations)
    return moves, complete and not _has_quotient(carrier)


def _has_quotient(carrier: Carrier) -> bool:
    if isinstance(carrier, QuotientCarrier):
        return True
    if isinstance(carrier, ProductCarrier):
        return _has_quotient(carrier.left) or _has_quotient(carrier.right)
    if isinstance(carrier, UnionCarrier):
        return any(_has_quotient(part) for _, part in carrier.parts)
    return False


def _moves_from_pairs(relations: Sequence[RelationPair]):
    """Rewriting moves induced by the relation pairs.

    Returns (moves, complete).  A move takes a representative map and
    returns (rewritten map | None, lossless).  lossless=True with None
    means the move provably has nothing to contribute for that map (off
    the source image except on a thin set, where a rational map cannot
    differ).  complete is False when some relation pair could not be
    turned into moves at all, so refutations must back off to unknown.
    """
    moves = []
    complete = True
    for rel in relations:
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
    moves, complete = _moves_from_pairs(space.carrier.relations)
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


class SmoothMap(Record):
    """A map between spaces, given per source component in ambient form."""

    source: DiffSpace
    target: DiffSpace
    pieces: tuple[tuple[str, str, ExprVec], ...]  # (src comp, dst comp, map)
    name: str = ""

    def __post_init__(self):
        # a piece of the wrong shape would pass some checks and fail others
        # deep inside linear algebra
        for src, dst, vec in self.pieces:
            arity = _component_dim(self.source, src, self.name)
            dim = _component_dim(self.target, dst, self.name)
            if vec.arity != arity or len(vec) != dim:
                raise ExprError(
                    f"map {self.name!r}: piece {src!r}->{dst!r} takes {vec.arity} "
                    f"variable(s) to {len(vec)} component(s), where the source has "
                    f"dimension {arity} and the target {dim}"
                )

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
            if not isinstance(vec, ExprVec):
                vec = ExprVec.parse(vec, _component_dim(source, src, name))
            pieces.append((src, dst, vec))
        return SmoothMap(source, target, tuple(pieces), name)
    if not isinstance(mapping, ExprVec):
        mapping = ExprVec.parse(mapping, _component_dim(source, "", name))
    return SmoothMap(source, target, (("", "", mapping),), name)


def _component_dim(space: DiffSpace, comp: str, map_name: str) -> int:
    """The ambient dimension of a component of space, or the ExprError
    that names the map when space has no such component."""
    if comp not in space.carrier.components():
        raise ExprError(f"map {map_name!r}: {space.name!r} has no component {comp!r}")
    return space.carrier.ambient_dim(comp)


def compose_maps(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    pieces = []
    for src, mid, vec in inner.pieces:
        dst, outer_vec = outer.piece(mid)
        pieces.append((src, dst, outer_vec.compose(vec.components)))
    return SmoothMap(inner.source, outer.target, tuple(pieces))


def identity_map(space: DiffSpace, name: str = "id") -> SmoothMap:
    pieces = []
    for comp in space.carrier.components():
        n = space.carrier.ambient_dim(comp)
        pieces.append((comp, comp, ExprVec.identity(n)))
    return SmoothMap(space, space, tuple(pieces), name)


def is_smooth(f: SmoothMap, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Is f a smooth map of spaces?

    Refutation paths: a source carrier point whose image violates the
    target carrier kills smoothness via a constant plot, and out of a
    quotient, a relation pair whose two sides f sends apart
    (`respects_relation`), also a pair of a quotient inside a product or
    union, lifted to the source by `_relation_pairs`.  Yes paths: for
    standard targets, target equations must vanish on the source carrier
    (checked symbolically, with a bounded-degree multiplier search); for
    generated targets, composites with a complete generator family must
    all be plots.

    Memoised on the source space in one `VerdictMemo` per target, by map
    key: the target by identity and held weakly, so its memo lives as long
    as both spaces, and holds the last MEMO_ENTRIES maps asked about.  The
    map's name is not in the key; no verdict reads it.
    """
    memo = f.source._smooth.get(f.target)
    if memo is None:
        memo = f.source._smooth[f.target] = VerdictMemo()
    return memo.verdict(f.key(), budget, lambda: _is_smooth_uncached(f, budget))


def _is_smooth_uncached(f: SmoothMap, budget: int) -> Verdict:
    bad = _map_carrier_violation(f)
    if bad is not None:
        return Verdict.no(bad)
    pairs = _relation_pairs(f.source.carrier, f.source)
    if pairs is None:
        return Verdict.unknown(
            "a quotient inside the source has relation pairs that cannot be lifted to it"
        )
    for rel in pairs:
        v = respects_relation(f, rel, budget)
        if not v.is_yes:
            return v

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


def _relation_pairs(carrier: Carrier, space: DiffSpace | None) -> list[RelationPair] | None:
    """The relation pairs that generate the carrier's identifications, in
    its own coordinates, or None when a quotient hides where its pairs
    cannot be lifted.

    A quotient gives its own pairs, then those of its base.  A pair
    left(p) ~ right(p) of one product factor gives, for each generator g of
    the other factor, (left(p), g(u)) ~ (right(p), g(u)) on D x dom(g).  A
    union part's pairs are tagged with its component.  space is the space
    on the carrier when known: a product reads its factors' generators,
    and a union built by `union_space` its part spaces."""
    if isinstance(carrier, QuotientCarrier):
        base = space.provenance[1] if space is not None and space.provenance[0] == "quotient" else None
        below = _relation_pairs(carrier.base, base)
        return None if below is None else list(carrier.relations) + below
    if isinstance(carrier, UnionCarrier):
        known = {}
        if space is not None and space.provenance[0] == "generated" and len(space.provenance) == 2:
            known = dict(space.provenance[1])
        tagged = []
        for tag, part in carrier.parts:
            below = _relation_pairs(part, known.get(tag))
            if below is None:
                return None
            tagged += [RelationPair(tag, rel.left_map, tag, rel.right_map, rel.domain)
                       for rel in below]
        return tagged
    if not isinstance(carrier, ProductCarrier) or not _has_quotient(carrier):
        return []
    if space is None or space.provenance[:2] != ("initial", "product"):
        return None
    (left, _), (right, _) = space.provenance[2]
    left_pairs = _relation_pairs(left.carrier, left)
    right_pairs = _relation_pairs(right.carrier, right)
    if left_pairs is None or right_pairs is None:
        return None
    lifted = []
    for rel in left_pairs:
        for g in right.generators:
            dom, lhs = _product_map(rel.domain, rel.left_map, g.domain, g.map)
            _, rhs = _product_map(rel.domain, rel.right_map, g.domain, g.map)
            lifted.append(RelationPair("", lhs, "", rhs, dom))
    for rel in right_pairs:
        for g in left.generators:
            dom, lhs = _product_map(g.domain, g.map, rel.domain, rel.left_map)
            _, rhs = _product_map(g.domain, g.map, rel.domain, rel.right_map)
            lifted.append(RelationPair("", lhs, "", rhs, dom))
    return lifted


def respects_relation(f: SmoothMap, rel: RelationPair, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Does f send the two sides of a relation pair to one point?

    f after left and f after right are compared as maps of the pair's
    domain by `_same_point`.  A no found where the target has no quotient
    names a rational point p of the domain, left(p) ~ right(p) and their
    two images, so it replays by exact evaluation."""
    dst_l, vec_l = f.piece(rel.left_component)
    dst_r, vec_r = f.piece(rel.right_component)
    lhs = vec_l.compose(rel.left_map.components)
    rhs = vec_r.compose(rel.right_map.components)
    v = _same_point(f.target.carrier, dst_l, lhs, dst_r, rhs, rel.domain, budget)
    if not (v.is_no and v.obstruction.kind == "relation"):
        return v
    p = v.obstruction.point
    left, right = rel.left_map.eval(p), rel.right_map.eval(p)
    detail = (f"{format_point(left)} ~ {format_point(right)} map to "
              f"{format_point(vec_l.eval(left))} and {format_point(vec_r.eval(right))}")
    if dst_l != dst_r:
        detail += f" in components {dst_l!r} and {dst_r!r}"
    return Verdict.no(Obstruction("relation", rel.left_component, p, detail))


def _same_point(
    carrier: Carrier, comp_a: str, a: ExprVec, comp_b: str, b: ExprVec,
    within: Domain | tuple[DiffSpace, str], budget: int,
) -> Verdict:
    """Do two maps into the carrier name one point everywhere they are read?

    `within` is an open domain, where two maps that agree are one formula,
    or a source space and component with carrier equations, where two
    formulas can name one map (see `_separating_point`).  A quotient
    compares by the rewrites of its whole chain, and by its base where
    they do not settle it; a complete rewrite closure that misses the other
    map is a no only on an open domain.  A product compares block by
    block, a union part by part; elsewhere the maps must agree, and a no of
    kind relation holds a point of `within` where they differ."""
    if comp_a == comp_b and a == b:
        return Verdict.yes(None)
    if isinstance(carrier, QuotientCarrier):
        met = _rewrites_meet(carrier, comp_a, a, comp_b, b, budget)
        if met:
            return Verdict.yes(None)
        if met is False and isinstance(within, Domain):
            return Verdict.no(Obstruction("rewrite", comp_a, detail="no rewrite meets the other map"))
        # what the base identifies, the quotient identifies too
        if _same_point(carrier.base, comp_a, a, comp_b, b, within, budget).is_yes:
            return Verdict.yes(None)
        if met is None:
            return Verdict.unknown(f"quotient rewrites from {comp_a!r}: depth cap {budget} hit or a move undecided")
        return Verdict.unknown(
            "no rewrite meets the other map as a formula, and the source carrier can identify them")
    if isinstance(carrier, ProductCarrier):
        n = carrier.left.ambient_dim("")
        return conjunction("same point", [
            _same_point(carrier.left, "", a.slice(0, n), "", b.slice(0, n), within, budget),
            _same_point(carrier.right, "", a.slice(n, len(a)), "", b.slice(n, len(b)), within, budget),
        ])
    if isinstance(carrier, UnionCarrier) and comp_a == comp_b:
        return _same_point(carrier.part(comp_a), "", a, "", b, within, budget)
    if comp_a != comp_b:
        # images in different components differ everywhere: read 1 against 0
        a, b = ExprVec.constant(a.arity, (1,)), ExprVec.constant(a.arity, (0,))
    found = _separating_point(a, b, within, budget)
    if found is None:
        return Verdict.yes(None)
    if found[1] is None:
        return Verdict.unknown("relation: the two sides differ as maps but at no sample point")
    return Verdict.no(Obstruction("relation", point=found[1]))


def _separating_point(
    a: ExprVec, b: ExprVec, within: Domain | tuple[DiffSpace, str], budget: int
) -> tuple[int, Point | None] | None:
    """Where do two maps of one source differ?  None when they agree on
    `within`; otherwise a differing component and a point where it is
    nonzero, or that component and None when no sample separates them.

    On an open domain `within`, the first component whose difference is
    not zero is read at 200 sample points.  On the carrier of a source
    space and component, each component whose difference numerator
    vanishes there (`vanishes_on_carrier`) is dropped, and the rest are
    read at 24 carrier points: the first point where one is nonzero, with
    the first such component, else the first remaining component."""
    pending = []
    for i, (x, y) in enumerate(zip(a.components, b.components)):
        if x == y or (diff := x - y).is_zero():
            continue
        if isinstance(within, Domain):
            return i, nonzero_sample([diff], within, 200)
        # denominators never vanish, so compare numerators
        numerator = Expr(diff.arity, dict(diff.num))
        if not vanishes_on_carrier(within[0], numerator, within[1], budget):
            pending.append((i, numerator))
    if not pending:
        return None
    for pt in within[0].sample_carrier_points(within[1], 24):
        for i, diff in pending:
            if diff.eval(pt) != 0:
                return i, pt
    return pending[0][0], None


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


def maps_equal_mod_relation(f: SmoothMap, g: SmoothMap, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Equality of maps into a quotient target: `_same_point` on each
    source piece, so a no comes only from a complete rewrite closure that
    misses the other map, or from a source point the two maps send apart,
    and what the rewrites leave open falls back on the quotient's base.
    A source component with carrier equations is read on its carrier.
    The first refuted piece wins; else the first open one."""
    pending = None
    for src, dst, vec in f.pieces:
        try:
            dst_g, vec_g = g.piece(src)
        except KeyError:
            return Verdict.no(Obstruction("component", component=src))
        within = (f.source, src) if f.source.carrier.equations(src) else Domain.full(vec.arity)
        v = _same_point(f.target.carrier, dst, vec, dst_g, vec_g, within, budget)
        if v.is_no:
            return v
        if v.is_unknown and pending is None:
            pending = v
    return pending or Verdict.yes(None)


def _rewrites_meet(
    carrier: QuotientCarrier, comp_a: str, a: ExprVec, comp_b: str, b: ExprVec, budget: int
) -> bool | None:
    """Does the rewrite closure of (comp_a, a) under the moves of the
    whole quotient chain reach (comp_b, b)?  False only when the closure
    is exhaustive and the moves complete; None when undecided."""
    moves, complete = _chain_rewrites(carrier)
    closure = _rewrite_closure(moves, comp_a, a, budget)
    try:
        while next(closure) != (comp_b, b):
            pass
    except StopIteration as end:
        return False if complete and end.value else None
    return True


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
                entries[key] = entries.get(key, 0) + coeff
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
                    nv = vec.get(k, 0) - c * v
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
        inv = Fraction(1, vec[row_key])  # never int / int, which is a float
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

    The lift search tries declared sections first, then factors each
    generator through f's ambient formula by the plot factor search
    (`_factor_through`).  Requires the target's generator family to be
    complete for the Yes direction.
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
    # factor g through each source piece mapping onto g's component
    for src, dst, vec in f.pieces:
        if dst != g.component:
            continue
        lift_vec = _factor_through(Plot(Domain.full(vec.arity), vec, dst), g, budget)
        if lift_vec is None:
            continue
        candidate = Plot(g.domain, lift_vec, src)
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
    gens = [Plot(*_product_map(gl.domain, gl.map, gr.domain, gr.map))
            for gl in left.generators for gr in right.generators]
    return DiffSpace(
        name,
        carrier,
        generators=tuple(gens),
        provenance=("initial", "product", projections),
        standard=left.standard and right.standard,
        generators_complete=left.generators_complete and right.generators_complete,
    )


def _product_map(
    dom_l: Domain, map_l: ExprVec, dom_r: Domain, map_r: ExprVec
) -> tuple[Domain, ExprVec]:
    """(u, w) -> (map_l(u), map_r(w)) on dom_l x dom_r."""
    dim = dom_l.dim + dom_r.dim
    boxes = [Box(bl.intervals + br.intervals) for bl in dom_l.boxes for br in dom_r.boxes]
    return Domain(dim, boxes), map_l.lift(dim).concat(map_r.lift(dim, dom_l.dim))


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
) -> DiffSpace:
    packed = tuple((other, tuple(pieces)) for other, pieces in parts)
    return DiffSpace(
        name,
        carrier,
        provenance=("initial", "intersection", packed),
        standard=False,
        generators_complete=False,
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
        provenance=("generated", tuple(parts)),
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
