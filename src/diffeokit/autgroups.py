"""Finitely generated symmetry groups of a bundle and their geometry.

Generators come in with supplied inverses; everything else is a reduced
word in them.  The kernel of the base projection consists of fiberwise
linear automorphisms, which follows from the generator certificates and
the projection's subduction certificate.  Orbit structure, one-parameter
velocity vectors, and frame algebra over a fiber all live here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .bundles import (
    BundleMorphism,
    PseudoBundle,
    _difference_verdict,
    check_morphism,
    fiber_at,
)
from .domains import Domain, Point, format_point
from .expr import Expr, ExprVec, Record
from .linalg import invert_rational
from .spaces import (
    DEFAULT_BUDGET,
    ChecksCert,
    DiffSpace,
    Obstruction,
    Plot,
    Verdict,
    generated_space,
    intersection_space,
    is_subduction,
)

__all__ = [
    "FinGenGroup",
    "Element",
    "bundle_group",
    "enumerate_elements",
    "word_name",
    "exact_sequence_check",
    "OrbitClass",
    "OrbitReport",
    "typical_fiber_check",
    "group_diffeology",
    "aut_diffeology",
    "family_velocity",
    "g_tangent_additivity",
    "Frame",
    "frame",
    "random_frame",
    "FrameReport",
    "frame_bundle_check",
]


# ---------------------------------------------------------------------------
# groups and words
# ---------------------------------------------------------------------------


class FinGenGroup(Record):
    """Bundle automorphisms with supplied inverses, plus optional
    one-parameter families of base maps through the identity."""

    name: str
    bundle: PseudoBundle
    generators: tuple[BundleMorphism, ...]
    inverses: tuple[BundleMorphism, ...]
    families: tuple[ExprVec, ...] = ()


class Element(Record):
    """A reduced word and its composed action, total and base."""

    word: tuple[int, ...]  # +i+1 for generator i, -(i+1) for its inverse
    phi: ExprVec
    varphi: ExprVec

    def key(self):
        return (self.phi.canonical_key(), self.varphi.canonical_key())


def word_name(word: tuple[int, ...]) -> str:
    if not word:
        return "e"
    out = []
    for letter in word:
        i = abs(letter) - 1
        out.append(f"g{i}" if letter > 0 else f"g{i}^-1")
    return "*".join(out)


def bundle_group(
    name: str,
    bundle: PseudoBundle,
    pairs: Sequence[tuple[BundleMorphism, BundleMorphism]],
    families: Sequence[ExprVec] = (),
    budget: int = DEFAULT_BUDGET,
) -> FinGenGroup:
    """Validate generator/inverse pairs and assemble the group."""
    for k, (gen, inv) in enumerate(pairs):
        v = _certify_pair(bundle, k, gen, inv, budget, f" of {name}")
        if not v.is_yes:
            raise ValueError(v.detail if v.is_unknown else v.obstruction.detail)
    n = bundle.base_dim
    for f in families:
        _check_family(f, n)
    return FinGenGroup(
        name,
        bundle,
        tuple(gen for gen, _ in pairs),
        tuple(inv for _, inv in pairs),
        tuple(families),
    )


def _reason(v: Verdict) -> str:
    ob = v.obstruction
    return v.detail or (f"{ob.kind}: {ob.detail}" if ob else "not certified")


def _certify_pair(
    bundle: PseudoBundle,
    k: int,
    gen: BundleMorphism,
    inv: BundleMorphism,
    budget: int,
    owner: str = "",
) -> Verdict:
    """Generator k and its inverse as morphisms of the bundle onto itself,
    and g.h = h.g = id on the total space.  A yes carries the two morphism
    certificates in a `ChecksCert`.  A no or an unknown starts its text
    with `generator k` or `inverse k`, then `owner`, then the sub-check
    that failed or stayed open."""
    parts = []
    for label, m in (("generator", gen), ("inverse", inv)):
        v = check_morphism(m, bundle, bundle, budget)
        if not v.is_yes:
            text = f"{label} {k}{owner}: {_reason(v)}"
            return Verdict.unknown(text) if v.is_unknown else Verdict.no(
                Obstruction("morphism", detail=text)
            )
        parts.append((f"{label} {k}", v.certificate))
    _, g = gen.phi.piece("")
    _, h = inv.phi.piece("")
    identity = ExprVec.identity(bundle.ambient_dim)
    for outer, inner in ((g, h), (h, g)):
        v = _difference_verdict(bundle.total, outer.compose(inner), identity, budget)
        if v.is_no:
            return Verdict.no(Obstruction(
                "inverse",
                detail=f"generator {k}{owner} does not invert: {v.obstruction.detail}",
            ))
        if v.is_unknown:
            return Verdict.unknown(f"generator {k}{owner}: inverse not certified: {v.detail}")
    return Verdict.yes(ChecksCert(f"generator {k} and its inverse", tuple(parts)))


def enumerate_elements(group: FinGenGroup, max_len: int) -> list[Element]:
    """All distinct elements reachable by reduced words up to max_len,
    shortest word first, deduplicated by canonical form."""
    d = group.bundle.ambient_dim
    n = group.bundle.base_dim
    letters = []
    for i, (gen, inv) in enumerate(zip(group.generators, group.inverses)):
        letters.append((i + 1, gen.phi.piece("")[1], gen.varphi.piece("")[1]))
        letters.append((-(i + 1), inv.phi.piece("")[1], inv.varphi.piece("")[1]))
    identity = Element((), ExprVec.identity(d), ExprVec.identity(n))
    out = [identity]
    seen = {identity.key()}
    frontier = [identity]
    for _ in range(max_len):
        nxt = []
        for el in frontier:
            for letter, phi, varphi in letters:
                if el.word and el.word[-1] == -letter:
                    continue
                new = Element(
                    el.word + (letter,), el.phi.compose(phi), el.varphi.compose(varphi)
                )
                if new.key() in seen:
                    continue
                seen.add(new.key())
                out.append(new)
                nxt.append(new)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# the short exact sequence
# ---------------------------------------------------------------------------


def exact_sequence_check(
    bundle: PseudoBundle,
    group: FinGenGroup,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """1 -> Gau(E) -> Aut(E) -> Diff(X): the kernel of the base action is
    the fiberwise linear part, on every word, proved from certificates.

    Each generator and its inverse is a certified bundle morphism, so its
    square proj.phi = varphi.proj commutes, and squares compose: every
    word's square commutes, and the reversed word of inverses inverts it.
    The projection is a certified subduction, so it is onto, and
    proj.phi_w = proj then reads varphi_w.proj = proj, that is varphi_w =
    id.  So a word's linearity test is its kernel test.  No word is built:
    the budget bounds only the searches behind the certificates.  It never
    falls below DEFAULT_BUDGET, the budget `bundle_group` accepts pairs at,
    so a small budget cannot lose a certificate the group was built with.

    A yes carries the generator, inverse and projection certificates in a
    `ChecksCert`.  A no names the generator and sub-check that failed; an
    unknown names each open check at the start of its detail.
    """
    budget = max(budget, DEFAULT_BUDGET)
    parts, pending = [], []
    for k, (gen, inv) in enumerate(zip(group.generators, group.inverses)):
        v = _certify_pair(bundle, k, gen, inv, budget)
        if v.is_no:
            return Verdict.no(Obstruction("exact-sequence", detail=v.obstruction.detail))
        if v.is_unknown:
            pending.append(v.detail)
        else:
            parts.extend(v.certificate.parts)
    onto = is_subduction(bundle.projection, budget, sections=(bundle.zero,))
    if onto.is_no:
        return Verdict.no(Obstruction("exact-sequence", detail=f"projection: {_reason(onto)}"))
    if onto.is_unknown:
        pending.append(f"projection: {onto.detail}")
    if pending:
        return Verdict.unknown("; ".join(pending))
    parts.append(("projection", onto.certificate))
    return Verdict.yes(
        ChecksCert(
            f"{len(group.generators)} generators and inverses certified, "
            "projection a subduction",
            tuple(parts),
        ),
        detail="kernel = linear part on every word",
    )


# ---------------------------------------------------------------------------
# fibers under the action
# ---------------------------------------------------------------------------


class OrbitClass(Record):
    representative: Point
    members: tuple[Point, ...]
    fiber_dim: int


class OrbitReport(Record):
    classes: tuple[OrbitClass, ...]
    moves: tuple[tuple[Point, Point, str], ...]
    separations: tuple[tuple[Point, Point, str], ...]


def typical_fiber_check(
    bundle: PseudoBundle,
    group: FinGenGroup,
    points: Sequence[Point] | None = None,
    word_length: int = 4,
) -> OrbitReport:
    """Partition sampled base points into orbit classes of bounded words
    and read off fiber dimensions; distinct dimensions separate classes
    outright since no linear isomorphism can connect them."""
    if points is None:
        points = bundle.base.sample_carrier_points("", 8)
    points = [tuple(Fraction(c) for c in p) for p in points]
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    moves = []
    elements = enumerate_elements(group, word_length)
    for el in elements[1:]:
        for p in points:
            q = el.varphi.eval(p)
            if q in parent and find(p) != find(q):
                parent[find(p)] = find(q)
                moves.append((p, q, word_name(el.word)))

    grouped: dict[Point, list[Point]] = {}
    for p in points:
        grouped.setdefault(find(p), []).append(p)
    classes = []
    for members in grouped.values():
        rep = members[0]
        dims = {fiber_at(bundle, p).dim for p in members}
        if len(dims) != 1:
            raise ValueError(f"orbit of {format_point(rep)} mixes fiber dimensions {sorted(dims)}")
        classes.append(OrbitClass(rep, tuple(members), dims.pop()))
    classes.sort(key=lambda c: c.representative)

    separations = []
    for a, b in combinations(classes, 2):
        if a.fiber_dim != b.fiber_dim:
            why = f"fiber dimensions {a.fiber_dim} and {b.fiber_dim} differ"
        else:
            why = f"no word of length <= {word_length} connects them"
        separations.append((a.representative, b.representative, why))
    return OrbitReport(tuple(classes), tuple(moves), tuple(separations))


# ---------------------------------------------------------------------------
# the diffeology induced by the action
# ---------------------------------------------------------------------------


def group_diffeology(
    name: str, base: DiffSpace, families: Sequence[ExprVec] = (), complete: bool = True
) -> DiffSpace:
    """Plots pushed forward from the group onto the base.

    A word group contributes only constants; each one-parameter family
    contributes its joint orbit map as a generating plot.
    """
    n = base.carrier.ambient_dim("")
    gens = []
    for f in families:
        _check_family(f, n)
        gens.append(Plot(Domain.full(1 + n), f))
    return generated_space(name, base.carrier, tuple(gens), complete=complete)


def aut_diffeology(
    bundle: PseudoBundle, group: FinGenGroup, name: str = ""
) -> DiffSpace:
    """Plots of the total space whose base image is also a plot of the
    pushed-forward orbit diffeology."""
    name = name or f"{bundle.name}.aut"
    orbits = group_diffeology(f"{name}.orbits", bundle.base, group.families)
    d = bundle.ambient_dim
    _, proj = bundle.projection.piece("")
    return intersection_space(
        name,
        bundle.total.carrier,
        (
            (bundle.total, (("", "", ExprVec.identity(d)),)),
            (orbits, (("", "", proj),)),
        ),
    )


# ---------------------------------------------------------------------------
# one-parameter families and velocity vectors
# ---------------------------------------------------------------------------


def _check_family(f: ExprVec, n: int) -> None:
    if f.arity != 1 + n or len(f.components) != n:
        raise ValueError("a family maps (t, x) to a point of the same space")
    at_zero = f.compose([Expr.zero(n)] + [Expr.variable(n, i) for i in range(n)])
    if at_zero != ExprVec.identity(n):
        raise ValueError("family is not the identity at parameter 0")


def family_velocity(word, x) -> Point:
    """Derivative at parameter 0 of t -> f1(t, f2(t, ... , x)) at x."""
    if isinstance(word, ExprVec):
        word = (word,)
    vec = word[0]
    t = Expr.variable(vec.arity, 0)
    for nxt in word[1:]:
        vec = vec.compose((t,) + nxt.components)
    at = (Fraction(0),) + tuple(Fraction(c) for c in x)
    return tuple(c.differentiate(0).eval(at) for c in vec.components)


def g_tangent_additivity(
    space: DiffSpace, families: Sequence[ExprVec], points: Sequence[Point]
) -> Verdict:
    """The velocity of a product family is the exact sum of the factor
    velocities, in both orders.  A yes names each (families, point)
    entry with its point and three velocities; a no gives the first
    entry that fails."""
    n = space.carrier.ambient_dim("")
    for f in families:
        _check_family(f, n)
    entries = []
    for i, fi in enumerate(families):
        for j, fj in enumerate(families):
            for k, p in enumerate(points):
                p = tuple(Fraction(c) for c in p)
                v1 = family_velocity(fi, p)
                v2 = family_velocity(fj, p)
                both = family_velocity((fi, fj), p)
                expected = tuple(a + b for a, b in zip(v1, v2))
                if both != expected:
                    return Verdict.no(Obstruction(
                        "additivity", point=p,
                        detail=f"families {i} then {j}: velocity {format_point(both)} "
                        f"is not {format_point(expected)}",
                    ))
                entries.append((f"families {i} then {j} at point {k}", (p, v1, v2, both)))
    return Verdict.yes(ChecksCert(f"{len(entries)} velocity sums exact", tuple(entries)))


# ---------------------------------------------------------------------------
# frames over a fiber
# ---------------------------------------------------------------------------


class Frame(Record):
    """A linear isomorphism from the typical fiber onto one fiber,
    stored as a matrix in chart coordinates."""

    basepoint: Point
    matrix: tuple[tuple[Fraction, ...], ...]
    inverse: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.matrix)


def frame(bundle: PseudoBundle, x, rows) -> Frame:
    chart = fiber_at(bundle, x)
    x = chart.basepoint
    rows = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows)
    if len(rows) != chart.dim or any(len(r) != chart.dim for r in rows):
        raise ValueError(f"a frame at {format_point(x)} is a {chart.dim} by {chart.dim} matrix")
    inverse = invert_rational(rows)
    if inverse is None:
        raise ValueError("a frame must be invertible")
    return Frame(x, rows, tuple(tuple(r) for r in inverse))


def random_frame(bundle: PseudoBundle, x, rng) -> Frame:
    chart = fiber_at(bundle, x)
    while True:
        rows = [
            [Fraction(rng.randint(-4, 4)) for _ in range(chart.dim)]
            for _ in range(chart.dim)
        ]
        if invert_rational(rows) is not None:
            return frame(bundle, x, rows)


class FrameReport(Record):
    pairs: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def frame_bundle_check(
    bundle: PseudoBundle, pairs: Sequence[tuple[Frame, Frame]]
) -> FrameReport:
    """Free and transitive frame actions on each pair over one point.

    For frames f1, f2 over one point: f2 f1^-1 is an automorphism of the
    fiber, g = f1^-1 f2 is the unique typical-fiber change with
    f1 g = f2, and f -> f1^-1 f identifies the frames over the point
    with the invertible matrices.  `frame` refuses a singular matrix and
    stores its exact inverse, so these identities hold for every pair of
    frames, exactly; what a pair can get wrong is its basepoints.
    """
    failures = tuple(
        f"pair {k}: frames over different points"
        for k, (f1, f2) in enumerate(pairs) if f1.basepoint != f2.basepoint
    )
    return FrameReport(len(pairs), failures)
