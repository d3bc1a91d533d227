"""Box domains: containment, coverage, sampling, expression bounds."""

import itertools
import random
from fractions import Fraction

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffeokit import domains
from diffeokit.domains import (
    Box,
    Domain,
    Interval,
    SAMPLE_MAX_DEN,
    _axis_breaks,
    _axis_cells_closed,
    _b_mul,
    _box_covered,
    _box_samples,
    _cell_representative,
    _cells_covered,
    _domain_samples,
    _ext_mul,
    _interval_samples,
    expr_bounds,
    image_within,
    vec_bounds,
)
from diffeokit.expr import Expr, ExprVec


def _f(p, q=1):
    return Fraction(p, q)


def _reference_domain_samples(domain, count, max_den):
    """The box samples merged round-robin with a set of the points seen:
    what `_domain_samples` did for every domain before it skipped the set
    for a single box."""
    per_box = [_box_samples(b, count, max_den) for b in domain.boxes]
    out, seen = [], set()
    for batch in itertools.zip_longest(*per_box):
        for pt in batch:
            if pt is not None and pt not in seen:
                seen.add(pt)
                out.append(pt)
                if len(out) == count:
                    return tuple(out)
    return tuple(out)


class TestContainment:
    def test_interval_open_ends(self):
        iv = Interval(_f(0), _f(1))
        assert iv.contains(_f(1, 2))
        assert not iv.contains(_f(0))
        assert not iv.contains(_f(1))

    def test_unbounded_sides(self):
        assert Interval(None, _f(0)).contains(_f(-1000))
        assert Interval(_f(0), None).contains(_f(10**9))
        assert Domain.full(2).contains((_f(5), _f(-7)))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(_f(1), _f(1))

    def test_point_box(self):
        assert Domain.full(0).contains(())
        assert not Domain(0).contains(())

    def test_union_membership(self):
        d = Domain.of((-2, -1)).union(Domain.of((1, 2)))
        assert d.contains((_f(-3, 2),))
        assert d.contains((_f(3, 2),))
        assert not d.contains((_f(0),))


class TestCoverage:
    def test_two_halves_cover_with_overlap(self):
        # (-1,1) = (-1, 1/4) u (-1/4, 1); no single breakpoint is missed.
        whole = Domain.of((-1, 1))
        halves = Domain.of((-1, _f(1, 4))).union(Domain.of((_f(-1, 4), 1)))
        assert halves.covers(whole)
        assert whole.covers(halves)
        assert halves.same_set(whole)

    def test_touching_halves_miss_the_seam(self):
        # (-1,0) u (0,1) misses the point 0, so it does not cover (-1,1).
        whole = Domain.of((-1, 1))
        split = Domain.of((-1, 0)).union(Domain.of((0, 1)))
        assert whole.covers(split)
        assert not split.covers(whole)

    def test_two_dim_seam(self):
        whole = Domain.of((0, 1), (0, 1))
        left = Domain.of((0, _f(1, 2)), (0, 1))
        right = Domain.of((_f(1, 2), 1), (0, 1))
        strip = Domain.of((_f(1, 4), _f(3, 4)), (0, 1))
        assert not left.union(right).covers(whole)
        assert left.union(right).union(strip).covers(whole)

    def test_unbounded_cover(self):
        line = Domain.full(1)
        rays = Domain.of((None, 1)).union(Domain.of((-1, None)))
        assert rays.covers(line)
        assert line.covers(rays)

    def test_closed_box_inside_open(self):
        d = Domain.of((-1, 1))
        assert d.covers_closed([(_f(-1, 2), _f(1, 2))])
        assert not d.covers_closed([(_f(-1, 2), _f(1))])
        assert not d.covers_closed([(None, _f(0))])
        assert Domain.full(1).covers_closed([(None, _f(0))])

    def test_closed_degenerate_point(self):
        d = Domain.of((-1, 0)).union(Domain.of((0, 1)))
        assert not d.covers_closed([(_f(0), _f(0))])
        assert d.covers_closed([(_f(1, 2), _f(1, 2))])

    def test_random_interval_unions(self):
        rng = random.Random(31)
        for _ in range(40):
            pieces = []
            for _ in range(rng.randint(1, 3)):
                a = _f(rng.randint(-4, 2))
                b = a + rng.randint(1, 4)
                pieces.append(Domain.of((a, b)))
            u = pieces[0]
            for p in pieces[1:]:
                u = u.union(p)
            target = Domain.of((rng.randint(-4, 0), rng.randint(1, 4)))
            got = u.covers(target)
            # check against dense sampling at denominator 16
            tlo = target.boxes[0].intervals[0].lo
            thi = target.boxes[0].intervals[0].hi
            samples = [
                tlo + Fraction(k, 16) * (thi - tlo) for k in range(1, 16)
            ]
            sampled = all(u.contains((s,)) for s in samples)
            if got:
                assert sampled
            # the converse can fail only between samples; verify at seams
            if sampled and not got:
                seam_missed = any(
                    target.contains((v,)) and not u.contains((v,))
                    for piece in u.boxes
                    for v in (piece.intervals[0].lo, piece.intervals[0].hi)
                    if v is not None
                )
                assert seam_missed


def _reference_interval_samples(iv, count, max_den):
    """The Fraction loop that `_interval_samples` replaced: every candidate
    up to the denominator where enough were found, sorted by (denominator,
    abs, value) and truncated.  Its cost grows with the interval's width."""
    if iv.lo is None and iv.hi is None:
        lo, hi = _f(-2), _f(2)
    elif iv.lo is None:
        lo, hi = iv.hi - 4, iv.hi
    elif iv.hi is None:
        lo, hi = iv.lo, iv.lo + 4
    else:
        lo, hi = iv.lo, iv.hi
    found, seen = [], set()
    for den in range(1, max_den + 1):
        stop = hi * den
        num = math.floor(lo * den) + 1
        while num < stop:
            v = Fraction(num, den)
            if v not in seen and lo < v < hi:
                seen.add(v)
                found.append(v)
            num += 1
        if len(found) >= count * 4:
            break
    found.sort(key=lambda v: (v.denominator, abs(v), v))
    return found[: max(count, 1)]


_endpoints = st.fractions(min_value=-40, max_value=40, max_denominator=12)
_widths = st.fractions(min_value=Fraction(1, 12), max_value=60, max_denominator=12)


@st.composite
def intervals(draw):
    """Bounded, half-bounded and unbounded intervals; some lie on one side
    of 0 and some are narrower than one step at small denominators."""
    lo = draw(_endpoints)
    shape = draw(st.sampled_from(["bounded", "narrow", "positive", "negative",
                                  "below", "above", "full"]))
    if shape == "narrow":
        return Interval(lo, lo + draw(st.fractions(
            min_value=Fraction(1, 100), max_value=Fraction(1, 2), max_denominator=100)))
    if shape == "positive":
        lo = abs(lo)
    if shape == "negative":
        hi = -abs(lo)
        return Interval(hi - draw(_widths), hi)
    if shape == "below":
        return Interval(None, lo)
    if shape == "above":
        return Interval(lo, None)
    if shape == "full":
        return Interval(None, None)
    return Interval(lo, lo + draw(_widths))


class TestSampling:
    @settings(max_examples=300)
    @given(intervals(), st.integers(1, 300), st.integers(1, 8))
    @example(Interval(_f(1, 3), _f(2, 5)), 5, 8)   # no integer, one step at den 3
    @example(Interval(_f(-1, 7), _f(1, 9)), 1, 1)   # only 0
    @example(Interval(_f(-7, 2), _f(-1, 3)), 300, 8)  # runs out of candidates
    @example(Interval(_f(0), None), 1, 8)
    def test_interval_samples_equal_the_fraction_loop(self, iv, count, max_den):
        assert _interval_samples(iv, count, max_den) == _reference_interval_samples(
            iv, count, max_den)

    def test_wide_interval_samples_the_integers_nearest_zero(self):
        # at the old O(width) loop this call did not finish
        pts = Domain.of((-10**12, 10**12)).sample_points(120)
        ints = [0] + [s * k for k in range(1, 61) for s in (-1, 1)]
        assert pts == [(_f(k),) for k in ints[:120]]
        assert pts[-3:] == [(_f(-59),), (_f(59),), (_f(-60),)]

    def test_simple_points_first(self):
        pts = Domain.of((0, 1)).sample_points(3)
        assert pts[0] == (_f(1, 2),)
        assert all(Domain.of((0, 1)).contains(p) for p in pts)
        assert len(set(pts)) == 3

    def test_unbounded_sampling_stays_deterministic(self):
        a = Domain.full(2).sample_points(8)
        b = Domain.full(2).sample_points(8)
        assert a == b
        assert len(set(a)) == 8

    def test_samples_respect_union(self):
        d = Domain.of((-2, -1)).union(Domain.of((1, 2)))
        pts = d.sample_points(6)
        assert len(pts) == 6
        assert all(d.contains(p) for p in pts)
        assert any(p[0] < 0 for p in pts)
        assert any(p[0] > 0 for p in pts)

    def test_dim_zero(self):
        assert Domain.full(0).sample_points(5) == [()]

    @pytest.mark.parametrize("domain, count, max_den", [
        (Domain.of((0, 1)), 3, 8),
        (Domain.of((0, 1)), 3, 2),
        (Domain.full(2), 8, 8),
        (Domain.of((-2, -1)).union(Domain.of((1, 2))), 6, 8),
        (Domain.of((None, 0), (1, None)), 10, 4),
        (Domain.full(0), 5, 8),
        (Domain.of((0, 1)), 0, 8),
        (Domain(1), 4, 8),
    ])
    def test_memoised_samples_match_a_fresh_computation(self, domain, count, max_den):
        first = _domain_samples(domain, count, max_den)
        again = _domain_samples(domain, count, max_den)
        assert first == again == _domain_samples.__wrapped__(domain, count, max_den)
        if max_den == SAMPLE_MAX_DEN:
            assert domain.sample_points(count) == list(first)

    @pytest.mark.parametrize("domain", [
        Domain.of((0, 1)),
        Domain.of((None, 0), (1, None)),
        Domain.full(3),
        Domain.of((_f(1, 3), _f(2, 5)), (-1, 1)),
        Domain.full(0),
        Domain.of((-2, -1)).union(Domain.of((1, 2))),
        Domain.of((0, 1), (0, 1)).union(Domain.of((_f(1, 2), 2), (_f(1, 2), 2))),
    ])
    @pytest.mark.parametrize("count", [1, 7, 40])
    def test_samples_equal_the_deduplicated_walk(self, domain, count):
        # only a union of boxes can repeat a point; one box skips the set
        assert _domain_samples.__wrapped__(domain, count, SAMPLE_MAX_DEN) == (
            _reference_domain_samples(domain, count, SAMPLE_MAX_DEN))

    def test_returned_lists_are_fresh(self):
        d = Domain.of((0, 1), (0, 1))
        pts = d.sample_points(4)
        expected = list(pts)
        pts.append((_f(5), _f(5)))
        pts[0] = (_f(9), _f(9))
        assert d.sample_points(4) == expected
        assert d.sample_points(4) is not d.sample_points(4)


class TestExprBounds:
    def test_polynomial_bounds_contain_samples(self):
        rng = random.Random(17)
        box = Box.of((-1, 2), (0, 3))
        e = Expr.parse("x0^2*x1 - 2*x0 + 1", 2)
        lo, hi = expr_bounds(e, box)
        for _ in range(50):
            pt = (
                _f(rng.randint(-15, 31), 16),
                _f(rng.randint(1, 47), 16),
            )
            if not box.contains(pt):
                continue
            v = e.eval(pt)
            assert lo <= v <= hi

    def test_even_power_tightness(self):
        # x^2 over (-1, 1) must give [0, 1], not [-1, 1].
        e = Expr.parse("x0^2", 1)
        assert expr_bounds(e, Box.of((-1, 1))) == (_f(0), _f(1))

    def test_unbounded_axis(self):
        e = Expr.parse("x0", 1)
        assert expr_bounds(e, Box.of((0, None))) == (_f(0), None)
        e2 = Expr.parse("x0^2", 1)
        assert expr_bounds(e2, Box.of((None, None))) == (_f(0), None)

    def test_rational_uses_denominator_floor(self):
        # 1 / (x^2 + 1) over all of R lies in (0, 1]; the witness floor
        # keeps the quotient bounded even though x^2 + 1 is unbounded.
        x = Expr.variable(1, 0)
        e = Expr.one(1) / (x * x + Expr.one(1))
        lo, hi = expr_bounds(e, Box.of((None, None)))
        assert lo == _f(0)
        assert hi == _f(1)

    def test_image_within(self):
        # t -> (t, t^2) maps (-1, 1) into (-2, 2) x (-1/2, 2) but not into
        # (-2, 2) x (1/2, 2).
        vec = ExprVec.parse(["x0", "x0^2"], 1)
        src = Domain.of((-1, 1))
        assert image_within(vec, src, Domain.of((-2, 2), (_f(-1, 2), 2)))
        assert not image_within(vec, src, Domain.of((-2, 2), (_f(1, 2), 2)))

    def test_vec_bounds_shapes(self):
        vec = ExprVec.parse(["x0 + x1", "x0*x1"], 2)
        got = vec_bounds(vec, Box.of((0, 1), (0, 1)))
        assert got[0] == (_f(0), _f(2))
        assert got[1] == (_f(0), _f(1))


def _reference_b_mul(a, b):
    """Interval product through `_ext_mul` on every pair of endpoints."""
    cands = [_ext_mul(x, sx, y, sy)
             for x, sx in ((a[0], -1), (a[1], 1))
             for y, sy in ((b[0], -1), (b[1], 1))]
    nums = [v for kind, v in cands if kind == "num"]
    lo = None if ("inf", -1) in cands else min(nums)
    hi = None if ("inf", 1) in cands else max(nums)
    return (lo, hi)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def bounds(draw, finite=False):
    """Closed bounds lo <= hi; lo or hi None (unbounded) unless finite."""
    lo = draw(st.one_of(st.just(_f(0)), _small))
    hi = lo + draw(st.one_of(st.just(_f(0)), st.fractions(
        min_value=0, max_value=4, max_denominator=4)))
    if finite:
        return (lo, hi)
    side = draw(st.sampled_from(["both", "both", "lo", "hi", "none"]))
    return (lo if side in ("both", "lo") else None, hi if side in ("both", "hi") else None)


@st.composite
def open_boxes(draw, arity):
    """Boxes whose endpoints are often 0 and whose sides may be unbounded."""
    sides = []
    for _ in range(arity):
        lo, hi = draw(bounds())
        if lo is not None and hi is not None and lo == hi:
            hi = lo + 1
        sides.append((lo, hi))
    return Box.of(*sides)


@st.composite
def bounded_exprs(draw, arity):
    """Polynomials of degree up to 3 per variable, some over a witnessed
    denominator sum of even powers plus a constant."""
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * arity), _small.filter(bool), max_size=4))
    e = Expr(arity, terms)
    if draw(st.booleans()):
        den = Expr.constant(arity, draw(st.sampled_from([_f(1, 2), _f(1), _f(3)])))
        for i in range(arity):
            x = Expr.variable(arity, i)
            den = den + x * x
        e = e / den
    return e


def _within(value, b):
    return (b[0] is None or b[0] <= value) and (b[1] is None or value <= b[1])


class TestBoundsSoundness:
    """expr_bounds and image_within against sampling: a bound holds at every
    sample point, and a yes of image_within holds at every sample."""

    @settings(max_examples=150)
    @given(st.data(), st.integers(1, 2))
    def test_every_sample_value_lies_within_the_bounds(self, data, arity):
        e = data.draw(bounded_exprs(arity))
        box = data.draw(open_boxes(arity))
        b = expr_bounds(e, box)
        for pt in Domain(arity, [box]).sample_points(40):
            assert _within(e.eval(pt), b), (e.to_str(), pt, b)

    @settings(max_examples=100)
    @given(st.data())
    def test_image_within_holds_at_every_sample(self, data):
        vec = ExprVec([data.draw(bounded_exprs(1)) for _ in range(2)])
        source = Domain(1, [data.draw(open_boxes(1))])
        # a target widened around the bounds must be certified, a drawn one may be
        widened = [(None if lo is None else lo - 1, None if hi is None else hi + 1)
                   for lo, hi in vec_bounds(vec, source.boxes[0])]
        drawn = data.draw(open_boxes(2))
        targets = [(Domain.of(*widened), True), (Domain(2, [drawn]), None)]
        for target, expected in targets:
            got = image_within(vec, source, target)
            if expected is not None:
                assert got == expected
            if got:
                for pt in source.sample_points(40):
                    assert target.contains(vec.eval(pt)), (vec.to_str(), pt)

    @settings(max_examples=300)
    @given(bounds(finite=True), bounds(finite=True))
    @example((_f(-1), _f(2)), (_f(-3), _f(-1, 2)))
    @example((_f(0), _f(0)), (_f(-1), _f(1)))
    def test_finite_product_equals_the_extended_path(self, a, b):
        assert _b_mul(a, b) == _reference_b_mul(a, b)

    @settings(max_examples=300)
    @given(bounds(), bounds())
    def test_product_with_unbounded_sides_equals_the_extended_path(self, a, b):
        assert _b_mul(a, b) == _reference_b_mul(a, b)


def _overlapping(iv: Interval, how: str, sign: int) -> Interval:
    """An interval meeting iv: shifted by a third of its width (by 1/3 on
    a half-bounded side) or widened by half its width to the left."""
    if iv.lo is None and iv.hi is None:
        return iv
    if iv.lo is None:
        return Interval(None, iv.hi + _f(sign, 3))
    if iv.hi is None:
        return Interval(iv.lo + _f(sign, 3), None)
    width = iv.hi - iv.lo
    if how == "widen":
        return Interval(iv.lo - width / 2, iv.hi)
    return Interval(iv.lo + sign * width / 3, iv.hi + sign * width / 3)


@st.composite
def sample_domains(draw):
    """Domains of one to three boxes in dimensions 1..3, with bounded,
    narrow, half-bounded and unbounded sides; a later box either overlaps
    the first on every axis or is drawn afresh."""
    dim = draw(st.integers(1, 3))
    first = Box(tuple(draw(intervals()) for _ in range(dim)))
    boxes = [first]
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["shift", "widen", "fresh"]))
        if how == "fresh":
            boxes.append(Box(tuple(draw(intervals()) for _ in range(dim))))
        else:
            boxes.append(Box(tuple(
                _overlapping(iv, how, draw(st.sampled_from([-1, 1])))
                for iv in first.intervals)))
    return Domain(dim, boxes)


_OVERLAPPING_SQUARES = Domain.of((0, 1), (0, 1)).union(
    Domain.of((_f(1, 2), 2), (_f(1, 2), 2))).union(Domain.of((_f(-1, 3), _f(2, 3)), (None, None)))


class TestSamplePrefixes:
    """`sample_points(k)` is the first k points of `sample_points(n)` for
    k <= n: `spaces.nonzero_sample` reads growing prefixes and relies on
    finding the witness a full scan finds."""

    @settings(max_examples=150, derandomize=True)
    @given(sample_domains(), st.lists(st.integers(0, 200), min_size=2, max_size=2).map(sorted))
    @example(Domain.of((_f(1, 3), _f(2, 5))), [1, 200])   # runs out of points
    @example(Domain.full(3), [64, 200])
    @example(_OVERLAPPING_SQUARES, [16, 200])
    @example(_OVERLAPPING_SQUARES, [4, 120])
    @example(Domain.of((None, 0), (1, None), (_f(-1, 5), _f(1, 7))), [64, 120])
    def test_a_smaller_count_reads_a_prefix(self, domain, counts):
        k, n = counts
        big = domain.sample_points(n)
        assert domain.sample_points(k) == big[:k]
        for step in (1, 4, 16, 64):
            if step <= n:
                assert domain.sample_points(step) == big[:step]


_R2_BOX = Domain.full(2).boxes[0]


@st.composite
def unions(draw, dim):
    """Zero to three boxes from `open_boxes`, often meeting at 0; in some,
    one more box that is all of R^dim."""
    boxes = draw(st.lists(open_boxes(dim), max_size=3))
    if draw(st.sampled_from([False, False, True])):
        boxes.insert(draw(st.integers(0, len(boxes))), Domain.full(dim).boxes[0])
    return Domain(dim, boxes)


def _arranged_covers(cover: Domain, other: Domain) -> bool:
    return all(_box_covered(b, cover.boxes) for b in other.boxes)


def _arranged_covers_closed(cover: Domain, closed) -> bool:
    return _cells_covered(
        [_axis_cells_closed(lo, hi, _axis_breaks(cover.boxes, i, lo, hi))
         for i, (lo, hi) in enumerate(closed)],
        cover.boxes,
    )


def _same_dim(draw_second):
    """A dimension 0..3 and a union of it, then what draw_second(dim) draws."""
    return st.integers(0, 3).flatmap(lambda n: st.tuples(unions(n), draw_second(n)))


class TestWholeDomains:
    """A domain with a box unbounded on every axis is all of R^n: covers,
    covers_closed and image_within answer from that, or for one covering
    box axis by axis, and must agree with the cell arrangement."""

    @settings(max_examples=200)
    @given(_same_dim(unions))
    @example((Domain.full(2), Domain.of((0, 1), (None, 1))))
    @example((Domain(2, [_R2_BOX, Box.of((0, 1), (0, 1))]), Domain.of((None, 0), (5, None))))
    @example((Domain.full(0), Domain.full(0)))
    @example((Domain(0), Domain.full(0)))
    @example((Domain.of((None, 1), (0, 2)), Domain.of((-5, 1), (0, 2))))
    @example((Domain.of((None, 1), (0, 2)), Domain.of((-5, 1), (0, None))))
    @example((Domain.of((None, None), (0, 2)), Domain(2)))
    def test_covers_equals_the_arrangement(self, pair):
        cover, other = pair
        assert cover.covers(other) == _arranged_covers(cover, other)
        if cover.whole:
            assert _arranged_covers(cover, Domain.full(cover.dim))

    @settings(max_examples=150)
    @given(_same_dim(lambda n: st.lists(bounds(), min_size=n, max_size=n)))
    @example((Domain.full(2), [(None, None), (_f(0), _f(0))]))
    @example((Domain(1, [Box.of((0, 1)), Domain.full(1).boxes[0]]), [(None, _f(3))]))
    @example((Domain.full(0), []))
    @example((Domain(0), []))
    @example((Domain.of((-1, 1)), [(_f(-1, 2), _f(1))]))
    def test_covers_closed_equals_the_arrangement(self, pair):
        cover, closed = pair
        assert cover.covers_closed(closed) == _arranged_covers_closed(cover, closed)

    @settings(max_examples=150)
    @given(st.data(), st.integers(1, 2), st.integers(1, 2))
    def test_image_within_equals_the_arrangement(self, data, arity, dim):
        vec = ExprVec([data.draw(bounded_exprs(arity)) for _ in range(dim)])
        source = data.draw(unions(arity))
        target = data.draw(unions(dim))
        expected = all(_arranged_covers_closed(target, vec_bounds(vec, box))
                       for box in source.boxes)
        assert image_within(vec, source, target) == expected

    def test_mismatched_dimensions_are_refused(self):
        plane, line = Domain.full(2), Domain.of((0, 1))
        for cover, other in ((plane, line), (line, plane), (Domain.full(0), line)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                cover.covers(other)
        with pytest.raises(ValueError, match="dimension mismatch"):
            plane.covers_closed([(None, None)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            image_within(ExprVec.parse(["x0"], 1), line, plane)

    @settings(max_examples=100)
    @given(st.integers(0, 3).flatmap(lambda n: st.lists(open_boxes(n), max_size=4)))
    def test_box_order_changes_neither_equality_nor_hash(self, boxes):
        dim = boxes[0].dim if boxes else 2
        forward = Domain(dim, boxes)
        backward = Domain(dim, reversed(boxes + boxes[:1]))
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert forward.whole == backward.whole

    def test_full_is_one_shared_instance_per_dimension(self):
        for n in range(5):
            assert Domain.full(n) is Domain.full(n)
            assert Domain.full(n).whole
            unshared = Domain(n, [Box(tuple(Interval(None, None) for _ in range(n)))])
            assert unshared == Domain.full(n) and hash(unshared) == hash(Domain.full(n))
        assert not Domain(0).whole
        assert not Domain.of((None, 1)).union(Domain.of((-1, None))).whole

    def test_image_within_a_whole_target_bounds_nothing(self, monkeypatch):
        calls = []
        real = domains.expr_bounds

        def counted(expr, box):
            calls.append(box)
            return real(expr, box)

        monkeypatch.setattr(domains, "expr_bounds", counted)
        vec = ExprVec.parse(["x0^3 - x1", "1/(1 + x0^2)"], 2)
        source = Domain.of((0, 1), (None, 2)).union(Domain.of((5, 6), (0, 1)))
        assert image_within(vec, source, Domain.full(2))
        assert image_within(vec, source, Domain(2, [Box.of((0, 1), (0, 1)), _R2_BOX]))
        assert calls == []
        # a target that is not whole is still bounded box by box
        assert not image_within(vec, source, Domain.of((None, None), (0, 1)))
        assert calls

    def test_a_cell_representative_stays_exact(self):
        rep = _cell_representative(("open", 0, 1))
        assert rep == _f(1, 2) and isinstance(rep, Fraction)
        assert _cell_representative(("open", _f(1, 3), _f(1, 2))) == _f(5, 12)
        # the public Interval keeps int endpoints as given
        split = Domain(1, [Box((Interval(0, 1),)), Box((Interval(1, 2),))])
        assert not split.covers(Domain.of((0, 2)))
        assert split.covers(Domain(1, [Box((Interval(0, 1),))]))
