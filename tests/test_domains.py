"""Box domains: containment, coverage, sampling, expression bounds."""

import random
from fractions import Fraction

import pytest

from diffeokit.domains import (
    Box,
    Domain,
    Interval,
    _domain_samples,
    expr_bounds,
    image_within,
    vec_bounds,
)
from diffeokit.expr import Expr, ExprVec


def _f(p, q=1):
    return Fraction(p, q)


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


class TestSampling:
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
        first = domain.sample_points(count, max_den)
        again = domain.sample_points(count, max_den)
        assert first == again == list(_domain_samples.__wrapped__(domain, count, max_den))

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
