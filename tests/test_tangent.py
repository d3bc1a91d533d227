import itertools
from fractions import Fraction

import pytest

from diffeokit.domains import Domain
from diffeokit.expr import Expr
from diffeokit.fixtures import load_registry
from diffeokit.spaces import (
    DEFAULT_BUDGET,
    AlgebraicCarrier,
    discrete_space,
    euclidean_space,
    generated_space,
    plot,
)
from diffeokit.linalg import affine_parts
from diffeokit.tangent import (
    PREIMAGE_SAMPLES,
    _image_table,
    _preimages,
    cone_membership,
    exhaustive_germ_search,
)


def axes_cross():
    eq = Expr.parse("x0*x1", 2)
    carrier = AlgebraicCarrier(2, (eq,))
    gens = (
        plot(Domain.full(1), ["x0", "0"]),
        plot(Domain.full(1), ["0", "x0"]),
    )
    return generated_space("cross", carrier, gens, complete=True)


F = Fraction


def nonzero_probes(dim):
    """Every nonzero vector over {-1, 0, 1}."""
    return [p for p in itertools.product((-1, 0, 1), repeat=dim) if any(p)]


def statuses(space, x, probes, budget=DEFAULT_BUDGET):
    return {v: cone_membership(space, x, v, budget).status for v in probes}


def stays_in_when_scaled(space, x, status, budget=DEFAULT_BUDGET):
    """Positive rescaling by 1/2 and by 3 keeps every `in` probe in."""
    return all(
        cone_membership(space, x, tuple(lam * c for c in v), budget).is_in
        for v, s in status.items() if s == "in"
        for lam in (F(1, 2), F(3))
    )


class TestCrossAtOrigin:
    def test_axes_are_in_the_cone(self):
        space = axes_cross()
        for v in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            verdict = cone_membership(space, (0, 0), v, budget=6)
            assert verdict.is_in
            assert verdict.germ.velocity() == tuple(F(c) for c in v)

    def test_diagonals_are_out(self):
        space = axes_cross()
        for v in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            verdict = cone_membership(space, (0, 0), v, budget=6)
            assert verdict.is_out
            assert verdict.obstruction.kind == "vanishing-order"

    def test_diagonal_refutations_confirmed_by_series_search(self):
        space = axes_cross()
        for v in [(1, 1), (1, -1)]:
            verdict = exhaustive_germ_search(space, (0, 0), v, degree=6)
            assert verdict.is_no and verdict.obstruction.kind == "series"
            # the quadratic coefficient is v0*v1, independent of all
            # higher path coefficients
            assert f"t^2 coefficient {F(v[0]) * F(v[1])} " in verdict.obstruction.detail

    def test_witness_scaling(self):
        space = axes_cross()
        status = statuses(space, (0, 0), [(1, 0), (1, 1)], budget=6)
        assert stays_in_when_scaled(space, (0, 0), status, budget=6)
        assert status[(1, 0)] == "in"
        assert status[(1, 1)] == "out"


class TestCrossOffOrigin:
    def test_only_horizontal_probes_at_axis_point(self):
        space = axes_cross()
        for v, status in statuses(space, (1, 0), nonzero_probes(2), budget=6).items():
            expected = "in" if v[1] == 0 else "out"
            assert status == expected, v

    def test_horizontal_witness_is_a_translated_line(self):
        space = axes_cross()
        verdict = cone_membership(space, (1, 0), (3, 0), budget=6)
        assert verdict.is_in
        assert verdict.germ.path.eval((F(0),)) == (F(1), F(0))
        assert verdict.germ.velocity() == (F(3), F(0))

    def test_vertical_refutation_is_first_order(self):
        space = axes_cross()
        verdict = cone_membership(space, (1, 0), (0, 1), budget=6)
        assert verdict.is_out
        assert verdict.obstruction.kind == "gradient"
        verdict = exhaustive_germ_search(space, (1, 0), (0, 1), degree=6)
        assert verdict.is_no and "t^1 coefficient" in verdict.obstruction.detail

    def test_off_carrier_basepoint_rejected(self):
        space = axes_cross()
        with pytest.raises(ValueError):
            cone_membership(space, (1, 1), (1, 0))


class TestEuclideanAndDiscrete:
    def test_full_cone_on_the_plane(self):
        plane = euclidean_space(2)
        status = statuses(plane, (2, -3), nonzero_probes(2))
        assert all(s == "in" for s in status.values())
        assert stays_in_when_scaled(plane, (2, -3), status)

    def test_zero_vector_always_in(self):
        space = axes_cross()
        assert cone_membership(space, (0, 0), (0, 0)).is_in

    def test_discrete_space_has_degenerate_cone(self):
        disc = discrete_space("pts", 1, [(F(0),), (F(2),)])
        assert cone_membership(disc, (0,), (0,)).is_in
        verdict = cone_membership(disc, (0,), (1,))
        assert verdict.is_out
        assert verdict.obstruction.kind == "annihilation"


class TestSeriesSearch:
    def test_unknown_names_the_search_and_its_cap(self):
        # every coefficient vanishes on the plane, but the straight line is
        # no certificate, so the search stays unknown rather than yes
        plane = exhaustive_germ_search(euclidean_space(2), (2, -3), (1, 1), degree=5)
        assert plane.is_unknown and "degree cap 5" in plane.detail
        # along the axis, the t^2 coefficient involves the unknown c_{1,2}
        cross = exhaustive_germ_search(axes_cross(), (0, 0), (1, 0), degree=4)
        assert cross.is_unknown
        assert cross.detail == "germ series search inconclusive at degree cap 4"

    def test_series_refutations_agree_with_the_cone(self):
        """Every built-in cone point against every nonzero {-1, 0, 1} probe:
        a series refutation means the cone says out, so no cone `in` meets
        one; and on these points every cone `out` is a series refutation."""
        reg = load_registry()
        cases, outs, refuted = 0, set(), set()
        for name, points in sorted(reg.cone_points.items()):
            space = reg.space(name)
            for x in points:
                for v in nonzero_probes(len(x)):
                    cone = cone_membership(space, x, v)
                    series = exhaustive_germ_search(space, x, v, degree=6)
                    where = (name, x, v)
                    if series.is_no:
                        refuted.add(where)
                        assert cone.is_out, where
                    if cone.is_out:
                        outs.add(where)
                    cases += 1
        assert cases == 28
        assert outs == refuted


class TestGeneratorJets:
    def test_jet_through_a_curved_generator(self):
        # image of t -> (t, t^2): velocities at (1, 1) are multiples of (1, 2)
        eq = Expr.parse("x1 - x0^2", 2)
        space = generated_space(
            "parabola",
            AlgebraicCarrier(2, (eq,)),
            (plot(Domain.full(1), ["x0", "x0^2"]),),
            complete=True,
        )
        hit = cone_membership(space, (1, 1), (1, 2), budget=4)
        assert hit.is_in
        assert hit.germ.velocity() == (F(1), F(2))
        miss = cone_membership(space, (1, 1), (1, 1), budget=4)
        assert miss.is_out
        assert miss.obstruction.kind == "gradient"


def _scanned_preimages(gen, x):
    """The sample scan the preimage table replaced, then the affine solve."""
    hits = [u for u in gen.domain.sample_points(PREIMAGE_SAMPLES) if gen.map.eval(u) == x]
    parts = affine_parts(gen.map)
    if parts is not None:
        solved = parts.preimage(x)
        if solved is not None and gen.domain.contains(tuple(solved)):
            if tuple(solved) not in hits:
                hits.append(tuple(solved))
    return hits


class TestPreimageTable:
    def test_table_equals_the_sample_scan_on_every_builtin_generator(self):
        reg = load_registry()
        # maps that send several samples to one point, which no built-in does
        folds = [plot(Domain.full(1), ["x0^2"]), plot(Domain.full(2), ["x0*x1", "x0^2"])]
        checked = 0
        for name, gens in [(n, sp.generators) for n, sp in sorted(reg.spaces.items())] + [
                ("folds", folds)]:
            extra = list(reg.cone_points.get(name, ()))
            for gen in gens:
                images = [gen.map.eval(u) for u in gen.domain.sample_points(PREIMAGE_SAMPLES)]
                miss = tuple(F(1, 997) for _ in range(len(gen.map)))
                for x in dict.fromkeys(images + extra + [miss]):
                    if len(x) != len(gen.map):
                        continue
                    assert _preimages(gen, x) == _scanned_preimages(gen, x), (name, x)
                    checked += 1
        assert checked > 100
        assert _preimages(folds[0], (F(1),)) == [(F(-1),), (F(1),)]

    def test_solved_preimage_off_the_samples_does_not_enter_the_table(self):
        gen = plot(Domain.full(1), ["x0", "2*x0 + 1"])
        x = (F(1, 1000), F(501, 500))
        table = _image_table(gen)
        before = {k: v for k, v in table.items()}
        first = _preimages(gen, x)
        assert first == [(F(1, 1000),)]
        first.append((F(9),))
        second = _preimages(gen, x)
        assert second == [(F(1, 1000),)]
        assert _image_table(gen) is table
        assert table == before and x not in table
        # a sample hit that the affine solve finds again is listed once
        assert _preimages(gen, (F(1), F(3))) == [(F(1),)]


class TestUnknownDetail:
    def test_cusp_unknown_names_each_search_and_its_cap(self):
        eq = Expr.parse("x0^3 - x1^2", 2)
        cusp = generated_space(
            "cusp", AlgebraicCarrier(2, (eq,)), (plot(Domain.full(1), ["x0^2", "x0^3"]),))
        for v in [(1, 0), (0, 1), (1, 1)]:
            verdict = cone_membership(cusp, (0, 0), v)
            assert verdict.status == "unknown", v
            assert "line search found no plot on radii 1 to 1/8 at budget 4" in verdict.detail
            assert f"(1 from {PREIMAGE_SAMPLES} samples per generator" in verdict.detail
            assert ("gradient, vanishing-order and annihilation obstructions do not apply"
                    in verdict.detail)
