import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from diffeokit.domains import SAMPLE_MAX_DEN, Domain, _domain_samples
from diffeokit.expr import Expr, ExprVec
from diffeokit.fixtures import load_registry
from diffeokit.spaces import (
    DEFAULT_BUDGET,
    AlgebraicCarrier,
    EuclideanCarrier,
    Obstruction,
    Plot,
    euclidean_space,
    generated_space,
    plot,
)
from diffeokit.linalg import affine_parts
from diffeokit.tangent import (
    LINE_STEPS,
    PREIMAGE_SAMPLES,
    ConeVerdict,
    _annihilation_obstruction,
    _find_germ,
    _initial_form_obstruction,
    _preimages,
    cone_membership,
    exhaustive_germ_search,
)

ROOT = Path(__file__).resolve().parent.parent


def axes_cross():
    eq = Expr.parse("x0*x1", 2)
    carrier = AlgebraicCarrier(2, (eq,))
    gens = (
        plot(Domain.full(1), ["x0", "0"]),
        plot(Domain.full(1), ["0", "x0"]),
    )
    return generated_space("cross", carrier, gens, complete=True)


def moved_cross():
    """`cross` moved along psi(x0, x1) = (x0, x1 + x0^2): the carrier
    x0*x1 - x0^3 = 0 is no single monomial, and the generators are pushed
    by psi."""
    psi = ExprVec.parse(["x0", "x1 + x0^2"], 2)
    cross = axes_cross()
    return generated_space(
        "cross-psi",
        AlgebraicCarrier(2, (Expr.parse("x0*x1 - x0^3", 2),)),
        tuple(Plot(g.domain, psi.compose(g.map)) for g in cross.generators),
        complete=True,
    )


def _cusp():
    eq = Expr.parse("x0^3 - x1^2", 2)
    return generated_space(
        "cusp", AlgebraicCarrier(2, (eq,)), (plot(Domain.full(1), ["x0^2", "x0^3"]),))


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
        disc = generated_space("pts", EuclideanCarrier(1), [
            Plot(Domain.full(1), ExprVec.constant(1, point)) for point in [(F(0),), (F(2),)]
        ])
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

    def test_orders_above_the_degree_cap_are_not_read(self):
        """On x1 = x0^8, (t, t^8) is a plot with velocity (1, 0).  A path of
        degree at most 6 has t^8 coefficient -1 there, which says nothing
        about smooth germs, whose t^8 term the search leaves out."""
        eighth = generated_space(
            "eighth", AlgebraicCarrier(2, (Expr.parse("x1 - x0^8", 2),)),
            (plot(Domain.full(1), ["x0", "x0^8"]),), complete=True)
        assert cone_membership(eighth, (0, 0), (1, 0)).is_in
        verdict = exhaustive_germ_search(eighth, (0, 0), (1, 0), degree=6)
        assert verdict.is_unknown
        assert verdict.detail == "germ series search inconclusive at degree cap 6"
        # within the cap, the same equation still refutes: t^1 coefficient 1
        refuted = exhaustive_germ_search(eighth, (0, 0), (0, 1), degree=6)
        assert refuted.is_no
        assert refuted.obstruction.detail.startswith("-x0^8 + x1 has t^1 coefficient 1")

    def test_a_skipped_rational_equation_is_named(self):
        # grad((x1 - x0^2)/(1 + x0^2)) . (1, 1) = -1/2 at (1, 1), so the
        # straight line leaves the carrier; the search does not expand a
        # rational equation, and says so instead of vouching for the line
        bent = generated_space("bent", AlgebraicCarrier(
            2, (Expr.parse("(x1 - x0^2)/(1 + x0^2)", 2),)), ())
        verdict = exhaustive_germ_search(bent, (1, 1), (1, 1), degree=6)
        assert verdict.is_unknown
        assert verdict.detail == (
            "germ series search: skipped the rational equation(s) "
            "(-x0^2 + x1)/(x0^2 + 1); no polynomial equation decides the path "
            "at degree cap 6")
        assert cone_membership(bent, (1, 1), (1, 1)).is_out

    def test_series_refutations_agree_with_the_cone(self):
        """Every built-in cone point against every nonzero {-1, 0, 1} probe:
        a series refutation means the cone says out, so no cone `in` meets
        one; and on these points every cone `out` is a series refutation.
        At the origins of the cusp and of the moved cross, every
        initial-form refutation is a series refutation too."""
        reg = load_registry()
        builtin = [(reg.space(name), x)
                   for name, points in sorted(reg.cone_points.items()) for x in points]
        singular = [(_cusp(), (F(0), F(0))), (moved_cross(), (F(0), F(0)))]
        cases, outs, refuted, initial = 0, set(), set(), []
        for space, x in builtin + singular:
            for v in nonzero_probes(len(x)):
                cone = cone_membership(space, x, v)
                series = exhaustive_germ_search(space, x, v, degree=6)
                where = (space.name, x, v)
                if series.is_no:
                    assert not cone.is_in, where
                if cone.is_out and cone.obstruction.kind in ("gradient", "vanishing-order"):
                    assert series.is_no, where
                    initial.append(space.name)
                if space.name in reg.cone_points:
                    if series.is_no:
                        refuted.add(where)
                        assert cone.is_out, where
                    if cone.is_out:
                        outs.add(where)
                    cases += 1
        assert cases == 28
        assert outs == refuted
        # the cusp's (+-1, 0) are series refutations (t^3 coefficient 1)
        # that no lowest-degree form sees, so the cone leaves them unknown
        assert initial.count("cusp") == 6
        assert initial.count("cross-psi") == 4


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


def _fresh_samples(gen):
    """The generator's first PREIMAGE_SAMPLES sample points, computed past
    the domain-sample memo."""
    return _domain_samples.__wrapped__(gen.domain, PREIMAGE_SAMPLES, SAMPLE_MAX_DEN)


def _scanned_preimages(gen, x):
    """The scan of freshly computed samples, then the affine solve: the
    reference for `_preimages`."""
    hits = [u for u in _fresh_samples(gen) if gen.map.eval(u) == x]
    parts = affine_parts(gen.map)
    if parts is not None:
        solved = parts.preimage(x)
        if solved is not None and gen.domain.contains(tuple(solved)):
            if tuple(solved) not in hits:
                hits.append(tuple(solved))
    return hits


class TestPreimageTable:
    """`_preimages` scans the table of samples that the domain-sample memo
    holds for each generator domain."""

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
        table = _domain_samples(gen.domain, PREIMAGE_SAMPLES, SAMPLE_MAX_DEN)
        assert x not in [gen.map.eval(u) for u in table]
        first = _preimages(gen, x)
        assert first == [(F(1, 1000),)]
        first.append((F(9),))
        assert _preimages(gen, x) == [(F(1, 1000),)]
        assert _domain_samples(gen.domain, PREIMAGE_SAMPLES, SAMPLE_MAX_DEN) == table
        assert (F(1, 1000),) not in table and (F(9),) not in table
        # a sample hit that the affine solve finds again is listed once
        assert _preimages(gen, (F(1), F(3))) == [(F(1),)]


class TestUnknownDetail:
    def test_cusp_unknown_names_each_search_and_its_cap(self):
        cusp = _cusp()
        verdict = cone_membership(cusp, (0, 0), (1, 0))
        assert verdict.status == "unknown"
        assert "line search found no plot on radii 1 to 1/8 at budget 4" in verdict.detail
        assert f"(1 from {PREIMAGE_SAMPLES} samples per generator" in verdict.detail
        assert ("gradient, vanishing-order and annihilation obstructions do not apply"
                in verdict.detail)
        # the lowest-degree form -x1^2 refutes every probe with v1 != 0
        for v in [(0, 1), (1, 1)]:
            verdict = cone_membership(cusp, (0, 0), v)
            assert verdict.is_out, v
            assert verdict.obstruction.kind == "vanishing-order"


def _bench_cone_queries(seed):
    """(space, point, vector) of the cone queries the membership benchmark
    draws at this seed; bench/gen.py never imports diffeokit."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    inputs = gen.membership_inputs(seed)
    return [
        (q["space"], tuple(F(c) for c in q["point"]), tuple(F(c) for c in q["vector"]))
        for q in inputs["queries"] if q["kind"] == "cone"
    ], inputs["budget"]


def _linear_obstruction(eqs, x, v):
    """The gradient test the initial-form rule replaced, kept as its
    reference: a defining equation forces grad q(x) . v = 0."""
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


def _monomial_obstruction(eqs, x, v):
    """The single-monomial test the initial-form rule replaced, kept as its
    reference: along a path with velocity v, the lowest t-coefficient of a
    monomial equation is a product of the v_i over its zero coordinates."""
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


def _obstructions(space, x, v):
    eqs = space.carrier.equations("")
    return [o for o in (
        _initial_form_obstruction(eqs, x, v),
        _annihilation_obstruction(space, x, v),
    ) if o is not None]


def _germ_first(space, x, v, budget):
    """cone_membership as it ran with the germ search ahead of the
    obstructions, for a nonzero v at a carrier point."""
    germ, _ = _find_germ(space, x, v, budget)
    if germ is not None:
        return ConeVerdict(v, "in", germ=germ)
    blocked = _initial_form_obstruction(space.carrier.equations(""), x, v)
    if blocked is None:
        blocked = _annihilation_obstruction(space, x, v)
    if blocked is not None:
        return ConeVerdict(v, "out", obstruction=blocked)
    found = sum(len(_preimages(gen, x)) for _, gen in space.component_generators(""))
    return ConeVerdict(v, "unknown", detail=(
        f"no witness and no obstruction in budget: the line search found no plot "
        f"on radii 1 to 1/{2 ** (LINE_STEPS - 1)} at budget {budget}; the jet search "
        f"found no plot through the basepoint's generator preimages ({found} from "
        f"{PREIMAGE_SAMPLES} samples per generator and the affine solves); "
        f"the gradient, vanishing-order and annihilation obstructions do not apply"
    ))


def _builtin_and_bench_probes():
    """(space, point, vector, budget) for every built-in cone point with
    probes in {-2, ..., 2}^n, then the benchmark's cone queries at seeds 0
    and 7."""
    reg = load_registry()
    for name, points in sorted(reg.cone_points.items()):
        space = reg.space(name)
        for x in points:
            for v in itertools.product(range(-2, 3), repeat=len(x)):
                yield space, x, tuple(F(c) for c in v), DEFAULT_BUDGET
    for seed in (0, 7):
        queries, budget = _bench_cone_queries(seed)
        for name, x, v in queries:
            yield reg.space(name), x, v, budget


class TestObstructionsBeforeGerms:
    """cone_membership runs the obstructions before the germ search.  That
    is sound only because no certified germ exists where an obstruction
    fires; both claims are checked on every built-in cone point with probes
    in {-2, ..., 2}^n, the cusp (whose probes along the x0-axis stay
    unknown) and the benchmark's cone queries at seeds 0 and 7."""

    def _cases(self):
        yield from _builtin_and_bench_probes()
        cusp = _cusp()
        for v in nonzero_probes(2):
            yield cusp, (F(0), F(0)), tuple(F(c) for c in v), DEFAULT_BUDGET

    def test_no_germ_where_an_obstruction_fires_and_verdicts_equal_germ_first(self):
        counts = {"in": 0, "out": 0, "unknown": 0}
        blocked = 0
        for space, x, v, budget in self._cases():
            where = (space.name, x, v)
            new = cone_membership(space, x, v, budget)
            counts[new.status] += 1
            if not any(v):
                assert new.is_in and new.germ.velocity() == v, where
                continue
            if _obstructions(space, x, v):
                blocked += 1
                assert _find_germ(space, x, v, budget)[0] is None, where
            ref = _germ_first(space, x, v, budget)
            assert new.status == ref.status, where
            assert new.detail == ref.detail, where
            if ref.obstruction is None:
                assert new.obstruction is None, where
            else:
                assert new.obstruction.kind == ref.obstruction.kind, where
                assert new.obstruction.detail == ref.obstruction.detail, where
            if ref.germ is None:
                assert new.germ is None, where
            else:
                assert new.germ.path == ref.germ.path, where
                assert new.germ.domain == ref.germ.domain, where
                assert new.germ.certificate == ref.germ.certificate, where
        assert blocked == counts["out"]
        # the cusp's (1, 0) and (-1, 0): no germ, yet no lowest-degree form
        # sees them
        assert counts["unknown"] == 2
        assert min(counts.values()) > 0


class TestInitialForm:
    """One rule, the lowest-degree form of each equation at the basepoint,
    in place of the gradient and single-monomial tests."""

    def test_it_fires_wherever_an_old_rule_fires_with_the_same_report(self):
        probes = list(_builtin_and_bench_probes())
        # a rational equation: its gradient value is the numerator's over den(x)
        bent = generated_space("bent", AlgebraicCarrier(
            2, (Expr.parse("(x1 - x0^2)/(1 + x0^2)", 2),)), ())
        probes += [(bent, (F(1), F(1)), (F(1), F(1)), DEFAULT_BUDGET)]
        fired = {"gradient": 0, "vanishing-order": 0}
        for space, x, v, _ in probes:
            eqs = space.carrier.equations("")
            old = _linear_obstruction(eqs, x, v) or _monomial_obstruction(eqs, x, v)
            if old is not None:
                assert _initial_form_obstruction(eqs, x, v) == old, (space.name, x, v)
                fired[old.kind] += 1
        assert len(probes) == 606
        assert min(fired.values()) > 0
        assert _initial_form_obstruction(
            bent.carrier.equations(""), (F(1), F(1)), (F(1), F(1))
        ).detail == "grad((-x0^2 + x1)/(x0^2 + 1)) . v = -1/2 along any smooth path"

    def test_moved_diagonals_and_cusp_probes_are_out_at_order_two(self):
        probes = [(moved_cross(), v) for v in [(1, 1), (1, -1), (-1, 1), (-1, -1)]]
        probes += [(_cusp(), v) for v in [(0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]]
        for space, v in probes:
            verdict = cone_membership(space, (0, 0), v, budget=6)
            assert verdict.is_out, (space.name, v)
            assert verdict.obstruction.kind == "vanishing-order"
            assert verdict.obstruction.detail.endswith("forced nonzero t^2 coefficient")
            series = exhaustive_germ_search(space, (0, 0), v, degree=6)
            assert series.is_no, (space.name, v)
            coefficient = series.obstruction.detail.split(" has t^2 coefficient ")[1]
            assert coefficient.split()[0] in ("1", "-1"), (space.name, v)
