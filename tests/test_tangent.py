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
    FactoredCert,
    Obstruction,
    Plot,
    Verdict,
    euclidean_space,
    generated_space,
    is_plot,
    plot,
    verify_certificate,
)
from diffeokit.linalg import affine_parts
from diffeokit.tangent import (
    LINE_STEPS,
    PREIMAGE_SAMPLES,
    ConeVerdict,
    _annihilation_obstruction,
    _find_germ,
    _jet_obstruction,
    _preimages,
    cone_membership,
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


def exhaustive_germ_search(space, x, v, degree=6):
    """The reference series search for cone refutations, written on Expr
    apart from the jet rule.  Expand the defining polynomials along
    x + v t + sum_{k=2..degree} c_k t^k with unknown c_k, keeping no power
    of t above the degree.  The t^k coefficient for k <= degree depends
    only on the k-jet of a path, so when one is a nonzero constant no
    smooth germ with velocity v stays in the carrier: no, with a "series"
    obstruction.  Otherwise unknown: coefficients that involve the unknowns
    decide nothing, coefficients that all vanish only say that the straight
    line stays in the carrier, which is no certified plot, and a rational
    equation is skipped and named."""
    x = tuple(Fraction(c) for c in x)
    v = tuple(Fraction(c) for c in v)
    n = len(x)
    unknowns = n * max(0, degree - 1)
    series = []
    for i in range(n):
        coeffs = {0: Expr.constant(unknowns, x[i]), 1: Expr.constant(unknowns, v[i])}
        for k in range(2, degree + 1):
            coeffs[k] = Expr.variable(unknowns, i * (degree - 1) + (k - 2))
        series.append(coeffs)

    all_zero = True
    skipped = []
    for eq in space.carrier.equations(""):
        if not eq.is_polynomial:
            skipped.append(eq.to_str())
            continue
        expanded = _series_eval(eq, series, unknowns, degree)
        for order in range(degree + 1):
            c = expanded.get(order)
            if c is None or c.is_zero():
                continue
            all_zero = False
            if c.is_constant:
                return Verdict.no(Obstruction("series", point=x, detail=(
                    f"{eq.to_str()} has t^{order} coefficient "
                    f"{c.constant_value()} along every path of degree at most {degree}")))
    if skipped:
        return Verdict.unknown(
            f"germ series search: skipped the rational equation(s) {', '.join(skipped)}; "
            f"no polynomial equation decides the path at degree cap {degree}"
        )
    if all_zero:
        return Verdict.unknown(
            f"germ series search: the straight line keeps every equation at 0 "
            f"up to t^{degree}, which certifies no plot (degree cap {degree})"
        )
    return Verdict.unknown(f"germ series search inconclusive at degree cap {degree}")


def _series_eval(eq, series, unknowns, degree):
    total = {}
    for exponents, coeff in eq.num.items():
        term = {0: Expr.constant(unknowns, coeff)}
        for i, e in enumerate(exponents):
            for _ in range(e):
                term = _series_mul(term, series[i], degree)
        total = _series_add(total, term)
    return total


def _series_add(a, b):
    out = dict(a)
    for k, val in b.items():
        out[k] = out[k] + val if k in out else val
    return out


def _series_mul(a, b, degree):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            if k <= degree:
                prod = va * vb
                out[k] = out[k] + prod if k in out else prod
    return out


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
        jet-rule refutation is a series refutation too."""
        reg = load_registry()
        builtin = [(reg.space(name), x)
                   for name, points in sorted(reg.cone_points.items()) for x in points]
        singular = [(_cusp(), (F(0), F(0))), (moved_cross(), (F(0), F(0)))]
        cases, outs, refuted, initial, jets = 0, set(), set(), [], []
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
                if cone.is_out and cone.obstruction.kind == "jet":
                    assert series.is_no, where
                    jets.append(space.name)
                if space.name in reg.cone_points:
                    if series.is_no:
                        refuted.add(where)
                        assert cone.is_out, where
                    if cone.is_out:
                        outs.add(where)
                    cases += 1
        assert cases == 28
        assert outs == refuted
        # the cusp's (+-1, 0) are series refutations (t^3 coefficient +-1)
        # that no lowest-degree form sees; the jet rule at order budget does
        assert initial.count("cusp") == 6
        assert initial.count("cross-psi") == 4
        assert jets == ["cusp", "cusp"]


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


    def test_a_jet_through_a_nonaffine_generator_keeps_its_factor(self):
        # is_plot leaves t -> ((1 + t)^2, (1 + t)^3) unknown on the space the
        # cusp map generates; the factor 1 + t the jet search built
        # certifies it, and the certificate replays
        cusp = _cusp()
        for x, v in [((1, 1), (2, 3)), ((1, -1), (-2, 3))]:
            x, v = tuple(map(F, x)), tuple(map(F, v))
            hit = cone_membership(cusp, x, v, budget=6)
            assert hit.is_in and hit.germ.velocity() == v
            germ = Plot(hit.germ.domain, hit.germ.path)
            assert is_plot(cusp, germ, 6).is_unknown
            assert isinstance(hit.germ.certificate, FactoredCert)
            assert verify_certificate(cusp, germ, hit.germ.certificate, 6)

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
        # below order 3 no jet coefficient of x0^3 - x1^2 along (1, 0) is read
        for budget in (1, 2):
            verdict = cone_membership(cusp, (0, 0), (1, 0), budget)
            assert verdict.status == "unknown"
            assert (f"line search found no plot on radii 1 to 1/8 at budget {budget}"
                    in verdict.detail)
            assert f"(1 from {PREIMAGE_SAMPLES} samples per generator" in verdict.detail
            assert ("gradient, vanishing-order and annihilation obstructions do not apply"
                    in verdict.detail)
            assert verdict.detail.endswith(f"nor the jet obstruction up to t^{budget}")
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


def _obstructions(space, x, v, budget):
    eqs = space.carrier.equations("")
    return [o for o in (
        _jet_obstruction(eqs, x, v, 1),
        _annihilation_obstruction(space, x, v),
        _jet_obstruction(eqs, x, v, budget),
    ) if o is not None]


def _germ_first(space, x, v, budget):
    """cone_membership as it ran with the germ search ahead of the
    obstructions, for a nonzero v at a carrier point."""
    germ, _ = _find_germ(space, x, v, budget)
    if germ is not None:
        return ConeVerdict(v, "in", germ=germ)
    blocked = _obstructions(space, x, v, budget)
    if blocked:
        return ConeVerdict(v, "out", obstruction=blocked[0])
    found = sum(len(_preimages(gen, x)) for _, gen in space.component_generators(""))
    return ConeVerdict(v, "unknown", detail=(
        f"no witness and no obstruction in budget: the line search found no plot "
        f"on radii 1 to 1/{2 ** (LINE_STEPS - 1)} at budget {budget}; the jet search "
        f"found no plot through the basepoint's generator preimages ({found} from "
        f"{PREIMAGE_SAMPLES} samples per generator and the affine solves); "
        f"the gradient, vanishing-order and annihilation obstructions do not apply, "
        f"nor the jet obstruction up to t^{budget}"
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
    in {-2, ..., 2}^n, the cusp (whose probes along the x0-axis only the
    jet rule refutes, and only from order 3) and the benchmark's cone
    queries at seeds 0 and 7."""

    def _cases(self):
        yield from _builtin_and_bench_probes()
        cusp = _cusp()
        for v in nonzero_probes(2):
            yield cusp, (F(0), F(0)), tuple(F(c) for c in v), DEFAULT_BUDGET
        for v in [(1, 0), (-1, 0)]:
            yield cusp, (F(0), F(0)), tuple(F(c) for c in v), 2

    def test_no_germ_where_an_obstruction_fires_and_verdicts_equal_germ_first(self):
        counts = {"in": 0, "out": 0, "unknown": 0}
        blocked, jets = 0, 0
        for space, x, v, budget in self._cases():
            where = (space.name, x, v)
            new = cone_membership(space, x, v, budget)
            counts[new.status] += 1
            jets += new.is_out and new.obstruction.kind == "jet"
            if not any(v):
                assert new.is_in and new.germ.velocity() == v, where
                continue
            if _obstructions(space, x, v, budget):
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
        # the cusp's (1, 0) and (-1, 0): no germ, and no lowest-degree form
        # sees them; the jet rule does at budget 4, but not at budget 2
        assert jets == 2
        assert counts["unknown"] == 2
        assert min(counts.values()) > 0


class TestInitialForm:
    """The jet rule at order 1 is the lowest-degree form of each equation
    at the basepoint, in place of the gradient and single-monomial tests."""

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
                assert _jet_obstruction(eqs, x, v, 1) == old, (space.name, x, v)
                fired[old.kind] += 1
        assert len(probes) == 606
        assert min(fired.values()) > 0
        assert _jet_obstruction(
            bent.carrier.equations(""), (F(1), F(1)), (F(1), F(1)), 1
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


def _singular_spaces():
    """Spaces singular at the origin, each with generators through it: the
    cusp, the moved cross, x1 = x0^8, the node, the tacnode and
    x1^3 = x0^4."""
    def space(name, eq, *maps):
        return generated_space(name, AlgebraicCarrier(2, (Expr.parse(eq, 2),)),
                               tuple(plot(Domain.full(1), m) for m in maps), complete=True)

    return [
        _cusp(),
        moved_cross(),
        space("eighth", "x1 - x0^8", ["x0", "x0^8"]),
        space("node", "x1^2 - x0^3 - x0^2", ["x0^2 - 1", "x0^3 - x0"]),
        space("tacnode", "x1^2 - x0^4", ["x0", "x0^2"], ["x0", "-x0^2"]),
        space("three-four", "x1^3 - x0^4", ["x0^3", "x0^4"]),
    ]


def _jet_probes():
    """Every nonzero probe in {-2, ..., 2}^n at the built-in cone points and
    at the origins of the singular spaces."""
    reg = load_registry()
    points = [(reg.space(name), x)
              for name, xs in sorted(reg.cone_points.items()) for x in xs]
    points += [(space, (F(0), F(0))) for space in _singular_spaces()]
    for space, x in points:
        for v in itertools.product(range(-2, 3), repeat=len(x)):
            if any(v):
                yield space, x, tuple(F(c) for c in v)


class TestJetRule:
    """`_jet_obstruction` at order K against the reference series search at
    degree K, and against the velocities of germs that are plots."""

    @pytest.mark.parametrize("order", [3, 6])
    def test_it_refutes_exactly_where_the_series_search_does(self, order):
        probes, refuted = 0, 0
        for space, x, v in _jet_probes():
            blocked = _jet_obstruction(space.carrier.equations(""), x, v, order)
            series = exhaustive_germ_search(space, x, v, degree=order)
            assert (blocked is not None) == series.is_no, (space.name, x, v)
            probes += 1
            refuted += series.is_no
        assert probes == 224
        assert 0 < refuted < probes

    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_no_velocity_of_a_generator_germ_is_refuted(self, order):
        """t -> g(u0 + t w) is a plot through g(u0), so no obstruction may
        refute its velocity J_g(u0) w."""
        reg = load_registry()
        # on x1 = x0^3 the velocity (1, 0) at the origin needs the germ's t^3 term
        cubic = generated_space("cubic", AlgebraicCarrier(2, (Expr.parse("x1 - x0^3", 2),)),
                                (plot(Domain.full(1), ["x0", "x0^3"]),), complete=True)
        spaces = [reg.space(name) for name in sorted(reg.spaces)] + _singular_spaces() + [cubic]
        cases = 0
        for space in spaces:
            if space.carrier.components() != ("",):
                continue
            eqs = space.carrier.equations("")
            for gen in space.generators:
                jac = gen.map.jacobian()
                for u0 in gen.domain.sample_points(12):
                    x = gen.map.eval(u0)
                    for w in itertools.product(range(-2, 3), repeat=gen.domain.dim):
                        v = tuple(sum((row[k].eval(u0) * wk for k, wk in enumerate(w)), F(0))
                                  for row in jac)
                        if any(v):
                            assert _jet_obstruction(eqs, x, v, order) is None, (
                                space.name, u0, w)
                            cases += 1
        assert cases > 1000

    def test_cusp_axis_probes_are_out_from_order_three(self):
        cusp = _cusp()
        for v, coefficient in [((1, 0), 1), ((-1, 0), -1)]:
            verdict = cone_membership(cusp, (0, 0), v, budget=6)
            assert verdict.is_out, v
            assert verdict.obstruction.kind == "jet"
            assert verdict.obstruction.detail == (
                f"x0^3 - x1^2 along the path has forced t^3 coefficient {coefficient}")
            for budget in (1, 2):
                low = cone_membership(cusp, (0, 0), v, budget)
                assert low.status == "unknown", (v, budget)
                assert f"jet obstruction up to t^{budget}" in low.detail

    def test_a_rational_cusp_is_refuted_through_its_numerator(self):
        eq = Expr.parse("(x0^3 - x1^2)/(1 + x0^2)", 2)
        origin = (F(0), F(0))
        assert _jet_obstruction([eq], origin, (F(1), F(0)), 2) is None
        blocked = _jet_obstruction([eq], origin, (F(1), F(0)), 3)
        assert blocked.kind == "jet"
        assert blocked.detail == (
            "the numerator of (x0^3 - x1^2)/(x0^2 + 1) along the path has forced "
            "t^3 coefficient 1")
        space = generated_space("rational-cusp", AlgebraicCarrier(2, (eq,)),
                                (plot(Domain.full(1), ["x0^2", "x0^3"]),))
        verdict = cone_membership(space, origin, (-1, 0), budget=6)
        assert verdict.is_out and verdict.obstruction.kind == "jet"
        # the reference search skips the rational equation
        assert exhaustive_germ_search(space, origin, (-1, 0), degree=6).is_unknown
