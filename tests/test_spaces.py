"""Membership, smoothness, and subduction checks on small spaces."""

from fractions import Fraction

import pytest

from diffeokit.domains import Box, Domain, Interval
from diffeokit.expr import Expr, ExprVec
from diffeokit.spaces import (
    AlgebraicCarrier,
    CarrierCert,
    ChecksCert,
    ConstantCert,
    EuclideanCarrier,
    FactoredCert,
    GeneratorCert,
    GlueCert,
    Obstruction,
    Plot,
    RelationPair,
    RuleCert,
    UnionCarrier,
    Verdict,
    all_hold,
    discrete_space,
    euclidean_space,
    generated_space,
    holds,
    identity_map,
    intersection_space,
    is_plot,
    is_smooth,
    is_subduction,
    maps_equal_mod_relation,
    plot,
    product_space,
    pullback_space,
    pushforward_space,
    quotient_space,
    smooth_map,
    subset_space,
    union_space,
    vanishes_on_carrier,
    verify_certificate,
)

R1 = Domain.full(1)
R2 = Domain.full(2)


def axes_cross():
    """The two coordinate axes in the plane, generated by their injections.

    For rational maps the two injections generate everything landing in
    the carrier: f*g = 0 forces f = 0 or g = 0 identically.
    """
    carrier = AlgebraicCarrier(2, (Expr.parse("x0*x1", 2),))
    gens = (
        plot(R1, ["x0", "0"]),
        plot(R1, ["0", "x0"]),
    )
    return generated_space("cross", carrier, gens, complete=True)


class TestEuclidean:
    def test_everything_rational_is_a_plot(self):
        r2 = euclidean_space(2)
        p = plot(R1, ["x0^2", "x0^3 - x0"])
        v = is_plot(r2, p)
        assert v.is_yes
        assert isinstance(v.certificate, CarrierCert)
        assert verify_certificate(r2, p, v.certificate)

    def test_constant_certificate(self):
        r2 = euclidean_space(2)
        p = plot(R2, ["3", "-1/2"])
        v = is_plot(r2, p)
        assert v.is_yes
        assert isinstance(v.certificate, ConstantCert)
        assert v.certificate.point == (Fraction(3), Fraction(-1, 2))


class TestCrossMembership:
    def test_generator_itself(self):
        cross = axes_cross()
        v = is_plot(cross, plot(R1, ["x0", "0"]))
        assert v.is_yes
        assert isinstance(v.certificate, GeneratorCert)
        assert v.certificate.index == 0

    def test_factor_through_first_axis(self):
        cross = axes_cross()
        p = plot(R1, ["x0^3 - x0", "0"])
        v = is_plot(cross, p)
        assert v.is_yes
        cert = v.certificate
        assert isinstance(cert, (FactoredCert, GlueCert))
        assert verify_certificate(cross, p, cert)

    def test_factor_through_second_axis_rational(self):
        cross = axes_cross()
        x = Expr.variable(1, 0)
        vec = ExprVec((Expr.zero(1), x / (x * x + Expr.one(1))))
        p = Plot(R1, vec)
        v = is_plot(cross, p)
        assert v.is_yes
        assert verify_certificate(cross, p, v.certificate)

    def test_two_parameter_plot(self):
        cross = axes_cross()
        p = plot(R2, ["x0 + 2*x1", "0"])
        v = is_plot(cross, p)
        assert v.is_yes
        assert verify_certificate(cross, p, v.certificate)

    def test_diagonal_is_refused_by_carrier(self):
        cross = axes_cross()
        v = is_plot(cross, plot(R1, ["x0", "x0"]))
        assert v.is_no
        assert v.obstruction.kind == "carrier"
        pt = v.obstruction.point
        assert pt is not None and pt[0] != 0

    def test_constant_at_origin(self):
        cross = axes_cross()
        v = is_plot(cross, plot(R1, ["0", "0"]))
        assert v.is_yes
        assert isinstance(v.certificate, ConstantCert)

    def test_union_domain_glues(self):
        cross = axes_cross()
        dom = Domain.of((-2, -1)).union(Domain.of((1, 2)))
        p = plot(dom, ["x0^2", "0"])
        v = is_plot(cross, p)
        assert v.is_yes
        assert isinstance(v.certificate, GlueCert)
        assert verify_certificate(cross, p, v.certificate)

    def test_budget_blocks_high_degree_factor(self):
        cross = axes_cross()
        p = plot(R1, ["x0^5 + x0", "0"])
        low = is_plot(cross, p, budget=4)
        high = is_plot(cross, p, budget=6)
        assert low.is_unknown
        assert high.is_yes
        # monotone: resolving ran in the yes direction, never yes -> no
        assert verify_certificate(cross, p, high.certificate, budget=6)

    def test_memoized_verdict_is_reused(self):
        cross = axes_cross()
        p = plot(R1, ["x0^3", "0"])
        first = is_plot(cross, p)
        second = is_plot(cross, p)
        assert first is second


class TestRefutations:
    def test_discrete_space_rejects_motion(self):
        pts = discrete_space("three-points", 1, [(0,), (1,), (2,)])
        v = is_plot(pts, plot(R1, ["x0"]))
        assert v.is_no
        assert v.obstruction.kind == "discrete"
        assert is_plot(pts, plot(R1, ["2"])).is_yes

    def test_affine_image_obstruction(self):
        # the line y = 2x, generated by t -> (t, 2t)
        line = generated_space(
            "double-slope",
            EuclideanCarrier(2),
            (plot(R1, ["x0", "2*x0"]),),
        )
        good = is_plot(line, plot(R1, ["3*x0 + 1", "6*x0 + 2"]))
        assert good.is_yes
        bad = is_plot(line, plot(R1, ["x0", "x0"]))
        assert bad.is_no
        assert bad.obstruction.kind == "image"
        assert bad.obstruction.point is not None

    def test_nonaffine_generator_gives_unknown(self):
        para = generated_space(
            "squares-only",
            EuclideanCarrier(1),
            (plot(R1, ["x0^2"]),),
        )
        assert is_plot(para, plot(R1, ["x0^2"])).is_yes
        shifted = is_plot(para, plot(R1, ["x0^2 + 2*x0 + 1"]))
        assert shifted.is_unknown


class TestForcedFactor:
    def test_graph_generator_forces_factor(self):
        # generator is the graph t -> (t, t^3 + t); candidates factor by
        # reading off the first coordinate
        graph = generated_space(
            "cubic-graph",
            EuclideanCarrier(2),
            (plot(R1, ["x0", "x0^3 + x0"]),),
        )
        p = plot(R1, ["x0^2", "x0^6 + x0^2"])
        v = is_plot(graph, p)
        assert v.is_yes
        assert verify_certificate(graph, p, v.certificate)
        off = is_plot(graph, plot(R1, ["x0", "x0^3"]))
        assert not off.is_yes


class TestQuotient:
    def test_sign_quotient_accepts_lifts(self):
        base = euclidean_space(1)
        rel = RelationPair("", ExprVec.identity(1), "", ExprVec.parse(["-x0"], 1), R1)
        space, proj = quotient_space("half-line", base, [rel])
        assert is_plot(space, plot(R1, ["x0^2"])).is_yes
        assert is_smooth(proj).is_yes

    def test_rewrite_reaches_base_plot(self):
        # base admits only cubes; the relation shifts by 1
        base = generated_space(
            "cubes", EuclideanCarrier(1), (plot(R1, ["x0^3"]),)
        )
        rel = RelationPair(
            "", ExprVec.identity(1), "", ExprVec.parse(["x0 + 1"], 1), R1
        )
        space, _ = quotient_space("cubes-mod-shift", base, [rel])
        v = is_plot(space, plot(R1, ["x0^3 + 1"]))
        assert v.is_yes
        assert isinstance(v.certificate, RuleCert)
        assert v.certificate.rule == "quotient"
        two = is_plot(space, plot(R1, ["x0^3 + 2"]))
        assert two.is_yes

    def test_complete_orbit_refutes(self):
        base = discrete_space("flat", 1, [(0,)])
        rel = RelationPair("", ExprVec.identity(1), "", ExprVec.parse(["-x0"], 1), R1)
        space, _ = quotient_space("flat-mod-sign", base, [rel])
        v = is_plot(space, plot(R1, ["x0"]))
        assert v.is_no

    def test_open_orbit_stays_unknown(self):
        base = generated_space(
            "cubes", EuclideanCarrier(1), (plot(R1, ["x0^3"]),)
        )
        rel = RelationPair(
            "", ExprVec.identity(1), "", ExprVec.parse(["x0 + 1"], 1), R1
        )
        space, _ = quotient_space("cubes-mod-shift", base, [rel])
        # never reachable by shifting a cube, but the orbit is infinite
        v = is_plot(space, plot(R1, ["x0^3 + x0"]))
        assert v.is_unknown

    def test_non_injective_side_leaves_the_search_incomplete(self):
        base = discrete_space("flat", 1, [(0,)])
        rel = RelationPair(
            "", ExprVec.parse(["x0 + x1"], 2), "", ExprVec.parse(["-x0 - x1"], 2), R2
        )
        space, _ = quotient_space("flat-mod-fold", base, [rel])
        assert is_plot(space, plot(R1, ["x0"])).is_unknown

    def test_map_off_both_images_is_refuted(self):
        base = discrete_space("flat-plane", 2, [(0, 0)])
        rel = RelationPair(
            "", ExprVec.parse(["x0", "0"], 1), "", ExprVec.parse(["x0", "1"], 1), R1
        )
        space, _ = quotient_space("flat-plane-mod-lift", base, [rel])
        assert is_plot(space, plot(R1, ["x0", "x0"])).is_no


class TestProductAndUnion:
    def test_product_slices(self):
        cross = axes_cross()
        r1 = euclidean_space(1)
        prod = product_space("cross-x-line", cross, r1)
        good = plot(R1, ["x0", "0", "5*x0"])
        v = is_plot(prod, good)
        assert v.is_yes
        assert verify_certificate(prod, good, v.certificate)
        bad = is_plot(prod, plot(R1, ["x0", "x0", "5*x0"]))
        assert bad.is_no

    def test_product_generators_cover_pairs(self):
        cross = axes_cross()
        prod = product_space("cross-squared", cross, cross)
        p = plot(R1, ["x0", "0", "0", "x0^2"])
        assert is_plot(prod, p).is_yes

    def test_union_components(self):
        a = euclidean_space(1, "a-line")
        b = euclidean_space(2, "b-plane")
        u = union_space("two-pieces", [("a", a), ("b", b)])
        assert is_plot(u, plot(R1, ["x0^2"], component="a")).is_yes
        assert is_plot(u, plot(R1, ["x0", "x0^3"], component="b")).is_yes
        v = is_plot(u, plot(R1, ["x0"], component="missing"))
        assert v.is_no


def _induced_cases():
    """(space, candidate, [(target, composite)]) for each induced rule."""
    cross = axes_cross()
    r1 = euclidean_space(1)
    ident = ExprVec.identity(2)
    swap = ExprVec.parse(["x1", "x0"], 2)
    first = ExprVec.parse(["x0"], 2)
    on_axis = plot(R1, ["x0", "0"])
    return {
        "subset": (
            subset_space("axis-in-cross", cross, [Expr.parse("x1", 2)]),
            on_axis, [(cross, on_axis)],
        ),
        "pullback": (
            pullback_space("swapped-cross", EuclideanCarrier(2), (("", "", swap),), cross),
            plot(R1, ["0", "x0"]), [(cross, on_axis)],
        ),
        "product": (
            product_space("cross-x-line", cross, r1),
            plot(R1, ["x0", "0", "5*x0"]),
            [(cross, on_axis), (r1, plot(R1, ["5*x0"]))],
        ),
        "intersection": (
            intersection_space(
                "cross-and-line", EuclideanCarrier(2),
                [(cross, (("", "", ident),)), (r1, (("", "", first),))],
            ),
            on_axis, [(cross, on_axis), (r1, plot(R1, ["x0"]))],
        ),
    }


class TestInducedSpaces:
    @pytest.mark.parametrize("rule", ["subset", "pullback", "product", "intersection"])
    def test_yes_carries_one_certificate_per_structure_map(self, rule):
        space, candidate, parts = _induced_cases()[rule]
        v = is_plot(space, candidate)
        assert v.is_yes
        assert v.certificate == RuleCert(
            rule, tuple(is_plot(target, p).certificate for target, p in parts)
        )
        assert verify_certificate(space, candidate, v.certificate)

    def test_pullback_undefined_on_the_component_is_refused(self):
        carrier = UnionCarrier((("a", EuclideanCarrier(1)), ("b", EuclideanCarrier(1))))
        only_a = (("a", "", ExprVec.identity(1)),)
        space = pullback_space("half-defined", carrier, only_a, euclidean_space(1))
        assert is_plot(space, plot(R1, ["x0^2"], component="a")).is_yes
        v = is_plot(space, plot(R1, ["x0^2"], component="b"))
        assert v.is_no
        assert v.obstruction.kind == "component"
        assert v.obstruction.component == "b"
        assert "pullback" in v.obstruction.detail

    def test_pushforward_along_a_parabola(self):
        # the line pushed forward along x -> (x, x^2) into the plane: the
        # forward map itself and a plot factored through it certify; the
        # carrier is the whole plane, so (x0, x0^3), which leaves the
        # parabola, is not refuted but only left without a factorization
        r1 = euclidean_space(1)
        forward = (("", "", ExprVec.parse(["x0", "x0^2"], 1)),)
        space = pushforward_space("parabola", EuclideanCarrier(2), r1, forward)
        for texts, kind in ((["x0", "x0^2"], "generator"), (["x0^3", "x0^6"], "factored")):
            candidate = plot(R1, texts)
            v = is_plot(space, candidate)
            assert v.is_yes
            assert v.certificate.kind == kind
            assert verify_certificate(space, candidate, v.certificate)
        assert is_plot(space, plot(R1, ["x0", "x0^3"])).is_unknown


class TestSubsetSpaces:
    def test_subset_of_standard_is_carrier_checked(self):
        r2 = euclidean_space(2)
        sub = subset_space("axes-sub", r2, [Expr.parse("x0*x1", 2)])
        assert sub.standard
        assert is_plot(sub, plot(R1, ["x0", "0"])).is_yes
        assert is_plot(sub, plot(R1, ["x0", "x0"])).is_no

    def test_unit_hyperbola_with_certified_inverse(self):
        r2 = euclidean_space(2)
        hyper = subset_space(
            "recip-pairs", r2, [Expr.parse("x0*x1 - 1", 2)]
        )
        x = Expr.variable(1, 0)
        f = x * x + Expr.one(1)
        p = Plot(R1, ExprVec((f, Expr.one(1) / f)))
        assert is_plot(hyper, p).is_yes


class TestSmoothness:
    def test_sum_out_of_cross(self):
        cross = axes_cross()
        r1 = euclidean_space(1)
        f = smooth_map(cross, r1, ["x0 + x1"])
        assert is_smooth(f).is_yes

    def test_axis_injection_into_cross(self):
        cross = axes_cross()
        r1 = euclidean_space(1)
        good = smooth_map(r1, cross, ["x0", "0"])
        assert is_smooth(good).is_yes
        bad = smooth_map(r1, cross, ["x0", "x0"])
        assert is_smooth(bad).is_no

    def test_swap_on_cross(self):
        cross = axes_cross()
        swap = smooth_map(cross, cross, ["x1", "x0"])
        v = is_smooth(swap)
        assert v.is_yes

    def test_carrier_map_with_equation_certificate(self):
        r2 = euclidean_space(2)
        cross_sub = subset_space(
            "axes-sub", r2, [Expr.parse("x0*x1", 2)],
            generators=(plot(R1, ["x0", "0"]), plot(R1, ["0", "x0"])),
            complete=True,
        )
        axis = subset_space("flat-axis", r2, [Expr.parse("x1", 2)])
        # (x, y) -> (x + y, x*y) kills the product coordinate on the axes
        f = smooth_map(cross_sub, axis, ["x0 + x1", "x0*x1"])
        assert is_smooth(f).is_yes
        # the identity does not: (0, 1) stays off the target carrier
        g = smooth_map(cross_sub, axis, ["x0", "x1"])
        assert is_smooth(g).is_no

    def test_identity_and_composition(self):
        cross = axes_cross()
        assert is_smooth(identity_map(cross)).is_yes

    def test_vanishing_certificate(self):
        r2 = euclidean_space(2)
        sub = subset_space(
            "axes-sub", r2, [Expr.parse("x0*x1", 2)],
            generators=(plot(R1, ["x0", "0"]), plot(R1, ["0", "x0"])),
        )
        assert vanishes_on_carrier(sub, Expr.parse("x0^2*x1", 2))
        assert not vanishes_on_carrier(sub, Expr.parse("x0 + x1", 2))


class TestSubduction:
    def test_linear_projection(self):
        r2 = euclidean_space(2)
        r1 = euclidean_space(1)
        proj = smooth_map(r2, r1, ["x0"])
        assert is_subduction(proj).is_yes

    def test_quotient_projection(self):
        base = euclidean_space(1)
        rel = RelationPair("", ExprVec.identity(1), "", ExprVec.parse(["-x0"], 1), R1)
        space, proj = quotient_space("half-line", base, [rel])
        assert is_subduction(proj).is_yes

    def test_non_surjective_inclusion_is_not_certified(self):
        r1 = euclidean_space(1)
        r2 = euclidean_space(2)
        incl = smooth_map(r1, r2, ["x0", "x0"])
        v = is_subduction(incl)
        assert not v.is_yes


class TestMapEqualityModRelation:
    def test_sign_flip_maps_agree(self):
        base = euclidean_space(1)
        rel = RelationPair("", ExprVec.identity(1), "", ExprVec.parse(["-x0"], 1), R1)
        space, _ = quotient_space("half-line", base, [rel])
        f = smooth_map(base, space, ["x0"])
        g = smooth_map(base, space, ["-x0"])
        h = smooth_map(base, space, ["x0 + 1"])
        assert maps_equal_mod_relation(f, g).is_yes
        assert maps_equal_mod_relation(f, h).is_no

    def test_capped_rewrite_search_stays_unknown(self):
        # x ~ x + 1: x0 + 3 is three rewrites away, x0 + 4 four; the budget
        # is the depth cap
        base = euclidean_space(1)
        rel = RelationPair("", ExprVec.identity(1), "", ExprVec.parse(["x0 + 1"], 1), R1)
        space, _ = quotient_space("circle", base, [rel])
        f = smooth_map(base, space, ["x0"])
        near = smooth_map(base, space, ["x0 + 3"])
        far = smooth_map(base, space, ["x0 + 4"])
        assert maps_equal_mod_relation(f, near, budget=3).is_yes
        capped = maps_equal_mod_relation(f, far, budget=3)
        assert capped.is_unknown
        assert "depth cap 3" in capped.detail
        assert maps_equal_mod_relation(f, far, budget=4).is_yes


class TestAllHold:
    def test_names_the_refuted_check_and_draws_no_further(self):
        drawn = []
        off = Obstruction("carrier", point=(Fraction(1),), detail="off the carrier")

        def checks():
            for name, verdict in (
                ("a", holds(None)), ("b", Verdict.no(off)), ("c", holds(None))
            ):
                drawn.append(name)
                yield name, verdict

        verdict = all_hold("all", checks())
        assert verdict.is_no
        assert verdict.obstruction == Obstruction(
            "b", point=(Fraction(1),), detail="off the carrier"
        )
        assert drawn == ["a", "b"]

    def test_unknown_beats_yes_and_loses_to_no(self):
        pending = ("a", Verdict.unknown("budget ran out"))
        verdict = all_hold("all", [pending, ("b", holds(None))])
        assert verdict.is_unknown
        assert verdict.detail == "a: budget ran out"
        assert all_hold("all", [pending, ("b", holds("broken"))]).is_no

    def test_yes_keeps_each_certificate_under_its_name(self):
        verdict = all_hold("both", [("a", holds(None)), ("b", Verdict.yes(CarrierCert()))])
        assert verdict.certificate == ChecksCert("both", (("a", None), ("b", CarrierCert())))


class TestCarrierSamples:
    @pytest.mark.parametrize("count", [1, 4, 12, 24])
    def test_memoised_samples_equal_an_uncached_computation(self, count):
        cross = axes_cross()
        first = cross.sample_carrier_points("", count)
        assert first and first == cross._carrier_points("", count)
        assert cross.sample_carrier_points("", count) == first
        r2 = euclidean_space(2)
        assert r2.sample_carrier_points("", count) == r2._carrier_points("", count)

    def test_a_mutated_result_leaves_the_next_call_unchanged(self):
        cross = axes_cross()
        first = cross.sample_carrier_points("", 8)
        expected = list(first)
        first.clear()
        second = cross.sample_carrier_points("", 8)
        assert second == expected
        second.append((Fraction(5), Fraction(5)))
        assert cross.sample_carrier_points("", 8) == expected


def _eager_quotient_membership(space, candidate, budget):
    """Quotient membership with the whole rewrite closure built before any
    representative is tested: the order the lazy search must reproduce."""
    from diffeokit.spaces import _relation_rewrites

    base = space.provenance[1]
    moves, complete = _relation_rewrites(space)
    reached = {(candidate.component, candidate.map.canonical_key()):
               (candidate.component, candidate.map)}
    frontier = [(candidate.component, candidate.map)]
    for _ in range(budget):
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
                if key not in reached:
                    reached[key] = (dst, got)
                    nxt.append((dst, got))
        if not nxt:
            break
        frontier = nxt
    else:
        complete = False
    unknowns = 0
    for comp, vec in reached.values():
        sub = is_plot(base, Plot(candidate.domain, vec, comp), budget)
        if sub.is_yes:
            return Verdict.yes(
                RuleCert("quotient", (comp, vec, sub.certificate)),
                detail="a representative lifts to the base space",
            )
        unknowns += sub.is_unknown
    if unknowns == 0 and complete:
        return Verdict.no(
            Obstruction("quotient", component=candidate.component,
                        detail="no equivalent representative lifts to the base space"),
            detail=f"all {len(reached)} representative(s) refuted",
        )
    return Verdict.unknown(f"quotient rewrites inconclusive at depth cap {budget}")


class TestLazyQuotientRewrites:
    """Representatives are tested as the rewrite closure reaches them; the
    verdict, its certificate and its detail equal the eager search's."""

    @staticmethod
    def lazy(space, candidate, budget):
        from diffeokit.spaces import _quotient_membership

        return _quotient_membership(space, candidate, budget)

    def assert_same(self, space, candidate, budget):
        lazy = self.lazy(space, candidate, budget)
        eager = _eager_quotient_membership(space, candidate, budget)
        assert lazy.status == eager.status
        assert lazy.certificate == eager.certificate
        assert lazy.obstruction == eager.obstruction
        assert lazy.detail == eager.detail
        return lazy

    @staticmethod
    def shifted_cross():
        # (x0, x1) ~ (x0, x1 - 1): (t, k) reaches the x0 axis after k rewrites
        rel = RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["x0", "x1 - 1"], 2), R2)
        return quotient_space("shifted-cross", axes_cross(), [rel])[0]

    def test_sign_quotient_lifts_its_candidate(self):
        from diffeokit.fixtures import load_registry

        space = load_registry().space("quotient-sign")
        for texts in (["x0^2 - 3*x0"], ["-x0^3 + 2"], ["x0 - x1^2"]):
            dom = R1 if all("x1" not in t for t in texts) else R2
            candidate = plot(dom, texts)
            verdict = self.assert_same(space, candidate, 6)
            assert verdict.is_yes
            assert verdict.certificate.parts[1] == candidate.map
            assert is_plot(space, candidate, 6).certificate == verdict.certificate

    def test_first_lift_deep_in_the_closure(self):
        # (t, 2) meets (t, 3) at depth 1 before (t, 0) at depth 2
        space = self.shifted_cross()
        for k in (1, 2, 3):
            candidate = plot(R1, ["x0", str(k)])
            verdict = self.assert_same(space, candidate, 6)
            assert verdict.is_yes
            assert verdict.certificate.parts[:2] == ("", ExprVec.parse(["x0", "0"], 1))

    def test_first_lift_in_breadth_first_move_order(self):
        # shifts along either axis: (2, 2) has no lift at depth 1, and at
        # depth 2 the first lift reached is (0, 2), ahead of (2, 0)
        shifts = [
            RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["x0 - 1", "x1"], 2), R2),
            RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["x0", "x1 - 1"], 2), R2),
        ]
        space, _ = quotient_space("lattice-cross", axes_cross(), shifts)
        verdict = self.assert_same(space, plot(R1, ["2", "2"]), 4)
        assert verdict.is_yes
        assert verdict.certificate.parts[1] == ExprVec.parse(["0", "2"], 1)

    def test_refutation_counts_the_whole_closure(self):
        # flipping either coordinate: (t + 1, 1) has four representatives,
        # none on the axes
        flips = [
            RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["-x0", "x1"], 2), R2),
            RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["x0", "-x1"], 2), R2),
        ]
        space, _ = quotient_space("flipped-cross", axes_cross(), flips)
        verdict = self.assert_same(space, plot(R1, ["x0 + 1", "1"]), 6)
        assert verdict.is_no
        assert verdict.detail == "all 4 representative(s) refuted"

    def test_capped_closure_stays_unknown(self):
        space = self.shifted_cross()
        candidate = plot(R1, ["x0", "5"])
        verdict = self.assert_same(space, candidate, 3)
        assert verdict.is_unknown
        assert verdict.detail == "quotient rewrites inconclusive at depth cap 3"
        assert self.assert_same(space, candidate, 5).is_yes
        # between the axis values, no representative ever lifts
        assert self.assert_same(space, plot(R1, ["x0", "1/2"]), 4).is_unknown

    def test_undecided_move_keeps_a_refutation_unknown(self):
        # the shift holds only for x1 > 0, which the diagonal leaves: the
        # one representative is refuted, but the closure is not exhaustive
        half = Domain(2, [Box((Interval(None, None), Interval(Fraction(0), None)))])
        rel = RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["x0", "x1 - 1"], 2), half)
        space, _ = quotient_space("half-shifted-cross", axes_cross(), [rel])
        verdict = self.assert_same(space, plot(R1, ["x0 + 1", "x0"]), 4)
        assert verdict.is_unknown
