"""Membership, smoothness, and subduction checks on small spaces."""

import functools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit import domains, spaces
from diffeokit.bundles import _difference_verdict
from diffeokit.domains import SAMPLE_MAX_DEN, Box, Domain, Interval, _domain_samples, format_point
from diffeokit.expr import Expr, ExprError, ExprVec
from diffeokit.spaces import (
    AlgebraicCarrier,
    CarrierCert,
    ChecksCert,
    ConstantCert,
    DiffSpace,
    EuclideanCarrier,
    FactoredCert,
    GeneratorCert,
    GlueCert,
    Obstruction,
    Plot,
    ProductCarrier,
    RelationPair,
    RuleCert,
    UnionCarrier,
    Verdict,
    all_hold,
    euclidean_space,
    generated_space,
    holds,
    identity_map,
    intersection_space,
    is_plot,
    is_smooth,
    is_subduction,
    maps_equal_mod_relation,
    nonzero_sample,
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


def constant_plots(*points):
    """The constant parametrisations R -> point, one per point: generators
    of a discretely generated space."""
    return tuple(Plot(R1, ExprVec.constant(1, point)) for point in points)


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
        pts = generated_space(
            "three-points", EuclideanCarrier(1), constant_plots((0,), (1,), (2,))
        )
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
        base = generated_space("flat", EuclideanCarrier(1), constant_plots((0,)))
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
        base = generated_space("flat", EuclideanCarrier(1), constant_plots((0,)))
        rel = RelationPair(
            "", ExprVec.parse(["x0 + x1"], 2), "", ExprVec.parse(["-x0 - x1"], 2), R2
        )
        space, _ = quotient_space("flat-mod-fold", base, [rel])
        assert is_plot(space, plot(R1, ["x0"])).is_unknown

    def test_map_off_both_images_is_refuted(self):
        base = generated_space("flat-plane", EuclideanCarrier(2), constant_plots((0, 0)))
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

    def test_pieces_of_the_wrong_shape_are_refused(self):
        r1, r2 = euclidean_space(1, "r1"), euclidean_space(2, "r2")
        with pytest.raises(ExprError, match=r"map 'short': .* to 1 component\(s\)"):
            smooth_map(r1, r2, ["x0"], name="short")
        with pytest.raises(ExprError, match=r"map 'wide': piece ''->'' takes 2 variable"):
            smooth_map(r1, r2, ExprVec.parse(["x0", "x1"], 2), name="wide")
        union = union_space("u", [("a", r1), ("b", r1)])
        with pytest.raises(ExprError, match="map 'stray': 'u' has no component 'c'"):
            smooth_map(r1, union, {"": ("c", ["x0"])}, name="stray")

    def test_a_missing_source_component_names_the_map(self):
        # the component is checked before its formula is parsed, so a text
        # piece fails as an ExprVec piece does, not with a bare KeyError
        # from the carrier
        r1 = euclidean_space(1, "r1")
        union = union_space("u", [("a", r1), ("b", r1)])
        with pytest.raises(ExprError, match="map 'm': 'u' has no component 'zz'"):
            smooth_map(union, r1, {"zz": ("", ["x0"])}, name="m")
        with pytest.raises(ExprError, match="map 'm': 'u' has no component 'zz'"):
            smooth_map(union, r1, {"zz": ("", ExprVec.parse(["x0"], 1))}, name="m")
        with pytest.raises(ExprError, match="map 'm': 'u' has no component ''"):
            smooth_map(union, r1, ["x0"], name="m")

    def test_vanishing_certificate(self):
        r2 = euclidean_space(2)
        sub = subset_space(
            "axes-sub", r2, [Expr.parse("x0*x1", 2)],
            generators=(plot(R1, ["x0", "0"]), plot(R1, ["0", "x0"])),
        )
        assert vanishes_on_carrier(sub, Expr.parse("x0^2*x1", 2))
        assert not vanishes_on_carrier(sub, Expr.parse("x0 + x1", 2))


class TestMapsOutOfQuotients:
    """A map out of a quotient must send the two sides of every relation
    pair to one point: [1] = [-1] in R/(x ~ -x)."""

    def sign_quotient(self):
        rel = RelationPair("", ExprVec.identity(1), "", ExprVec.parse(["-x0"], 1), R1)
        space, _ = quotient_space("half-line", euclidean_space(1), [rel])
        return space, rel

    def test_unfolding_the_quotient_is_refuted_at_a_replayable_point(self):
        space, rel = self.sign_quotient()
        f = smooth_map(space, euclidean_space(1), ["x0"])
        v = is_smooth(f)
        assert v.is_no
        ob = v.obstruction
        assert ob.kind == "relation"
        # replay by exact evaluation: p's two sides are related, their
        # images are not equal
        left, right = rel.left_map.eval(ob.point), rel.right_map.eval(ob.point)
        _, vec = f.piece("")
        assert vec.eval(left) != vec.eval(right)
        assert ob.detail == (
            f"({left[0]}) ~ ({right[0]}) map to ({vec.eval(left)[0]}) and ({vec.eval(right)[0]})"
        )

    def test_even_maps_stay_smooth(self):
        space, _ = self.sign_quotient()
        assert is_smooth(smooth_map(space, euclidean_space(1), ["x0^2"])).is_yes
        assert is_smooth(smooth_map(space, euclidean_space(2), ["x0^2", "x0^4 - 1"])).is_yes

    def test_into_a_quotient_the_sides_may_differ_by_the_relation(self):
        space, _ = self.sign_quotient()
        assert is_smooth(identity_map(space)).is_yes
        assert is_smooth(smooth_map(space, space, ["x0^3"])).is_yes
        shifted = is_smooth(smooth_map(space, space, ["x0 + 1"]))
        assert shifted.is_no
        assert shifted.obstruction.kind == "rewrite"

    def nested_quotient(self):
        flip_x = RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["-x0", "x1"], 2), R2)
        flip_y = RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["x0", "-x1"], 2), R2)
        inner, _ = quotient_space("mod-x", euclidean_space(2), [flip_x])
        nested, _ = quotient_space("mod-x-mod-y", inner, [flip_y])
        return nested

    def test_nested_quotients_check_every_relation(self):
        nested = self.nested_quotient()
        r1 = euclidean_space(1)
        assert is_smooth(smooth_map(nested, r1, ["x0^2 + x1^2"])).is_yes
        # respects the outer pair, not the inner one
        v = is_smooth(smooth_map(nested, r1, ["x0 + x1^2"]))
        assert v.is_no
        assert v.obstruction.kind == "relation"

    def test_into_a_nested_quotient_every_level_rewrites(self):
        nested = self.nested_quotient()
        # the inner pair's sides (x0, x1) and (-x0, x1) meet only by the
        # inner quotient's rewrite
        assert is_smooth(identity_map(nested)).is_yes
        assert is_smooth(smooth_map(nested, nested, ["x1", "x0"])).is_yes
        # [(a, 1 + b)] and [(a, 1 - b)] differ unless b = 0
        shifted = is_smooth(smooth_map(nested, nested, ["x0", "x1 + 1"]))
        assert shifted.is_no
        assert shifted.obstruction.kind == "rewrite"

    def test_into_a_product_with_a_quotient_factor(self):
        space, rel = self.sign_quotient()
        both = product_space("half-line*R", space, euclidean_space(1))
        assert is_smooth(smooth_map(space, both, ["x0", "x0^2"])).is_yes
        # equal in the quotient factor, apart in the line
        v = is_smooth(smooth_map(space, both, ["x0", "x0"]))
        assert v.is_no
        assert v.obstruction.kind == "relation"
        left, right = rel.left_map.eval(v.obstruction.point), rel.right_map.eval(v.obstruction.point)
        assert left[0] != right[0]

    def test_into_a_union_with_a_quotient_part(self):
        space, _ = self.sign_quotient()
        union = union_space("half-line+R", (("q", space), ("r", euclidean_space(1))))
        assert is_smooth(smooth_map(space, union, {"": ("q", ["x0"])})).is_yes
        assert is_smooth(smooth_map(space, union, {"": ("r", ["x0"])})).is_no

    def test_a_quotient_below_a_product_leaves_other_rewrites_open(self):
        space, _ = self.sign_quotient()
        flip = RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["x0", "-x1"], 2), R2)
        outer, _ = quotient_space(
            "outer", product_space("half-line*R", space, euclidean_space(1)), [flip]
        )
        assert is_smooth(identity_map(outer)).is_yes
        # the sides (a*b, b^2) and (-a*b, b^2) are one point through the
        # factor's own relation: the outer rewrites do not reach it, the
        # block-by-block comparison in the base does
        v = is_smooth(smooth_map(outer, outer, ["x0*x1", "x1^2"]))
        assert v.is_yes
        # (a, 1 + b) and (a, 1 - b) differ, but with the factor's relation
        # out of the outer rewrites' reach, the search cannot say no
        assert is_smooth(smooth_map(outer, outer, ["x0", "x1 + 1"])).is_unknown

    def test_out_of_a_product_with_a_quotient_factor(self):
        """A factor's pair p ~ -p is lifted through each generator g of the
        other factor, to (p, g(u)) ~ (-p, g(u)) on R x dom(g)."""
        space, rel = self.sign_quotient()
        r1 = euclidean_space(1)
        for both, (dp, du) in ((product_space("Q*R", space, r1), (0, 1)),
                               (product_space("R*Q", r1, space), (1, 0))):
            f = smooth_map(both, r1, [f"x{dp}"])
            v = is_smooth(f)
            assert v.is_no, both.name
            ob = v.obstruction
            assert ob.kind == "relation"
            p, u = ob.point[dp], ob.point[du]
            side = (p, u) if dp == 0 else (u, p)
            other = (-p, u) if dp == 0 else (u, -p)
            _, vec = f.piece("")
            assert vec.eval(side) != vec.eval(other)
            assert ob.detail == (
                f"{format_point(side)} ~ {format_point(other)} map to "
                f"{format_point(vec.eval(side))} and {format_point(vec.eval(other))}"
            )
            even = [f"x{dp}^2 + x{du}"]
            assert is_smooth(smooth_map(both, r1, even)).is_yes, both.name

    def test_out_of_a_union_with_a_quotient_part(self):
        space, _ = self.sign_quotient()
        r1 = euclidean_space(1)
        union = union_space("Q+R", (("q", space), ("r", r1)))
        v = is_smooth(smooth_map(union, r1, {"q": ("", ["x0"]), "r": ("", ["x0"])}))
        assert v.is_no
        assert v.obstruction.kind == "relation" and v.obstruction.component == "q"
        even = smooth_map(union, r1, {"q": ("", ["x0^2"]), "r": ("", ["x0"])})
        assert is_smooth(even).is_yes

    def test_a_quotient_in_a_product_part_is_lifted_through_the_part_space(self):
        # a union keeps its part spaces, so a product part lifts its
        # factor's pairs through the other factor's generators
        space, _ = self.sign_quotient()
        r1 = euclidean_space(1)
        union = union_space("QR+R", (("p", product_space("Q*R", space, r1)), ("r", r1)))
        for texts, status in ((["x0^2"], "yes"), (["x0"], "no"), (["x0^2 + x1"], "yes")):
            f = smooth_map(union, r1, {"p": ("", texts), "r": ("", ["x0"])})
            assert is_smooth(f).status == status, texts
        v = is_smooth(smooth_map(union, r1, {"p": ("", ["x0"]), "r": ("", ["x0"])}))
        assert v.obstruction.kind == "relation" and v.obstruction.component == "p"
        assert v.obstruction.point == (Fraction(-1), Fraction(0))
        assert v.obstruction.detail == "(-1, 0) ~ (1, 0) map to (-1) and (1)"

    def test_a_quotient_that_cannot_be_lifted_leaves_smoothness_open(self):
        # a space on a product carrier with no product provenance has no
        # factor generators to lift its factor's pairs through
        space, _ = self.sign_quotient()
        r1 = euclidean_space(1)
        bare = DiffSpace("bare Q*R", ProductCarrier(space.carrier, r1.carrier))
        f = smooth_map(bare, r1, ["x0^2"])
        v = is_smooth(f)
        assert v.is_unknown
        assert "cannot be lifted" in v.detail

    def test_images_in_different_components_differ(self):
        rel = RelationPair("a", ExprVec.identity(1), "b", ExprVec.identity(1), R1)
        union = union_space("two-lines", (("a", euclidean_space(1)), ("b", euclidean_space(1))))
        glued, _ = quotient_space("glued-lines", union, [rel])
        target = union_space("pair", (("p", euclidean_space(1)), ("q", euclidean_space(1))))
        apart = smooth_map(
            glued, target, {"a": ("p", ["x0"]), "b": ("q", ["x0"])}
        )
        v = is_smooth(apart)
        assert v.is_no
        assert v.obstruction.detail.endswith("in components 'p' and 'q'")


class TestSmoothMemo:
    def test_same_formula_into_other_targets_is_kept_apart(self):
        r1, r2 = euclidean_space(1), euclidean_space(2)
        cross = axes_cross()
        assert is_smooth(smooth_map(r1, r2, ["x0", "x0"])).is_yes
        assert is_smooth(smooth_map(r1, cross, ["x0", "x0"])).is_no
        assert is_smooth(smooth_map(r1, r2, ["x0", "x0"], name="other")).is_yes

    def test_a_hit_is_the_stored_verdict_and_serves_larger_budgets(self, monkeypatch):
        cross = axes_cross()
        f = smooth_map(cross, euclidean_space(1), ["x0 + x1"])
        first = is_smooth(f, 4)
        runs = []
        real = spaces._is_smooth_uncached
        monkeypatch.setattr(
            spaces, "_is_smooth_uncached", lambda *a: runs.append(a) or real(*a)
        )
        assert is_smooth(f, 4) is first
        assert is_smooth(f, 5) is first
        assert runs == []
        assert is_smooth(f, 3) == first
        assert len(runs) == 1


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

    def test_a_graph_map_onto_a_saddle_lifts_through_a_forced_factor(self):
        # the saddle x2 = x0*x1 is generated by (u, v, u*v); the graph map
        # is not affine, so its lift is the factor its coordinates force
        carrier = AlgebraicCarrier(3, (Expr.parse("x2 - x0*x1", 3),))
        saddle = generated_space("saddle", carrier, (plot(R2, ["x0", "x1", "x0*x1"]),), complete=True)
        graph = smooth_map(euclidean_space(2), saddle, ["x0", "x1", "x0*x1"])
        v = is_subduction(graph)
        assert v.is_yes
        ((how, _, lift, _),) = v.certificate.parts
        assert how == "solve" and lift.map == ExprVec.identity(2)


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

    def test_open_rewrites_fall_back_on_the_base(self):
        # T = (R/(x ~ -x) x R)/((x, y) ~ (x, y + 1)): the sign flip is a
        # rewrite of the base's first factor, which T's own moves never
        # reach; a flip and a shift together stay open
        sign = RelationPair("", ExprVec.identity(1), "", ExprVec.parse(["-x0"], 1), R1)
        q, _ = quotient_space("half-line", euclidean_space(1), [sign])
        p = product_space("half-line*R", q, euclidean_space(1))
        shift = RelationPair("", ExprVec.identity(2), "", ExprVec.parse(["x0", "x1 + 1"], 2), R2)
        t, _ = quotient_space("half-cylinder", p, [shift])
        plane = euclidean_space(2)
        f = smooth_map(plane, t, ["x0", "x1"])
        assert maps_equal_mod_relation(f, smooth_map(plane, t, ["-x0", "x1"])).is_yes
        both = maps_equal_mod_relation(f, smooth_map(plane, t, ["-x0", "x1 + 1"]))
        assert both.is_unknown
        assert "depth cap 4" in both.detail


    def test_one_map_on_a_singular_source_is_not_refuted(self):
        # x0 and x0 + x0*x1 are one map on the cross x0*x1 = 0: neither a
        # rewrite miss nor a point off the cross may refute that
        from diffeokit.fixtures import load_registry

        reg = load_registry()
        cross, sign, r1 = axes_cross(), reg.space("quotient-sign"), reg.space("r1")
        for target in (sign, r1):
            f = smooth_map(cross, target, ["x0"])
            assert maps_equal_mod_relation(f, smooth_map(cross, target, ["x0 + x0*x1"])).is_yes
        # on a singular source, a rewrite miss alone stays open, and a no
        # names a carrier point
        f = smooth_map(cross, sign, ["x0"])
        missed = maps_equal_mod_relation(f, smooth_map(cross, sign, ["x0 + x1"]))
        assert missed.is_unknown
        apart = maps_equal_mod_relation(
            smooth_map(cross, r1, ["x0"]), smooth_map(cross, r1, ["x0 + x1"]))
        assert apart.is_no
        assert cross.carrier.contains_point(apart.obstruction.point)

    def test_a_difference_that_vanishes_on_the_carrier_does_not_hide_another(self):
        # component 0 differs by x0*x1, which is 0 on the cross; component
        # 1 differs by 1 everywhere
        cross, r2 = axes_cross(), euclidean_space(2)
        v = maps_equal_mod_relation(
            smooth_map(cross, r2, ["x0*x1", "x0"]), smooth_map(cross, r2, ["0", "x0 + 1"]))
        assert v.is_no
        assert v.obstruction.point == (0, 0)

    def test_a_block_that_vanishes_on_the_carrier_agrees(self):
        from diffeokit.fixtures import load_registry

        cross = axes_cross()
        target = product_space("sign*R", load_registry().space("quotient-sign"), euclidean_space(1))
        v = maps_equal_mod_relation(
            smooth_map(cross, target, ["x0", "x0*x1"]), smooth_map(cross, target, ["-x0", "0"]))
        assert v.is_yes

    def test_a_fold_of_a_thin_set_stays_open(self):
        # in R^2/((x, 0) ~ (-x, 0)), (x0, x1) and (-x0, x1) are one map out
        # of the cross, yet the complete closure {(x0, x1)} misses (-1, 0)
        # at (1, 0), so reading the closure at carrier points cannot refute
        fold = RelationPair("", ExprVec.parse(["x0", "0"], 1), "", ExprVec.parse(["-x0", "0"], 1), R1)
        folded, _ = quotient_space("folded-plane", euclidean_space(2), [fold])
        cross = axes_cross()
        v = maps_equal_mod_relation(
            smooth_map(cross, folded, ["x0", "x1"]), smooth_map(cross, folded, ["-x0", "x1"]))
        assert v.is_unknown


def _cusp():
    """The cusp x0^3 = x1^2, generated by t -> (t^2, t^3)."""
    carrier = AlgebraicCarrier(2, (Expr.parse("x0^3 - x1^2", 2),))
    return generated_space("cusp", carrier, (plot(R1, ["x0^2", "x0^3"]),))


@functools.lru_cache(maxsize=None)
def _law_source(name):
    from diffeokit.fixtures import load_registry

    return _cusp() if name == "cusp" else load_registry().space(name)


@st.composite
def _polys(draw, arity):
    """A polynomial of degree at most 3 with at most three terms."""
    out = Expr.zero(arity)
    for _ in range(draw(st.integers(0, 3))):
        term = Expr.constant(arity, draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(0, 3))):
            term = term * Expr.parse(f"x{draw(st.integers(0, arity - 1))}", arity)
        out = out + term
    return out


@st.composite
def _map_pairs(draw):
    """Two polynomial maps of a source with carrier equations into R^1 or
    R^2: each component of the second is the first's plus a multiple of
    the carrier equation plus a polynomial that is often zero."""
    source = _law_source(draw(st.sampled_from(["cross", "product-cross-line", "cusp"])))
    n = source.carrier.ambient_dim("")
    (eq,) = source.carrier.equations("")
    lhs, rhs = [], []
    for _ in range(draw(st.integers(1, 2))):
        f = draw(_polys(n))
        lhs.append(f)
        rhs.append(f + draw(_polys(n)) * eq + draw(st.one_of(st.just(Expr.zero(n)), _polys(n))))
    return source, ExprVec(lhs), ExprVec(rhs), draw(st.integers(0, 2))


class TestOneSeparatingPoint:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_map_pairs())
    def test_map_equality_and_the_bundle_identities_agree(self, case):
        # both read where two maps of a source differ through one function
        source, lhs, rhs, budget = case
        target = euclidean_space(len(lhs))
        by_maps = maps_equal_mod_relation(
            smooth_map(source, target, lhs), smooth_map(source, target, rhs), budget)
        by_identity = _difference_verdict(source, lhs, rhs, budget)
        assert by_maps.status == by_identity.status
        if by_maps.is_no:
            assert by_identity.obstruction.detail.endswith(
                f"differs at {format_point(by_maps.obstruction.point)}")


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
        # carrier samples are built from the domain-sample memo; with it
        # bypassed they come out the same
        for space in (axes_cross(), euclidean_space(2)):
            first = space.sample_carrier_points("", count)
            assert first and space.sample_carrier_points("", count) == first
            with mock.patch.object(domains, "_domain_samples", _domain_samples.__wrapped__):
                assert space.sample_carrier_points("", count) == first

    @pytest.mark.parametrize("count", [1, 4, 12, 24])
    def test_samples_are_distinct_carrier_points(self, count):
        for space in (axes_cross(), euclidean_space(2)):
            first = space.sample_carrier_points("", count)
            assert first and len(first) <= count and len(set(first)) == len(first)
            assert all(space.carrier.contains_point(p) for p in first)

    def test_a_mutated_result_leaves_the_next_call_unchanged(self):
        cross = axes_cross()
        first = cross.sample_carrier_points("", 8)
        expected = list(first)
        first.clear()
        second = cross.sample_carrier_points("", 8)
        assert second == expected
        second.append((Fraction(5), Fraction(5)))
        assert cross.sample_carrier_points("", 8) == expected

    def test_a_union_part_samples_as_its_own_space(self):
        # the count is split among the asked component's generators, not
        # among every generator of the union
        cross = axes_cross()
        union = union_space("u", [("a", cross), ("b", cross)])
        for count in (4, 12, 24):
            assert union.sample_carrier_points("a", count) == \
                cross.sample_carrier_points("", count)


def _eager_quotient_membership(space, candidate, budget):
    """Quotient membership with the whole rewrite closure built before any
    representative is tested: the order the lazy search must reproduce."""
    from diffeokit.spaces import _moves_from_pairs

    base = space.provenance[1]
    moves, complete = _moves_from_pairs(space.carrier.relations)
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


def _scanned_nonzero_sample(residuals, domain, count):
    """The first of all `count` sample points where no residual vanishes,
    found by one scan of the full list: the reference for the prefix search."""
    for pt in domain.sample_points(count):
        if all(r.eval(pt) != 0 for r in residuals):
            return pt
    return None


def _vanishing_at(points, dim):
    """A polynomial that vanishes exactly at the given points: the product
    of their squared distances to x."""
    out = Expr.constant(dim, 1)
    for pt in points:
        dist = Expr.constant(dim, 0)
        for i, c in enumerate(pt):
            dist = dist + (Expr.variable(dim, i) - Expr.constant(dim, c)) ** 2
        out = out * dist
    return out


_WITNESS_DOMAINS = [
    Domain.full(1),
    Domain.of((0, 1)),
    Domain.full(2),
    Domain.of((None, 0), (1, None)),
    Domain.of((0, 1), (0, 1)).union(Domain.of((Fraction(1, 2), 2), (Fraction(1, 2), 2))),
    Domain.of((Fraction(1, 3), Fraction(2, 5))),  # one sample point only
]


class TestPrefixWitnessSearch:
    """`nonzero_sample` reads prefixes of 1, 4, 16, ... samples and returns
    the point a scan of all `count` samples returns, or None with it."""

    @pytest.mark.parametrize("domain", _WITNESS_DOMAINS, ids=lambda d: d.to_str())
    @pytest.mark.parametrize("count", [1, 2, 4, 5, 6, 17, 120, 200])
    def test_witness_equals_the_full_scan(self, domain, count):
        dim = domain.dim
        pts = domain.sample_points(200)
        cases = [
            [_vanishing_at([], dim)],           # no sample vanishes
            [_vanishing_at(pts[:1], dim)],      # the first one does
            [_vanishing_at(pts[:5], dim)],      # the first five do
            [_vanishing_at(pts[5:9], dim)],     # only later ones do
            [Expr.constant(dim, 0)],            # every sample does
            # several residuals: each sample up to the fourth kills one
            [_vanishing_at(pts[0:4:2], dim), _vanishing_at(pts[1:4:2], dim)],
            [_vanishing_at(pts[:1], dim), _vanishing_at(pts[1:2], dim),
             _vanishing_at(pts[16:18], dim)],
            # one residual per point: the witness lies past the 16 and the 64 prefix
            [_vanishing_at([pt], dim) for pt in pts[:20]],
            [_vanishing_at([pt], dim) for pt in pts[:70]],
        ]
        for residuals in cases:
            assert nonzero_sample(residuals, domain, count) == (
                _scanned_nonzero_sample(residuals, domain, count))
        first_alive = pts[5:6] if count > 5 else []
        assert nonzero_sample(cases[2], domain, count) == (first_alive[0] if first_alive else None)

    def test_no_points_and_no_count(self):
        r = [Expr.constant(1, 1)]
        assert nonzero_sample(r, Domain(1), 120) is None
        assert nonzero_sample(r, Domain.full(1), 0) is None

    def test_a_first_sample_witness_reads_one_point(self):
        """Only the one-point prefix is built when the first sample refutes."""
        domain = Domain.of((-1, 1))
        candidate = plot(domain, ["x0 + 1", "x0 + 1"])
        _domain_samples.cache_clear()
        verdict = is_plot(axes_cross(), candidate, 4)
        assert verdict.is_no and verdict.obstruction.kind == "carrier"
        assert verdict.obstruction.point == (Fraction(0),)
        info = _domain_samples.cache_info()
        _domain_samples(domain, 1, SAMPLE_MAX_DEN)
        assert _domain_samples.cache_info().hits == info.hits + 1
        _domain_samples(domain, 120, SAMPLE_MAX_DEN)
        assert _domain_samples.cache_info().misses == info.misses + 1

    def test_a_second_sample_witness_reads_four_points(self):
        domain = Domain.of((-2, 2), (-2, 2))
        first, second = domain.sample_points(2)
        _domain_samples.cache_clear()
        assert nonzero_sample([_vanishing_at([first], 2)], domain, 120) == second
        info = _domain_samples.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        _domain_samples(domain, 4, SAMPLE_MAX_DEN)
        assert _domain_samples.cache_info().hits == 1
