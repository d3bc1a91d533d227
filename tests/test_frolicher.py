import random
from fractions import Fraction

from diffeokit.domains import Domain
from diffeokit.expr import Expr, ExprVec
from diffeokit.frolicher import (
    compare_p1_pinfty,
    completion,
    generate,
    is_contour,
    is_function,
    probe_contours,
    smoothness_pair,
)
from diffeokit.spaces import (
    AlgebraicCarrier,
    EuclideanCarrier,
    discrete_space,
    euclidean_space,
    generated_space,
    is_plot,
    plot,
    smooth_map,
)


def axes_cross():
    """Union of the two coordinate axes, generated by one plot per axis."""
    eq = Expr.parse("x0*x1", 2)
    carrier = AlgebraicCarrier(2, (eq,))
    gens = (
        plot(Domain.full(1), ["x0", "0"]),
        plot(Domain.full(1), ["0", "x0"]),
    )
    return generated_space("cross", carrier, gens, complete=True)


def vec(texts, arity):
    return ExprVec.parse(texts, arity)


class TestContours:
    def test_plane_family_accepts_cusp(self):
        space = generate("plane", EuclideanCarrier(2), ["x0", "x1"])
        verdict = is_contour(space, vec(["x0^2", "x0^3"], 1))
        assert verdict.is_yes
        assert [p.to_str() for p in verdict.certificate.parts] == ["x0^2", "x0^3"]

    def test_cross_axis_curve_accepted(self):
        space = generate(
            "cross", AlgebraicCarrier(2, (Expr.parse("x0*x1", 2),)), ["x0 + x1"]
        )
        verdict = is_contour(space, vec(["x0", "0"], 1))
        assert verdict.is_yes
        assert verdict.certificate.parts[0].to_str() == "x0"

    def test_cross_diagonal_rejected_with_witness(self):
        space = generate(
            "cross", AlgebraicCarrier(2, (Expr.parse("x0*x1", 2),)), ["x0", "x1"]
        )
        verdict = is_contour(space, vec(["x0", "x0"], 1))
        assert verdict.is_no
        witness = verdict.obstruction.point
        assert witness is not None and witness[0] != 0

    def test_constant_curve_accepted(self):
        space = generate(
            "cross", AlgebraicCarrier(2, (Expr.parse("x0*x1", 2),)), ["x0", "x1"]
        )
        assert is_contour(space, vec(["0", "5"], 1)).is_yes

    def test_generating_functions_pass_the_dual_test(self):
        space = generate("plane", EuclideanCarrier(2), ["x0", "x1 + x0^2"])
        for f in space.functions:
            assert is_function(space, f).is_yes


class TestCompletion:
    def test_line_completion_is_coordinate_family(self):
        comp = completion(euclidean_space(1))
        assert [f.to_str() for f in comp.functions] == ["x0"]
        assert not comp.discrete
        assert is_contour(comp, vec(["x0^3"], 1)).is_yes

    def test_cross_completion_matches_plot_verdicts_on_path_suite(self):
        space = axes_cross()
        comp = completion(space)
        assert [f.to_str() for f in comp.functions] == ["x0", "x1"]
        suite = [
            ["x0", "0"],
            ["0", "x0^3 - x0"],
            ["x0", "x0"],
            ["x0^2", "x0^3"],
            ["3", "0"],
            ["x0^4", "0"],
        ]
        for texts in suite:
            path = vec(texts, 1)
            curve = is_contour(comp, path)
            member = is_plot(space, plot(Domain.full(1), path), budget=4)
            assert curve.is_yes == member.is_yes
            assert curve.is_no == member.is_no

    def test_discrete_completion_keeps_constants_only(self):
        disc = discrete_space("two-points", 1, [(Fraction(0),), (Fraction(1),)])
        comp = completion(disc)
        assert comp.discrete
        texts = [f.to_str() for f in comp.functions]
        assert "x0" in texts and "x0^2" in texts and "x0^3" in texts
        assert is_contour(comp, vec(["x0"], 1)).is_no
        assert is_contour(comp, vec(["7"], 1)).is_yes

    def test_probe_contours_respect_the_carrier(self):
        comp = completion(axes_cross())
        for curve in probe_contours(comp):
            assert is_contour(comp, curve).is_yes


class TestSingleCurveVersusFamily:
    def test_projection_is_in_both(self):
        comp = completion(euclidean_space(1))
        candidate = plot(Domain.full(2), ["x0"])
        report = compare_p1_pinfty(comp, candidate)
        assert report.single_curve.is_yes
        assert report.all_functions.is_yes
        assert report.consistent

    def test_constant_is_in_both(self):
        comp = completion(axes_cross())
        candidate = plot(Domain.full(2), ["0", "0"])
        report = compare_p1_pinfty(comp, candidate)
        assert report.single_curve.is_yes and report.all_functions.is_yes

    def test_cross_diagonal_fails_function_pullback(self):
        comp = completion(axes_cross())
        candidate = plot(Domain.full(2), ["x0", "x0"])
        report = compare_p1_pinfty(comp, candidate)
        assert report.all_functions.is_no
        assert report.consistent

    def test_single_curve_never_beats_the_family(self):
        comp = completion(axes_cross())
        rng = random.Random(11)
        for _ in range(25):
            axis = rng.randrange(2)
            coeffs = [rng.randrange(-2, 3) for _ in range(3)]
            poly = " + ".join(
                f"{c}*x0^{k}" for k, c in enumerate(coeffs, start=1) if c
            ) or "0"
            texts = [poly, "0"] if axis == 0 else ["0", poly]
            if rng.random() < 0.3:
                texts = [poly, poly]  # off-carrier unless the poly vanishes
            report = compare_p1_pinfty(comp, plot(Domain.full(1), texts))
            assert report.consistent


class TestSmoothnessAgreement:
    def test_sum_out_of_cross_agrees_yes(self):
        space = axes_cross()
        line = euclidean_space(1)
        f = smooth_map(space, line, ["x0 + x1"], name="sum")
        plots, curves, agree = smoothness_pair(f)
        assert plots.is_yes and curves.is_yes and agree

    def test_nonconstant_into_discrete_agrees_no(self):
        line = euclidean_space(1)
        disc = discrete_space("points", 1, [(Fraction(0),)])
        f = smooth_map(line, disc, ["x0"], name="escape")
        plots, curves, agree = smoothness_pair(f)
        assert plots.is_no and curves.is_no and agree
