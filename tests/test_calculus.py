"""Plot-indexed forms, endomorphism fields, connections, and their laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit.calculus import (
    OverlapPair,
    PlotForm,
    affine_structure,
    check_connection_form,
    connections_equal,
    covariant_apply,
    covariant_derivative,
    end_field,
    end_field_ops,
    flat_connection,
    form_d,
    forms_equal,
    frame_space,
    maurer_cartan,
    plot_form,
    raw_frame_differential,
    translate,
    validate_covariant,
    validate_form,
)
from diffeokit.domains import Domain
from diffeokit.expr import Expr, ExprVec
from diffeokit.linalg import Matrix
from diffeokit.spaces import Plot, is_plot, verify_certificate

from test_bundles import cross_bundle, line_bundle


def line_plot():
    return Plot(Domain.full(1), ExprVec.identity(1))


def cubic_plot():
    return Plot(Domain.full(1), ExprVec.parse(["x0^3"], 1))


def cubic_pair():
    return OverlapPair(cubic_plot(), line_plot(), ExprVec.parse(["x0^3"], 1))


def random_poly(rng, arity, degree=3):
    """Dense random polynomial with small integer coefficients."""
    total = Expr.zero(arity)
    for k in range(degree + 1):
        term = Expr.constant(arity, rng.randint(-3, 3))
        for _ in range(k):
            term = term * Expr.variable(arity, rng.randrange(arity))
        total = total + term
    return total


class TestForms:
    def test_line_pullback_compatibility(self):
        form = plot_form(
            1,
            1,
            [
                (line_plot(), {0: "x0^2"}),
                (cubic_plot(), {0: "3*x0^8"}),
            ],
        )
        assert validate_form(form, [cubic_pair()]).is_yes

    def test_missing_jacobian_factor_is_witnessed(self):
        form = plot_form(
            1,
            1,
            [
                (line_plot(), {0: "x0^2"}),
                (cubic_plot(), {0: "x0^6"}),
            ],
        )
        verdict = validate_form(form, [cubic_pair()])
        assert verdict.is_no
        assert "pullback mismatch" in verdict.obstruction.detail

    def test_unsorted_coefficient_keys_are_rejected(self):
        plane = Plot(Domain.full(2), ExprVec.identity(2))
        with pytest.raises(ValueError, match="strictly increasing"):
            plot_form(2, 1, [(plane, {(1, 0): "x0"})])
        value = ExprVec.parse(["x0"], 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            PlotForm(2, 1, ((plane, (((1, 0), value),)),))
        with pytest.raises(ValueError, match="wrong arity"):
            plot_form(1, 1, [(line_plot(), {0: ExprVec.parse(["x1"], 2)})])

    def test_degree_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            plot_form(1, 1, [(line_plot(), {(0, 0): "x0"})])


class TestDifferential:
    def test_top_degree_differential_vanishes(self):
        form = plot_form(1, 1, [(line_plot(), {0: "x0^2"})])
        assert form_d(form).coefficients(line_plot()) == {}

    def test_zero_form_differentiates_to_its_derivative(self):
        section = plot_form(0, 1, [(line_plot(), {(): "x0^3"})])
        d = form_d(section)
        assert d.coefficients(line_plot())[(0,)] == ExprVec.parse(["3*x0^2"], 1)

    def test_dd_vanishes_on_random_forms(self):
        rng = random.Random(11)
        plane = Plot(Domain.full(2), ExprVec.identity(2))
        for _ in range(5):
            section = plot_form(
                0, 1, [(plane, {(): ExprVec([random_poly(rng, 2)])})]
            )
            twice = form_d(form_d(section))
            assert forms_equal(twice, plot_form(2, 1, [(plane, {})]))
        one = plot_form(
            1,
            1,
            [(plane, {0: ExprVec([random_poly(rng, 2)]), 1: ExprVec([random_poly(rng, 2)])})],
        )
        assert form_d(form_d(one)).coefficients(plane) == {}

    def test_differential_preserves_compatibility(self):
        section = plot_form(
            0,
            1,
            [
                (line_plot(), {(): "x0^2"}),
                (cubic_plot(), {(): "x0^6"}),
            ],
        )
        pair = cubic_pair()
        assert validate_form(section, [pair]).is_yes
        assert validate_form(form_d(section), [pair]).is_yes


class TestEndFields:
    def test_identity_representations_multiply_to_identity(self):
        frame = Matrix([[Expr.parse("x0^2 + 1", 1)]])
        one = Matrix([[Expr.one(1)]])
        e1 = end_field(line_plot(), frame, one)
        e2 = end_field(line_plot(), frame, one)
        ops = end_field_ops(e1, e2)
        assert ops.product.fiber_map() == one

    def test_scalar_conjugation_is_trivial(self):
        frame = Matrix([[Expr.parse("x0^2 + 1", 1)]])
        rep = Matrix([[Expr.constant(1, 3)]])
        field = end_field(line_plot(), frame, rep)
        assert field.fiber_map() == rep
        assert field.apply((Fraction(2),), (Fraction(5),)) == (Fraction(15),)

    def test_noncommuting_products_differ(self):
        eye = Matrix.identity(2, 1)
        upper = Matrix([[Expr.zero(1), Expr.one(1)], [Expr.zero(1), Expr.zero(1)]])
        lower = Matrix([[Expr.zero(1), Expr.zero(1)], [Expr.one(1), Expr.zero(1)]])
        e1 = end_field(line_plot(), eye, upper)
        e2 = end_field(line_plot(), eye, lower)
        forward = end_field_ops(e1, e2).product
        backward = end_field_ops(e2, e1).product
        assert forward.fiber_map() != backward.fiber_map()

    def test_base_mismatch_is_an_error(self):
        eye = Matrix.identity(1, 1)
        e1 = end_field(line_plot(), eye, eye)
        e2 = end_field(cubic_plot(), eye, eye)
        with pytest.raises(ValueError, match="different base"):
            end_field_ops(e1, e2)

    def test_degenerate_frame_is_an_error(self):
        sq = Matrix([[Expr.parse("x0", 1)]])
        with pytest.raises(ValueError, match="not invertible"):
            end_field(line_plot(), sq, Matrix.identity(1, 1))


def line_frame_plot():
    return Plot(
        Domain.full(2),
        ExprVec.parse(["x0", "1 + x1^2", "1/(1 + x1^2)"], 2),
    )


class TestFrameSpace:
    def test_declared_family_is_a_plot(self):
        frames = frame_space(line_bundle(), [line_frame_plot()])
        verdict = is_plot(frames, line_frame_plot())
        assert verdict.is_yes
        assert verify_certificate(frames, line_frame_plot(), verdict.certificate)

    def test_bad_frame_family_is_rejected(self):
        plot = Plot(Domain.full(1), ExprVec.parse(["x0", "2", "3"], 1))
        with pytest.raises(ValueError, match="frame carrier"):
            frame_space(line_bundle(), [plot])


class TestCovariant:
    def test_flat_connection_validates(self):
        nabla = flat_connection(1, [line_plot()])
        assert validate_covariant(nabla).is_yes

    def test_linear_coefficient_applies_and_validates(self):
        nabla = covariant_derivative(1, [(line_plot(), [[["x0"]]])])
        out = covariant_apply(
            nabla,
            line_plot(),
            ExprVec.parse(["1"], 1),
            ExprVec.parse(["x0^2"], 1),
        )
        assert out == ExprVec.parse(["2*x0 + x0^3"], 1)
        assert validate_covariant(nabla).is_yes

    def test_cubic_reparametrization_law(self):
        nabla = covariant_derivative(
            1,
            [
                (line_plot(), [[["x0"]]]),
                (cubic_plot(), [[["3*x0^5"]]]),
            ],
        )
        assert validate_covariant(nabla, [cubic_pair()]).is_yes

    def test_wrong_transport_is_witnessed(self):
        nabla = covariant_derivative(
            1,
            [
                (line_plot(), [[["x0"]]]),
                (cubic_plot(), [[["x0^5"]]]),
            ],
        )
        verdict = validate_covariant(nabla, [cubic_pair()])
        assert verdict.is_no
        assert "reparametrized" in verdict.obstruction.detail

    def test_every_fixture_base_admits_a_flat_connection(self):
        for bundle in (line_bundle(), cross_bundle()):
            k = bundle.fiber_block
            nabla = flat_connection(k, bundle.base.generators)
            assert validate_covariant(nabla).is_yes


class TestAffine:
    def test_difference_with_flat_keeps_the_coefficient(self):
        nabla = covariant_derivative(1, [(line_plot(), [[["x0"]]])])
        flat = flat_connection(1, [line_plot()])
        diff = affine_structure(nabla, flat)
        assert forms_equal(diff, plot_form(1, 1, [(line_plot(), {0: "x0"})]))

    def test_round_trips_are_exact(self):
        flat = flat_connection(1, [line_plot()])
        alpha = plot_form(1, 1, [(line_plot(), {0: "x0^2 - 1"})])
        shifted = translate(flat, alpha)
        assert forms_equal(affine_structure(shifted, flat), alpha)
        other = covariant_derivative(1, [(line_plot(), [[["x0^3 + 2"]]])])
        rebuilt = translate(flat, affine_structure(other, flat))
        assert connections_equal(rebuilt, other)

    def test_random_difference_passes_overlap_compatibility(self):
        rng = random.Random(3)
        pair = cubic_pair()
        cubic = ExprVec.parse(["x0^3"], 1)
        chain = Expr.parse("3*x0^2", 1)

        def reparametrized(coeff):
            return Matrix([[coeff.compose(cubic) * chain]])

        connections = []
        for _ in range(2):
            coeff = random_poly(rng, 1)
            connections.append(
                covariant_derivative(
                    1,
                    [
                        (line_plot(), [Matrix([[coeff]])]),
                        (cubic_plot(), [reparametrized(coeff)]),
                    ],
                )
            )
        first, second = connections
        assert validate_covariant(first, [pair]).is_yes
        assert validate_covariant(second, [pair]).is_yes
        diff = affine_structure(first, second)
        assert validate_form(diff, [pair]).is_yes

    def test_fiber_mismatch_is_an_error(self):
        one = flat_connection(1, [line_plot()])
        two = flat_connection(2, [line_plot()])
        with pytest.raises(ValueError, match="fiber dimensions"):
            affine_structure(one, two)


_property = settings(max_examples=25)
_CUBIC = ExprVec.parse(["x0^3"], 1)
_CHAIN = Expr.parse("3*x0^2", 1)


def _line_poly(coeffs):
    return Expr(1, {(d,): Fraction(c) for d, c in enumerate(coeffs) if c})


# polynomials of degree at most 3 in x0
_line_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(_line_poly)


@st.composite
def _coefficient_matrices(draw, k):
    return Matrix([[draw(_line_polys) for _ in range(k)] for _ in range(k)])


def _transported(mat):
    """The coefficients the cubic plot must carry: 3x²·A(x³)."""
    return mat.compose(_CUBIC).scale(_CHAIN)


def _over_line_and_cubic(k, coarse, fine=None):
    fine = _transported(coarse) if fine is None else fine
    return covariant_derivative(k, [(line_plot(), [coarse]), (cubic_plot(), [fine])])


@st.composite
def _connections(draw, count=1):
    """Random polynomial connections on one fiber size, on the line and
    the cubic plot, whose cubic coefficients are transported."""
    k = draw(st.integers(1, 2))
    mats = [draw(_coefficient_matrices(k)) for _ in range(count)]
    return k, mats


class TestConnectionsAsForms:
    @_property
    @given(_connections(count=2))
    def test_translating_by_the_difference_recovers_the_first(self, drawn):
        k, (a, b) = drawn
        first, second = _over_line_and_cubic(k, a), _over_line_and_cubic(k, b)
        assert connections_equal(translate(second, affine_structure(first, second)), first)

    @_property
    @given(_connections())
    def test_difference_with_itself_stores_nothing(self, drawn):
        k, (a,) = drawn
        nabla = _over_line_and_cubic(k, a)
        diff = affine_structure(nabla, nabla)
        assert [packed for _, packed in diff.entries] == [(), ()]

    @_property
    @given(_connections(), st.integers(0, 3), st.integers(1, 3))
    def test_transport_validates_and_a_perturbed_copy_fails(self, drawn, spot, bump):
        k, (a,) = drawn
        pair = [cubic_pair()]
        assert validate_covariant(_over_line_and_cubic(k, a), pair).is_yes
        i, j = divmod(spot % (k * k), k)
        rows = [list(row) for row in _transported(a).rows]
        rows[i][j] = rows[i][j] + bump
        broken = _over_line_and_cubic(k, a, Matrix(rows))
        verdict = validate_covariant(broken, pair)
        assert verdict.is_no
        assert "reparametrized" in verdict.obstruction.detail

    @_property
    @given(st.integers(1, 2), st.data())
    def test_explicit_zero_matrices_are_the_flat_connection(self, k, data):
        zero = [["0"] * k for _ in range(k)]
        plots = [line_plot(), cubic_plot()]
        given_zeros = covariant_derivative(k, [(p, [zero]) for p in plots])
        flat = flat_connection(k, plots)
        assert [packed for _, packed in given_zeros.form.entries] == [(), ()]
        assert connections_equal(given_zeros, flat)
        assert connections_equal(flat, given_zeros)
        direction = ExprVec([data.draw(_line_polys)])
        section = ExprVec([data.draw(_line_polys) for _ in range(k)])
        for plot in plots:
            assert covariant_apply(given_zeros, plot, direction, section) == (
                covariant_apply(flat, plot, direction, section)
            )


def _apply_on_both_plots(nabla, direction, section):
    return [covariant_apply(nabla, p, direction, section) for p in (line_plot(), cubic_plot())]


def _scaled(f, vec):
    return ExprVec([f * c for c in vec.components])


def _plus(left, right):
    return ExprVec([a + b for a, b in zip(left.components, right.components)])


@st.composite
def _law_inputs(draw, count=1):
    """Connections on the line and cubic plots, a function f, a direction
    x and a section s of the drawn fiber size."""
    k, mats = draw(_connections(count))
    f = draw(_line_polys)
    x = ExprVec([draw(_line_polys)])
    s = ExprVec([draw(_line_polys) for _ in range(k)])
    return [_over_line_and_cubic(k, a) for a in mats], f, x, s


class TestCovariantLaws:
    """The laws ∇ = d + A satisfies by its form, for any coefficients:
    C^∞-linear in the direction, Leibniz in the section, and a difference
    of two connections C^∞-linear in the section."""

    @_property
    @given(_law_inputs())
    def test_linear_over_functions_in_the_direction(self, drawn):
        (nabla,), f, x, s = drawn
        scaled = _apply_on_both_plots(nabla, _scaled(f, x), s)
        assert scaled == [_scaled(f, out) for out in _apply_on_both_plots(nabla, x, s)]

    @_property
    @given(_law_inputs(), _line_polys)
    def test_additive_in_the_direction(self, drawn, other):
        (nabla,), _, x, s = drawn
        y = ExprVec([other])
        summed = _apply_on_both_plots(nabla, _plus(x, y), s)
        parts = zip(_apply_on_both_plots(nabla, x, s), _apply_on_both_plots(nabla, y, s))
        assert summed == [_plus(p, q) for p, q in parts]

    @_property
    @given(_law_inputs())
    def test_leibniz_in_the_section(self, drawn):
        (nabla,), f, x, s = drawn
        xf = x.components[0] * f.differentiate(0)
        want = [
            _plus(_scaled(xf, s), _scaled(f, out))
            for out in _apply_on_both_plots(nabla, x, s)
        ]
        assert _apply_on_both_plots(nabla, x, _scaled(f, s)) == want

    @_property
    @given(_law_inputs(count=2))
    def test_difference_is_linear_over_functions_in_the_section(self, drawn):
        (first, second), f, x, s = drawn

        def gap(section):
            pairs = zip(
                _apply_on_both_plots(first, x, section),
                _apply_on_both_plots(second, x, section),
            )
            return [ExprVec([u - v for u, v in zip(p, q)]) for p, q in pairs]

        assert gap(_scaled(f, s)) == [_scaled(f, g) for g in gap(s)]

def shear_frame_plot():
    comps = ["x0", "1", "x1", "0", "1", "1", "-x1", "0", "1"]
    return Plot(Domain.full(2), ExprVec.parse(comps, 2))


class TestConnectionForm:
    def test_scalar_log_derivative_is_invariant(self):
        theta = maurer_cartan(1, 1)
        verdict = check_connection_form(
            theta, [line_frame_plot()], [[[2]], [[Fraction(1, 3)]]]
        )
        assert verdict.is_yes
        assert "component" in verdict.detail

    def test_matrix_frame_derivative_is_equivariant(self):
        theta = maurer_cartan(1, 2)
        samples = [
            [[1, 1], [0, 1]],
            [[1, 0], [1, 1]],
            [[2, 1], [1, 1]],
        ]
        assert check_connection_form(theta, [shear_frame_plot()], samples).is_yes

    def test_raw_differential_is_rejected(self):
        theta = raw_frame_differential(1, 2)
        samples = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
        verdict = check_connection_form(theta, [shear_frame_plot()], samples)
        assert verdict.is_no
        assert verdict.obstruction.kind == "equivariance"
        assert "sample" in verdict.obstruction.detail

    def test_scalar_raw_differential_fails_scaling(self):
        theta = raw_frame_differential(1, 1)
        verdict = check_connection_form(theta, [line_frame_plot()], [[[2]]])
        assert verdict.is_no

    def test_singular_sample_is_an_error(self):
        theta = maurer_cartan(1, 1)
        with pytest.raises(ValueError, match="not invertible"):
            check_connection_form(theta, [line_frame_plot()], [[[0]]])

    def test_frame_without_inverse_is_witnessed(self):
        theta = maurer_cartan(1, 1)
        fake = Plot(Domain.full(2), ExprVec.parse(["x0", "1 + x1^2", "3"], 2))
        verdict = check_connection_form(theta, [fake], [[[2]]])
        assert verdict.is_no
        assert verdict.obstruction.kind == "frame-shape"
