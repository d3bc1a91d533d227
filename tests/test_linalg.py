"""Matrix algebra and exact affine solving."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit.expr import Expr, ExprError, ExprVec
from diffeokit.linalg import (
    AffineParts,
    Matrix,
    affine_parts,
    invert_rational,
    left_null_space,
    rank,
    solve_affine,
    solve_rational,
)


def _f(p, q=1):
    return Fraction(p, q)


class TestMatrix:
    def test_identity_is_neutral(self):
        rng = random.Random(11)
        a = Matrix(
            [
                [Expr.parse("x0^2", 1), Expr.parse("x0 + 1", 1)],
                [Expr.parse("3", 1), Expr.parse("x0", 1)],
            ]
        )
        eye = Matrix.identity(2, 1)
        assert a * eye == a
        assert eye * a == a
        del rng

    def test_product_matches_pointwise_product(self):
        rng = random.Random(23)
        for _ in range(20):
            a = Matrix.from_rationals(
                [[_f(rng.randint(-4, 4)) for _ in range(3)] for _ in range(2)], 0
            )
            b = Matrix.from_rationals(
                [[_f(rng.randint(-4, 4)) for _ in range(2)] for _ in range(3)], 0
            )
            got = (a * b).eval(())
            want = [
                [
                    sum(a.rows[i][t].constant_value() * b.rows[t][j].constant_value()
                        for t in range(3))
                    for j in range(2)
                ]
                for i in range(2)
            ]
            assert got == want

    def test_det_two_by_two(self):
        x = Expr.variable(1, 0)
        one = Expr.one(1)
        m = Matrix([[x, one], [one, x]])
        # ad - bc = x^2 - 1
        assert m.det() == x * x - one

    def test_det_alternating_in_rows(self):
        a = Matrix.from_rationals([[1, 2, 0], [3, 1, 5], [0, 4, 2]], 0)
        swapped = Matrix.from_rationals([[3, 1, 5], [1, 2, 0], [0, 4, 2]], 0)
        assert swapped.det() == -a.det()

    def test_adjugate_identity(self):
        # A * adj(A) = det(A) * I, including singular A.
        x = Expr.variable(1, 0)
        m = Matrix([[x, Expr.one(1)], [x * x, x]])
        d = m.det()
        prod = m * m.adjugate()
        eye = Matrix.identity(2, 1)
        assert prod == eye.scale(d)

    def test_inverse_with_certified_determinant(self):
        # det = x^2 + 1 never vanishes, so the inverse exists everywhere.
        x = Expr.variable(1, 0)
        m = Matrix([[x, Expr.constant(1, -1)], [Expr.one(1), x]])
        inv = m.try_inverse()
        assert inv is not None
        assert m * inv == Matrix.identity(2, 1)

    def test_inverse_refused_without_certificate(self):
        # det = x vanishes at 0; no inverse as a global matrix of expressions.
        x = Expr.variable(1, 0)
        m = Matrix([[x, Expr.zero(1)], [Expr.zero(1), Expr.one(1)]])
        assert m.try_inverse() is None

    def test_singular_inverse_refused(self):
        m = Matrix.from_rationals([[1, 2], [2, 4]], 0)
        assert m.try_inverse() is None

    def test_apply_and_compose(self):
        x0 = Expr.variable(2, 0)
        x1 = Expr.variable(2, 1)
        m = Matrix([[x0, x1], [Expr.zero(2), x0]])
        out = m.apply((Expr.one(2), x0))
        assert out[0] == x0 + x0 * x1
        assert out[1] == x0 * x0
        swapped = m.compose((x1, x0))
        assert swapped.rows[0][0] == x1

    def test_shape_errors(self):
        with pytest.raises(ExprError):
            Matrix([])
        with pytest.raises(ExprError):
            Matrix([[Expr.one(1)], [Expr.one(1), Expr.one(1)]])
        a = Matrix.identity(2, 0)
        b = Matrix.from_rationals([[1, 2, 3]], 0)
        with pytest.raises(ExprError):
            a * Matrix.from_rationals([[1], [2], [3]], 0) * b * a


class TestAffineParts:
    def test_extracts_matrix_and_offset(self):
        vec = ExprVec.parse(["2*x0 - x1 + 3", "x1 - 1/2"], 2)
        parts = affine_parts(vec)
        assert parts is not None
        assert parts.matrix == [[_f(2), _f(-1)], [_f(0), _f(1)]]
        assert parts.offset == [_f(3), _f(-1, 2)]

    def test_rejects_quadratic(self):
        vec = ExprVec.parse(["x0^2"], 1)
        assert affine_parts(vec) is None

    def test_rejects_rational(self):
        x = Expr.variable(1, 0)
        vec = ExprVec((x / (x * x + Expr.one(1)),))
        assert affine_parts(vec) is None

    def test_constant_map(self):
        vec = ExprVec.parse(["5", "0"], 3)
        parts = affine_parts(vec)
        assert parts is not None
        assert parts.matrix == [[0, 0, 0], [0, 0, 0]]
        assert parts.offset == [_f(5), _f(0)]


class TestSolveAffine:
    def test_unique_solution_with_expression_rhs(self):
        # 2x = t^2, x + y = t  =>  x = t^2/2, y = t - t^2/2.
        t = Expr.variable(1, 0)
        sol = solve_affine(
            [[_f(2), _f(0)], [_f(1), _f(1)]],
            [t * t, t],
        )
        assert sol is not None
        assert sol.null_basis == []
        assert sol.particular[0] == t * t * _f(1, 2)
        assert sol.particular[1] == t - t * t * _f(1, 2)

    def test_underdetermined_reports_null_basis(self):
        t = Expr.variable(1, 0)
        sol = solve_affine([[_f(1), _f(1)]], [t])
        assert sol is not None
        assert len(sol.null_basis) == 1
        v = sol.null_basis[0]
        # null vector really solves A v = 0
        assert v[0] + v[1] == 0
        assert sol.particular[0] + sol.particular[1] == t

    def test_inconsistent_returns_none(self):
        t = Expr.variable(1, 0)
        # x = t and 2x = t^2 force t^2 = 2t as polynomials: impossible.
        assert solve_affine([[_f(1)], [_f(2)]], [t, t * t]) is None

    def test_consistent_redundant_rows(self):
        t = Expr.variable(1, 0)
        sol = solve_affine([[_f(1)], [_f(2)]], [t, t * Fraction(2)])
        assert sol is not None
        assert sol.particular[0] == t

    def test_random_square_systems(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = [[_f(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            rhs = [
                Expr.parse(f"{rng.randint(-3, 3)}*x0 + {rng.randint(-3, 3)}", 1)
                for _ in range(n)
            ]
            sol = solve_affine(a, rhs)
            if sol is None:
                assert rank(a) < n
                continue
            # verify A x = rhs exactly
            for i in range(n):
                acc = Expr.zero(1)
                for j in range(n):
                    acc = acc + sol.particular[j] * a[i][j]
                assert acc == rhs[i]

    def test_solve_rational(self):
        got = solve_rational([[_f(2), _f(1)], [_f(1), _f(-1)]], [_f(4), _f(-1)])
        assert got == [_f(1), _f(2)]
        assert solve_rational([[_f(1)], [_f(1)]], [_f(0), _f(1)]) is None
        with pytest.raises(ExprError):
            solve_rational([[_f(1)], [_f(1)]], [_f(0)])


class TestNullSpaces:
    def test_left_null_space_annihilates(self):
        a = [[_f(1), _f(2)], [_f(2), _f(4)], [_f(0), _f(1)]]
        basis = left_null_space(a)
        assert len(basis) == 1
        y = basis[0]
        for j in range(2):
            assert sum(y[i] * a[i][j] for i in range(3)) == 0

    def test_full_rank_has_trivial_left_null_space(self):
        assert left_null_space([[_f(1), _f(0)], [_f(0), _f(1)]]) == []

    def test_rank(self):
        assert rank([[_f(1), _f(2)], [_f(2), _f(4)]]) == 1
        assert rank([[_f(1), _f(0)], [_f(0), _f(1)]]) == 2
        assert rank([[_f(0), _f(0)]]) == 0


# -- properties of the shared elimination --------------------------------------

_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _matrices(draw, square=False):
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    return [[draw(_entries) for _ in range(n)] for _ in range(m)]


def _times(a, x):
    return [sum((aij * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a]


_property = settings(max_examples=60)


class TestSharedElimination:
    @_property
    @given(_matrices(), st.data())
    def test_solve_rational_solves_consistent_systems(self, a, data):
        b = _times(a, [data.draw(_entries) for _ in a[0]])
        x = solve_rational(a, b)
        assert x is not None
        assert _times(a, x) == b

    @_property
    @given(_matrices(square=True))
    def test_inverse_is_a_left_inverse(self, a):
        inv = invert_rational(a)
        n = len(a)
        if inv is None:
            assert rank(a) < n
            return
        product = [[sum(inv[i][k] * a[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    @_property
    @given(_matrices())
    def test_left_null_space_annihilates(self, a):
        basis = left_null_space(a)
        assert len(basis) == len(a) - rank(a)
        for y in basis:
            assert _times(list(zip(*a)), y) == [0] * len(a[0])

    @_property
    @given(_matrices())
    def test_rank_plus_nullity_is_the_column_count(self, a):
        sol = solve_affine(a, [Expr.zero(1)] * len(a))
        assert rank(a) + len(sol.null_basis) == len(a[0])
        for v in sol.null_basis:
            assert _times(a, v) == [0] * len(a)

    @_property
    @given(_matrices(), st.data())
    def test_affine_particular_solution_satisfies_the_system(self, a, data):
        x = [
            Expr.parse(f"({data.draw(_entries)})*x0^2 + ({data.draw(_entries)})", 1)
            for _ in a[0]
        ]
        rhs = [
            sum((v * c for c, v in zip(row, x)), Expr.zero(1)) for row in a
        ]
        sol = solve_affine(a, rhs)
        assert sol is not None
        for row, target in zip(a, rhs):
            got = sum((v * c for c, v in zip(row, sol.particular)), Expr.zero(1))
            assert got == target

    @_property
    @given(_matrices(), st.data())
    def test_preimage_and_residuals_decide_the_image(self, a, data):
        parts = AffineParts(a, [data.draw(_entries) for _ in a])

        def apply(x, zero):
            return [
                sum((v * c for c, v in zip(row, x)), zero) + b
                for row, b in zip(a, parts.offset)
            ]

        def poly():
            return Expr.parse(f"({data.draw(_entries)})*x0^2 + ({data.draw(_entries)})", 1)

        target = apply([poly() for _ in a[0]], Expr.zero(1))
        sol = parts.preimage(target)
        assert sol is not None
        assert apply(sol.particular, Expr.zero(1)) == target
        assert all(r.is_zero() for r in parts.residuals(target))
        anywhere = [poly() for _ in a]
        assert all(r.is_zero() for r in parts.residuals(anywhere)) == (
            parts.preimage(anywhere) is not None
        )
        point = [data.draw(_entries) for _ in a]
        solved = parts.preimage(point)
        assert (not any(parts.residuals(point))) == (solved is not None)
        if solved is not None:
            assert apply(solved, Fraction(0)) == point
        image_point = apply([data.draw(_entries) for _ in a[0]], Fraction(0))
        assert not any(parts.residuals(image_point))
        assert apply(parts.preimage(image_point), Fraction(0)) == image_point
