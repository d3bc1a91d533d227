"""Matrix algebra and exact affine solving.

Besides the algebraic properties, the laws at the end guard the fast
paths: integer elimination against the Fraction Gauss-Jordan loop it
replaced (kept here as `_ref_eliminate`), the `_reduced` memo (a hit
equals a fresh result, and nothing handed out reaches a later hit), and
the raw-term and integer products against the folds they replaced.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffeokit import linalg
from diffeokit.expr import REDUCE_CACHE_SIZE, Expr, ExprError, ExprVec
from diffeokit.linalg import (
    AffineParts,
    Matrix,
    _combine,
    _reduced,
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


# -- integer elimination against the Fraction loop -----------------------------


def _ref_eliminate(a, width):
    """The Fraction Gauss-Jordan loop that `_reduced` replaced, in place."""
    pivots = []
    row = 0
    for col in range(width):
        if row == len(a):
            break
        pivot = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
    return pivots


def _ref_augmented(matrix, extra):
    return [
        list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(extra)]
        for i, row in enumerate(matrix)
    ]


def _ref_null_basis(a, pivots, width):
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(width):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for r, col in pivots:
            vec[col] = -a[r][free]
        basis.append(vec)
    return basis


def _ref_combine(coeffs, values, zero):
    terms = [v if c == 1 else v * c for c, v in zip(coeffs, values) if c]
    return sum(terms[1:], terms[0]) if terms else zero


def _ref_solve(matrix, rhs, zero):
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = _ref_augmented(matrix, m)
    pivots = _ref_eliminate(a, n)
    if any(_ref_combine(a[r][n:], rhs, zero) != zero for r in range(len(pivots), m)):
        return None
    particular = [zero] * n
    for r, col in pivots:
        particular[col] = _ref_combine(a[r][n:], rhs, zero)
    return particular, _ref_null_basis(a, pivots, n)


def _ref_left_null_space(matrix):
    m = len(matrix)
    a = [[Fraction(matrix[i][j]) for i in range(m)] for j in range(len(matrix[0]))]
    return _ref_null_basis(a, _ref_eliminate(a, m), m)


def _ref_invert(rows):
    n = len(rows)
    a = _ref_augmented(rows, n)
    if len(_ref_eliminate(a, n)) < n:
        return None
    return [row[n:] for row in a]


def _stored(v) -> bool:
    """The coefficient rule: an int, or a Fraction that is not an integer."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def _same_values(got, want):
    """Equal lists of rationals, every one stored by the coefficient rule."""
    assert got == want
    assert all(_stored(v) for v in got)


def _same_expr(got, want):
    assert got.canonical_key() == want.canonical_key()
    assert list(got.num.items()) == list(want.num.items())


_FRACTIONS = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3, 5)]


def _draw_matrix(rng, kind):
    """A matrix of one of the shapes the law must cover."""
    if kind == "one":
        return [[rng.choice(_FRACTIONS)]]
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    a = [[rng.choice(_FRACTIONS) if rng.random() < 0.7 else Fraction(0)
          for _ in range(n)] for _ in range(m)]
    if kind == "zero-row":
        a[rng.randrange(m)] = [Fraction(0)] * n
    elif kind == "zero-column":
        j = rng.randrange(n)
        for row in a:
            row[j] = Fraction(0)
    elif kind == "deficient" and m > 1:
        # the last row is a combination of the others
        c = [rng.choice(_FRACTIONS) for _ in range(m - 1)]
        a[-1] = [sum((ci * a[i][j] for i, ci in enumerate(c)), Fraction(0))
                 for j in range(n)]
    elif kind == "zero":
        a = [[Fraction(0)] * n for _ in range(m)]
    return a


_KINDS = ("any", "one", "zero-row", "zero-column", "deficient", "zero")


def _poly(rng, arity=1):
    c = [rng.choice(_FRACTIONS) for _ in range(3)]
    return Expr.parse(f"({c[0]})*x0^2 + ({c[1]})*x0 + ({c[2]})", arity)


class TestIntegerElimination:
    def test_reduced_rows_equal_the_fraction_loop(self):
        rng = random.Random(1701)
        seen = {"negative-denominator": 0, "non-unit-denominator": 0, "non-square": 0}
        for trial in range(400):
            a = _draw_matrix(rng, _KINDS[trial % len(_KINDS)])
            m, n = len(a), len(a[0])
            seen["non-square"] += m != n
            flat = [v for row in a for v in row]
            seen["negative-denominator"] += any(v < 0 and v.denominator > 1 for v in flat)
            seen["non-unit-denominator"] += any(v.denominator > 1 for v in flat)
            for key, extra in ((a, m), (a, 0), (list(zip(*a)), 0)):
                ref = _ref_augmented(key, extra)
                pivots = _ref_eliminate(ref, len(key[0]))
                rows, got = _reduced.__wrapped__(tuple(map(tuple, key)), extra)
                assert list(got) == pivots
                for r in range(len(rows)):
                    if r < len(pivots):
                        _same_values(list(rows[r]), ref[r])
                    else:
                        # a nonzero multiple of the Fraction row
                        nz = next((j for j, v in enumerate(rows[r]) if v), None)
                        if nz is None:
                            assert not any(ref[r])
                        else:
                            scale = Fraction(ref[r][nz], rows[r][nz])
                            assert scale and [scale * v for v in rows[r]] == ref[r]
        assert all(count > 20 for count in seen.values()), seen

    def test_solves_equal_the_fraction_loop(self):
        rng = random.Random(1702)
        for trial in range(300):
            a = _draw_matrix(rng, _KINDS[trial % len(_KINDS)])
            m, n = len(a), len(a[0])
            assert rank(a) == len(_ref_eliminate(_ref_augmented(a, 0), n))
            for got_y, want_y in zip(left_null_space(a), _ref_left_null_space(a), strict=True):
                _same_values(got_y, want_y)
            inv = invert_rational(a) if m == n else None
            if m == n:
                want = _ref_invert(a)
                assert (inv is None) == (want is None)
                for got_row, want_row in zip(inv or [], want or []):
                    _same_values(got_row, want_row)
            # a right-hand side in the image, and one anywhere
            x = [rng.choice(_FRACTIONS) for _ in range(n)]
            for b in ([sum((aij * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a],
                      [rng.choice(_FRACTIONS) for _ in range(m)]):
                want = _ref_solve(a, b, Fraction(0))
                got = solve_rational(a, b)
                assert (got is None) == (want is None)
                if got is not None:
                    _same_values(got, want[0])
            xs = [_poly(rng) for _ in range(n)]
            for rhs in ([_ref_combine(row, xs, Expr.zero(1)) for row in a],
                        [_poly(rng) for _ in range(m)]):
                want = _ref_solve(a, rhs, Expr.zero(1))
                got = solve_affine(a, rhs)
                assert (got is None) == (want is None)
                if got is not None:
                    for g, w in zip(got.particular, want[0]):
                        _same_expr(g, w)
                    for got_v, want_v in zip(got.null_basis, want[1], strict=True):
                        _same_values(got_v, want_v)
                parts = AffineParts(a, [rng.choice(_FRACTIONS) for _ in range(m)])
                shifted = [t - b for t, b in zip(rhs, parts.offset)]
                residuals = parts.residuals(rhs)
                want_res = [_ref_combine(y, shifted, Expr.zero(1))
                            for y in _ref_left_null_space(a)]
                assert len(residuals) == len(want_res)
                for g, w in zip(residuals, want_res):
                    _same_expr(g, w)

    def test_edge_shapes(self):
        # 1 x 1, singular 1 x 1, an empty augment, no columns, a zero matrix
        assert invert_rational([[Fraction(-2, 3)]]) == [[Fraction(-3, 2)]]
        assert invert_rational([[Fraction(0)]]) is None
        assert invert_rational([]) == []
        assert rank([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]) == 0
        assert left_null_space([[Fraction(0)], [Fraction(0)]]) == [[1, 0], [0, 1]]
        assert solve_rational([[], []], [Fraction(0), Fraction(0)]) == []
        assert solve_rational([[], []], [Fraction(0), Fraction(1)]) is None
        rows, pivots = _reduced.__wrapped__(((Fraction(1, 2), Fraction(-1, 3)),), 0)
        assert pivots == ((0, 0),) and rows == ((1, Fraction(-2, 3)),)
        # integer and Fraction keys are one entry with one answer
        assert invert_rational([[2, 0], [0, 1]]) == invert_rational(
            [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
        )


class TestReducedMemo:
    def test_mutating_results_does_not_reach_the_next_call(self):
        a = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(2), Fraction(4), Fraction(1)]]
        sq = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        t = Expr.variable(1, 0)
        inv = invert_rational(sq)
        want_inv = [list(r) for r in inv]
        inv[0][0] = Fraction(99)
        inv[1].append(Fraction(7))
        assert invert_rational(sq) == want_inv
        sol = solve_affine(a, [t, t * t])
        want_particular, want_basis = list(sol.particular), [list(v) for v in sol.null_basis]
        sol.particular[0] = t
        sol.null_basis[0][0] = Fraction(99)
        sol.null_basis.append([Fraction(1)])
        again = solve_affine(a, [t, t * t])
        assert again.particular == want_particular and again.null_basis == want_basis
        x = solve_rational(sq, [Fraction(1), Fraction(2)])
        x[0] = Fraction(99)
        assert solve_rational(sq, [Fraction(1), Fraction(2)]) == _ref_solve(
            sq, [Fraction(1), Fraction(2)], Fraction(0))[0]
        tall = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)]]
        basis = left_null_space(tall)
        want = [list(y) for y in basis]
        basis[0][0] = Fraction(99)
        basis.append([])
        assert left_null_space(tall) == want

    def test_a_repeated_solve_is_a_hit_equal_to_a_fresh_reduction(self):
        a = [[Fraction(3, 7), Fraction(-1, 5)], [Fraction(1), Fraction(11, 2)]]
        b = [Fraction(1), Fraction(-2)]
        first = solve_rational(a, b)
        before = _reduced.cache_info()
        assert solve_rational(a, b) == first
        after = _reduced.cache_info()
        assert after.hits == before.hits + 1 and after.misses == before.misses
        key = tuple(map(tuple, a))
        assert _reduced(key, 2) == _reduced.__wrapped__(key, 2)
        assert after.maxsize == REDUCE_CACHE_SIZE

    def test_stored_rows_are_read_only(self):
        rows, pivots = _reduced(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))), 2)
        assert isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
        assert isinstance(pivots, tuple)


# -- fused sums against the Expr folds -----------------------------------------


def _fold_mul(a, b):
    """The Expr fold `Matrix.__mul__` replaced."""
    n, k = a.shape
    return Matrix([
        [sum((a.rows[i][t] * b.rows[t][j] for t in range(k)), Expr.zero(a.arity))
         for j in range(b.shape[1])]
        for i in range(n)
    ])


def _fold_apply(a, vec):
    return tuple(sum((x * v for x, v in zip(row, vec)), Expr.zero(a.arity)) for row in a.rows)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _expr_entries(draw):
    """A polynomial, a rational function or zero, in two variables."""
    kind = draw(st.sampled_from(["poly", "poly", "poly", "rational", "zero"]))
    if kind == "zero":
        return Expr.zero(2)
    c = [draw(_small) for _ in range(4)]
    p = Expr.parse(f"({c[0]})*x0^2 + ({c[1]})*x0*x1 + ({c[2]})*x1 + ({c[3]})", 2)
    if kind == "rational":
        return p / Expr.parse("x0^2 + 1", 2)
    return p


def _same_matrix(got, want):
    assert got.shape == want.shape
    for grow, wrow in zip(got.rows, want.rows):
        for g, w in zip(grow, wrow):
            _same_expr(g, w)


class TestFusedSums:
    @settings(max_examples=15)
    @given(st.data())
    def test_matrix_products_equal_the_expr_fold(self, data):
        n, k, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)), 2
        a = Matrix([[data.draw(_expr_entries()) for _ in range(k)] for _ in range(n)])
        b = Matrix([[data.draw(_expr_entries()) for _ in range(m)] for _ in range(k)])
        _same_matrix(a * b, _fold_mul(a, b))
        vec = [data.draw(_expr_entries()) for _ in range(k)]
        for got, want in zip(a.apply(vec), _fold_apply(a, vec)):
            _same_expr(got, want)

    @settings(max_examples=20)
    @given(st.data())
    def test_combine_equals_the_expr_fold(self, data):
        size = data.draw(st.integers(1, 4))
        coeffs = [data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                                             Fraction(2, 3), 3]))
                  for _ in range(size)]
        values = [data.draw(_expr_entries()) for _ in range(size)]
        _same_expr(_combine(coeffs, values, Expr.zero(2)),
                   _ref_combine(coeffs, values, Expr.zero(2)))

    def test_combine_hands_back_a_lone_unit_value(self):
        v = Expr.parse("x0^2 + x1", 2)
        assert _combine([Fraction(0), Fraction(1)], [Expr.one(2), v], Expr.zero(2)) is v

    def test_arity_mismatch_still_raises(self):
        a = Matrix.identity(2, 1)
        with pytest.raises(ExprError):
            a * Matrix.identity(2, 2)
        with pytest.raises(ExprError):
            a.apply([Expr.one(2), Expr.one(2)])


class TestCoefficientRule:
    """Every value a rational solve or inverse hands back, and every
    coefficient of an Expr that a matrix product or affine solve builds,
    is an int or a Fraction that is not an integer: never a float."""

    @_property
    @given(_matrices(), st.data())
    def test_rational_products_and_solves(self, a, data):
        m, n = len(a), len(a[0])
        x = [data.draw(_entries) for _ in range(n)]
        values = []
        for rhs in (_times(a, x), [data.draw(_entries) for _ in range(m)]):
            values += solve_rational(a, rhs) or []
        values += [v for y in left_null_space(a) for v in y]
        if m == n:
            values += [v for row in invert_rational(a) or [] for v in row]
        rows, _ = _reduced.__wrapped__(tuple(map(tuple, a)), m)
        values += [v for row in rows for v in row]
        assert all(_stored(v) for v in values)

    @settings(max_examples=15)
    @given(st.data())
    def test_expr_products_and_affine_solves(self, data):
        n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        a = Matrix([[data.draw(_expr_entries()) for _ in range(k)] for _ in range(n)])
        b = Matrix([[data.draw(_expr_entries()) for _ in range(2)] for _ in range(k)])
        vec = [data.draw(_expr_entries()) for _ in range(k)]
        coeffs = [[data.draw(_small) for _ in range(2)] for _ in range(n)]
        rhs = [data.draw(_expr_entries()) for _ in range(n)]
        built = [e for row in (a * b).rows for e in row] + list(a.apply(vec))
        solved = solve_affine(coeffs, rhs)
        if solved is not None:
            built += solved.particular
            assert all(_stored(v) for vec in solved.null_basis for v in vec)
        for e in built:
            assert all(_stored(c) and c for t in (e.num, e.den) for c in t.values()), e
        parts = affine_parts(ExprVec([Expr.parse(f"({c[0]})*x0 + ({c[1]})*x1 + 3", 2)
                                      for c in coeffs]))
        assert all(_stored(v) for row in parts.matrix for v in row)
        assert all(_stored(v) for v in parts.offset)
