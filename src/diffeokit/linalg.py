"""Small exact linear algebra: Expr matrices and affine solving over Q.

Two jobs live here.  Matrices with expression entries support the fiberwise
algebra (composition of linear fiber actions, determinants, adjugate
inverses with certified denominators).  Rational Gaussian elimination
supports the factorization searches: writing a candidate map as an affine
generator applied to an unknown smooth factor reduces to solving
``A F = c - b`` where A, b are rational and c has expression entries.

Elimination runs on plain ints.  `_reduced` clears each row of [A | I] to
integers and runs Gauss-Jordan fraction-free, with the pivot rule of the
Fraction loop (the first nonzero row at or below the current one); each
row operation is followed by a division by the row's content (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968, keeps integers small by exact
division instead).  Every int row stays a nonzero multiple of the row the
Fraction loop would hold, so the pivots are the same, and a pivot row
divided by its pivot is the Fraction row exactly.  The rows past the
pivots are only tested for zero.

A run solves, inverts and ranks the same few matrices over and over, so
`_reduced` is a bounded `functools.lru_cache` (REDUCE_CACHE_SIZE entries,
set in `expr` beside its other memo sizes), keyed by the matrix as a tuple
of row tuples and the augment width.  `_solve`, `solve_affine`,
`solve_rational`, `invert_rational`, `rank` and `left_null_space` all read
it.  A hit equals a fresh result, and nothing handed out can be mutated
into a later hit: the reduced rows are stored as tuples, and every
solution, inverse and basis is a fresh list.

Products sum on raw terms.  `Matrix.__mul__`, `Matrix.apply` and
`_combine` sum polynomial products on raw term dicts with `expr._add` and
`expr._mul`, in the order of the Expr fold they replace, and build one
Expr per entry; rational entries keep Expr arithmetic.

Every value handed back (a reduced row, solution, inverse, basis vector
or affine part) is stored by `expr`'s coefficient rule: an
int when it is an integer, a Fraction otherwise.  Each division is
`expr._quo`, never `/`, which would make a float of two ints.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .expr import (
    REDUCE_CACHE_SIZE,
    Expr,
    ExprError,
    ExprVec,
    Record,
    _add,
    _coeff,
    _const,
    _mul,
    _quo,
)

__all__ = [
    "Matrix",
    "AffineParts",
    "affine_parts",
    "AffineSolution",
    "solve_affine",
    "left_null_space",
    "rank",
    "solve_rational",
    "invert_rational",
]


class Matrix:
    """A rectangular matrix of expressions sharing one arity."""

    __slots__ = ("rows", "arity", "shape")

    def __init__(self, rows: Sequence[Sequence[Expr]]):
        packed = tuple(tuple(row) for row in rows)
        if not packed or not packed[0]:
            raise ExprError("empty matrix")
        width = len(packed[0])
        arity = packed[0][0].arity
        for row in packed:
            if len(row) != width:
                raise ExprError("ragged matrix")
            for entry in row:
                if entry.arity != arity:
                    raise ExprError("matrix entries disagree on arity")
        object.__setattr__(self, "rows", packed)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "shape", (len(packed), width))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int, arity: int) -> "Matrix":
        return Matrix(
            [[Expr.one(arity) if i == j else Expr.zero(arity) for j in range(n)]
             for i in range(n)]
        )

    @staticmethod
    def from_rationals(rows: Sequence[Sequence[Fraction | int]], arity: int) -> "Matrix":
        return Matrix([[Expr.constant(arity, v) for v in row] for row in rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._expect_shape(other, self.shape)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._expect_shape(other, self.shape)
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.shape[1] != other.shape[0]:
            raise ExprError(f"cannot multiply shapes {self.shape} and {other.shape}")
        cols = list(zip(*other.rows))
        fused = other.arity == self.arity
        col_poly = [fused and all(b.is_polynomial for b in col) for col in cols]
        out = []
        for row in self.rows:
            row_poly = all(a.is_polynomial for a in row)
            out.append([
                _poly_dot(row, col, self.arity) if row_poly and poly
                else _dot(row, col, self.arity)
                for col, poly in zip(cols, col_poly)
            ])
        return Matrix(out)

    def scale(self, factor: Expr | Fraction | int) -> "Matrix":
        return Matrix([[a * factor for a in row] for row in self.rows])

    def apply(self, vec: Sequence[Expr]) -> tuple[Expr, ...]:
        if len(vec) != self.shape[1]:
            raise ExprError("vector length does not match matrix width")
        if all(isinstance(v, Expr) and v.is_polynomial and v.arity == self.arity
               for v in vec):
            poly_rows = [all(a.is_polynomial for a in row) for row in self.rows]
        else:
            poly_rows = [False] * len(self.rows)
        return tuple(
            _poly_dot(row, vec, self.arity) if poly
            else _dot(row, vec, self.arity)
            for row, poly in zip(self.rows, poly_rows)
        )

    def compose(self, args: Sequence[Expr]) -> "Matrix":
        """Substitute args into every entry."""
        return Matrix([[a.compose(args) for a in row] for row in self.rows])

    def eval(self, point: Sequence[Fraction]) -> list[list[Fraction]]:
        return [[a.eval(point) for a in row] for row in self.rows]

    def det(self) -> Expr:
        n, m = self.shape
        if n != m:
            raise ExprError("determinant of a non-square matrix")
        if n == 1:
            return self.rows[0][0]
        total = Expr.zero(self.arity)
        for j in range(n):
            entry = self.rows[0][j]
            if entry.is_zero():
                continue
            minor = Matrix(
                [
                    [self.rows[i][k] for k in range(n) if k != j]
                    for i in range(1, n)
                ]
            )
            term = entry * minor.det()
            total = total + (term if j % 2 == 0 else -term)
        return total

    def adjugate(self) -> "Matrix":
        n, m = self.shape
        if n != m:
            raise ExprError("adjugate of a non-square matrix")
        if n == 1:
            return Matrix.identity(1, self.arity)
        cof = [[Expr.zero(self.arity)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = Matrix(
                    [
                        [self.rows[r][c] for c in range(n) if c != j]
                        for r in range(n) if r != i
                    ]
                )
                sign = 1 if (i + j) % 2 == 0 else -1
                cof[j][i] = minor.det() * sign
        return Matrix(cof)

    def try_inverse(self) -> "Matrix | None":
        """Exact inverse, or None when the determinant is not certifiably
        invertible (zero, sign-indefinite, or lacking a positivity witness)."""
        try:
            d = self.det()
            if d.is_zero():
                return None
            adj = self.adjugate()
            return Matrix([[a / d for a in row] for row in adj.rows])
        except ExprError:
            return None

    def is_zero(self) -> bool:
        return all(entry.is_zero() for row in self.rows for entry in row)

    def _expect_shape(self, other: "Matrix", shape: tuple[int, int]) -> None:
        if other.shape != shape:
            raise ExprError(f"shape mismatch: {other.shape} vs {shape}")

    def to_str(self) -> str:
        return "[" + "; ".join(
            ", ".join(a.to_str() for a in row) for row in self.rows
        ) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self.to_str()!r})"


def _poly_dot(xs: Sequence[Expr], ys: Sequence[Expr], arity: int) -> Expr:
    """sum x * y over polynomials of one arity, summed on raw terms: the
    terms and dict order of the Expr fold zero + x0 * y0 + x1 * y1 + ..."""
    total: dict = {}
    for x, y in zip(xs, ys):
        if x.num and y.num:
            total = _add(total, _mul(x.num, y.num))
    return Expr._poly(arity, total)


def _dot(xs: Sequence[Expr], ys: Sequence, arity: int) -> Expr:
    """sum x * y folded from the first product, so no entry pays for the
    normalisation of 0 + r; the zero of the arity when there is no pair."""
    products = (x * y for x, y in zip(xs, ys))
    first = next(products, None)
    return Expr.zero(arity) if first is None else sum(products, first)


# ---------------------------------------------------------------------------
# rational elimination
# ---------------------------------------------------------------------------


class AffineParts(Record, frozen=False):
    """Decomposition of a map as x -> A x + b with rational A, b."""

    matrix: list[list[Fraction]]
    offset: list[Fraction]

    def _shifted(self, target: Sequence) -> list:
        return [t - b if b else t for t, b in zip(target, self.offset)]

    def preimage(self, target: Sequence) -> "AffineSolution | list[Fraction] | None":
        """Every x with A x + b = target, as an AffineSolution, for Expr
        targets; one rational x for a rational point.  None when there is
        none."""
        shifted = self._shifted(target)
        if shifted and not isinstance(shifted[0], Expr):
            return solve_rational(self.matrix, shifted)
        return solve_affine(self.matrix, shifted)

    def residuals(self, target: Sequence) -> list:
        """y . (target - b) for each y in the basis `left_null_space(A)`,
        for Expr or Fraction targets: all zero exactly when target lies in
        the image of x -> A x + b."""
        shifted = self._shifted(target)
        zero = Expr.zero(shifted[0].arity) if isinstance(shifted[0], Expr) else 0
        return [_combine(y, shifted, zero) for y in left_null_space(self.matrix)]


def affine_parts(vec: ExprVec) -> AffineParts | None:
    """Extract (A, b) when every component has polynomial degree <= 1."""
    rows: list[list[Fraction]] = []
    offset: list[Fraction] = []
    arity = vec.arity
    for comp in vec.components:
        if not comp.is_polynomial or comp.degree() > 1:
            return None
        row = [0] * arity
        const = 0
        for mono, coeff in comp.num.items():
            if sum(mono) == 0:
                const = coeff
            else:
                row[mono.index(1)] = coeff
        rows.append(row)
        offset.append(const)
    return AffineParts(rows, offset)


class AffineSolution(Record, frozen=False):
    """Solution set of A F = rhs with expression right-hand sides.

    particular: one exact solution with free coordinates set to zero.
    null_basis: rational basis of ker A; adding constant multiples of these
    to the particular solution ranges over all solutions with the same
    polynomial degree profile.
    """

    particular: list[Expr]
    null_basis: list[list[Fraction]]


def _key(matrix: Sequence[Sequence[Fraction]]) -> tuple:
    return tuple(map(tuple, matrix))


@functools.lru_cache(maxsize=REDUCE_CACHE_SIZE)
def _reduced(key: tuple, extra: int) -> tuple[tuple[tuple, ...], tuple[tuple[int, int], ...]]:
    """Gauss-Jordan elimination of [A | I], with A the rows of `key` and I
    the identity of size `extra`, pivoting in A's columns.  Returns the
    reduced rows and the (row, column) pivots, in order.

    Each row is cleared to integers and every row operation stays on ints
    (p * r - f * s, then divided by the row's content), so each row is a
    nonzero multiple of the row the Fraction loop would hold and the
    pivots are the same.  A pivot row is handed back divided by its
    pivot, which equals the Fraction row exactly; a row past the pivots
    stays an int multiple, fit only for a zero test."""
    a: list[list[int]] = []
    for i, entries in enumerate(key):
        vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in entries]
        d = math.lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (d // v.denominator) for v in vals]
        a.append(ints + [d if i == j else 0 for j in range(extra)])
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(len(key[0]) if key else 0):
        if row == len(a):
            break
        pivot = next((r for r in range(row, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        prow = a[row]
        p = prow[col]
        for r in range(len(a)):
            f = a[r][col]
            if r != row and f:
                new = [p * v - f * w for v, w in zip(a[r], prow)]
                g = math.gcd(*new)
                a[r] = [v // g for v in new] if g > 1 else new
        pivots.append((row, col))
        row += 1
    rows = [tuple(_quo(v, a[r][col]) for v in a[r]) for r, col in pivots]
    rows += [tuple(a[r]) for r in range(len(pivots), len(a))]
    return tuple(rows), tuple(pivots)


def _null_basis(
    a: Sequence[Sequence[Fraction]], pivots: Sequence[tuple[int, int]], width: int
) -> list[list[Fraction]]:
    """Kernel basis of a reduced matrix, one vector per free column."""
    pivot_cols = {col for _, col in pivots}
    basis: list[list[Fraction]] = []
    for free in range(width):
        if free in pivot_cols:
            continue
        vec = [0] * width
        vec[free] = 1
        for r, col in pivots:
            vec[col] = -a[r][free]
        basis.append(vec)
    return basis


def _combine(coeffs: Sequence[Fraction], values: Sequence, zero):
    """sum coeffs[k] * values[k] over the nonzero coefficients, in order.
    A lone unit coefficient hands back its value; polynomial values are
    summed on raw terms into one Expr, with the terms and dict order of
    the Expr fold."""
    pairs = [(c, v) for c, v in zip(coeffs, values) if c]
    if not pairs:
        return zero
    if len(pairs) == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    if isinstance(zero, Expr) and all(v.is_polynomial for _, v in pairs):
        arity = zero.arity
        total: dict = {}
        for c, v in pairs:
            total = _add(total, v.num if c == 1 else _mul(v.num, _const(arity, c)))
        return Expr._poly(arity, total)
    terms = [v if c == 1 else v * c for c, v in pairs]
    total = sum(terms[1:], terms[0])
    return total if isinstance(zero, Expr) else _coeff(total)


def _solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence, zero):
    """(particular, null basis) of A x = rhs over values that are Fractions
    or Exprs, or None when inconsistent.  Reduces [A | I]; the right block
    records the row operations, applied to rhs once at the end."""
    m = len(matrix)
    if m != len(rhs):
        raise ExprError("matrix and right-hand side disagree")
    n = len(matrix[0]) if m else 0
    a, pivots = _reduced(_key(matrix), m)
    if any(_combine(a[r][n:], rhs, zero) != zero for r in range(len(pivots), m)):
        return None
    particular = [zero] * n
    for r, col in pivots:
        particular[col] = _combine(a[r][n:], rhs, zero)
    return particular, _null_basis(a, pivots, n)


def solve_affine(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Expr]
) -> AffineSolution | None:
    """Solve A x = rhs exactly; None when inconsistent as expressions."""
    solved = _solve(matrix, rhs, Expr.zero(rhs[0].arity if rhs else 0))
    return None if solved is None else AffineSolution(*solved)


def left_null_space(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of {y : y^T A = 0}; the image equations of x -> A x."""
    m = len(matrix)
    if m == 0:
        return []
    a, pivots = _reduced(tuple(zip(*matrix)), 0)
    return _null_basis(a, pivots, m)


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(_reduced(_key(matrix), 0)[1]) if matrix else 0


def solve_rational(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """One exact rational solution of A x = b, or None."""
    solved = _solve(matrix, [_coeff(v) for v in rhs], 0)
    return None if solved is None else solved[0]


def invert_rational(
    rows: Sequence[Sequence[Fraction]],
) -> list[list[Fraction]] | None:
    """Exact inverse of a square rational matrix, or None when singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        return None
    a, pivots = _reduced(_key(rows), n)
    if len(pivots) < n:
        return None
    return [list(row[n:]) for row in a]
