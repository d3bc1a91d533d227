"""Small exact linear algebra: Expr matrices and affine solving over Q.

Two jobs live here.  Matrices with expression entries support the fiberwise
algebra (composition of linear fiber actions, determinants, adjugate
inverses with certified denominators).  Rational Gaussian elimination
supports the factorization searches: writing a candidate map as an affine
generator applied to an unknown smooth factor reduces to solving
``A F = c - b`` where A, b are rational and c has expression entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .expr import Expr, ExprError, ExprVec


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
        n, k = self.shape
        m = other.shape[1]
        return Matrix(
            [
                [
                    sum(
                        (self.rows[i][t] * other.rows[t][j] for t in range(k)),
                        Expr.zero(self.arity),
                    )
                    for j in range(m)
                ]
                for i in range(n)
            ]
        )

    def scale(self, factor: Expr | Fraction | int) -> "Matrix":
        return Matrix([[a * factor for a in row] for row in self.rows])

    def apply(self, vec: Sequence[Expr]) -> tuple[Expr, ...]:
        if len(vec) != self.shape[1]:
            raise ExprError("vector length does not match matrix width")
        return tuple(
            sum((a * v for a, v in zip(row, vec)), Expr.zero(self.arity))
            for row in self.rows
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


# ---------------------------------------------------------------------------
# rational elimination
# ---------------------------------------------------------------------------


@dataclass
class AffineParts:
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
        zero = Expr.zero(shifted[0].arity) if isinstance(shifted[0], Expr) else Fraction(0)
        return [_combine(y, shifted, zero) for y in left_null_space(self.matrix)]


def affine_parts(vec: ExprVec) -> AffineParts | None:
    """Extract (A, b) when every component has polynomial degree <= 1."""
    rows: list[list[Fraction]] = []
    offset: list[Fraction] = []
    arity = vec.arity
    for comp in vec.components:
        if not comp.is_polynomial or comp.degree() > 1:
            return None
        row = [Fraction(0)] * arity
        const = Fraction(0)
        for mono, coeff in comp.num.items():
            if sum(mono) == 0:
                const = coeff
            else:
                row[mono.index(1)] = coeff
        rows.append(row)
        offset.append(const)
    return AffineParts(rows, offset)


@dataclass
class AffineSolution:
    """Solution set of A F = rhs with expression right-hand sides.

    particular: one exact solution with free coordinates set to zero.
    null_basis: rational basis of ker A; adding constant multiples of these
    to the particular solution ranges over all solutions with the same
    polynomial degree profile.
    """

    particular: list[Expr]
    null_basis: list[list[Fraction]]


def _eliminate(a: list[list[Fraction]], width: int) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination of the rows of `a` in place, pivoting in its
    first `width` columns; columns past `width` ride along.  Returns the
    (row, column) pivots, in order."""
    pivots: list[tuple[int, int]] = []
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


def _null_basis(
    a: list[list[Fraction]], pivots: list[tuple[int, int]], width: int
) -> list[list[Fraction]]:
    """Kernel basis of a reduced matrix, one vector per free column."""
    pivot_cols = {col for _, col in pivots}
    basis: list[list[Fraction]] = []
    for free in range(width):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for r, col in pivots:
            vec[col] = -a[r][free]
        basis.append(vec)
    return basis


def _augmented(matrix: Sequence[Sequence[Fraction]], extra: int) -> list[list[Fraction]]:
    """Rows of the matrix over Q, each followed by the matching row of the
    identity of size `extra`."""
    return [
        list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(extra)]
        for i, row in enumerate(matrix)
    ]


def _combine(coeffs: Sequence[Fraction], values: Sequence, zero):
    """sum coeffs[k] * values[k] over the nonzero coefficients."""
    terms = [v if c == 1 else v * c for c, v in zip(coeffs, values) if c]
    return sum(terms[1:], terms[0]) if terms else zero


def _solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence, zero):
    """(particular, null basis) of A x = rhs over values that are Fractions
    or Exprs, or None when inconsistent.  Eliminates [A | I]; the right
    block records the row operations, applied to rhs once at the end."""
    m = len(matrix)
    if m != len(rhs):
        raise ExprError("matrix and right-hand side disagree")
    n = len(matrix[0]) if m else 0
    a = _augmented(matrix, m)
    pivots = _eliminate(a, n)
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
    n = len(matrix[0])
    a = [[Fraction(matrix[i][j]) for i in range(m)] for j in range(n)]
    return _null_basis(a, _eliminate(a, m), m)


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(_eliminate(_augmented(matrix, 0), len(matrix[0]))) if matrix else 0


def solve_rational(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """One exact rational solution of A x = b, or None."""
    solved = _solve(matrix, [Fraction(v) for v in rhs], Fraction(0))
    return None if solved is None else solved[0]


def invert_rational(
    rows: Sequence[Sequence[Fraction]],
) -> list[list[Fraction]] | None:
    """Exact inverse of a square rational matrix, or None when singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        return None
    a = _augmented(rows, n)
    if len(_eliminate(a, n)) < n:
        return None
    return [row[n:] for row in a]
