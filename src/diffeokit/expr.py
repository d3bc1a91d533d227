"""Exact multivariate polynomial and rational-function arithmetic.

A polynomial in ``n`` variables is stored as a dictionary mapping exponent
tuples to rational coefficients::

    x0^2*x1 + 3/2   ->   {(2, 1): Fraction(1), (0, 0): Fraction(3, 2)}

Zero coefficients are never stored, so dictionary equality is polynomial
identity.  An :class:`Expr` is a quotient ``num/den`` of two such
polynomials; the denominator is either a (monic) constant, in which case it
is folded into the numerator, or it carries a :class:`PositivityWitness`
showing that it is bounded below by a positive rational everywhere on R^n.
Every map handled by this package is a vector of such expressions, so
smoothness is a construction invariant rather than an analytic side
condition.

All coefficients are :class:`fractions.Fraction`; nothing here ever rounds.
Canonical form: terms are kept reduced and compared as dictionaries, display
order is graded lexicographic, rational functions cancel their polynomial
gcd whenever the reduced denominator still supports a positivity witness,
and the denominator is scaled monic.

Substitution (`Expr.compose`) with polynomial arguments runs on raw term
dictionaries (`_subst_poly`) and builds a single Expr at the end; any
rational argument sends it through Expr arithmetic, which carries the
positivity witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Monomial = tuple[int, ...]
Terms = dict[Monomial, Fraction]
Scalar = Union[int, Fraction]


class ExprError(ValueError):
    """Malformed expression: arity mismatch, bad index, uncertified denominator."""


# ---------------------------------------------------------------------------
# raw polynomial helpers (terms dictionaries)
# ---------------------------------------------------------------------------


def _const(arity: int, value: Scalar) -> Terms:
    value = Fraction(value)
    if value == 0:
        return {}
    return {(0,) * arity: value}


def _var(arity: int, index: int) -> Terms:
    if not 0 <= index < arity:
        raise ExprError(f"variable x{index} out of range for arity {arity}")
    mono = tuple(1 if i == index else 0 for i in range(arity))
    return {mono: Fraction(1)}


def _add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for mono, coeff in b.items():
        total = out.get(mono, Fraction(0)) + coeff
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def _neg(a: Terms) -> Terms:
    return {mono: -coeff for mono, coeff in a.items()}


def _sub(a: Terms, b: Terms) -> Terms:
    return _add(a, _neg(b))


def _scale(a: Terms, c: Scalar) -> Terms:
    c = Fraction(c)
    if c == 0:
        return {}
    return {mono: coeff * c for mono, coeff in a.items()}


def _mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            total = out.get(mono, Fraction(0)) + ca * cb
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
    return out


def _diff(a: Terms, index: int) -> Terms:
    out: Terms = {}
    for mono, coeff in a.items():
        e = mono[index]
        if e == 0:
            continue
        lowered = mono[:index] + (e - 1,) + mono[index + 1 :]
        out[lowered] = out.get(lowered, Fraction(0)) + coeff * e
    return {m: c for m, c in out.items() if c}


def _as_point(point: Sequence[Scalar]) -> list[Fraction]:
    return [x if type(x) is Fraction else Fraction(x) for x in point]


def _eval(a: Terms, point: Sequence[Fraction]) -> Fraction:
    """Value at a point whose coordinates are already Fractions."""
    total = Fraction(0)
    for mono, coeff in a.items():
        term = coeff
        for value, exp in zip(point, mono):
            if exp == 1:
                term *= value
            elif exp:
                term *= value ** exp
        total += term
    return total


def _lift(a: Terms, old_arity: int, new_arity: int, offset: int) -> Terms:
    """Re-index variables: x_i -> x_{i+offset} inside an arity-new_arity ring."""
    if offset < 0 or old_arity + offset > new_arity:
        raise ExprError("lift does not fit in the new arity")
    out: Terms = {}
    pad_left = (0,) * offset
    pad_right = (0,) * (new_arity - old_arity - offset)
    for mono, coeff in a.items():
        out[pad_left + mono + pad_right] = coeff
    return out


def _total_degree(a: Terms) -> int:
    if not a:
        return 0
    return max(sum(m) for m in a)


def _is_constant(a: Terms) -> bool:
    return all(sum(m) == 0 for m in a)


def _constant_value(a: Terms) -> Fraction:
    if not a:
        return Fraction(0)
    return next(iter(a.values()))


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


def _leading(a: Terms) -> tuple[Monomial, Fraction]:
    mono = max(a, key=_grlex_key)
    return mono, a[mono]


def _sorted_monomials(a: Terms) -> list[Monomial]:
    return sorted(a, key=_grlex_key, reverse=True)


def _terms_key(a: Terms) -> tuple:
    return tuple((m, a[m]) for m in _sorted_monomials(a))


# ---------------------------------------------------------------------------
# exact division and gcd
# ---------------------------------------------------------------------------


def _mono_divides(d: Monomial, m: Monomial) -> bool:
    return all(x <= y for x, y in zip(d, m))


def _div_exact(a: Terms, d: Terms) -> Terms | None:
    """Quotient a/d when exact, else None.  Single-divisor reduction."""
    if not d:
        raise ExprError("division by the zero polynomial")
    lead_m, lead_c = _leading(d)
    rem = dict(a)
    quot: Terms = {}
    while rem:
        m, c = _leading(rem)
        if not _mono_divides(lead_m, m):
            return None
        qm = tuple(x - y for x, y in zip(m, lead_m))
        qc = c / lead_c
        quot[qm] = quot.get(qm, Fraction(0)) + qc
        rem = _sub(rem, _mul({qm: qc}, d))
    return {m: c for m, c in quot.items() if c}


def _deg_in(a: Terms, v: int) -> int:
    if not a:
        return -1
    return max(m[v] for m in a)


def _coeff_in(a: Terms, v: int, k: int) -> Terms:
    """Coefficient of x_v^k, as a polynomial with the x_v slot zeroed."""
    out: Terms = {}
    for mono, coeff in a.items():
        if mono[v] == k:
            out[mono[:v] + (0,) + mono[v + 1 :]] = coeff
    return out


def _shift_in(a: Terms, v: int, k: int) -> Terms:
    return {m[:v] + (m[v] + k,) + m[v + 1 :]: c for m, c in a.items()}


def _content_in(a: Terms, v: int, arity: int) -> Terms:
    """Gcd of the x_v-coefficients of a."""
    content: Terms = {}
    for k in range(_deg_in(a, v) + 1):
        c = _coeff_in(a, v, k)
        if c:
            content = _gcd(content, c, arity)
    return content


def _prem(f: Terms, g: Terms, v: int) -> Terms:
    """Pseudo-remainder of f by g with respect to the variable x_v."""
    dg = _deg_in(g, v)
    lead_g = _coeff_in(g, v, dg)
    r = dict(f)
    while r and _deg_in(r, v) >= dg:
        dr = _deg_in(r, v)
        lead_r = _coeff_in(r, v, dr)
        r = _sub(_mul(lead_g, r), _mul(_shift_in(lead_r, v, dr - dg), g))
    return r


def _monic(a: Terms) -> Terms:
    if not a:
        return a
    _, lead = _leading(a)
    if lead == 1:
        return a
    return _scale(a, 1 / lead)


def _gcd(a: Terms, b: Terms, arity: int) -> Terms:
    """Monic gcd over Q, by the primitive pseudo-remainder sequence."""
    if not a:
        return _monic(b)
    if not b:
        return _monic(a)
    if _is_constant(a) or _is_constant(b):
        return _const(arity, 1)
    used = [v for v in range(arity) if _deg_in(a, v) > 0 or _deg_in(b, v) > 0]
    v = min(used, key=lambda i: max(_deg_in(a, i), _deg_in(b, i)))
    ca = _content_in(a, v, arity)
    cb = _content_in(b, v, arity)
    c = _gcd(ca, cb, arity)
    pa = _div_exact(a, ca)
    pb = _div_exact(b, cb)
    assert pa is not None and pb is not None
    f, g = pa, pb
    if _deg_in(f, v) < _deg_in(g, v):
        f, g = g, f
    while g:
        r = _prem(f, g, v)
        if r:
            rc = _content_in(r, v, arity)
            r = _div_exact(r, rc)
            assert r is not None
        f, g = g, r
    if _deg_in(f, v) > 0:
        fc = _content_in(f, v, arity)
        f = _div_exact(f, fc)
        assert f is not None
        return _monic(_mul(c, f))
    return _monic(c)


# ---------------------------------------------------------------------------
# positivity witnesses for denominators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositivityWitness:
    """Certificate that a polynomial equals sum_i w_i * p_i^2 + c with w_i, c > 0.

    Such a polynomial is bounded below by c on all of R^n, so it is safe as a
    denominator.  Witnesses compose: they are closed under products, sums and
    substitution of polynomial arguments, which is how they survive the
    arithmetic in the rest of the package.
    """

    squares: tuple[tuple[Fraction, tuple], ...]  # (weight, terms-key) pairs
    constant: Fraction

    def lower_bound(self) -> Fraction:
        return self.constant

    def expand(self, arity: int) -> Terms:
        total = _const(arity, self.constant)
        for weight, key in self.squares:
            p = dict(key)
            total = _add(total, _scale(_mul(p, p), weight))
        return total

    def verify(self, terms: Terms, arity: int) -> bool:
        return self.expand(arity) == terms

    def scaled(self, factor: Fraction) -> "PositivityWitness":
        if factor <= 0:
            raise ExprError("positivity witness scaled by a non-positive factor")
        return PositivityWitness(
            tuple((w * factor, key) for w, key in self.squares),
            self.constant * factor,
        )


def _witness_squares(witness: PositivityWitness) -> list[tuple[Fraction, Terms]]:
    return [(w, dict(key)) for w, key in witness.squares]


def _make_witness(squares: Iterable[tuple[Fraction, Terms]], constant: Fraction) -> PositivityWitness:
    packed = tuple(
        (Fraction(w), tuple(sorted(p.items())))
        for w, p in squares
        if w and p
    )
    return PositivityWitness(packed, Fraction(constant))


def _witness_mul(a: PositivityWitness, b: PositivityWitness) -> PositivityWitness:
    """Witness for the product of two witnessed polynomials."""
    squares: list[tuple[Fraction, Terms]] = []
    sa = _witness_squares(a)
    sb = _witness_squares(b)
    for wa, pa in sa:
        for wb, pb in sb:
            squares.append((wa * wb, _mul(pa, pb)))
    for wa, pa in sa:
        squares.append((wa * b.constant, pa))
    for wb, pb in sb:
        squares.append((wb * a.constant, pb))
    return _make_witness(squares, a.constant * b.constant)


def _witness_even_powers(terms: Terms) -> PositivityWitness | None:
    """Witness for a sum of even monomials with positive coefficients and a
    positive constant term, the input shape accepted from fixtures."""
    if not terms:
        return None
    squares: list[tuple[Fraction, Terms]] = []
    constant = Fraction(0)
    for mono, coeff in terms.items():
        if coeff <= 0:
            return None
        if sum(mono) == 0:
            constant = coeff
            continue
        if any(e % 2 for e in mono):
            return None
        squares.append((coeff, {tuple(e // 2 for e in mono): Fraction(1)}))
    if constant <= 0:
        return None
    return _make_witness(squares, constant)


def _witness_quadratic(terms: Terms, arity: int) -> PositivityWitness | None:
    """Complete the square on a positive-definite quadratic in one variable."""
    used = {v for m in terms for v in range(arity) if m[v]}
    if len(used) != 1:
        return None
    v = used.pop()
    if _deg_in(terms, v) != 2:
        return None
    a = _constant_value(_coeff_in(terms, v, 2))
    b = _constant_value(_coeff_in(terms, v, 1))
    c = _constant_value(_coeff_in(terms, v, 0))
    if a <= 0:
        return None
    rest = c - b * b / (4 * a)
    if rest <= 0:
        return None
    shift = _add(_var(arity, v), _const(arity, b / (2 * a)))
    return _make_witness([(a, shift)], rest)


def derive_witness(
    terms: Terms, arity: int, hints: dict[tuple, PositivityWitness] | None = None
) -> PositivityWitness | None:
    """Best-effort positivity witness: hints, even-power shape, quadratics."""
    if hints:
        w = hints.get(_terms_key(terms))
        if w is not None and w.verify(terms, arity):
            return w
    w = _witness_even_powers(terms)
    if w is not None:
        return w
    w = _witness_quadratic(terms, arity)
    if w is not None and w.verify(terms, arity):
        return w
    return None


# ---------------------------------------------------------------------------
# Expr
# ---------------------------------------------------------------------------


class Expr:
    """A polynomial or certified rational function in variables x0..x{n-1}."""

    __slots__ = ("arity", "num", "den", "den_witness", "_key")

    def __init__(
        self,
        arity: int,
        num: Terms,
        den: Terms | None = None,
        den_witness: PositivityWitness | None = None,
        hints: dict[tuple, PositivityWitness] | None = None,
    ):
        if arity < 0:
            raise ExprError("negative arity")
        for mono in num:
            if len(mono) != arity:
                raise ExprError("numerator monomial does not match arity")
        if den is None:
            den = _const(arity, 1)
        for mono in den:
            if len(mono) != arity:
                raise ExprError("denominator monomial does not match arity")
        if not den:
            raise ExprError("zero denominator")

        all_hints: dict[tuple, PositivityWitness] = dict(hints or {})
        if den_witness is not None:
            all_hints[_terms_key(den)] = den_witness

        num, den, witness = _normalize(arity, num, den, all_hints)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "den_witness", witness)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Expr is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(arity: int, value: Scalar) -> "Expr":
        return Expr(arity, _const(arity, value))

    @staticmethod
    def zero(arity: int) -> "Expr":
        return Expr(arity, {})

    @staticmethod
    def one(arity: int) -> "Expr":
        return Expr(arity, _const(arity, 1))

    @staticmethod
    def variable(arity: int, index: int) -> "Expr":
        return Expr(arity, _var(arity, index))

    # -- structure ----------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return _is_constant(self.den)

    @property
    def is_constant(self) -> bool:
        return _is_constant(self.num) and _is_constant(self.den)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ExprError("not a constant expression")
        den = _constant_value(self.den)
        return _constant_value(self.num) / den

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        return max(_total_degree(self.num), _total_degree(self.den))

    def canonical_key(self) -> tuple:
        key = self._key
        if key is None:
            key = (self.arity, _terms_key(self.num), _terms_key(self.den))
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expr.constant(self.arity, other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Expr | None":
        if isinstance(other, Expr):
            if other.arity != self.arity:
                raise ExprError("arity mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.constant(self.arity, other)
        return None

    def _hints(self, other: "Expr | None" = None) -> dict[tuple, PositivityWitness]:
        hints: dict[tuple, PositivityWitness] = {}
        if self.den_witness is not None:
            hints[_terms_key(self.den)] = self.den_witness
        if other is not None and other.den_witness is not None:
            hints[_terms_key(other.den)] = other.den_witness
        return hints

    def __add__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.is_polynomial and rhs.is_polynomial:
            return Expr(self.arity, _add(self.num, rhs.num))
        hints = self._hints(rhs)
        if self.den == rhs.den:
            return Expr(self.arity, _add(self.num, rhs.num), dict(self.den),
                        self.den_witness, hints)
        den = _mul(self.den, rhs.den)
        witness = None
        if self.den_witness is not None and rhs.den_witness is not None:
            witness = _witness_mul(self.den_witness, rhs.den_witness)
        num = _add(_mul(self.num, rhs.den), _mul(rhs.num, self.den))
        return Expr(self.arity, num, den, witness, hints)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(self.arity, _neg(self.num), dict(self.den), self.den_witness)

    def __sub__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.is_polynomial and rhs.is_polynomial:
            return Expr(self.arity, _mul(self.num, rhs.num))
        witness = None
        if self.den_witness is not None and rhs.den_witness is not None:
            witness = _witness_mul(self.den_witness, rhs.den_witness)
        elif self.den_witness is not None and rhs.is_polynomial:
            witness = self.den_witness
        elif rhs.den_witness is not None and self.is_polynomial:
            witness = rhs.den_witness
        return Expr(self.arity, _mul(self.num, rhs.num), _mul(self.den, rhs.den),
                    witness, self._hints(rhs))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero():
            raise ExprError("division by zero")
        # the new denominator involves rhs's numerator, whose positivity must
        # either cancel away or be rediscovered during normalization
        num = _mul(self.num, rhs.den)
        den = _mul(self.den, rhs.num)
        return Expr(self.arity, num, den, None, self._hints(rhs))

    def __rtruediv__(self, other) -> "Expr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs / self

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int) or k < 0:
            raise ExprError("exponent must be a non-negative integer")
        result = Expr.one(self.arity)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus -----------------------------------------------------------

    def differentiate(self, index: int) -> "Expr":
        if not 0 <= index < self.arity:
            raise ExprError(f"variable x{index} out of range for arity {self.arity}")
        if self.is_polynomial:
            den = _constant_value(self.den)
            return Expr(self.arity, _scale(_diff(self.num, index), 1 / den))
        num = _sub(
            _mul(_diff(self.num, index), self.den),
            _mul(self.num, _diff(self.den, index)),
        )
        den = _mul(self.den, self.den)
        witness = None
        if self.den_witness is not None:
            witness = _witness_mul(self.den_witness, self.den_witness)
        return Expr(self.arity, num, den, witness, self._hints())

    def compose(self, args: Sequence["Expr"]) -> "Expr":
        """Substitute args[i] for x_i.  Arguments share a common arity."""
        if len(args) != self.arity:
            raise ExprError(f"expected {self.arity} arguments, got {len(args)}")
        if self.arity == 0:
            raise ExprError("cannot infer arity for a 0-variable substitution")
        out_arity = args[0].arity
        for a in args:
            if a.arity != out_arity:
                raise ExprError("substitution arguments disagree on arity")
        if self.is_polynomial and len(self.num) == 1:
            ((mono, coeff),) = self.num.items()
            if coeff == 1 and sum(mono) == 1:
                # a bare variable x_i, as in a coordinate projection
                return args[mono.index(1)]
        num_e = _subst_terms(self.num, args, out_arity)
        if self.is_polynomial:
            return num_e / Expr.constant(out_arity, _constant_value(self.den))
        den_e = _subst_terms(self.den, args, out_arity)
        if den_e.is_zero():
            raise ExprError("denominator vanished under substitution")
        # result = (num_e / den_e); assemble with every witness we can carry
        hints = num_e._hints(den_e)
        rnum = _mul(num_e.num, den_e.den)
        rden = _mul(num_e.den, den_e.num)
        witness = None
        transported = _composed_witness(self, args, den_e)
        if transported is not None:
            hints[_terms_key(den_e.num)] = transported
            if _is_constant(num_e.den):
                # a polynomial Expr always normalizes its denominator to 1
                witness = transported
            elif num_e.den_witness is not None:
                witness = _witness_mul(num_e.den_witness, transported)
        return Expr(out_arity, rnum, rden, witness, hints)

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.arity:
            raise ExprError("evaluation point has wrong dimension")
        pt = _as_point(point)
        if self.is_polynomial:
            return _eval(self.num, pt)  # a polynomial's denominator is 1
        den = _eval(self.den, pt)
        if den == 0:
            raise ExprError("denominator evaluated to zero")
        return _eval(self.num, pt) / den

    def lift(self, new_arity: int, offset: int = 0) -> "Expr":
        """View this expression in a larger ring, x_i -> x_{i+offset}."""
        num = _lift(self.num, self.arity, new_arity, offset)
        den = _lift(self.den, self.arity, new_arity, offset)
        witness = None
        if self.den_witness is not None:
            witness = _make_witness(
                [(w, _lift(dict(k), self.arity, new_arity, offset))
                 for w, k in self.den_witness.squares],
                self.den_witness.constant,
            )
        return Expr(new_arity, num, den, witness)

    # -- display ------------------------------------------------------------

    def to_str(self, names: Sequence[str] | None = None) -> str:
        num = _format_terms(self.num, self.arity, names)
        if self.is_polynomial:
            return num
        den = _format_terms(self.den, self.arity, names)
        return f"({num})/({den})"

    def __repr__(self) -> str:
        return f"Expr({self.to_str()!r})"

    @staticmethod
    def parse(text: str, arity: int) -> "Expr":
        return _parse_expr(text, arity)


def _normalize(
    arity: int, num: Terms, den: Terms, hints: dict[tuple, PositivityWitness]
) -> tuple[Terms, Terms, PositivityWitness | None]:
    if not num:
        return {}, _const(arity, 1), None
    if _is_constant(den):
        c = _constant_value(den)
        if c == 1:
            return dict(num), _const(arity, 1), None
        return _scale(num, 1 / c), _const(arity, 1), None
    # prefer a positive leading denominator before looking for witnesses
    if _leading(den)[1] < 0:
        num, den = _neg(num), _neg(den)
    g = _gcd(num, den, arity)
    if not _is_constant(g):
        num2 = _div_exact(num, g)
        den2 = _div_exact(den, g)
        assert num2 is not None and den2 is not None
        if _is_constant(den2):
            c = _constant_value(den2)
            return _scale(num2, 1 / c), _const(arity, 1), None
        if _leading(den2)[1] < 0:
            num2, den2 = _neg(num2), _neg(den2)
        witness2 = derive_witness(den2, arity, hints)
        if witness2 is not None:
            num, den = num2, den2
            witness = witness2
        else:
            witness = derive_witness(den, arity, hints)
    else:
        witness = derive_witness(den, arity, hints)
    if witness is None:
        raise ExprError(
            "denominator admits no positivity certificate: "
            + _format_terms(den, arity, None)
        )
    lead = _leading(den)[1]
    if lead != 1:
        num = _scale(num, 1 / lead)
        den = _scale(den, 1 / lead)
        witness = witness.scaled(1 / lead)
    if not witness.verify(den, arity):
        raise ExprError("positivity certificate failed to replay")
    return num, den, witness


def _pow(a: Terms, k: int, arity: int) -> Terms:
    """a**k by square-and-multiply, the same products `Expr.__pow__` forms."""
    result = _const(arity, 1)
    while k:
        if k & 1:
            result = _mul(result, a)
        k >>= 1
        if k:
            a = _mul(a, a)
    return result


def _subst_terms(terms: Terms, args: Sequence[Expr], out_arity: int) -> Expr:
    if all(a.is_polynomial for a in args):
        return Expr(out_arity, _subst_poly(terms, [a.num for a in args], out_arity))
    total = Expr.zero(out_arity)
    powers: list[dict[int, Expr]] = [{} for _ in args]

    def arg_power(i: int, k: int) -> Expr:
        if k == 0:
            return Expr.one(out_arity)
        cache = powers[i]
        if k not in cache:
            cache[k] = args[i] ** k
        return cache[k]

    for mono, coeff in terms.items():
        term = Expr.constant(out_arity, coeff)
        for i, e in enumerate(mono):
            if e:
                term = term * arg_power(i, e)
        total = total + term
    return total


def _subst_poly(terms: Terms, args: Sequence[Terms], out_arity: int) -> Terms:
    """`_subst_terms` for polynomial arguments, on raw terms: one term dict
    per product and partial sum, and no Expr until the caller's."""
    total: Terms = {}
    powers: list[dict[int, Terms]] = [{} for _ in args]
    for mono, coeff in terms.items():
        term = {(0,) * out_arity: coeff}
        for i, e in enumerate(mono):
            if e:
                cache = powers[i]
                if e not in cache:
                    cache[e] = _pow(args[i], e, out_arity)
                term = _mul(term, cache[e])
        total = _add(total, term)
    return total


def _composed_witness(
    fn: Expr, args: Sequence[Expr], composed_den: Expr
) -> PositivityWitness | None:
    """Transport fn's denominator witness through a substitution.

    Works whenever each witness square composes to a polynomial (the
    variables a denominator actually uses are typically substituted with
    polynomial arguments, even when other components are rational)."""
    if fn.den_witness is None:
        return None
    if not composed_den.is_polynomial:
        return None
    squares = []
    for w, key in fn.den_witness.squares:
        sq = _subst_terms(dict(key), args, args[0].arity)
        if not sq.is_polynomial:
            return None
        squares.append((w, sq.num))
    candidate = _make_witness(squares, fn.den_witness.constant)
    if not candidate.verify(composed_den.num, args[0].arity):
        return None
    return candidate


# ---------------------------------------------------------------------------
# formatting and parsing
# ---------------------------------------------------------------------------


def _format_terms(terms: Terms, arity: int, names: Sequence[str] | None) -> str:
    if not terms:
        return "0"
    if names is None:
        names = [f"x{i}" for i in range(arity)]
    pieces: list[str] = []
    for mono in _sorted_monomials(terms):
        coeff = terms[mono]
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(pieces)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return self.text[self.pos : j]
        if ch == "x":
            j = self.pos + 1
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            if j == self.pos + 1:
                raise ExprError(f"bad variable name at {self.pos} in {self.text!r}")
            return self.text[self.pos : j]
        if ch in "+-*/^()":
            return ch
        raise ExprError(f"unexpected character {ch!r} in {self.text!r}")

    def take(self) -> str | None:
        tok = self.peek()
        if tok is not None:
            self.pos += len(tok)
        return tok


def _parse_expr(text: str, arity: int) -> Expr:
    toks = _Tokenizer(text)

    def parse_sum() -> Expr:
        value = parse_product()
        while True:
            tok = toks.peek()
            if tok == "+":
                toks.take()
                value = value + parse_product()
            elif tok == "-":
                toks.take()
                value = value - parse_product()
            else:
                return value

    def parse_product() -> Expr:
        value = parse_factor()
        while True:
            tok = toks.peek()
            if tok == "*":
                toks.take()
                value = value * parse_factor()
            elif tok == "/":
                toks.take()
                value = value / parse_factor()
            else:
                return value

    def parse_factor() -> Expr:
        tok = toks.peek()
        if tok == "-":
            toks.take()
            return -parse_factor()
        return parse_power()

    def parse_power() -> Expr:
        base = parse_atom()
        if toks.peek() == "^":
            toks.take()
            exp = toks.take()
            if exp is None or not exp.isdigit():
                raise ExprError(f"expected integer exponent in {text!r}")
            return base ** int(exp)
        return base

    def parse_atom() -> Expr:
        tok = toks.take()
        if tok is None:
            raise ExprError(f"unexpected end of input in {text!r}")
        if tok == "(":
            value = parse_sum()
            if toks.take() != ")":
                raise ExprError(f"missing closing parenthesis in {text!r}")
            return value
        if tok.isdigit():
            return Expr.constant(arity, int(tok))
        if tok.startswith("x"):
            index = int(tok[1:])
            if index >= arity:
                raise ExprError(f"variable {tok} out of range for arity {arity}")
            return Expr.variable(arity, index)
        raise ExprError(f"unexpected token {tok!r} in {text!r}")

    value = parse_sum()
    if toks.peek() is not None:
        raise ExprError(f"trailing input after expression in {text!r}")
    return value


# ---------------------------------------------------------------------------
# ExprVec
# ---------------------------------------------------------------------------


class ExprVec:
    """A tuple of expressions sharing one arity: a smooth map R^n -> R^m."""

    __slots__ = ("components", "arity")

    def __init__(self, components: Sequence[Expr]):
        comps = tuple(components)
        if not comps:
            raise ExprError("empty expression vector")
        arity = comps[0].arity
        for c in comps:
            if c.arity != arity:
                raise ExprError("vector components disagree on arity")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ExprVec is immutable")

    @staticmethod
    def identity(arity: int) -> "ExprVec":
        return ExprVec([Expr.variable(arity, i) for i in range(arity)])

    @staticmethod
    def constant(arity: int, point: Sequence[Scalar]) -> "ExprVec":
        return ExprVec([Expr.constant(arity, v) for v in point])

    @staticmethod
    def parse(texts: Sequence[str], arity: int) -> "ExprVec":
        return ExprVec([Expr.parse(t, arity) for t in texts])

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[Expr]:
        return iter(self.components)

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExprVec):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def compose(self, inner: "ExprVec | Sequence[Expr]") -> "ExprVec":
        """self after inner: (self . inner)(u) = self(inner(u))."""
        args = list(inner.components) if isinstance(inner, ExprVec) else list(inner)
        if len(args) != self.arity:
            raise ExprError(
                f"composition mismatch: arity {self.arity} vs {len(args)} components"
            )
        return ExprVec([c.compose(args) for c in self.components])

    def eval(self, point: Sequence[Scalar]) -> tuple[Fraction, ...]:
        pt = _as_point(point)
        return tuple(c.eval(pt) for c in self.components)

    def differentiate(self, index: int) -> "ExprVec":
        return ExprVec([c.differentiate(index) for c in self.components])

    def jacobian(self) -> list[list[Expr]]:
        return [[c.differentiate(j) for j in range(self.arity)] for c in self.components]

    def lift(self, new_arity: int, offset: int = 0) -> "ExprVec":
        return ExprVec([c.lift(new_arity, offset) for c in self.components])

    def concat(self, other: "ExprVec") -> "ExprVec":
        if other.arity != self.arity:
            raise ExprError("arity mismatch in concat")
        return ExprVec(self.components + other.components)

    def slice(self, start: int, stop: int) -> "ExprVec":
        return ExprVec(self.components[start:stop])

    @property
    def is_constant(self) -> bool:
        return all(c.is_constant for c in self.components)

    def constant_point(self) -> tuple[Fraction, ...]:
        return tuple(c.constant_value() for c in self.components)

    def degree(self) -> int:
        return max(c.degree() for c in self.components)

    def canonical_key(self) -> tuple:
        return tuple(c.canonical_key() for c in self.components)

    def to_str(self, names: Sequence[str] | None = None) -> str:
        return "(" + ", ".join(c.to_str(names) for c in self.components) + ")"

    def __repr__(self) -> str:
        return f"ExprVec({self.to_str()!r})"


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact rational."""
    return Fraction(text.strip())
