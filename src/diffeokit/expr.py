"""Exact multivariate polynomial and rational-function arithmetic.

A polynomial in ``n`` variables is stored as a dictionary mapping exponent
tuples to rational coefficients::

    x0^2*x1 + 3/2   ->   {(2, 1): 1, (0, 0): Fraction(3, 2)}

Zero coefficients are never stored, so dictionary equality is polynomial
identity.  An :class:`Expr` is a quotient ``num/den`` of two such
polynomials; the denominator is either a (monic) constant, in which case it
is folded into the numerator, or it carries a :class:`PositivityWitness`
showing that it is bounded below by a positive rational everywhere on R^n.
Every map handled by this package is a vector of such expressions, so
smoothness is a construction invariant rather than an analytic side
condition.

One coefficient rule holds everywhere: a coefficient is a plain ``int``
when it is an integer and a :class:`fractions.Fraction` only when its
denominator exceeds 1, as sympy keeps ZZ in ints and only QQ in rationals.
Nothing here ever rounds.  Each step adds and multiplies the coefficients
it meets as they are, so integer terms run on ints and build no Fraction,
and stores an integral Fraction total as its int; a quotient of two
coefficients is always `_quo` (floor division when it is exact, else
``Fraction(a, b)``), never ``/``, which would make a float of two ints.
Rational factors are not scaled to one common denominator per product:
every output term would pay a gcd with it, on much larger integers.
`Expr.eval`, `Expr.constant_value` and `ExprVec.constant_point` still
return Fractions, and witness weights and constants stay Fractions.
Canonical form: terms are kept reduced and compared as dictionaries (an int
and the equal Fraction are equal and hash alike), display order is graded
lexicographic, rational functions cancel their polynomial gcd whenever the
reduced denominator still supports a positivity witness, and the
denominator is scaled monic.

The public constructor `Expr(...)` checks each monomial's arity, drops
zeros and stores any rational by the rule.  A polynomial this module built
enters through `Expr._poly`, which checks nothing: its arity, zero-free
terms and coefficients are already right.  A polynomial's denominator is
1, and it skips normalisation.

`Expr.parse` splits its text with one regular expression (ASCII digits
only) and maps each piece through a per-arity token table: the operator
characters and the in-range variable names met so far, so at most
7 + arity entries and no numbers; a miss builds the int or the monomial.
One loop then folds the tokens on raw terms, the classic operator-precedence
loop (Pratt, 1973) with an explicit stack of open parentheses in place of
recursion, so nesting depth is not bounded by Python's recursion limit.
After each atom or closed group come its `^`, its unary minuses, the
product step and the sum step.  A product of integers and variables, each
to an integer power and under unary minuses, is one (monomial, int) pair,
and a sum adds its terms in place into one dict it owns (`_add_into`, as
`_add` adds);
every other step is the `_neg`, `_mul` or `_pow` an Expr operator runs on a
polynomial, and a division by a constant is the `_scale` normalisation
runs, so the terms and their dict order are those of the Expr fold.  Only a
division by a non-constant falls back to Expr arithmetic.  `Expr.eval`
brings the point over one common denominator d and the coefficients over
the lcm c of theirs, sums each term as an int scaled by d^(deg - |m|), and
builds one Fraction, total / (c * d^deg).

Substitution (`Expr.compose`) into a polynomial runs on raw term
dictionaries (`_subst_poly`) and builds a single Expr at the end, as does a
polynomial's `**`, whenever every argument the polynomial reads is a
polynomial; an argument it does not read may be rational.  `ExprVec.compose`
gives all its polynomial components one `_substitution`, so each power of
an argument is built once per vector rather than once per component.
Otherwise
`_compose_rational` substitutes into numerator and denominator with
`_subst_terms`, which puts the substitution over one common denominator
(Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992): with
argument i equal to n_i/q_i and D_i the top power of x_i in the terms, the
numerator sum_m c_m * prod_i n_i^m_i * q_i^(D_i - m_i) is summed on raw
terms, the denominator is prod_i q_i^D_i with the product of the argument
witnesses as its witness, and the one Expr built from them is normalised
once.  An Expr-arithmetic fold would normalise every product and partial
sum and could keep a larger denominator where the cancelled one has no
witness it can find, so a canonical key depends on the arithmetic that
built it.

The gcd that `_normalize` cancels is tried first by the heuristic gcd
(`_heu_gcd`; GCDHEU, Char, Geddes and Gonnet, 1989): both inputs are cleared
to primitive Z[x] polynomials, x0 is evaluated at a large integer, the gcd
of the images is taken one variable down (`math.gcd` at the bottom), and the
candidate rebuilt from its symmetric digits is accepted only when exact
trial division on ints shows that it divides both inputs, which by the
GCDHEU theorem makes it the gcd.  When HEU_GCD_MAX evaluation points fail at
any level, the whole gcd goes to the primitive pseudo-remainder sequence
(`_gcd_prs`).  The PRS stays because it always answers, where the heuristic
may not; it is far slower on bivariate inputs, and on the inputs the
commands meet the heuristic has not been seen to fail.  Both return the same
monic polynomial over Q, so which one answered changes no result.

One step is memoised, in a bounded `functools.lru_cache`: the polynomial a
`PositivityWitness` expands to (`_witness_expansion`, WITNESS_CACHE_SIZE
entries), which `verify` still compares with on every call.  The expansion
is read-only, so no caller can change a later hit.  Gcds and rational
compositions are computed afresh: since the exact-sequence check stopped
composing group words, their inputs seldom recur.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]
# monomial -> coefficient, by the rule: an int, or a Fraction that is not an
# integer; never zero
Terms = dict[Monomial, Scalar]

# Witness expansions held by `_witness_expansion`.  `all --budget 4` and
# `exact-sequence line-bundle scale-translate --budget 6` each meet 7
# distinct witnesses; a bench pass at seed 0 meets 7 to 13.
WITNESS_CACHE_SIZE = 1024
# Reduced matrices held by `linalg._reduced`, keyed by matrix and augment
# width.  At seed 0 the membership bench pass meets 7 distinct matrices,
# the calculus pass 555 distinct inversions and the suite pass about 110.
REDUCE_CACHE_SIZE = 1024

# evaluation points the heuristic gcd tries per variable before it gives
# the whole gcd to the PRS
HEU_GCD_MAX = 6

_ZERO = Fraction(0)  # what `Expr.eval` gives for the zero polynomial


class ExprError(ValueError):
    """Malformed expression: arity mismatch, bad index, uncertified denominator."""


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class Record:
    """Base of the package's record classes: fields declared once, as
    annotations in order, with optional class-level defaults.

    Each subclass gets ``__init__`` taking the fields positionally or by
    keyword, then calling ``__post_init__`` when the class has one; equality
    by class and field values; and ``repr`` as ``Name(a=1, b='x')``.  A
    frozen record (the default) also hashes by its field values and refuses
    assignment and deletion; ``class R(Record, frozen=False)`` keeps plain
    attributes and no hash.  A dict default is copied for each instance.
    The instance ``__dict__`` holds the fields and nothing else: state that
    is not a field, and so takes no part in equality, hashing or ``repr``,
    goes in ``__slots__`` that ``__post_init__`` fills.

    These are the methods ``dataclasses.dataclass`` would write, built
    without generating source per class: that generation, with the import of
    ``dataclasses`` (which pulls in ``inspect``), cost about a quarter of the
    command line's start.
    """

    _record_fields: tuple[str, ...] = ()
    _record_defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        defaults = dict(cls._record_defaults)
        names = list(cls._record_fields)
        for name in own.get("__annotations__", {}):
            if name not in names:
                names.append(name)
            if name in own:
                defaults[name] = own[name]
            else:
                defaults.pop(name, None)
        cls._record_fields = names = tuple(names)
        cls._record_defaults = dict(defaults)
        fresh = tuple((name, value) for name, value in defaults.items() if isinstance(value, dict))
        for name, _ in fresh:
            del defaults[name]
            if name in own:
                delattr(cls, name)
        index = {name: i for i, name in enumerate(names)}
        post_init = getattr(cls, "__post_init__", None)
        n = len(names)
        set_attribute = object.__setattr__

        def __init__(self, *args, **kwargs):
            given = len(args)
            if given > n:
                raise TypeError(
                    f"{cls.__qualname__}() takes {n} positional argument(s) but {given} were given"
                )
            d = defaults.copy()
            # an index loop: faster here than updating from zip()
            i = 0
            for value in args:
                d[names[i]] = value
                i += 1
            if kwargs:
                for name in kwargs:
                    i = index.get(name)
                    if i is None:
                        raise TypeError(
                            f"{cls.__qualname__}() got an unexpected keyword argument {name!r}"
                        )
                    if i < given:
                        raise TypeError(
                            f"{cls.__qualname__}() got multiple values for argument {name!r}"
                        )
                d.update(kwargs)
            for name, value in fresh:
                if name not in d:
                    d[name] = value.copy()
            if len(d) < n:
                missing = ", ".join(repr(name) for name in names if name not in d)
                raise TypeError(f"{cls.__qualname__}() missing required argument(s): {missing}")
            # a dict of its own, not the one `self.__dict__` would make from
            # the instance's inline values: reads from that one do not
            # specialise on CPython 3.11 and cost about four times as much
            set_attribute(self, "__dict__", d)
            if post_init is not None:
                post_init(self)

        # the field values, in order, as a tuple: a record hashes as that
        # tuple, as a dataclass does
        if n > 1:
            values = operator.itemgetter(*names)
        elif n == 1:
            only = operator.itemgetter(names[0])

            def values(d):
                return (only(d),)
        else:
            def values(d):
                return ()

        def __eq__(self, other):
            # the instance dict holds the fields and nothing else
            if other.__class__ is self.__class__:
                return self.__dict__ == other.__dict__
            return NotImplemented

        def __hash__(self):
            return hash(values(self.__dict__))

        made = {"__init__": __init__, "__eq__": __eq__}
        if frozen:
            made["__hash__"] = __hash__
        else:
            made.update(
                __hash__=None, __setattr__=object.__setattr__, __delattr__=object.__delattr__
            )
        for name, method in made.items():
            if name not in own:
                setattr(cls, name, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# raw polynomial helpers (terms dictionaries)
# ---------------------------------------------------------------------------


def _coeff(value: Scalar) -> Scalar:
    """A rational value as a stored coefficient: an int when integral, else
    a Fraction."""
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quo(a: Scalar, b: Scalar) -> Scalar:
    """a / b as a stored coefficient.  Two ints never meet `/`, which would
    make a float: their quotient is exact floor division when b divides a,
    and Fraction(a, b) otherwise."""
    if b == 1:
        return a
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coeff(Fraction(a, b))


def _const(arity: int, value: Scalar) -> Terms:
    value = _coeff(value)
    return {(0,) * arity: value} if value else {}


def _var(arity: int, index: int) -> Terms:
    if not 0 <= index < arity:
        raise ExprError(f"variable x{index} out of range for arity {arity}")
    mono = tuple(1 if i == index else 0 for i in range(arity))
    return {mono: 1}


def _add_into(out: Terms, items: Iterable[tuple[Monomial, Scalar]]) -> None:
    """Add the (monomial, coefficient) items into out in place.  A total
    that cancels is removed, so a monomial that comes back re-enters at
    the end."""
    for mono, coeff in items:
        prev = out.get(mono)
        if prev is None:
            total = coeff
        else:
            total = prev + coeff
            if type(total) is not int and total.denominator == 1:
                total = total.numerator
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)


def _add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    _add_into(out, b.items())
    return out


def _neg(a: Terms) -> Terms:
    return {mono: -coeff for mono, coeff in a.items()}


def _sub(a: Terms, b: Terms) -> Terms:
    return _add(a, _neg(b))


def _scale(a: Terms, c: Scalar) -> Terms:
    if not c:
        return {}
    out: Terms = {}
    for mono, coeff in a.items():
        v = coeff * c
        out[mono] = v if type(v) is int or v.denominator != 1 else v.numerator
    return out


def _mul(a: Terms, b: Terms) -> Terms:
    """a * b.  Coefficients multiply and add as they are, so Z[x] factors
    run on plain ints with no gcd; a total that cancels is removed and
    re-enters at the end, as in `_add_into`."""
    out: Terms = {}
    b_items = b.items()
    for ma, ca in a.items():
        for mb, cb in b_items:
            mono = tuple(map(operator.add, ma, mb))
            total = out.get(mono, 0) + ca * cb
            if type(total) is not int and total.denominator == 1:
                total = total.numerator
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
    return out


def _diff(a: Terms, index: int) -> Terms:
    # lowering x_index is one-to-one on the monomials that contain it
    out: Terms = {}
    for mono, coeff in a.items():
        e = mono[index]
        if e:
            v = coeff * e
            out[mono[:index] + (e - 1,) + mono[index + 1 :]] = (
                v if type(v) is int or v.denominator != 1 else v.numerator
            )
    return out


def _common_denominator(point: Sequence[Scalar]) -> tuple[list[int], int]:
    """(ints, d) with point[i] == ints[i] / d, for d the lcm of the
    coordinates' denominators."""
    d = math.lcm(*[x.denominator for x in point])
    if d == 1:
        return [x.numerator for x in point], 1
    return [x.numerator * (d // x.denominator) for x in point], d


def _eval(a: Terms, ints: Sequence[int], d: int) -> tuple[int, int]:
    """(total, scale) with a(ints / d) == total / scale, on plain ints.

    With c the lcm of a's coefficient denominators and deg its total degree,
    each term c*coeff * prod(ints^m) * d^(deg - |m|) is an int, and the sum
    over them is the value times c * d^deg."""
    c = math.lcm(*[coeff.denominator for coeff in a.values()])
    deg = max(map(sum, a), default=0) if d != 1 else 0  # powers of 1 scale nothing
    total = 0
    for mono, coeff in a.items():
        term = coeff.numerator if c == 1 else coeff.numerator * (c // coeff.denominator)
        for value, exp in zip(ints, mono):
            if exp == 1:
                term *= value
            elif exp:
                term *= value ** exp
        if deg:
            term *= d ** (deg - sum(mono))
        total += term
    return total, c * d ** deg


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


def _constant_value(a: Terms) -> Scalar:
    if not a:
        return 0
    return next(iter(a.values()))


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


def _leading(a: Terms) -> tuple[Monomial, Scalar]:
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
        # the leading monomials fall strictly, so each qm is new
        qm = tuple(x - y for x, y in zip(m, lead_m))
        qc = quot[qm] = _quo(c, lead_c)
        rem = _sub(rem, _mul({qm: qc}, d))
    return quot


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
            content = _gcd_prs(content, c, arity)
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
    return _scale(a, _quo(1, lead))


def _gcd(a: Terms, b: Terms, arity: int) -> Terms:
    """Monic gcd over Q: the heuristic gcd on the integer primitive parts,
    and the primitive PRS (`_gcd_prs`) only when that fails."""
    if not a:
        return _monic(b)
    if not b:
        return _monic(a)
    if _is_constant(a) or _is_constant(b):
        return _const(arity, 1)
    h = _heu_gcd(_primitive_z(a), _primitive_z(b))
    if h is None:
        return _gcd_prs(a, b, arity)
    return _monic(h)


def _primitive_z(a: Terms) -> dict[Monomial, int]:
    """a cleared to Z[x] by the lcm of its denominators, less its content."""
    scale = math.lcm(*(c.denominator for c in a.values()))
    ints = {mono: c.numerator * (scale // c.denominator) for mono, c in a.items()}
    content = math.gcd(*ints.values())
    return {mono: v // content for mono, v in ints.items()}


def _heu_gcd(f: dict[Monomial, int], g: dict[Monomial, int]) -> dict[Monomial, int] | None:
    """gcd of two nonzero Z[x] polynomials by GCDHEU (Char, Geddes and
    Gonnet, J. Symbolic Comput. 7, 1989), or None when HEU_GCD_MAX
    evaluation points fail here or in the recursion.

    x0 is evaluated at an integer xi >= 2*min(|f|, |g|) + 2 (max norms of
    the primitive parts), the gcd of the images is taken one variable down
    (`math.gcd` once no variable is left), and the candidate is rebuilt
    from it by symmetric xi-adic digits.  By the GCDHEU theorem a primitive
    candidate that divides both inputs is their primitive gcd."""
    if () in f:  # no variables left: two integers
        return {(): math.gcd(f[()], g[()])}
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    f = {mono: v // cf for mono, v in f.items()}
    g = {mono: v // cg for mono, v in g.items()}
    # + 29 rather than + 2, as sympy starts: room for a spurious integer
    # factor of the image gcd when the norms are small
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(HEU_GCD_MAX):
        ff, gg = _eval_first(f, xi), _eval_first(g, xi)
        if ff and gg:
            gamma = _heu_gcd(ff, gg)
            if gamma is None:
                return None
            h = _interpolate_first(gamma, xi)
            content = math.gcd(*h.values())
            h = {mono: v // content for mono, v in h.items()}
            if _divides_z(h, f) and _divides_z(h, g):
                c = math.gcd(cf, cg)
                return {mono: c * v for mono, v in h.items()}
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _eval_first(f: dict[Monomial, int], xi: int) -> dict[Monomial, int]:
    """f with x0 = xi, over the remaining variables."""
    out: dict[Monomial, int] = {}
    for mono, v in f.items():
        rest = mono[1:]
        out[rest] = out.get(rest, 0) + v * xi ** mono[0]
    return {mono: v for mono, v in out.items() if v}


def _interpolate_first(gamma: dict[Monomial, int], xi: int) -> dict[Monomial, int]:
    """The polynomial in x0 whose value at xi is gamma, with every
    coefficient a symmetric residue mod xi."""
    half = xi // 2
    out: dict[Monomial, int] = {}
    for mono, v in gamma.items():
        k = 0
        while v:
            digit = v % xi
            if digit > half:
                digit -= xi
            if digit:
                out[(k,) + mono] = digit
            v = (v - digit) // xi
            k += 1
    return out


def _divides_z(d: dict[Monomial, int], a: dict[Monomial, int]) -> bool:
    """Whether the primitive d divides a in Z[x]: exact division in lex
    order, on ints.  Every remainder term of an exact division keeps within
    a's degree in each variable, so one that leaves it stops the division."""
    lead = max(d)
    if not any(lead):  # a primitive constant is a unit
        return True
    lead_c = d[lead]
    rest = [(mono, c) for mono, c in d.items() if mono != lead]
    bounds = [max(degs) for degs in zip(*a)]
    rem = dict(a)
    while rem:
        mono = max(rem)
        q, r = divmod(rem.pop(mono), lead_c)
        qm = tuple(map(operator.sub, mono, lead))
        if r or min(qm) < 0 or any(map(operator.gt, mono, bounds)):
            return False
        for md, c in rest:
            m = tuple(map(operator.add, qm, md))
            v = rem.get(m, 0) - q * c
            if v:
                rem[m] = v
            else:
                rem.pop(m, None)
    return True


def _gcd_prs(a: Terms, b: Terms, arity: int) -> Terms:
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
    c = _gcd_prs(ca, cb, arity)
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


class PositivityWitness(Record):
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

    def verify(self, terms: Terms, arity: int) -> bool:
        return _witness_expansion(self, arity) == terms

    def scaled(self, factor: Fraction) -> "PositivityWitness":
        if factor <= 0:
            raise ExprError("positivity witness scaled by a non-positive factor")
        return PositivityWitness(
            tuple((w * factor, key) for w, key in self.squares),
            self.constant * factor,
        )


@functools.lru_cache(maxsize=WITNESS_CACHE_SIZE)
def _witness_expansion(witness: PositivityWitness, arity: int) -> Mapping[Monomial, Fraction]:
    """sum_i w_i * p_i^2 + c as read-only terms: what `verify` compares with."""
    total = _const(arity, witness.constant)
    for weight, key in witness.squares:
        p = dict(key)
        total = _add(total, _scale(_mul(p, p), weight))
    return MappingProxyType(total)


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
    constant = 0
    for mono, coeff in terms.items():
        if coeff <= 0:
            return None
        if sum(mono) == 0:
            constant = coeff
            continue
        if any(e % 2 for e in mono):
            return None
        squares.append((coeff, {tuple(e // 2 for e in mono): 1}))
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
    rest = c - _quo(b * b, 4 * a)
    if rest <= 0:
        return None
    shift = _add(_var(arity, v), _const(arity, _quo(b, 2 * a)))
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
        num = {mono: _coeff(c) for mono, c in num.items() if c}
        if den is None and den_witness is None:
            # a polynomial: its denominator is 1, so there is nothing to cancel
            den = {(0,) * arity: 1}
            witness = None
        else:
            if den is None:
                den = _const(arity, 1)
            for mono in den:
                if len(mono) != arity:
                    raise ExprError("denominator monomial does not match arity")
            den = {mono: _coeff(c) for mono, c in den.items() if c}
            if not den:
                raise ExprError("zero denominator")
            all_hints: dict[tuple, PositivityWitness] = dict(hints or {})
            if den_witness is not None:
                all_hints[_terms_key(den)] = den_witness
            num, den, witness = _normalize(arity, num, den, all_hints)
        _set_arity(self, arity)
        _set_num(self, num)
        _set_den(self, den)
        _set_witness(self, witness)
        _set_key(self, None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Expr is immutable")

    @staticmethod
    def _poly(arity: int, num: Terms) -> "Expr":
        """The polynomial num, from terms this module built: every monomial
        has the arity and every coefficient is stored by the rule, with no
        zero, so nothing is checked or filtered."""
        e = _new(Expr)
        _set_arity(e, arity)
        _set_num(e, num)
        _set_den(e, {(0,) * arity: 1})
        _set_witness(e, None)
        _set_key(e, None)
        return e

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(arity: int, value: Scalar) -> "Expr":
        if arity < 0:
            raise ExprError("negative arity")
        return Expr._poly(arity, _const(arity, value))

    @staticmethod
    def zero(arity: int) -> "Expr":
        return Expr.constant(arity, 0)

    @staticmethod
    def one(arity: int) -> "Expr":
        return Expr.constant(arity, 1)

    @staticmethod
    def variable(arity: int, index: int) -> "Expr":
        return Expr._poly(arity, _var(arity, index))

    # -- structure ----------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        # normalisation leaves a non-constant denominator only with a witness
        return self.den_witness is None

    @property
    def is_constant(self) -> bool:
        return _is_constant(self.num) and _is_constant(self.den)

    def constant_value(self) -> Fraction:
        """The value as a Fraction, as `eval` gives it."""
        if not self.is_constant:
            raise ExprError("not a constant expression")
        return Fraction(_constant_value(self.num), _constant_value(self.den))

    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        return max(_total_degree(self.num), _total_degree(self.den))

    def canonical_key(self) -> tuple:
        key = self._key
        if key is None:
            key = (self.arity, _terms_key(self.num), _terms_key(self.den))
            _set_key(self, key)
        return key

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expr.constant(self.arity, other)
        if not isinstance(other, Expr):
            return NotImplemented
        # the relation of canonical keys without sorting: terms are stored
        # reduced, and den is never empty, so its monomials carry the arity
        return self.num == other.num and self.den == other.den

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
            return Expr._poly(self.arity, _add(self.num, rhs.num))
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
        if self.is_polynomial:
            return Expr._poly(self.arity, _neg(self.num))
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
            return Expr._poly(self.arity, _mul(self.num, rhs.num))
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
        if self.is_polynomial:
            return Expr._poly(self.arity, _pow(self.num, k, self.arity))
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
        if self.is_polynomial:  # a polynomial's denominator is 1
            return Expr._poly(self.arity, _diff(self.num, index))
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
        return _compose_all((self,), args)[0]

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.arity:
            raise ExprError("evaluation point has wrong dimension")
        if not self.num:  # about half the evaluations of a membership pass
            return _ZERO
        ints, d = _common_denominator(point)
        num, num_scale = _eval(self.num, ints, d)
        if self.is_polynomial:  # a polynomial's denominator is 1
            return Fraction(num, num_scale)
        den, den_scale = _eval(self.den, ints, d)
        if den == 0:
            raise ExprError("denominator evaluated to zero")
        return Fraction(num * den_scale, den * num_scale)

    def lift(self, new_arity: int, offset: int = 0) -> "Expr":
        """View this expression in a larger ring, x_i -> x_{i+offset}."""
        num = _lift(self.num, self.arity, new_arity, offset)
        if self.is_polynomial:
            return Expr._poly(new_arity, num)
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


# Expr's fields are set once, past its __setattr__ guard, by its slots'
# own setters
_new = object.__new__
_set_arity, _set_num, _set_den, _set_witness, _set_key = (
    Expr.__dict__[name].__set__ for name in ("arity", "num", "den", "den_witness", "_key")
)


def _normalize(
    arity: int, num: Terms, den: Terms, hints: dict[tuple, PositivityWitness]
) -> tuple[Terms, Terms, PositivityWitness | None]:
    if not num:
        return {}, _const(arity, 1), None
    if _is_constant(den):
        c = _constant_value(den)
        if c == 1:
            return num, _const(arity, 1), None
        return _scale(num, _quo(1, c)), _const(arity, 1), None
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
            return _scale(num2, _quo(1, c)), _const(arity, 1), None
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
        inv = _quo(1, lead)
        num = _scale(num, inv)
        den = _scale(den, inv)
        witness = witness.scaled(inv)
    if not witness.verify(den, arity):
        raise ExprError("positivity certificate failed to replay")
    return num, den, witness


def _pow(a: Terms, k: int, arity: int) -> Terms:
    """a**k by square-and-multiply; `Expr.__pow__` forms the same products
    for a rational base."""
    result = {(0,) * arity: 1}
    while k:
        if k & 1:
            result = _mul(result, a)
        k >>= 1
        if k:
            a = _mul(a, a)
    return result


def _subst_terms(terms: Terms, args: Sequence[Expr], out_arity: int) -> Expr:
    """terms(args) as one Expr over one common denominator, normalised once.

    With args[i] = n_i/q_i and D_i the top power of x_i in terms, the value
    is sum_m c_m * prod_i n_i^m_i * q_i^(D_i - m_i) over Q = prod_i q_i^D_i.
    Q's witness multiplies the argument witnesses, each raised to D_i as
    `Expr.__pow__` raises it, and each partial product of Q is a hint for
    the denominator that normalisation keeps after cancelling."""
    dens: list[tuple[Terms, int, Terms] | None] = [None] * len(args)
    den: Terms | None = None
    witness: PositivityWitness | None = None
    hints: dict[tuple, PositivityWitness] = {}
    for i, a in enumerate(args):
        if a.is_polynomial:
            continue
        top = max((m[i] for m in terms), default=0)
        if not top:
            continue
        power = _pow(a.den, top, out_arity)
        power_witness = _witness_pow(a.den_witness, top)
        hints[_terms_key(power)] = power_witness
        dens[i] = (a.den, top, power)
        if den is None:
            den, witness = power, power_witness
        else:
            den = _mul(den, power)
            witness = _witness_mul(witness, power_witness)
            hints[_terms_key(den)] = witness
    num = _subst_poly(terms, [a.num for a in args], out_arity, dens)
    if den is None:
        return Expr._poly(out_arity, num)
    return Expr(out_arity, num, den, witness, hints)


def _witness_pow(w: PositivityWitness, k: int) -> PositivityWitness:
    """Witness for the k-th power (k >= 1), by the square-and-multiply of
    `Expr.__pow__`."""
    result = None
    while k:
        if k & 1:
            result = w if result is None else _witness_mul(result, w)
        k >>= 1
        if k:
            w = _witness_mul(w, w)
    return result


def _subst_poly(
    terms: Terms,
    args: Sequence[Terms],
    out_arity: int,
    dens: Sequence[tuple[Terms, int, Terms] | None] = (),
) -> Terms:
    """`_subst_terms`' numerator on raw terms: one term dict per product and
    partial sum, and no Expr until the caller's.  dens[i], when given and
    not None, is (q_i, D_i, q_i^D_i), and x_i^e then stands for
    args[i]^e * q_i^(D_i - e)."""
    return _substitution(args, out_arity, dens)(terms)


def _substitution(
    args: Sequence[Terms],
    out_arity: int,
    dens: Sequence[tuple[Terms, int, Terms] | None] = (),
) -> Callable[[Terms], Terms]:
    """`_subst_poly` for every terms it is called on, with one table of the
    factors x_i^e stands for, each built on first use.  Without dens a
    factor depends only on args[i] and e, so one table serves every
    component of a vector composition."""
    factors: dict[tuple[int, int], Terms] = {}

    def subst(terms: Terms) -> Terms:
        total: Terms = {}
        for mono, coeff in terms.items():
            term = None
            for i, e in enumerate(mono):
                if e or (dens and dens[i]):
                    factor = factors.get((i, e))
                    if factor is None:
                        factor = factors[i, e] = _subst_factor(
                            args[i], e, dens[i] if dens else None, out_arity
                        )
                    if term is None:  # the term's coefficient times its first factor
                        term = {
                            m: v if type(v := c * coeff) is int or v.denominator != 1
                            else v.numerator
                            for m, c in factor.items()
                        }
                    else:
                        term = _mul(term, factor)
            if term is None:
                term = {(0,) * out_arity: coeff}
            # total is this call's own dict, so each term adds in place
            _add_into(total, term.items())
        return total

    return subst


def _subst_factor(
    arg: Terms, e: int, den: tuple[Terms, int, Terms] | None, out_arity: int
) -> Terms:
    """What x^e contributes to a numerator in `_subst_poly`.  No caller
    mutates it, so a first power is the argument itself."""
    def power(t: Terms, k: int) -> Terms:
        return t if k == 1 else _pow(t, k, out_arity)

    if den is None:
        return power(arg, e)
    q, top, q_top = den
    if not e:
        return q_top
    n = power(arg, e)
    return n if e == top else _mul(n, power(q, top - e))


def _compose_all(fns: Sequence[Expr], args: Sequence[Expr]) -> list[Expr]:
    """fn(args) for each fn, all of one arity.  The polynomial
    substitutions share one `_substitution`, so each power of an argument
    is built once for the whole vector."""
    arity = fns[0].arity
    if len(args) != arity:
        raise ExprError(f"expected {arity} arguments, got {len(args)}")
    if arity == 0:
        raise ExprError("cannot infer arity for a 0-variable substitution")
    out_arity = args[0].arity
    for a in args:
        if a.arity != out_arity:
            raise ExprError("substitution arguments disagree on arity")
    subst = None
    out = []
    for fn in fns:
        if fn.is_polynomial and len(fn.num) == 1:
            ((mono, coeff),) = fn.num.items()
            if coeff == 1 and sum(mono) == 1:
                # a bare variable x_i, as in a coordinate projection
                out.append(args[mono.index(1)])
                continue
        if fn.is_polynomial and all(
            a.is_polynomial or not any(m[i] for m in fn.num) for i, a in enumerate(args)
        ):
            # every argument the polynomial reads is a polynomial
            if subst is None:
                subst = _substitution([a.num for a in args], out_arity)
            out.append(Expr._poly(out_arity, subst(fn.num)))
        else:
            out.append(_compose_rational(fn, args))
    return out


def _compose_rational(fn: Expr, args: Sequence[Expr]) -> Expr:
    """fn(args) when fn or an argument it reads is rational."""
    out_arity = args[0].arity
    num_e = _subst_terms(fn.num, args, out_arity)
    if fn.is_polynomial:  # a polynomial's denominator is 1
        return num_e
    den_e = _subst_terms(fn.den, args, out_arity)
    if den_e.is_zero():
        raise ExprError("denominator vanished under substitution")
    # result = (num_e / den_e); assemble with every witness we can carry
    hints = num_e._hints(den_e)
    rnum = _mul(num_e.num, den_e.den)
    rden = _mul(num_e.den, den_e.num)
    witness = None
    transported = _composed_witness(fn, args, den_e)
    if transported is not None:
        hints[_terms_key(den_e.num)] = transported
        if _is_constant(num_e.den):
            # a polynomial Expr always normalizes its denominator to 1
            witness = transported
        elif num_e.den_witness is not None:
            witness = _witness_mul(num_e.den_witness, transported)
    return Expr(out_arity, rnum, rden, witness, hints)


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


# one token: a variable, an integer literal, an operator, or any other
# character, which is an error; whitespace matches nothing.  Digits are
# ASCII only.
_TOKEN = re.compile(r"x[0-9]+|[0-9]+|[-+*/^()]|\S")

# per arity, each operator character and each in-range variable name met
# so far ("x1", never "x01") to its token; at most 7 + arity entries
_TOKEN_TABLES: dict[int, dict[str, object]] = {}


def _tokens(text: str, arity: int) -> list:
    """The tokens of text in one pass: an int literal, the monomial of a
    variable, or an operator character; None marks the end."""
    table = _TOKEN_TABLES.get(arity)
    if table is None:
        table = _TOKEN_TABLES[arity] = {op: op for op in "+-*/^()"}
    get = table.get
    # a table token is never falsy, so `or` builds exactly the misses
    out = [get(s) or _new_token(s, text, arity, table) for s in _TOKEN.findall(text)]
    out.append(None)
    return out


def _new_token(s: str, text: str, arity: int, table: dict[str, object]):
    """The token a table miss stands for: an int for a run of digits, the
    monomial of a variable (kept in the table under its plain name), or an
    `ExprError` for any other character."""
    if s[0] == "x" and len(s) > 1:
        index = int(s[1:])
        if index >= arity:
            raise ExprError(f"variable x{s[1:]} out of range for arity {arity}")
        mono = (0,) * index + (1,) + (0,) * (arity - index - 1)
        if s == f"x{index}":
            table[s] = mono
        return mono
    if "0" <= s[0] <= "9":
        return int(s)
    raise ExprError(f"unexpected character {s!r} in {text!r}")


_EXPR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _parse_expr(text: str, arity: int) -> Expr:
    """One loop over the tokens, folding on raw terms whose integer
    coefficients are plain ints.  Each open parenthesis keeps a frame on an
    explicit stack: the enclosing sum and its pending `+`/`-`, the product
    and its pending `*`/`/`, and the count of unary minuses before the
    group.  After each atom (or closed group) come its `^`, its minuses, the
    product step and, when the product ends, the sum step.

    A product of plain factors (integers and variables, to integer powers,
    under unary minuses; a parenthesised such product counts as one) is one
    (monomial, int) pair: exponents add and ints multiply, as `_mul` and
    `_pow` do on one-term dicts.  A sum adds its terms in place into one
    dict it owns, by `_add`'s rules, so its dict order is that of the
    `_add` fold.  Any other step takes a pair as a one-term dict (`{}` when
    its int is 0) and is the `_neg`/`_mul`/`_pow` that the Expr operator
    would run on a polynomial, or for a division by a constant the `_scale`
    that normalisation would run, so the terms (and their order) are those
    of the Expr fold.  A division by a non-constant is done in Expr
    arithmetic, as is every later step that takes its result."""
    toks = _tokens(text, arity)
    constant = (0,) * arity

    def terms(value):
        if type(value) is tuple:
            mono, c = value
            return {mono: c} if c else {}
        return value

    def expr(value) -> Expr:
        if type(value) is Expr:
            return value
        return Expr._poly(arity, terms(value))

    def combine(op: str, a, b):
        a, b = terms(a), terms(b)
        if type(a) is dict and type(b) is dict:
            if op == "*":
                return _mul(a, b)
            if _is_constant(b):
                if not b:
                    raise ExprError("division by zero")
                c = _constant_value(b)
                return a if c == 1 else _scale(a, _quo(1, c))
        return _EXPR_OPS[op](expr(a), expr(b))

    stack: list[tuple] = []
    # the open sum and product of the innermost group, their pending
    # operators (None before the first operand), and the pending minuses
    total = sum_op = prod = prod_op = None
    minuses = pos = 0
    while True:
        tok = toks[pos]
        while tok == "-":
            minuses += 1
            pos += 1
            tok = toks[pos]
        if tok == "(":
            stack.append((total, sum_op, prod, prod_op, minuses))
            total = sum_op = prod = prod_op = None
            minuses = 0
            pos += 1
            continue
        if type(tok) is tuple:
            value = tok, 1
        elif type(tok) is int:
            value = constant, tok
        elif tok is None:
            raise ExprError(f"unexpected end of input in {text!r}")
        else:
            raise ExprError(f"unexpected token {tok!r} in {text!r}")
        pos += 1
        # close the factor, then every group and product it ends
        while True:
            tok = toks[pos]
            if tok == "^":
                exp = toks[pos + 1]
                if type(exp) is not int:
                    raise ExprError(f"expected integer exponent in {text!r}")
                pos += 2
                tok = toks[pos]
                if type(value) is tuple:
                    value = tuple([e * exp for e in value[0]]), value[1] ** exp
                elif type(value) is dict:
                    value = _pow(value, exp, arity)
                else:
                    value = value ** exp
            if minuses:
                if type(value) is Expr:
                    for _ in range(minuses):
                        value = -value
                elif minuses & 1:
                    value = (value[0], -value[1]) if type(value) is tuple else _neg(value)
                minuses = 0
            if prod_op is None:
                prod = value
            elif prod_op == "*" and type(prod) is tuple and type(value) is tuple:
                prod = tuple(map(operator.add, prod[0], value[0])), prod[1] * value[1]
            else:
                prod = combine(prod_op, prod, value)
            if tok == "*" or tok == "/":
                prod_op = tok
                pos += 1
                break
            # the product ends here: add it into the sum
            if sum_op is None:
                total = prod
            elif type(total) is Expr or type(prod) is Expr:
                total = _EXPR_OPS[sum_op](expr(total), expr(prod))
            elif type(prod) is tuple:
                # `_add_into` of one pair, inline: its int added to an int
                # is an int, and to a non-integer Fraction is not an integer
                mono, c = prod
                prev = total.get(mono)
                if sum_op == "-":
                    c = -c
                if prev is not None:
                    c += prev
                if c:
                    total[mono] = c
                else:
                    total.pop(mono, None)
            else:
                _add_into(total, _neg(prod).items() if sum_op == "-" else prod.items())
            if tok == "+" or tok == "-":
                # every dict here was built by this parse and is held once,
                # so the sum adds its terms into the first one in place
                if type(total) is tuple:
                    total = terms(total)
                sum_op = tok
                prod_op = None
                pos += 1
                break
            # the sum ends here: it is the whole text or a group's value
            if not stack:
                if tok is not None:
                    raise ExprError(f"trailing input after expression in {text!r}")
                return expr(total)
            if tok != ")":
                raise ExprError(f"missing closing parenthesis in {text!r}")
            pos += 1
            value = total
            total, sum_op, prod, prod_op, minuses = stack.pop()


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
        return ExprVec(_compose_all(self.components, args))

    def eval(self, point: Sequence[Scalar]) -> tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.components)

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
