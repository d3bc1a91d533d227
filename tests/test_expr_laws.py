"""Algebraic laws of the expression core, checked on generated expressions.

They guard the fast paths: substitution of polynomial arguments on raw term
dictionaries, the unit-denominator shortcut in normalisation and evaluation
at points already made of Fractions.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffeokit.expr import Expr, _div_exact, _gcd, _mul

ARITY = 2

_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_positive = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
_values = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def _monomials(arity):
    return st.tuples(*[st.integers(0, 2)] * arity)


@st.composite
def polys(draw, arity=ARITY):
    terms = draw(st.dictionaries(_monomials(arity), _coeffs, max_size=3))
    return Expr(arity, {m: c for m, c in terms.items() if c})


@st.composite
def positive_polys(draw, arity=ARITY):
    """c + sum w_i * x_i^(2 e_i): positive on all of R^n, with a witness."""
    terms = {(0,) * arity: draw(_positive)}
    for i in range(arity):
        if draw(st.booleans()):
            mono = tuple(2 * draw(st.integers(1, 2)) if j == i else 0 for j in range(arity))
            terms[mono] = draw(_positive)
    return Expr(arity, terms)


@st.composite
def rationals(draw, arity=ARITY):
    return draw(polys(arity)) / draw(positive_polys(arity))


def exprs(arity=ARITY):
    return st.one_of(polys(arity), rationals(arity))


def points(arity=ARITY):
    return st.lists(_values, min_size=arity, max_size=arity)


def _same(a: Expr, b: Expr) -> bool:
    # a cancelled and an uncancelled form of one rational function have
    # different canonical keys, so rational results are compared by value
    if a.is_polynomial and b.is_polynomial:
        return a == b
    return (a - b).is_zero()


def _compose_by_terms(fn: Expr, args) -> Expr:
    """fn(args) built term by term with Expr arithmetic: the reference for
    the raw-terms substitution of polynomial arguments."""
    arity = args[0].arity
    total = Expr.zero(arity)
    for mono, coeff in fn.num.items():
        term = Expr.constant(arity, coeff)
        for i, e in enumerate(mono):
            term = term * args[i] ** e
        total = total + term
    return total


class TestRingAxioms:
    @_property
    @given(exprs(), exprs(), exprs())
    def test_addition_is_a_commutative_group(self, a, b, c):
        zero = Expr.zero(ARITY)
        assert _same(a + b, b + a)
        assert _same((a + b) + c, a + (b + c))
        assert _same(a + zero, a)
        assert (a + (-a)).is_zero()

    @_property
    @given(exprs(), exprs(), exprs())
    def test_multiplication_is_commutative_associative_unital(self, a, b, c):
        one = Expr.one(ARITY)
        assert _same(a * b, b * a)
        assert _same((a * b) * c, a * (b * c))
        assert _same(a * one, a)

    @_property
    @given(exprs(), exprs(), exprs())
    def test_multiplication_distributes_over_addition(self, a, b, c):
        assert _same(a * (b + c), a * b + a * c)

    @_property
    @given(polys(), polys(), polys())
    def test_polynomial_laws_hold_in_canonical_form(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a + b) ** 2 == a * a + 2 * a * b + b * b


class TestEvaluationIsAHomomorphism:
    @_property
    @given(exprs(), exprs(), points())
    def test_sums_and_products(self, a, b, pt):
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
        assert (a - b).eval(pt) == a.eval(pt) - b.eval(pt)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)

    @_property
    @given(exprs(), positive_polys(), points(), st.integers(0, 3))
    def test_quotients_and_powers(self, a, d, pt, k):
        assert (a / d).eval(pt) == a.eval(pt) / d.eval(pt)
        assert (a**k).eval(pt) == a.eval(pt) ** k

    @_property
    @given(_coeffs, points())
    def test_constants_and_integer_points(self, c, pt):
        assert Expr.constant(ARITY, c).eval(pt) == c
        as_ints = [int(v) for v in pt]
        x0 = Expr.variable(ARITY, 0)
        assert (x0 * x0 + c).eval(as_ints) == as_ints[0] ** 2 + c
        assert type(x0.eval(as_ints)) is Fraction


class TestComposeCommutesWithEval:
    @_property
    @given(exprs(), st.lists(polys(1), min_size=ARITY, max_size=ARITY), points(1))
    def test_polynomial_arguments(self, fn, args, pt):
        inner = [a.eval(pt) for a in args]
        assert fn.compose(args).eval(pt) == fn.eval(inner)

    @_property
    @given(polys(), polys(1), rationals(1), st.booleans(), points(1))
    def test_mixed_polynomial_and_rational_arguments(self, fn, p, r, swap, pt):
        assume(not r.is_polynomial)
        args = [r, p] if swap else [p, r]
        inner = [a.eval(pt) for a in args]
        assert fn.compose(args).eval(pt) == fn.eval(inner)

    @_property
    @given(polys(), st.lists(polys(), min_size=ARITY, max_size=ARITY))
    def test_raw_terms_substitution_matches_term_by_term(self, fn, args):
        composed = fn.compose(args)
        assert composed.canonical_key() == _compose_by_terms(fn, args).canonical_key()


class TestGcd:
    @_property
    @given(polys(), polys())
    def test_gcd_divides_both_arguments(self, a, b):
        g = _gcd(a.num, b.num, ARITY)
        assert g or not (a.num or b.num)
        for side in (a.num, b.num):
            if side:
                assert _div_exact(side, g) is not None

    @_property
    @given(polys(), polys(), polys())
    def test_common_factor_divides_the_gcd(self, a, b, c):
        assume(c.num and (a.num or b.num))
        g = _gcd(_mul(a.num, c.num), _mul(b.num, c.num), ARITY)
        assert _div_exact(g, c.num) is not None
