"""Algebraic laws of the expression core, checked on generated expressions.

They guard the fast paths: substitution of polynomial arguments on raw term
dictionaries, rational substitution over one common denominator (against
the Expr-arithmetic fold it replaced, which may keep a larger denominator
but never a smaller one), the unit-denominator shortcut in normalisation, evaluation
on ints over one common denominator, parsing on raw terms with int
coefficients (equal, in dict order too, to the Expr-operator fold it
replaced, and with products as (monomial, int) pairs equal to the dict
fold on the benchmark's and the fixtures' texts), compose and differentiate taking a
polynomial's stored denominator to be exactly 1, multiplication on plain
ints when both factors have integer coefficients, addition of two integer
coefficients on plain ints, the heuristic gcd (equal to the PRS gcd, which
stays as its fallback), the memo of witness expansions (compose gives
the same result with it warm as with it bypassed, and nothing a caller
holds can change a later hit), the coefficient rule (every stored
coefficient an int or a Fraction that is not an integer, every division
of two coefficients exact, and no Fraction built at all on integer
inputs) and one factor table per vector composition.
"""

import importlib.util
import operator
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diffeokit import expr, fixtures, spaces
from diffeokit.domains import Box, expr_bounds
from diffeokit.expr import (
    Expr,
    ExprError,
    ExprVec,
    PositivityWitness,
    _add,
    _common_denominator,
    _compose_rational,
    _div_exact,
    _divides_z,
    _eval,
    _gcd,
    _gcd_prs,
    _heu_gcd,
    _mul,
    _primitive_z,
    _terms_key,
    _total_degree,
    _witness_expansion,
)

ROOT = Path(__file__).resolve().parent.parent
ARITY = 2

_property = settings(max_examples=60)

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_positive = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
_values = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def _monomials(arity):
    return st.tuples(*[st.integers(0, 2)] * arity)


def _stored(c) -> bool:
    """The coefficient rule: an int, or a Fraction that is not an integer."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


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


def quadratic_dens(arity=ARITY):
    """Witnessed quadratic denominators with c > 0: (x0 + k)^2 + c in one
    variable (witnessed by completing the square) and, from arity 2,
    a*x0^2 + b*x1^2 + c in two (witnessed as a sum of even powers)."""
    def shifted(k, c):
        pad = (0,) * (arity - 1)
        terms = {(2,) + pad: Fraction(1), (1,) + pad: 2 * k, (0,) * arity: k * k + c}
        return Expr(arity, {m: v for m, v in terms.items() if v})

    def even(a, b, c):
        pad = (0,) * (arity - 2)
        return Expr(arity, {(2, 0) + pad: a, (0, 2) + pad: b, (0,) * arity: c})

    dens = st.builds(shifted, _coeffs, _positive)
    if arity >= 2:
        dens = st.one_of(dens, st.builds(even, _positive, _positive, _positive))
    return dens


@st.composite
def witnessed_rationals(draw, arity=ARITY):
    """A rational function whose denominator does not cancel away."""
    value = draw(polys(arity)) / draw(quadratic_dens(arity))
    assume(not value.is_polynomial)
    return value


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


class TestPolynomialDenominatorIsOne:
    @_property
    @given(polys(), polys(), positive_polys(), st.integers(0, 3),
           st.lists(polys(), min_size=ARITY, max_size=ARITY))
    def test_polynomial_results_store_denominator_one(self, a, b, d, k, args):
        one = {(0,) * ARITY: 1}
        results = (a + b, a - b, -a, a * b, a**k, (a * d) / d, (a / d) * d,
                   a.differentiate(0), a.compose(args))
        for result in results:
            assert result.den == one


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


@st.composite
def gcd_pairs(draw):
    """Two nonzero term dicts of arity 2 or 3 with rational coefficients of
    either sign, half of them sharing a planted factor in x0 and x1."""
    arity = draw(st.sampled_from([2, 3]))
    a, b = draw(polys(arity)).num, draw(polys(arity)).num
    if draw(st.booleans()):
        pad = (0,) * (arity - 2)
        factor = {(draw(st.integers(1, 2)), 0) + pad: draw(_rational),
                  (0, draw(st.integers(1, 2))) + pad: draw(_rational),
                  (1, 1) + pad: draw(_coeffs), (0,) * arity: draw(_coeffs)}
        factor = {m: c for m, c in factor.items() if c}
        a, b = _mul(a, factor), _mul(b, factor)
    assume(a and b)
    return arity, a, b


@st.composite
def monomial_and_octic(draw):
    """c*x0^i*x1^j against a univariate octic in x0 (arity 2), the
    commonest pair the suite's normalisations meet."""
    mono = {(draw(st.integers(0, 8)), draw(st.integers(0, 2))): draw(_rational)}
    octic = {(k, 0): draw(_coeffs) for k in range(8)}
    octic[(8, 0)] = draw(_rational)
    return mono, {m: c for m, c in octic.items() if c}


class TestHeuristicGcd:
    @_property
    @given(gcd_pairs())
    def test_heuristic_equals_prs(self, pair):
        arity, a, b = pair
        assert _heu_gcd(_primitive_z(a), _primitive_z(b)) is not None
        assert _gcd(a, b, arity) == _gcd_prs(a, b, arity)

    @_property
    @given(gcd_pairs())
    def test_trial_division_agrees_with_division_over_q(self, pair):
        # the acceptance test of a candidate; the products make half the
        # cases divisible
        arity, a, b = pair
        for d, x in ((b, a), (a, b), (b, _mul(a, b)), (a, _mul(a, _mul(a, b)))):
            divides = _div_exact(x, d) is not None
            assert _divides_z(_primitive_z(d), _primitive_z(x)) == divides

    @_property
    @given(monomial_and_octic())
    def test_monomial_against_an_octic(self, pair):
        mono, octic = pair
        assert _heu_gcd(_primitive_z(mono), _primitive_z(octic)) is not None
        assert _gcd(mono, octic, ARITY) == _gcd_prs(mono, octic, ARITY)

    def test_failed_heuristic_returns_the_prs_answer(self):
        x0, x1 = Expr.variable(ARITY, 0), Expr.variable(ARITY, 1)
        a = ((x0 + x1 / 2) * (x0 - 2)).num
        b = ((x0 + x1 / 2) * (3 * x1 + 1)).num
        expected = _gcd_prs(a, b, ARITY)
        assert expected == (x0 + x1 / 2).num
        with mock.patch.object(expr, "HEU_GCD_MAX", 0), \
                mock.patch.object(expr, "_gcd_prs", wraps=_gcd_prs) as prs:
            assert _heu_gcd(_primitive_z(a), _primitive_z(b)) is None
            assert _gcd(a, b, ARITY) == expected
        # the whole gcd went to the PRS (which then recurses on contents)
        assert prs.call_args_list[0] == mock.call(a, b, ARITY)

    def test_bivariate_product_is_answered_without_prs(self):
        # the PRS takes seconds on this product; the gcd of numerator and
        # denominator is 1, so nothing cancels
        a = Expr.parse("(x0^2*x1 - x0/2 + 3)/(x0^2 + 8/3*x1^2 + 4/3)", ARITY)
        b = Expr.parse("(x0^2*x1 - 3*x0 + 3)/(x0^2 + 8/3*x1^2 + 4/3)", ARITY)
        with mock.patch.object(expr, "_gcd_prs", side_effect=AssertionError("PRS ran")):
            product = a * b
        assert product.canonical_key() == (
            ARITY, _terms_key(_mul(a.num, b.num)), _terms_key(_mul(a.den, b.den)))
        assert product.to_str() == (
            "(x0^4*x1^2 - 7/2*x0^3*x1 + 6*x0^2*x1 + 3/2*x0^2 - 21/2*x0 + 9)"
            "/(x0^4 + 16/3*x0^2*x1^2 + 64/9*x1^4 + 8/3*x0^2 + 64/9*x1^2 + 16/9)")


def _reference_add(a, b):
    """The sum term by term in Fraction arithmetic: the reference for
    `_add`, which adds two integer coefficients as plain ints."""
    out = dict(a)
    for mono, coeff in b.items():
        total = out.get(mono, Fraction(0)) + coeff
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def _reference_mul(a, b):
    """The product term by term in Fraction arithmetic: the reference for
    `_mul`, which sums plain ints when both factors lie in Z[x]."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            total = out.get(mono, Fraction(0)) + ca * cb
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
    return out


# raw terms hold coefficients in their stored form
_integral = st.integers(-4, 4).filter(bool)
_rational = _coeffs.filter(bool).map(expr._coeff)


@st.composite
def factor_pairs(draw):
    """Two term dicts of one arity in 1..3, each integral or rational, half
    of them of the shape (p + q)(p - q), whose cross terms cancel."""
    arity = draw(st.integers(1, 3))
    kinds = draw(st.tuples(*[st.sampled_from([_integral, _rational])] * 2))
    if draw(st.booleans()):
        m1, m2 = draw(st.lists(_monomials(arity), min_size=2, max_size=2, unique=True))
        p, q = draw(kinds[0]), draw(kinds[1])
        return {m1: p, m2: q}, {m1: p, m2: -q}
    return tuple(
        draw(st.dictionaries(_monomials(arity), kind, max_size=4)) for kind in kinds
    )


class TestIntegerMultiplication:
    @_property
    @given(factor_pairs())
    def test_mul_equals_the_fraction_product(self, pair):
        a, b = pair
        product = _mul(a, b)
        assert product == _reference_mul(a, b)
        assert all(_stored(c) and c for c in product.values())


class TestIntegerAddition:
    @_property
    @given(factor_pairs())
    def test_add_equals_the_fraction_sum(self, pair):
        a, b = pair
        total = _add(a, b)
        assert total == _reference_add(a, b)
        assert list(total) == list(_reference_add(a, b))
        assert all(_stored(c) and c for c in total.values())


class TestEquality:
    @_property
    @given(exprs(), exprs(), st.sampled_from(["drawn", "round-trip", "lifted", "zero", "self"]))
    def test_equality_is_equality_of_canonical_keys(self, a, c, how):
        # `==` compares the stored dicts; the canonical keys sort them
        b = {
            "drawn": lambda: c,
            "round-trip": lambda: (a + c) - c,
            "lifted": lambda: a.lift(ARITY + 1),
            "zero": lambda: Expr.zero(ARITY + 1) if a.is_zero() else Expr.zero(ARITY),
            "self": lambda: Expr(ARITY, dict(reversed(a.num.items()))) if a.is_polynomial else a,
        }[how]()
        assert (a == b) is (a.canonical_key() == b.canonical_key())
        assert (b == a) is (a == b)
        if a == b:
            assert hash(a) == hash(b)


def _split_witness(e: Expr) -> Expr:
    """e with a second witness for the same denominator: each square is
    written as two halves, so the terms agree and the witnesses do not."""
    w = e.den_witness
    halves = tuple(sq for weight, key in w.squares for sq in [(weight / 2, key)] * 2)
    return Expr(e.arity, dict(e.num), dict(e.den), PositivityWitness(halves, w.constant))


class TestRationalMemos:
    @_property
    @given(witnessed_rationals(), st.lists(st.one_of(polys(), witnessed_rationals()),
                                           min_size=ARITY, max_size=ARITY))
    def test_memoised_compose_equals_a_fresh_compose(self, fn, args):
        # compose replays each witness through the witness-expansion memo;
        # with the memo warm it gives what it gives with the memo bypassed,
        # also for a second witness of the same denominator
        split = _split_witness(fn)
        assert split.canonical_key() == fn.canonical_key()
        assert split.den_witness != fn.den_witness
        fresh_expansion = mock.patch.object(
            expr, "_witness_expansion", _witness_expansion.__wrapped__)
        for f in (fn, split):
            try:
                f.compose(args)
            except ExprError as err:
                # a rational of rationals may have no certified denominator
                with fresh_expansion, pytest.raises(ExprError, match=re.escape(str(err))):
                    f.compose(args)
                continue
            warm = f.compose(args)
            with fresh_expansion:
                fresh = f.compose(args)
            assert warm.canonical_key() == fresh.canonical_key()
            assert warm.den_witness == fresh.den_witness

    @_property
    @given(polys(), quadratic_dens())
    def test_wrong_witness_fails_to_replay_with_the_memo_warm(self, p, d):
        good = p / d
        assume(not good.is_polynomial)
        witness = good.den_witness
        wrong = PositivityWitness(witness.squares, witness.constant + 1)
        # warm the memo with both witnesses, each on the polynomial it expands to
        assert witness.verify(good.den, ARITY)
        expansion = _witness_expansion(wrong, ARITY)
        assert wrong.verify(dict(expansion), ARITY)
        with pytest.raises(TypeError):
            expansion[(0, 0)] = Fraction(0)  # read-only: no caller can change a hit
        assert not wrong.verify(good.den, ARITY)
        with mock.patch.object(expr, "derive_witness", lambda terms, arity, hints=None: wrong):
            with pytest.raises(ExprError, match="positivity certificate failed to replay"):
                Expr(ARITY, dict(good.num), dict(good.den))


# term trees: ("num", n), ("var", i), ("neg", t), (op, left, right) for op in
# add/sub/mul/div, and ("pow", t, k)
_PRECEDENCE = {"num": 5, "var": 5, "pow": 4, "neg": 3, "mul": 2, "div": 2, "add": 1, "sub": 1}
_SYMBOL = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def _render(tree) -> str:
    """The text of a term tree with only the parentheses its shape needs:
    binary operators associate to the left, `-` binds looser than `^`, and
    a power's base is an atom."""
    def wrap(t, level):
        text = _render(t)
        return text if _PRECEDENCE[t[0]] >= level else f"({text})"

    kind = tree[0]
    if kind == "num":
        return str(tree[1])
    if kind == "var":
        return f"x{tree[1]}"
    if kind == "neg":
        return "-" + wrap(tree[1], 3)
    if kind == "pow":
        return f"{wrap(tree[1], 5)}^{tree[2]}"
    level = _PRECEDENCE[kind]
    return wrap(tree[1], level) + _SYMBOL[kind] + wrap(tree[2], level + 1)


def _fold(tree, arity) -> Expr:
    """The tree folded with Expr operators in parse order: what the parser
    built before it ran on raw terms, and the reference for it now."""
    kind = tree[0]
    if kind == "num":
        return Expr.constant(arity, tree[1])
    if kind == "var":
        return Expr.variable(arity, tree[1])
    if kind == "neg":
        return -_fold(tree[1], arity)
    if kind == "pow":
        return _fold(tree[1], arity) ** tree[2]
    left, right = _fold(tree[1], arity), _fold(tree[2], arity)
    return {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
            "div": operator.truediv}[kind](left, right)


@st.composite
def term_trees(draw):
    """(arity, tree) over + - * ^, division by constants (which may be zero
    or a constant subexpression) and by witnessed denominators, at arity 1..3."""
    arity = draw(st.integers(1, 3))
    nums = st.integers(0, 5).map(lambda n: ("num", n))
    variables = st.integers(0, arity - 1).map(lambda i: ("var", i))
    constants = st.recursive(
        nums, lambda c: st.tuples(st.sampled_from(["add", "sub", "mul"]), c, c), max_leaves=3)
    square = st.builds(lambda v, k: ("pow", v, k), variables, st.sampled_from([2, 4]))
    dens = st.builds(lambda sq, rest, n: ("add", ("add", sq, rest) if rest else sq, ("num", n)),
                     square, st.none() | square, st.integers(1, 4))

    def extend(children):
        sums = st.tuples(st.sampled_from(["add", "sub"]), children, children)
        return st.one_of(
            st.tuples(st.just("neg"), children),
            st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
            st.tuples(st.just("pow"), children, st.integers(0, 3)),
            st.tuples(st.just("div"), sums | children, constants),
            st.tuples(st.just("div"), sums | children, dens),
            # (a + b)*(a - b): cross terms that cancel inside one product
            st.builds(lambda a, b: ("mul", ("add", a, b), ("sub", a, b)), children, children),
        )

    return arity, draw(st.recursive(nums | variables, extend, max_leaves=8))


_X0, _X1 = ("var", 0), ("var", 1)

# (x0 + x1 + x0*x1 + 1/2)*(x1 - x0 + 1): the x0*x1 total of the product
# cancels to zero and comes back, so `_mul` moves it to the end of the dict
_CANCEL_AND_RETURN = (2, ("mul",
    ("add", ("add", ("add", _X0, _X1), ("mul", _X0, _X1)), ("div", ("num", 1), ("num", 2))),
    ("add", ("sub", _X1, _X0), ("num", 1))))


class TestRawTermParser:
    @settings(max_examples=150)
    @given(term_trees())
    @example(_CANCEL_AND_RETURN)
    def test_parse_equals_the_expr_operator_fold(self, arity_tree):
        arity, tree = arity_tree
        text = _render(tree)
        try:
            reference = _fold(tree, arity)
        except ExprError:
            # division by zero or an uncertified denominator fails both ways
            with pytest.raises(ExprError):
                Expr.parse(text, arity)
            return
        parsed = Expr.parse(text, arity)
        assert parsed.canonical_key() == reference.canonical_key()
        # dict order too: it keys the gcd memo and orders later sums
        assert list(parsed.num.items()) == list(reference.num.items())
        assert list(parsed.den.items()) == list(reference.den.items())
        assert parsed.den_witness == reference.den_witness
        for terms in (parsed.num, parsed.den):
            assert all(_stored(c) and c for c in terms.values())

    def test_rendering_keeps_the_tree(self):
        tree = ("sub", ("var", 0), ("neg", ("pow", ("add", ("var", 0), ("num", 1)), 2)))
        assert _render(tree) == "x0 - -(x0 + 1)^2"
        assert _render(("div", ("num", 1), ("mul", ("num", 2), ("var", 0)))) == "1/(2*x0)"
        assert _render(_CANCEL_AND_RETURN[1]) == "(x0 + x1 + x0*x1 + 1/2)*(x1 - x0 + 1)"


# the tokenizer and the recursive-descent parser that the token table and
# the parse loop replaced, kept as their references
_REFERENCE_TOKEN = re.compile(r"([0-9]+)|x([0-9]+)|([-+*/^()])|(\S)")


def _reference_tokens(text: str, arity: int) -> list:
    """The tokens of text in one pass: an int literal, the monomial of a
    variable, or an operator character; None marks the end."""
    out: list = []
    for number, var, op, other in _REFERENCE_TOKEN.findall(text):
        if op:
            out.append(op)
        elif number:
            out.append(int(number))
        elif var:
            index = int(var)
            if index >= arity:
                raise ExprError(f"variable x{var} out of range for arity {arity}")
            out.append((0,) * index + (1,) + (0,) * (arity - index - 1))
        else:
            raise ExprError(f"unexpected character {other!r} in {text!r}")
    out.append(None)
    return out


def _recursive_parse(text: str, arity: int) -> Expr:
    """Recursive descent on the pair fold: one call per sum, product,
    factor, power and atom, with the value steps of `expr._parse_expr`."""
    toks = _reference_tokens(text, arity)
    pos = 0
    constant = (0,) * arity

    def terms(value):
        if type(value) is tuple:
            mono, c = value
            return {mono: c} if c else {}
        return value

    def to_expr(value) -> Expr:
        if type(value) is Expr:
            return value
        return Expr._poly(arity, terms(value))

    def combine(op: str, a, b):
        a, b = terms(a), terms(b)
        if type(a) is dict and type(b) is dict:
            if op == "*":
                return _mul(a, b)
            if expr._is_constant(b):
                if not b:
                    raise ExprError("division by zero")
                c = expr._constant_value(b)
                return a if c == 1 else expr._scale(a, expr._quo(1, c))
        return expr._EXPR_OPS[op](to_expr(a), to_expr(b))

    def parse_sum():
        nonlocal pos
        value = parse_product()
        if toks[pos] not in ("+", "-"):
            return value
        if type(value) is tuple:
            value = terms(value)
        while toks[pos] in ("+", "-"):
            op = toks[pos]
            pos += 1
            right = parse_product()
            if type(value) is Expr or type(right) is Expr:
                value = expr._EXPR_OPS[op](to_expr(value), to_expr(right))
                continue
            if type(right) is tuple:
                expr._add_into(value, ((right[0], -right[1] if op == "-" else right[1]),))
            else:
                expr._add_into(value, expr._neg(right).items() if op == "-" else right.items())
        return value

    def parse_product():
        nonlocal pos
        value = parse_factor()
        while toks[pos] in ("*", "/"):
            op = toks[pos]
            pos += 1
            right = parse_factor()
            if op == "*" and type(value) is tuple and type(right) is tuple:
                value = (tuple(map(operator.add, value[0], right[0])), value[1] * right[1])
            else:
                value = combine(op, value, right)
        return value

    def parse_factor():
        nonlocal pos
        if toks[pos] == "-":
            pos += 1
            value = parse_factor()
            if type(value) is tuple:
                return value[0], -value[1]
            return expr._neg(value) if type(value) is dict else -value
        return parse_power()

    def parse_power():
        nonlocal pos
        base = parse_atom()
        if toks[pos] != "^":
            return base
        exp = toks[pos + 1]
        if type(exp) is not int:
            raise ExprError(f"expected integer exponent in {text!r}")
        pos += 2
        if type(base) is tuple:
            return tuple([e * exp for e in base[0]]), base[1] ** exp
        return expr._pow(base, exp, arity) if type(base) is dict else base ** exp

    def parse_atom():
        nonlocal pos
        tok = toks[pos]
        if tok is None:
            raise ExprError(f"unexpected end of input in {text!r}")
        pos += 1
        if tok == "(":
            value = parse_sum()
            if toks[pos] != ")":
                raise ExprError(f"missing closing parenthesis in {text!r}")
            pos += 1
            return value
        if type(tok) is int:
            return constant, tok
        if type(tok) is tuple:
            return tok, 1
        raise ExprError(f"unexpected token {tok!r} in {text!r}")

    value = parse_sum()
    if toks[pos] is not None:
        raise ExprError(f"trailing input after expression in {text!r}")
    return to_expr(value)


def _dict_fold_parse(text: str, arity: int) -> Expr:
    """The parser before products became (monomial, int) pairs: every atom
    is a term dict, products run `_mul`, and each `+` copies the running
    sum in `_add`.  The reference for the pair fold."""
    toks = _reference_tokens(text, arity)
    pos = 0

    def to_expr(value) -> Expr:
        if type(value) is Expr:
            return value
        return Expr(arity, {m: c if type(c) is Fraction else Fraction(c) for m, c in value.items()})

    def combine(op: str, a, b):
        if type(a) is dict and type(b) is dict:
            if op == "+":
                return _add(a, b)
            if op == "-":
                return _add(a, expr._neg(b))
            if op == "*":
                return _mul(a, b)
            if expr._is_constant(b):
                if not b:
                    raise ExprError("division by zero")
                c = expr._constant_value(b)
                return a if c == 1 else expr._scale(a, Fraction(c.denominator, c.numerator))
        return expr._EXPR_OPS[op](to_expr(a), to_expr(b))

    def parse_sum():
        nonlocal pos
        value = parse_product()
        while toks[pos] in ("+", "-"):
            pos += 1
            value = combine(toks[pos - 1], value, parse_product())
        return value

    def parse_product():
        nonlocal pos
        value = parse_factor()
        while toks[pos] in ("*", "/"):
            pos += 1
            value = combine(toks[pos - 1], value, parse_factor())
        return value

    def parse_factor():
        nonlocal pos
        if toks[pos] == "-":
            pos += 1
            value = parse_factor()
            return expr._neg(value) if type(value) is dict else -value
        return parse_power()

    def parse_power():
        nonlocal pos
        base = parse_atom()
        if toks[pos] != "^":
            return base
        exp = toks[pos + 1]
        if type(exp) is not int:
            raise ExprError(f"expected integer exponent in {text!r}")
        pos += 2
        return expr._pow(base, exp, arity) if type(base) is dict else base ** exp

    def parse_atom():
        nonlocal pos
        tok = toks[pos]
        if tok is None:
            raise ExprError(f"unexpected end of input in {text!r}")
        pos += 1
        if tok == "(":
            value = parse_sum()
            if toks[pos] != ")":
                raise ExprError(f"missing closing parenthesis in {text!r}")
            pos += 1
            return value
        if type(tok) is int:
            return {(0,) * arity: tok} if tok else {}
        if type(tok) is tuple:
            return {tok: 1}
        raise ExprError(f"unexpected token {tok!r} in {text!r}")

    value = parse_sum()
    if toks[pos] is not None:
        raise ExprError(f"trailing input after expression in {text!r}")
    return to_expr(value)


def _bench_gen():
    """bench/gen.py, which never imports diffeokit, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _bench_texts():
    """(text, arity) of every map text the membership benchmark parses at
    seeds 0 and 7 and the calculus benchmark parses at seed 0."""
    gen = _bench_gen()
    out = []
    for seed in (0, 7):
        for q in gen.membership_inputs(seed)["queries"]:
            if q["kind"] == "plot":
                out.extend((t, q["domain"]["dim"]) for t in q["map"])
    for c in gen.calculus_inputs(0)["checks"]:
        if c["kind"] == "affine":
            for conn in (c["first"], c["second"]):
                for mat in conn["coarse"] + [conn["fine"]]:
                    out.extend((t, 1) for row in mat for t in row)
        elif c["kind"] == "dd":
            out.extend((t, 2) for t in c["coefficients"])
    return out


def _fixture_texts():
    """(text, arity) of every text the built-in registry and the benchmark's
    fixture groups parse, recorded as they are parsed."""
    gen = _bench_gen()
    seen = []
    parse = expr._parse_expr

    def record(text, arity):
        seen.append((text, arity))
        return parse(text, arity)

    with mock.patch.object(expr, "_parse_expr", record):
        reg = fixtures.builtin_registry()
        fixtures._load_document(reg, gen.suite_inputs(0)["fixture"])
        fixtures._load_document(reg, gen.calculus_inputs(0)["fixture"])
    return seen


_MALFORMED = ["x0 +", "x9", "x0^(2)", "y0", "(x0", "x0 x0", "x0\u00b2", "x0^\u00b2",
              "\u0663*x0", "x\u0663", "x0^-1", "2^x0", "()", "x0**2", "x0^", "1/0",
              "x0/(x0 - x0)", "x0/(x0^2 - 1)"]


class TestPairFoldParser:
    """Products of plain factors fold as (monomial, int) pairs and sums add
    in place into one dict; on real inputs the result equals the dict fold's
    in canonical key, dict order, witness and coefficient types."""

    @staticmethod
    def assert_same(text, arity):
        parsed = Expr.parse(text, arity)
        reference = _dict_fold_parse(text, arity)
        assert parsed.canonical_key() == reference.canonical_key(), text
        assert list(parsed.num.items()) == list(reference.num.items()), text
        assert list(parsed.den.items()) == list(reference.den.items()), text
        assert parsed.den_witness == reference.den_witness, text
        for terms in (parsed.num, parsed.den):
            assert all(_stored(c) for c in terms.values()), text

    def test_benchmark_texts_parse_as_the_dict_fold(self):
        texts = _bench_texts()
        assert len(texts) > 3000
        for text, arity in texts:
            self.assert_same(text, arity)

    def test_fixture_texts_parse_as_the_dict_fold(self):
        texts = _fixture_texts()
        assert len(texts) > 20
        for text, arity in texts:
            self.assert_same(text, arity)

    @pytest.mark.parametrize("text, arity", [
        ("x0 + x1 - x0 + x0", 2),            # a cancelled monomial re-enters at the end
        ("x0 - x0", 1),
        ("x0/2 + x1 + x0/2 + 3*x0", 2),      # a Fraction total with denominator 1
        ("1/3 + x0 - 1/3 + 1", 1),
        ("0*x0 + x1 - 0 + x0*0*x1", 2),
        ("x0^0 + 0^0 - 0^2 + 2^3*x0^2", 1),
        ("--x0 - -x0*-2 + ---3", 1),
        ("-(x0)^2*3 + (2*x1)^3 - (x0 + x1)*(x0 - x1)", 2),
        ("(x0 + 1)^2 - x0^2 - 2*x0", 1),
        ("x0*x1/4*x0 - x0^2*x1/4 + x1", 2),
        ("x0/(x0^2 + 1) + x0 - x0/(x0^2 + 1)", 1),
        ("2*x0/(x1^2 + 1)*3 - x1", 2),
        ("(x0 - x0)*x1 + x1*(x0 - x0)", 2),
        ("x2*x0^2*x1 - 2*x2 + x0^2*x1*x2", 3),
        ("7", 0),
    ])
    def test_edge_texts_parse_as_the_dict_fold(self, text, arity):
        self.assert_same(text, arity)

    @pytest.mark.parametrize("text", _MALFORMED)
    def test_malformed_texts_raise_the_same_error(self, text):
        with pytest.raises(ExprError) as new:
            Expr.parse(text, 1)
        with pytest.raises(ExprError) as old:
            _dict_fold_parse(text, 1)
        assert str(new.value) == str(old.value)

    def test_plain_products_and_sums_run_no_mul_or_pow(self, monkeypatch):
        calls = []

        def counting(name):
            original = getattr(expr, name)

            def counted(*args):
                calls.append(name)
                return original(*args)
            return counted

        for name in ("_mul", "_pow"):
            monkeypatch.setattr(expr, name, counting(name))
        text = "-3*x0^3 - 3*x0^2*x1 + 2*x0*x1^2 - 3*x1^3 + x0 - 3"
        parsed = Expr.parse(text, 2)
        assert calls == []
        assert parsed.to_str() == text


# deeper than the recursive descent could go at Python's default limit
_DEEP = ["(" * 300 + "x0" + ")" * 300, "-" * 1200 + "x0"]

_FUZZ_ATOMS = ["x0", "x1", "x2", "x01", "0", "3/2", "(x0^2+1)"]
_FUZZ_OPERATORS = ["+", " - ", "*", "/"]
_FUZZ_STRAYS = ["(", ")", "-", "^", "^-", "^2", "^3", "\u0663", "\u00b2", "x\u0663", " "]


def _fuzz_texts(count=24000, seed=30):
    """(text, arity) drawn from atoms, operators, unary minuses, groups,
    stray parentheses, powers and Unicode digits: mostly in the grammar,
    with a stray piece in about one text in three, and variables out of
    range at arities 1 and 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        pieces, operand, depth = [], True, 0
        for _ in range(rng.randint(1, 9)):
            roll = rng.random()
            if roll < 0.06:
                pieces.append(rng.choice(_FUZZ_STRAYS))
            elif operand and roll < 0.2:
                pieces.append(rng.choice(["-", "("]))
                depth += pieces[-1] == "("
            elif operand:
                pieces.append(rng.choice(_FUZZ_ATOMS))
                operand = False
            elif depth and roll < 0.3:
                pieces.append(")")
                depth -= 1
            elif roll < 0.38:
                pieces.append(rng.choice(["^2", "^3", "^0"]))
            else:
                pieces.append(rng.choice(_FUZZ_OPERATORS))
                operand = True
        if operand and rng.random() < 0.8:
            pieces.append(rng.choice(_FUZZ_ATOMS))
        pieces.append(")" * depth)
        out.append(("".join(pieces), rng.choice([1, 2, 3, 3, 3])))
    return out


def _parse_law_texts():
    return (_bench_texts() + _fixture_texts() + [(t, 1) for t in _MALFORMED + _DEEP]
            + _fuzz_texts())


def _token_outcome(tokens, text, arity):
    try:
        toks = tokens(text, arity)
    except ExprError as err:
        return "error", str(err)
    return toks, [type(t) for t in toks]


def _parse_outcome(parse, text, arity):
    try:
        e = parse(text, arity)
    except ExprError as err:
        return "error", str(err)
    return (e.arity, list(e.num.items()), [type(c) for c in e.num.values()],
            list(e.den.items()), [type(c) for c in e.den.values()], e.den_witness)


class TestParseLoop:
    """The token table and the parse loop against the regular-expression
    tokenizer and the recursive descent they replaced: the same tokens,
    and the same num and den terms in order, coefficient types and witness,
    or the same error text, on the benchmark's and the fixtures' texts,
    the malformed and deep ones, and a seeded fuzz."""

    def test_the_fuzz_reaches_both_outcomes(self):
        texts = _fuzz_texts()
        valid = sum(_parse_outcome(Expr.parse, t, a)[0] != "error" for t, a in texts)
        assert len(texts) >= 20000
        assert 8000 < valid < len(texts) - 8000

    def test_tokens_equal_the_reference_tokens(self):
        for text, arity in _parse_law_texts():
            assert (_token_outcome(expr._tokens, text, arity)
                    == _token_outcome(_reference_tokens, text, arity)), (text, arity)

    def test_parse_equals_the_recursive_descent(self):
        limit = sys.getrecursionlimit()
        # the reference needs about one frame per minus and five per group
        sys.setrecursionlimit(10000)
        try:
            for text, arity in _parse_law_texts():
                assert (_parse_outcome(Expr.parse, text, arity)
                        == _parse_outcome(_recursive_parse, text, arity)), (text, arity)
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("text", _DEEP, ids=["parentheses", "minuses"])
    def test_deep_texts_exceed_the_reference_at_the_default_limit(self, text):
        with pytest.raises(RecursionError):
            _recursive_parse(text, 1)
        assert Expr.parse(text, 1) == Expr.variable(1, 0)


def _reference_eval(terms, point) -> Fraction:
    """The value term by term in Fraction arithmetic: the reference for
    `_eval`, which sums plain ints over one common denominator."""
    total = Fraction(0)
    for mono, coeff in terms.items():
        term = coeff
        for value, exp in zip(point, mono):
            term *= Fraction(value) ** exp
        total += term
    return total


@st.composite
def eval_cases(draw):
    """(terms, point) at arity 0..3: integer or rational coefficients (or
    none), and coordinates that are ints, zero, negative or Fractions with
    coprime denominators."""
    arity = draw(st.integers(0, 3))
    kind = draw(st.sampled_from([_integral, _rational]))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * arity), kind, max_size=5))
    coordinate = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
        st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(4, 5), Fraction(-6, 7)]),
    )
    return terms, draw(st.lists(coordinate, min_size=arity, max_size=arity))


class TestCommonDenominatorEval:
    @_property
    @given(eval_cases())
    def test_eval_equals_the_fraction_loop(self, case):
        terms, point = case
        expected = _reference_eval(terms, point)
        ints, d = _common_denominator(point)
        total, scale = _eval(terms, ints, d)
        assert Fraction(total, scale) == expected
        value = Expr(len(point), terms).eval(point)
        assert type(value) is Fraction and value == expected

    @_property
    @given(rationals(), points())
    def test_rational_eval_equals_the_quotient_of_loops(self, e, pt):
        expected = _reference_eval(e.num, pt) / _reference_eval(e.den, pt)
        assert e.eval(pt) == expected
        assert e.eval([Fraction(v) for v in pt]) == expected

    def test_edge_points(self):
        x0, x1 = Expr.variable(2, 0), Expr.variable(2, 1)
        e = (x0**3 - Fraction(1, 2) * x0 * x1 + 3) / (x1**2 + Fraction(1, 3))
        for pt in ([0, 0], [-1, 2], [Fraction(1, 2), Fraction(1, 3)],
                   [Fraction(-3, 4), Fraction(5, 9)], [Fraction(2, 7), 0]):
            assert e.eval(pt) == _reference_eval(e.num, pt) / _reference_eval(e.den, pt)
        assert Expr.zero(0).eval([]) == 0 and Expr.constant(0, Fraction(5, 3)).eval(()) == Fraction(5, 3)
        assert _eval({}, [], 1) == (0, 1)

    def test_a_vanishing_denominator_is_refused(self):
        # no witnessed denominator vanishes on R^n; an Expr x0/x0 built
        # past the witness check shows that eval still refuses to divide by
        # zero
        x0 = Expr.variable(1, 0)
        bogus = object.__new__(Expr)
        for name, value in (("arity", 1), ("num", dict(x0.num)), ("den", dict(x0.num)),
                            ("den_witness", (1 / (x0**2 + 1)).den_witness), ("_key", None)):
            object.__setattr__(bogus, name, value)
        with pytest.raises(ExprError, match="denominator evaluated to zero"):
            bogus.eval([0])


def _fold_subst_terms(terms, args, out_arity) -> Expr:
    """terms(args) folded with Expr arithmetic, every product and partial sum
    normalised on its own: what `_subst_terms` did before it substituted
    over one common denominator, and the reference for it now."""
    total = Expr.zero(out_arity)
    powers = [{} for _ in args]
    for mono, coeff in terms.items():
        term = Expr.constant(out_arity, coeff)
        for i, e in enumerate(mono):
            if e:
                if e not in powers[i]:
                    powers[i][e] = args[i] ** e
                term = term * powers[i][e]
        total = total + term
    return total


def _fold_compose(fn: Expr, args) -> Expr:
    """fn(args) by the rational path on the Expr fold."""
    with mock.patch.object(expr, "_subst_terms", _fold_subst_terms):
        return _compose_rational(fn, args)


def _outcome(compose, fn, args):
    try:
        return compose(fn, args)
    except ExprError:
        return None


def _draw_poly(rng, arity) -> Expr:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) for _ in range(arity))
        terms[mono] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Expr(arity, {m: c for m, c in terms.items() if c})


def _draw_rational(rng, arity) -> Expr:
    """p/q with q witnessed: (x_v + k)^2 + c, its square, or (x_v + k)^4 + c."""
    while True:
        shift = Expr.variable(arity, rng.randrange(arity)) + rng.randint(-2, 2)
        c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        q = shift**2 + c
        witness = PositivityWitness(((Fraction(1), _terms_key(shift.num)),), c)
        shape = rng.random()
        if shape < 0.2:
            q, witness = q * q, expr._witness_mul(witness, witness)
        elif shape < 0.4:
            q = shift**4 + c
            witness = PositivityWitness(((Fraction(1), _terms_key((shift * shift).num)),), c)
        value = Expr(arity, _draw_poly(rng, arity).num, q.num, witness)
        if not value.is_polynomial:
            return value


def _draw_composition(rng):
    arity = rng.randint(1, 2)
    fn = _draw_rational(rng, arity) if rng.random() < 0.5 else _draw_poly(rng, arity)
    args = [_draw_rational(rng, arity) if rng.random() < 0.6 else _draw_poly(rng, arity)
            for _ in range(arity)]
    return fn, args


def _reference_subst_poly(terms, args, out_arity):
    """Polynomial substitution with each term started from its constant and
    every power built by `_pow`: what `_subst_poly` did before it scaled
    the first factor and took a first power as the argument itself."""
    total, powers = {}, [{} for _ in args]
    for mono, coeff in terms.items():
        term = {(0,) * out_arity: coeff}
        for i, e in enumerate(mono):
            if e:
                if e not in powers[i]:
                    powers[i][e] = expr._pow(args[i], e, out_arity)
                term = _mul(term, powers[i][e])
        total = _add(total, term)
    return total


def _comprehension_subst_poly(terms, args, out_arity, dens=()):
    """`_subst_poly` as it was when it scaled each term's first factor by
    one Fraction product per coefficient, integers included."""
    total, factors = {}, {}
    for mono, coeff in terms.items():
        term = None
        for i, e in enumerate(mono):
            if e or (dens and dens[i]):
                factor = factors.get((i, e))
                if factor is None:
                    factor = factors[i, e] = expr._subst_factor(
                        args[i], e, dens[i] if dens else None, out_arity
                    )
                term = {m: c * coeff for m, c in factor.items()} if term is None else _mul(term, factor)
        total = _add(total, {(0,) * out_arity: coeff} if term is None else term)
    return total


def _draw_coefficient_poly(rng, arity, kind) -> Expr:
    """Up to four terms of degree at most 2 with integral, rational (no
    integer among them) or mixed coefficients."""
    def coefficient():
        whole = kind == "integral" or (kind == "mixed" and rng.random() < 0.5)
        if whole:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]))
        return Fraction(rng.choice([-5, -1, 1, 3, 7]), rng.choice([2, 3, 4]))

    terms = {tuple(rng.randint(0, 2) for _ in range(arity)): coefficient()
             for _ in range(rng.randint(1, 4))}
    return Expr(arity, terms)


_SUBST_POINTS = [-2, Fraction(-1, 2), 0, Fraction(1, 3), 1, 3]


class TestCommonDenominatorSubstitution:
    """`_subst_terms` over one common denominator against the Expr fold.

    The fold normalises each partial sum, and a cancelled denominator it has
    no witness for stays uncancelled; the common denominator prod q_i^D_i
    never grows past the top powers.  So a result may be smaller than the
    fold's, never larger, and a canonical key depends on the path taken."""

    CASES = 80  # 28 raise on both paths
    SMALLER = 2  # cases where the two keys differ

    def test_common_denominator_equals_the_expr_fold(self):
        rng = random.Random(16)
        smaller = 0
        for _ in range(self.CASES):
            fn, args = _draw_composition(rng)
            new = _outcome(lambda f, a: f.compose(a), fn, args)
            ref = _outcome(_fold_compose, fn, args)
            assert (new is None) == (ref is None), (fn, args)
            if new is None or new.canonical_key() == ref.canonical_key():
                continue
            smaller += 1
            for pt in zip(_SUBST_POINTS, reversed(_SUBST_POINTS)):
                pt = pt[: fn.arity]
                assert new.eval(pt) == ref.eval(pt)
            assert _total_degree(new.num) <= _total_degree(ref.num)
            assert _total_degree(new.den) < _total_degree(ref.den)
        assert smaller == self.SMALLER

    @_property
    @given(polys(), st.lists(polys(), min_size=ARITY, max_size=ARITY))
    def test_polynomial_substitution_keeps_the_terms_and_their_order(self, fn, args):
        out = expr._subst_poly(fn.num, [a.num for a in args], ARITY)
        expected = _reference_subst_poly(fn.num, [a.num for a in args], ARITY)
        assert list(out.items()) == list(expected.items())
        assert all(_stored(c) for c in out.values())

    @pytest.mark.parametrize("kind", ["integral", "rational", "mixed"])
    def test_integer_first_factor_scaling_keeps_the_terms_and_their_order(self, kind):
        rng = random.Random(18)
        for _ in range(60):
            fn = _draw_coefficient_poly(rng, ARITY, kind)
            args = [_draw_coefficient_poly(rng, ARITY, rng.choice(["integral", "rational", "mixed"]))
                    for _ in range(ARITY)]
            nums = [a.num for a in args]
            out = expr._subst_poly(fn.num, nums, ARITY)
            expected = _comprehension_subst_poly(fn.num, nums, ARITY)
            assert list(out.items()) == list(expected.items())
            assert all(_stored(c) for c in out.values())
            # x_i^e standing for n_i^e * q_i^(D_i - e) over a witnessed q_i
            dens = []
            for i in range(ARITY):
                top = max(m[i] for m in fn.num)
                q = {(0,) * ARITY: Fraction(2), tuple(2 * (j == i) for j in range(ARITY)): Fraction(1)}
                dens.append((q, top, expr._pow(q, top, ARITY)) if top and rng.random() < 0.6 else None)
            out = expr._subst_poly(fn.num, nums, ARITY, dens)
            expected = _comprehension_subst_poly(fn.num, nums, ARITY, dens)
            assert list(out.items()) == list(expected.items())

    def test_the_fold_keeps_a_denominator_it_cannot_witness(self):
        # q0^2*q1 is the reduced denominator of x0^2 + x0*x1 here; the fold
        # reaches q0^3*q1 and has no witness to cancel the extra q0
        a0 = Expr.parse("(3 - 3*x0*x1^2)/((x1 - 2)^2 + 1)", 2)
        a1 = Expr.parse("(x0*x1^2 - 2*x0^2*x1^2 + 2*x0*x1^2)/((x1 - 1)^2 + 1)", 2)
        fn = Expr.parse("x0^2 + x0*x1", 2)
        q0, q1 = Expr(2, a0.den), Expr(2, a1.den)
        new, ref = fn.compose([a0, a1]), _fold_compose(fn, [a0, a1])
        assert Expr(2, new.den) == q0**2 * q1
        assert Expr(2, ref.den) == q0**3 * q1
        assert (new - ref).is_zero()
        assert new.den_witness.verify(new.den, 2)

    def test_a_cancelled_argument_denominator_leaves_a_witnessed_power(self):
        # x0*x1 after ((x1^2 + 1)*x1/q0, x0/(x1^2 + 1)): q1 = x1^2 + 1 cancels
        # and leaves q0 = (x0 + 1)^4 + 1, which only its hint can witness
        shift = Expr.parse("x0 + 1", 2)
        q0 = shift**4 + 1
        w0 = PositivityWitness(((Fraction(1), _terms_key((shift * shift).num)),), Fraction(1))
        assert expr.derive_witness(q0.num, 2) is None
        a0 = Expr(2, Expr.parse("(x1^2 + 1)*x1", 2).num, q0.num, w0)
        a1 = Expr.parse("x0/(x1^2 + 1)", 2)
        fn = Expr.parse("x0*x1", 2)
        new = fn.compose([a0, a1])
        assert new.canonical_key() == _fold_compose(fn, [a0, a1]).canonical_key()
        assert Expr(2, new.den) == q0 and new.den_witness == w0

    def test_unread_rational_arguments_take_the_polynomial_path(self):
        x0 = Expr.variable(2, 0)
        args = [x0, Expr.parse("x1/(x0^2 + 1)", 2)]
        fn = Expr.parse("x0 + 1", 2)
        with mock.patch.object(expr, "_compose_rational",
                               side_effect=AssertionError("rational path taken")):
            result = fn.compose(args)
        assert result.is_polynomial
        assert result == _compose_rational(fn, args) == x0 + 1


# -- the coefficient rule -----------------------------------------------------


def _typed(terms):
    """The items of terms in dict order, each with its coefficient's type."""
    return [(mono, c, type(c)) for mono, c in terms.items()]


def _all_stored(e: Expr) -> bool:
    """Every coefficient of e, and of its witness's squares and expansion,
    obeys the rule, and none is zero."""
    tables = [e.num, e.den]
    if e.den_witness is not None:
        tables.append(_witness_expansion(e.den_witness, e.arity))
        tables += [dict(key) for _, key in e.den_witness.squares]
    return all(_stored(c) and c for terms in tables for c in terms.values())


def _built(*thunks) -> list:
    """The Exprs the thunks build, an ExprVec's components one by one; a
    thunk that raises ExprError (an uncertified denominator, a division by
    zero) builds nothing."""
    out = []
    for thunk in thunks:
        try:
            value = thunk()
        except ExprError:
            continue
        out.extend(value if isinstance(value, ExprVec) else [value])
    return out


class TestCoefficientRule:
    """A stored coefficient is an int when it is an integer and a Fraction
    only when its denominator exceeds 1: never a float, never an integral
    Fraction."""

    @_property
    @given(st.one_of(exprs(), witnessed_rationals()), st.one_of(exprs(), witnessed_rationals()),
           st.lists(st.one_of(polys(), witnessed_rationals()), min_size=ARITY, max_size=ARITY),
           st.integers(0, 3))
    def test_every_operation_stores_by_the_rule(self, a, b, args, k):
        built = _built(
            lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b, lambda: a**k, lambda: -a,
            lambda: a * 6, lambda: a / 4, lambda: 3 - a, lambda: a * Fraction(2, 3),
            lambda: a.compose(args), lambda: ExprVec([a, b, a * b]).compose(args),
            lambda: a.differentiate(0), lambda: a.differentiate(1),
            lambda: Expr.parse(a.to_str(), ARITY), lambda: a.lift(ARITY + 1, 1),
        )
        assert built
        for e in [a, b, *args, *built]:
            assert _all_stored(e), e

    @_property
    @given(st.dictionaries(_monomials(ARITY), _coeffs, max_size=4),
           st.dictionaries(_monomials(ARITY), _coeffs, max_size=4))
    def test_the_public_constructor_stores_any_rational_by_the_rule(self, num, den):
        # integral Fractions given to Expr(...) are stored as ints, and
        # zeros are dropped
        assert _all_stored(Expr(ARITY, num))
        try:
            e = Expr(ARITY, num, den)
        except ExprError:
            return
        assert _all_stored(e)


class TestDivisionSites:
    """Each division of two coefficients builds Fraction(a, b): `/` on two
    int coefficients would make a float."""

    def test_exact_division(self):
        assert _typed(_div_exact({(2,): 6, (1,): 4}, {(1,): 2})) == [
            ((1,), 3, int), ((0,), 2, int)]
        assert _typed(_div_exact({(1,): 3}, {(1,): 2})) == [((0,), Fraction(3, 2), Fraction)]

    def test_monic(self):
        assert _typed(expr._monic({(1,): 2, (0,): 4})) == [((1,), 1, int), ((0,), 2, int)]
        assert _typed(expr._monic({(1,): 3, (0,): 1})) == [
            ((1,), 1, int), ((0,), Fraction(1, 3), Fraction)]

    def test_quadratic_witness(self):
        # x^2 + 2x + 2 = (x + 1)^2 + 1: b*b/(4a) and b/(2a) are integers
        terms = {(2,): 1, (1,): 2, (0,): 2}
        w = expr._witness_quadratic(terms, 1)
        assert w.constant == 1 and w.verify(terms, 1)
        assert _typed(dict(w.squares[0][1])) == [((0,), 1, int), ((1,), 1, int)]
        # 2x^2 + 2x + 1 = 2(x + 1/2)^2 + 1/2
        terms = {(2,): 2, (1,): 2, (0,): 1}
        w = expr._witness_quadratic(terms, 1)
        assert w.constant == Fraction(1, 2) and w.verify(terms, 1)
        assert _typed(dict(w.squares[0][1])) == [((0,), Fraction(1, 2), Fraction), ((1,), 1, int)]

    def test_a_float_given_to_the_constructor_is_taken_exactly(self):
        assert _typed(Expr(1, {(1,): 0.5, (0,): 2.0}).num) == [
            ((1,), Fraction(1, 2), Fraction), ((0,), 2, int)]

    def test_constant_value_eval_and_constant_point_are_fractions(self):
        seven = Expr.parse("7", 1)
        assert seven.constant_value() == 7 and type(seven.constant_value()) is Fraction
        assert Expr.parse("7/2", 1).constant_value() == Fraction(7, 2)
        assert type(seven.eval([3])) is Fraction
        point = ExprVec.parse(["7", "0", "-4/6"], 1).constant_point()
        assert point == (7, 0, Fraction(-2, 3))
        assert all(type(v) is Fraction for v in point)

    def test_normalize_divides_by_a_constant_denominator(self):
        assert _typed(Expr(1, {(1,): 4}, {(0,): 2}).num) == [((1,), 2, int)]
        assert _typed(Expr(1, {(1,): 3}, {(0,): 2}).num) == [((1,), Fraction(3, 2), Fraction)]
        # 6x(x + 1) / 3(x + 1): the gcd leaves the constant 3
        e = Expr(1, {(2,): 6, (1,): 6}, {(1,): 3, (0,): 3})
        assert _typed(e.num) == [((1,), 2, int)] and _typed(e.den) == [((0,), 1, int)]

    def test_normalize_scales_the_leading_coefficient(self):
        e = Expr.parse("4*x0/(2*x0^2 + 2)", 1)
        assert _typed(e.num) == [((1,), 2, int)]
        assert _typed(e.den) == [((2,), 1, int), ((0,), 1, int)]
        assert e.den_witness.lower_bound() == 1 and e.den_witness.verify(e.den, 1)
        assert _typed(Expr.parse("x0/(2*x0^2 + 2)", 1).num) == [((1,), Fraction(1, 2), Fraction)]

    def test_bounds_of_a_quotient(self):
        bounds = expr_bounds(Expr.parse("1/(x0^2 + 1)", 1), Box.of((0, 1)))
        assert bounds == (Fraction(1, 2), 1)
        assert not any(isinstance(v, float) for v in bounds)

    def test_sparse_vanishing_solve(self):
        # x0^2*x1 - 7/3*x0*x1 = (x0/3) * (3*x0*x1 - 7*x1); 1/3 is no float
        r2 = spaces.euclidean_space(2)
        sub = spaces.subset_space("s", r2, [Expr.parse("3*x0*x1 - 7*x1", 2)])
        assert spaces.vanishes_on_carrier(sub, Expr.parse("x0^2*x1 - 7/3*x0*x1", 2))
        assert not spaces.vanishes_on_carrier(sub, Expr.parse("x0^2*x1 - 2*x0*x1", 2))


class TestIntegerInputsBuildNoFraction:
    """On Z[x] inputs the kernel's raw-term steps and the Expr operators
    that run them build no Fraction at all."""

    def test_no_fraction_is_constructed(self, monkeypatch):
        a = {(2, 0): 3, (1, 1): -2, (0, 0): 5}
        b = {(1, 0): 1, (0, 1): -4, (0, 0): 1}
        p = Expr.parse("x0*x1 - 2", 2)
        built = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        parsed = Expr.parse("3*x0^2 - 2*x0*x1 + 5 - (x0 + 1)^3*x1 + 2^3*x1^2", 2)
        _mul(a, b)
        _add(a, b)
        expr._pow(b, 3, 2)
        expr._diff(a, 0)
        expr._subst_poly(a, [b, a], 2)
        ExprVec([parsed, p]).compose([p, parsed + p])
        (parsed * p - p) ** 2
        parsed.differentiate(1)
        monkeypatch.undo()
        assert built == []


class TestSharedFactorTable:
    """`ExprVec.compose` builds each power of an argument once for all of
    its polynomial components, and equals a compose per component."""

    @staticmethod
    def compose_counting(vec, args, monkeypatch):
        built = []
        original = expr._subst_factor

        def counting(arg, e, den, out_arity):
            # each argument's terms are a dict of their own
            built.append((id(arg), e, den is None))
            return original(arg, e, den, out_arity)

        monkeypatch.setattr(expr, "_subst_factor", counting)
        try:
            return _outcome(lambda f, a: f.compose(a), vec, args), built
        finally:
            monkeypatch.undo()

    @staticmethod
    def assert_same(got, want):
        assert (got is None) == (want is None)
        for g, w in zip(got or (), want or (), strict=True):
            assert g.canonical_key() == w.canonical_key()
            assert list(g.num.items()) == list(w.num.items())
            assert list(g.den.items()) == list(w.den.items())

    def test_a_power_is_built_once_per_composition(self, monkeypatch):
        vec = ExprVec.parse(["x0^2*x1 + x1^3", "x0^2 - x1^3 + x0*x1", "x0^2*x1^3", "x1"], 2)
        args = [Expr.parse("x0 + 2*x1", 2), Expr.parse("x0*x1 - 1", 2)]
        per_component = [c.compose(args) for c in vec]
        got, built = self.compose_counting(vec, args, monkeypatch)
        assert sorted(e for _, e, _ in built) == [1, 1, 2, 3]
        self.assert_same(got, per_component)

    @_property
    @given(st.lists(st.one_of(polys(), witnessed_rationals()), min_size=1, max_size=4),
           st.lists(st.one_of(polys(), witnessed_rationals()), min_size=ARITY, max_size=ARITY))
    def test_compose_equals_a_compose_per_component(self, components, args):
        vec = ExprVec(components)
        try:
            per_component = [c.compose(args) for c in vec]
        except ExprError:
            per_component = None
        with pytest.MonkeyPatch.context() as monkeypatch:
            got, built = self.compose_counting(vec, args, monkeypatch)
        self.assert_same(got, per_component)
        # a rational component substitutes into its numerator and
        # denominator with a table of its own
        if all(e.is_polynomial for e in [*components, *args]):
            assert len(built) == len(set(built))
