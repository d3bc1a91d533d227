"""Algebraic laws of the expression core, checked on generated expressions.

They guard the fast paths: substitution of polynomial arguments on raw term
dictionaries, rational substitution over one common denominator (against
the Expr-arithmetic fold it replaced, which may keep a larger denominator
but never a smaller one), the unit-denominator shortcut in normalisation, evaluation
on ints over one common denominator, parsing on raw terms with int
coefficients (equal, in dict order too, to the Expr-operator fold it
replaced), compose and differentiate taking a
polynomial's stored denominator to be exactly 1, multiplication on plain
ints when both factors have integer coefficients, addition of two integer
coefficients on plain ints, the heuristic gcd (equal to the PRS gcd, which
stays as its fallback), and the memos of rational arithmetic (a hit equals
a fresh result, and nothing a caller holds can change a later hit).
"""

import operator
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diffeokit import expr
from diffeokit.expr import (
    Expr,
    ExprError,
    PositivityWitness,
    _add,
    _common_denominator,
    _compose_rational,
    _div_exact,
    _divides_z,
    _eval,
    _gcd,
    _gcd_of_items,
    _gcd_prs,
    _heu_gcd,
    _memo_gcd,
    _mul,
    _primitive_z,
    _terms_key,
    _total_degree,
    _witness_expansion,
)

ARITY = 2

_property = settings(max_examples=60)

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
        _gcd_of_items.cache_clear()
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


_integral = st.integers(-4, 4).filter(bool).map(Fraction)
_rational = _coeffs.filter(bool)


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
        assert all(type(c) is Fraction and c for c in product.values())


class TestIntegerAddition:
    @_property
    @given(factor_pairs())
    def test_add_equals_the_fraction_sum(self, pair):
        a, b = pair
        total = _add(a, b)
        assert total == _reference_add(a, b)
        assert list(total) == list(_reference_add(a, b))
        assert all(type(c) is Fraction and c for c in total.values())


def _split_witness(e: Expr) -> Expr:
    """e with a second witness for the same denominator: each square is
    written as two halves, so the terms agree and the witnesses do not."""
    w = e.den_witness
    halves = tuple(sq for weight, key in w.squares for sq in [(weight / 2, key)] * 2)
    return Expr(e.arity, dict(e.num), dict(e.den), PositivityWitness(halves, w.constant))


def _fresh_compose(fn: Expr, args) -> tuple:
    """(canonical key, witness) of fn(args) with the compose memo bypassed."""
    return _compose_rational.__wrapped__(
        (fn.canonical_key(), fn.den_witness),
        tuple((a.canonical_key(), a.den_witness) for a in args),
    )


class TestRationalMemos:
    @_property
    @given(witnessed_rationals(), st.lists(st.one_of(polys(), witnessed_rationals()),
                                           min_size=ARITY, max_size=ARITY))
    def test_memoised_compose_equals_a_fresh_compose(self, fn, args):
        _compose_rational.cache_clear()
        try:
            cold = fn.compose(args)
        except ExprError as err:
            # a rational of rationals may have no certified denominator;
            # failures are not memoised, so it fails the same way again
            with pytest.raises(ExprError, match=re.escape(str(err))):
                fn.compose(args)
            return
        warm = fn.compose(args)
        assert _compose_rational.cache_info().hits == 1
        fresh_key, fresh_witness = _fresh_compose(fn, args)
        for result in (cold, warm):
            assert result.canonical_key() == fresh_key
            assert result.den_witness == fresh_witness
        assert warm.num is not cold.num and warm.den is not cold.den

    @_property
    @given(witnessed_rationals(), st.lists(polys(), min_size=ARITY, max_size=ARITY),
           st.lists(polys(), min_size=ARITY, max_size=ARITY))
    def test_compose_memo_keys_on_every_argument_and_witness(self, fn, args, other_args):
        split = _split_witness(fn)
        assert split.canonical_key() == fn.canonical_key()
        assert split.den_witness != fn.den_witness
        for f, a in ((fn, args), (split, args), (fn, other_args), (split, other_args)):
            result = f.compose(a)
            assert (result.canonical_key(), result.den_witness) == _fresh_compose(f, a)

    @_property
    @given(polys(), polys(), quadratic_dens(), polys())
    def test_gcd_memo_equals_the_uncached_gcd(self, p, q, d, factor):
        # a shared factor makes most of these gcds non-trivial
        common = factor.num
        a = _mul(p.num, common)
        for b in (_mul(d.num, common), _mul(q.num, common), d.num):
            assert _memo_gcd(a, b, ARITY) == _gcd(a, b, ARITY)

    @_property
    @given(polys(), quadratic_dens())
    def test_a_mutated_gcd_result_leaves_the_next_hit_unchanged(self, p, d):
        _gcd_of_items.cache_clear()
        first = _memo_gcd(p.num, d.num, ARITY)
        expected = dict(first)
        first[(5, 5)] = Fraction(7)
        first.pop((0, 0), None)
        assert _memo_gcd(p.num, d.num, ARITY) == expected == _gcd(p.num, d.num, ARITY)
        assert _gcd_of_items.cache_info().hits == 1

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
# cancels to zero and comes back, so it moves to the end of the dict in the
# Fraction loop of `_mul` (rational factors) and not in its int loop
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
            assert all(type(c) is Fraction and c for c in terms.values())

    def test_rendering_keeps_the_tree(self):
        tree = ("sub", ("var", 0), ("neg", ("pow", ("add", ("var", 0), ("num", 1)), 2)))
        assert _render(tree) == "x0 - -(x0 + 1)^2"
        assert _render(("div", ("num", 1), ("mul", ("num", 2), ("var", 0)))) == "1/(2*x0)"
        assert _render(_CANCEL_AND_RETURN[1]) == "(x0 + x1 + x0*x1 + 1/2)*(x1 - x0 + 1)"


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
        # no witnessed denominator vanishes on R^n; a key that bypasses the
        # witness check shows that eval still refuses to divide by zero
        x0 = Expr.variable(1, 0)
        bogus = Expr._from_key((1, _terms_key(x0.num), _terms_key(x0.num)),
                               (1 / (x0**2 + 1)).den_witness)
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
    """fn(args) by the rational path, memo bypassed, on the Expr fold."""
    with mock.patch.object(expr, "_subst_terms", _fold_subst_terms):
        return Expr._from_key(*_fresh_compose(fn, args))


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
        assert all(type(c) is Fraction for c in out.values())

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
            assert all(type(c) is Fraction for c in out.values())
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
        before = _compose_rational.cache_info()
        result = fn.compose(args)
        assert _compose_rational.cache_info() == before
        assert result.is_polynomial
        assert result == Expr._from_key(*_fresh_compose(fn, args)) == x0 + 1
