"""Exactness and canonical-form tests for the expression core."""

from fractions import Fraction
import random
import re

import pytest

from diffeokit import expr
from diffeokit.expr import Expr, ExprVec, ExprError


def E(text, arity):
    return Expr.parse(text, arity)


class TestCanonicalForm:
    def test_like_terms_merge(self):
        assert E("x0*x1 + x1*x0", 2) == E("2*x0*x1", 2)

    def test_zero_terms_drop(self):
        assert E("0*x0 + 3", 1) == Expr.constant(1, 3)
        assert E("x0 - x0", 1) == Expr.zero(1)

    def test_given_zero_coefficients_are_not_stored(self):
        e = Expr(1, {(1,): Fraction(0)})
        assert e.is_zero()
        assert e == Expr.zero(1)
        assert Expr(1, {(1,): Fraction(0), (0,): Fraction(2)}).num == {(0,): Fraction(2)}

    def test_zero_term_in_a_given_denominator_is_dropped(self):
        num = {(1,): Fraction(1)}
        den = {(2,): Fraction(1), (1,): Fraction(0), (0,): Fraction(1, 3)}
        cleaned = {(2,): Fraction(1), (0,): Fraction(1, 3)}
        assert Expr(1, num, den) == Expr(1, num, cleaned) == E("x0/(x0^2 + 1/3)", 1)

    def test_coefficients_stay_reduced(self):
        e = E("2/4", 1) if False else Expr.constant(1, Fraction(2, 4))
        assert e.constant_value() == Fraction(1, 2)

    def test_exact_polynomial_division(self):
        assert E("(x0^2 - 1)/(x0 - 1)", 1) == E("x0 + 1", 1)

    def test_uncertified_denominator_rejected(self):
        with pytest.raises(ExprError):
            E("1/(x0 - 1)", 1)

    def test_certified_denominator_accepted(self):
        e = E("1/(x0^2 + 1)", 1)
        assert not e.is_polynomial
        assert e.den_witness is not None
        assert e.den_witness.lower_bound() > 0

    def test_gcd_cancellation_keeps_certificate(self):
        # (x^2-1)*(x^2+1) / ((x-1)*(x^2+1)^2) reduces to (x+1)/(x^2+1)
        num = E("(x0^2 - 1)*(x0^2 + 1)", 1)
        den = E("(x0 - 1)*(x0^2 + 1)^2", 1)
        assert num / den == E("(x0 + 1)/(x0^2 + 1)", 1)

    def test_shifted_quadratic_denominator_certified(self):
        # not a sum of even powers, but completes the square
        e = E("1/(x0^2 - 2*x0 + 2)", 1)
        assert e.den_witness is not None
        assert e.eval([Fraction(1)]) == 1

    def test_monic_denominator(self):
        a = E("x0/(2*x0^2 + 2)", 1)
        b = E("(1/2)*x0", 1) / E("x0^2 + 1", 1)
        assert a == b

    def test_constructor_keeps_its_own_terms(self):
        terms = {(1,): Fraction(2), (0,): Fraction(1)}
        e = Expr(1, terms)
        terms[(2,)] = Fraction(5)
        assert e == E("2*x0 + 1", 1)

    def test_canonical_string_round_trip(self):
        e = E("x0^2*x1 + 3/2 - x1^3", 2)
        assert Expr.parse(e.to_str(), 2) == e

    def test_grlex_display_order(self):
        e = E("1 + x1 + x0 + x0*x1 + x0^2", 2)
        assert e.to_str() == "x0^2 + x0*x1 + x0 + x1 + 1"


class TestArithmetic:
    def test_field_identities(self):
        a = E("x0^2 + x1", 2)
        b = E("x1/(x0^2 + 1)", 2)
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) - b == a
        assert (a * b) / b == a

    def test_division_by_zero(self):
        with pytest.raises(ExprError):
            E("x0", 1) / Expr.zero(1)

    def test_pow(self):
        assert E("x0 + 1", 1) ** 3 == E("x0^3 + 3*x0^2 + 3*x0 + 1", 1)
        assert E("x0", 1) ** 0 == Expr.one(1)

    def test_rational_sum_with_common_denominator(self):
        a = E("x0/(x0^2 + 1)", 1)
        assert a + a == E("2*x0/(x0^2 + 1)", 1)

    def test_rational_product_cancels(self):
        a = E("x1/(x0^2 + 1)", 2)
        b = E("x0^2 + 1", 2)
        assert a * b == E("x1", 2)


class TestComposeEvalDifferentiate:
    def test_compose_example(self):
        f = E("x0*x1", 2)
        g = ExprVec.parse(["x0", "x0^3"], 1)
        assert f.compose(list(g)) == E("x0^4", 1)

    def test_chain_rule_commutes_with_compose(self):
        f = E("x0*x1", 2)
        g = ExprVec.parse(["x0", "x0^3"], 1)
        composed = f.compose(list(g))
        direct = composed.differentiate(0)
        via_chain = sum(
            (f.differentiate(i).compose(list(g)) * g[i].differentiate(0)
             for i in range(2)),
            Expr.zero(1),
        )
        assert direct == via_chain == E("4*x0^3", 1)

    def test_compose_through_rational(self):
        # the inverse-scaling shape (x, v/(x^2+1)) composed with a shift keeps
        # a certified denominator even though it is no longer even-powered
        inv_scale = E("x1/(x0^2 + 1)", 2)
        shifted = inv_scale.compose([E("x0 - 1", 2), E("x1", 2)])
        assert shifted == E("x1/(x0^2 - 2*x0 + 2)", 2)
        assert shifted.den_witness is not None

    def test_compose_rational_into_rational(self):
        inv_scale = ExprVec.parse(["x0", "x1/(x0^2 + 1)"], 2)
        twice = inv_scale.compose(inv_scale)
        assert twice[1] == E("x1/((x0^2 + 1)^2)", 2)

    def test_eval_matches_compose(self):
        rng = random.Random(11)
        f = E("x0^3 - 2*x0*x1 + 1/3", 2)
        g = ExprVec.parse(["x0^2 - 1", "2*x0"], 1)
        comp = f.compose(list(g))
        for _ in range(25):
            t = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            assert comp.eval([t]) == f.eval(g.eval([t]))

    def test_polynomial_compose_and_derivative_rescale_nothing(self, monkeypatch):
        # a polynomial's denominator is exactly 1: composing one divides by
        # nothing and differentiating one rescales by nothing
        f = E("x0^2*x1 - 3*x1 + 1/2", 2)
        args = [E("x0 + 1", 1), E("2*x0^3", 1)]
        composed = E("2*x0^5 + 4*x0^4 + 2*x0^3 - 6*x0^3 + 1/2", 1)
        derivatives = E("2*x0*x1", 2), E("10*x0^4 + 16*x0^3 - 12*x0^2", 1)

        def refuse(*_):
            raise AssertionError("polynomial path divided or rescaled")

        monkeypatch.setattr(Expr, "__truediv__", refuse)
        monkeypatch.setattr(expr, "_scale", refuse)
        assert f.compose(args) == composed
        assert (f.differentiate(0), composed.differentiate(0)) == derivatives

    def test_derivative_quotient_rule(self):
        e = E("x0/(x0^2 + 1)", 1)
        assert e.differentiate(0) == E("(1 - x0^2)/((x0^2 + 1)^2)", 1)

    def test_leibniz_randomized(self):
        rng = random.Random(7)
        for _ in range(20):
            a = _random_poly(rng, 2, 3)
            b = _random_poly(rng, 2, 3)
            lhs = (a * b).differentiate(0)
            rhs = a.differentiate(0) * b + a * b.differentiate(0)
            assert lhs == rhs

    def test_eval_denominator_never_vanishes(self):
        rng = random.Random(3)
        e = E("(x0 + x1)/(x0^2 + x1^2 + 1/2)", 2)
        for _ in range(50):
            p = [Fraction(rng.randint(-50, 50), rng.randint(1, 11)) for _ in range(2)]
            e.eval(p)  # must not raise


class TestEqualityIsFunctionEquality:
    def test_structural_equality_matches_pointwise(self):
        rng = random.Random(23)
        pool = [
            _random_poly(rng, 2, 3) / E("x0^2 + x1^2 + 1", 2)
            for _ in range(8)
        ] + [_random_poly(rng, 2, 3) for _ in range(8)]
        points = [
            [Fraction(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(2)]
            for _ in range(20)
        ]
        for a in pool:
            for b in pool:
                pointwise = all(a.eval(p) == b.eval(p) for p in points)
                # canonical equality is the authority; sampling must agree
                if a == b:
                    assert pointwise
                else:
                    assert not pointwise or a.to_str() == b.to_str()


class TestExprVec:
    def test_identity_compose(self):
        v = ExprVec.parse(["x0 + x1", "x0*x1"], 2)
        assert v.compose(ExprVec.identity(2)) == v

    def test_jacobian(self):
        v = ExprVec.parse(["x0^2", "x0*x1"], 2)
        jac = v.jacobian()
        assert jac[0][0] == E("2*x0", 2)
        assert jac[0][1] == Expr.zero(2)
        assert jac[1][0] == E("x1", 2)
        assert jac[1][1] == E("x0", 2)

    def test_lift(self):
        v = ExprVec.parse(["x0^2"], 1)
        assert v.lift(3, 1)[0] == E("x1^2", 3)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ExprError):
            ExprVec([E("x0", 1), E("x0", 2)])

    def test_empty_rejected(self):
        with pytest.raises(ExprError):
            ExprVec([])


def _random_poly(rng, arity, degree):
    e = Expr.zero(arity)
    for _ in range(rng.randint(1, 5)):
        mono = Expr.constant(arity, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for i in range(arity):
            mono = mono * Expr.variable(arity, i) ** rng.randint(0, degree)
        e = e + mono
    return e


class TestParser:
    def test_fraction_literal(self):
        assert E("3/2", 1).constant_value() == Fraction(3, 2)

    def test_precedence(self):
        assert E("x0 + 2*x0^2", 1) == E("2*x0^2 + x0", 1)
        assert E("-x0^2", 1) == -(E("x0", 1) ** 2)

    def test_nested_parentheses(self):
        assert E("((x0 + 1))*(x0 - 1)", 1) == E("x0^2 - 1", 1)

    @pytest.mark.parametrize("text", ["(" * 300 + "x0" + ")" * 300, "-" * 1200 + "x0"],
                             ids=["parentheses", "minuses"])
    def test_nesting_is_not_bounded_by_the_recursion_limit(self, text):
        assert E(text, 1) == E("x0", 1)

    def test_bad_input(self):
        for text in ["x0 +", "x9", "x0^(2)", "y0", "(x0", "x0 x0"]:
            with pytest.raises(ExprError):
                E(text, 1)
        # the grammar's digits are ASCII: other Unicode digits are refused
        # by name rather than read as numbers or passed to int()
        for text, char in [("x0\u00b2", "\u00b2"), ("x0^\u00b2", "\u00b2"),
                           ("\u0663*x0", "\u0663"), ("x\u0663", "x")]:
            with pytest.raises(ExprError, match=re.escape(repr(char))):
                E(text, 1)

    def test_negative_denominator_flips(self):
        assert E("x0/(0 - x0^2 - 1)", 1) == E("(0 - x0)/(x0^2 + 1)", 1)
