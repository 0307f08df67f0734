"""Scalars of Q[t, 1/t]: Laurent polynomials in t, held as constant MultiPolys."""

import random
from fractions import Fraction

import pytest

from conftest import rand_laurent, rand_rational
from polydegen import MultiPoly, parse_poly
from polydegen.errors import NonUnit, PoleAtZero

ZERO = MultiPoly.zero(1)
ONE = MultiPoly.one(1)
T = MultiPoly.parameter(1)


def L(text):
    scalar = parse_poly(text, arity=1)
    assert scalar.is_constant()
    return scalar


def test_zero_and_constants():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert MultiPoly.constant(1, 0) == ZERO
    assert MultiPoly(1, {(0, 2): 0, (0, 3): 1}) == T**3
    assert MultiPoly.constant(1, Fraction(3, 6)) == MultiPoly.constant(1, Fraction(1, 2))


def test_term_normalization_drops_cancellations():
    total = L("(1 + t^2)") + L("(1 - t^2)")
    assert total == L("2")
    assert list(total.terms()) == [((0, 0), Fraction(2))]


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(60):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_integer_and_fraction_coercion():
    p = L("(1 + t)")
    assert p + 1 == L("(2 + t)")
    assert 1 + p == L("(2 + t)")
    assert p * 2 == L("(2 + 2*t)")
    assert 3 - p == L("(2 - t)")
    assert p - Fraction(1, 2) == L("(1/2 + t)")


def test_pow():
    p = L("(1 + t)")
    assert p**0 == ONE
    assert p**3 == L("(1 + 3*t + 3*t^2 + t^3)")
    assert T**-2 == L("(t^-2)")
    with pytest.raises(NonUnit):
        p**-1


def test_units_by_mode():
    monomial = L("(-2/3*t^5)")
    assert monomial.is_unit()
    assert L("5").is_unit()
    assert not L("(1 + t)").is_unit()
    assert not ZERO.is_unit()
    assert not parse_poly("x1", 1).is_unit()
    assert monomial * monomial**-1 == ONE
    assert L("5") ** -1 == L("1/5")
    with pytest.raises(NonUnit):
        L("(1 + t)") ** -1
    with pytest.raises(NonUnit):
        ZERO**-1


def test_exact_divide_examples():
    assert L("(-1 + t^2)").exact_divide(L("(-1 + t)")) == L("(1 + t)")
    assert L("(-1 + t^2)").exact_divide(L("(2 + t)")) is None
    # t is a unit, so pure t-shifts never obstruct divisibility
    assert L("(t^-3 + t^-2)").exact_divide(L("(t^4 + t^5)")) == L("(t^-7)")
    assert ZERO.exact_divide(L("(t)")) == ZERO


def test_exact_divide_random_products():
    rng = random.Random(202)
    for _ in range(60):
        a = rand_laurent(rng)
        b = rand_laurent(rng)
        if a.is_zero() or b.is_zero():
            continue
        q = (a * b).exact_divide(b)
        assert q == a


def test_evaluate():
    p = L("(2*t^-1 + t^2)")
    assert p.specialize_t(2) == L("5")
    assert p.specialize_t(Fraction(1, 2)) == L("17/4")
    with pytest.raises(PoleAtZero):
        p.specialize_t(0)
    assert L("(-t + t^2)").specialize_t(0) == ZERO
    assert L("(-t + t^2)").is_t_regular()
    assert not p.is_t_regular()


def test_rational_constant_detection():
    # a rational constant prints bare, in lowest terms with its sign up
    # front, and any other scalar parenthesised
    assert str(MultiPoly.constant(1, Fraction(7, 3))) == "7/3"
    assert str(-ONE) == "-1"
    assert str(MultiPoly.constant(1, Fraction(-4, 6))) == "-2/3"
    assert str(T) == "(t)"
    assert str(3 + T - T) == "3"


def test_format_rational():
    # rationals render in lowest terms, sign first, with no "/1"
    assert str(MultiPoly.constant(1, Fraction(3))) == "3"
    assert str(MultiPoly.constant(1, Fraction(-3, 7))) == "-3/7"
    assert str(MultiPoly.constant(1, Fraction(6, -14))) == "-3/7"


def test_str_round_trip_random():
    rng = random.Random(303)
    for _ in range(60):
        p = rand_laurent(rng)
        assert L(str(p)) == p


def test_str_fixed_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    scalar = MultiPoly(1, {(0, -2): Fraction(-2, 3), (0, 0): 1, (0, 3): 5})
    assert str(scalar) == "(-2/3*t^-2 + 1 + 5*t^3)"
    assert str(-T) == "(-t)"
    assert str(T**2 - T) == "(-t + t^2)"


def test_random_rationals_are_normalized():
    rng = random.Random(404)
    for _ in range(30):
        q = rand_rational(rng)
        assert q.denominator > 0
