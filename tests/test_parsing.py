"""Text grammar for rationals, Laurent polynomials, and polynomials."""

from fractions import Fraction

import pytest

from polydegen import ParseError, parse_laurent, parse_poly, parse_rational
from polydegen.multipoly import MultiPoly


def test_parse_rational():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+3/9") == Fraction(1, 3)
    for bad in ("", "7/", "/2", "1.5", "a", "1/0"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_parse_poly_basics():
    p = parse_poly("x1^2*x2 - 3", arity=3)
    assert p == MultiPoly.monomial(3, (2, 1, 0)) - MultiPoly.constant(3, 3)
    assert parse_poly("0", arity=2).is_zero()
    assert parse_poly("-x1", arity=1) == -MultiPoly.variable(1, 1)


def test_arity_inference():
    assert parse_poly("x2*x4").arity == 4
    assert parse_poly("t + 1").arity == 1
    assert parse_poly("x1", arity=5).arity == 5


def test_parentheses_and_signs():
    assert parse_poly("(x1 + 1)*(x1 - 1)", arity=1) == parse_poly("x1^2 - 1", arity=1)
    assert parse_poly("-(x1 - 1)", arity=1) == parse_poly("1 - x1", arity=1)
    assert parse_poly("+x1", arity=1) == parse_poly("x1", arity=1)
    assert parse_poly("(t + 1)^3", arity=1) == parse_poly(
        "t^3 + 3*t^2 + 3*t + 1", arity=1
    )


def test_negative_exponents():
    assert parse_poly("t^-2", arity=1) == parse_poly("(t^-1)^2", arity=1)
    assert parse_poly("(2*t)^-1", arity=1) == parse_poly("1/2*t^-1", arity=1)
    # only constant units may carry negative exponents
    with pytest.raises(ParseError):
        parse_poly("x1^-1")
    with pytest.raises(ParseError):
        parse_poly("(t + 1)^-1")


def test_implicit_multiplication_is_rejected():
    for bad in ("2x1", "x1x2", "t x1", "3(x1+1)"):
        with pytest.raises(ParseError):
            parse_poly(bad, arity=3)


def test_malformed_inputs():
    for bad in ("", "x1 +", "* x1", "x0", "x", "(x1", "x1)", "x1^", "x1^x2", "1//2"):
        with pytest.raises(ParseError):
            parse_poly(bad, arity=3)


def test_arity_too_small():
    with pytest.raises(ParseError):
        parse_poly("x3", arity=2)


def test_parse_laurent_rejects_variables():
    assert parse_laurent("-2/3*t^-2 + 1") == parse_poly("-2/3*t^-2 + 1", arity=1).as_laurent()
    with pytest.raises(ParseError):
        parse_laurent("x1")


def test_whitespace_is_flexible():
    assert parse_poly("x1+x2", arity=2) == parse_poly(" x1  +  x2 ", arity=2)


def test_overlong_digit_strings_are_parse_errors():
    # longer than Python converts from text by default (4300 digits)
    digits = "9" * 5000
    for text in (f"x1^{digits}", f"{digits}*x1", f"x{digits}", f"1/{digits}"):
        with pytest.raises(ParseError, match="number too long"):
            parse_poly(text)
    with pytest.raises(ParseError, match="number too long"):
        parse_rational(digits)
