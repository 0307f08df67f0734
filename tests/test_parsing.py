"""Text grammar for rationals, Laurent polynomials, and polynomials.

The round trip runs hypothesis derandomized, so every run draws the same
examples.
"""

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydegen import ParseError, parse_poly, parse_rational
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
    assert p == MultiPoly(3, {(2, 1, 0, 0): 1}) - MultiPoly.constant(3, 3)
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
    for bad in ("", "x1 +", "* x1", "x0", "x", "(x1", "x1)", "x1^", "x1^x2", "1//2", "1/0*x1"):
        with pytest.raises(ParseError):
            parse_poly(bad, arity=3)
    # without an arity, a stray character is an error before any variable
    # sizes the keys
    for bad in ("x1 $ x99999999999", "x99999999999 + 1;"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_poly(bad)
    # a given or inferred arity is bounded before it sizes the keys
    for text, arity in (("x2345678901234567890", None), ("x1", 0), ("x1", 65)):
        with pytest.raises(ParseError, match="outside 1..64"):
            parse_poly(text, arity)
    assert parse_poly("x64") == MultiPoly.variable(64, 64)


def test_arity_too_small():
    with pytest.raises(ParseError):
        parse_poly("x3", arity=2)


def test_deep_nesting_is_a_parse_error():
    assert parse_poly("(" * 100 + "x1" + ")" * 100) == MultiPoly.variable(1, 1)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly("(" * 5000 + "x1" + ")" * 5000)


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


@st.composite
def polys(draw):
    """A MultiPoly with negative t powers, several t powers per monomial of
    the variables (rendered as '(...)*x...'), 12-digit-plus numerators and
    denominators, and terms cancelled away, possibly all of them."""
    arity = draw(st.integers(1, 4))
    keys = st.tuples(*(st.integers(0, 2) for _ in range(arity)), st.integers(-3, 3))
    coeffs = st.builds(
        Fraction,
        st.one_of(st.integers(-9, 9), st.integers(-10**15, 10**15)),
        st.one_of(st.integers(1, 12), st.integers(10**12, 10**13)),
    )
    terms = draw(st.dictionaries(keys, coeffs, max_size=8))
    cancelled = draw(st.sets(st.sampled_from(sorted(terms)))) if terms else set()
    return MultiPoly(arity, terms) - MultiPoly(arity, {k: terms[k] for k in cancelled})


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(polys())
def test_canonical_text_round_trips(p):
    text = str(p)
    assert parse_poly(text, p.arity) == p
    # without an arity, the largest variable index that occurs (at least 1)
    inferred = parse_poly(text)
    used = [i + 1 for powers, _ in p.terms() for i, e in enumerate(powers[:-1]) if e]
    assert inferred.arity == max([1, *used])
    assert inferred.extend_arity(p.arity) == p


def _non_canonical():
    x1, x2, x3 = (MultiPoly.variable(3, i) for i in (1, 2, 3))
    t = MultiPoly.parameter(3)
    half_t_inv = MultiPoly(3, {(0, 0, 0, -1): Fraction(1, 2)})
    return [
        ("((x1 + (t)))*((2))", (x1 + t) * 2),
        ("(x1+x2)^3", (x1 + x2) ** 3),
        ("-(x1 - 2*x2)", -(x1 - 2 * x2)),
        ("((2*t)^-1)^2", half_t_inv**2),
        ("x1*x1^2", x1**3),
        ("x2*x1*t*x1*3/4*x2^0", x1**2 * x2 * t * Fraction(3, 4)),
        ("2/4*x1 + x1 - 3/2*x1", MultiPoly.zero(3)),
        ("3*(x1 + 1)*x2*(x1 - 1)^2*t^-1", 3 * (x1 + 1) * x2 * (x1 - 1) ** 2 * half_t_inv * 2),
        ("(t^-1*x1)^2*(x1 + t) - x1^3*t^-2", x1**2 * t**-1),
        ("(x1 - x1)^0 + (x2 - x2)*x3", MultiPoly.one(3)),
        ("(-34/5*t)*x1^4 + (t^-1 + 3*t^2)*x3", Fraction(-34, 5) * t * x1**4 + (t**-1 + 3 * t**2) * x3),
        (" x1 *  x2 ^ 2 -  3/4 * t ^ - 1 ", x1 * x2**2 - Fraction(3, 4) * t**-1),
        ("\t-\n(x3)\n", -x3),
    ]


NON_CANONICAL = _non_canonical()


@pytest.mark.parametrize(("text", "expected"), NON_CANONICAL, ids=[t for t, _ in NON_CANONICAL])
def test_non_canonical_input_matches_arithmetic(text, expected):
    assert parse_poly(text, arity=3) == expected


# A variable power written without spaces is one token; each result and
# error message below was measured before it was, when 'x1^2' was two.
VARIABLE_POWERS = [
    ("x1^2", None, "x1^2"),
    ("x1 ^ 2", None, "x1^2"),
    ("x1^-1", None, "negative power of a non-unit: (x1)^-1"),
    ("x1^2/3", None, "exponent must be an integer, found '2/3'"),
    ("x1^23/4", None, "exponent must be an integer, found '23/4'"),
    ("x1^007", None, "x1^7"),
    ("x1^2147483647*x1", None, "a product has a variable exponent above 2147483647"),
    ("x1^2147483648", None, "a power has a variable exponent above the bound 2147483647"),
    ("x2^0*x1", None, "x1"),
    ("x99^2", 3, "variable x99 out of range for arity 3"),
    ("x3^2", None, "x3^2"),
    ("x1^2^3", None, "trailing input from token '^3'"),
    ("x1^2x2", None, "trailing input from token 'x2'"),
]


@pytest.mark.parametrize(("text", "arity", "expected"), VARIABLE_POWERS,
                         ids=[t for t, _, _ in VARIABLE_POWERS])
def test_variable_powers_read_as_before(text, arity, expected):
    try:
        result = str(parse_poly(text, arity))
    except ParseError as exc:
        result = str(exc)
    assert result == expected
    if expected == "x3^2":
        assert parse_poly(text).arity == 3


def test_a_zero_factor_stops_the_overflow_check():
    # as in the kernel, a product with a zero operand is zero and checks nothing
    top = "x1^2147483647"
    assert parse_poly(f"0*{top}*{top}").is_zero()
    assert parse_poly("(0*x1)^3000000000 + (x1 - x1)^0") == parse_poly("1")
    with pytest.raises(ParseError, match="above"):
        parse_poly(f"{top}*{top}*0")


def test_scalar_powers_stop_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    # 2^largest has at most `limit` digits, 2^(largest + 1) more
    largest = (10**limit).bit_length() - 1
    assert parse_poly(f"2^{largest}*x1") == MultiPoly(1, {(1, 0): 2**largest})
    assert parse_poly(f"(1/2*t)^-{largest}") == parse_poly(f"2^{largest}*t^-{largest}")
    for text in (f"2^{largest + 1}*x1", f"(1/2)^{largest + 1}", f"(2*t)^-{largest + 1}",
                 f"(2*x1)^{largest + 1}"):
        with pytest.raises(ParseError, match="digits"):
            parse_poly(text)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="digits"):
        parse_poly("7^20000000*x1")
    assert time.perf_counter() - start < 1.0
    # units stay cheap at any exponent
    assert parse_poly("(-1)^99999999999*t^99999999999") == -MultiPoly.parameter(1) ** 99999999999


def test_error_messages_stay_short():
    digits = "9" * 4000
    for text in (f"({digits}*{digits}*x1)^-1", f"({digits}*x1 + {digits}*x2)^-1",
                 f"x1 {digits}", f"(x1 {digits})", f"x1^{digits}/3"):
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert len(str(exc.value)) < 200
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly("1/0*x1")
