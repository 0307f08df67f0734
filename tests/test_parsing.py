"""The text forms: rationals, and polynomials read as their canonical text.

``parse_poly`` reads only what ``str(MultiPoly)`` writes.  The round trip
runs hypothesis derandomized, so every run draws the same examples; each
rule of the canonical form then has texts that break it.
"""

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
    # none: the arity is the one given, whichever variables occur
    assert parse_poly("x2*x4", 4).arity == 4
    assert parse_poly("(1 + t)", 1).arity == 1
    assert parse_poly("x1", arity=5).arity == 5
    with pytest.raises(TypeError):
        parse_poly("x1")


def test_parentheses_and_signs():
    x1, x2, t = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2), MultiPoly.parameter(2)
    # a group is parenthesised exactly when its coefficient is not a
    # rational, and it carries its own signs after a ' + '
    assert parse_poly("(-1 - t)*x1 - x2 + (1 - t)", 2) == -(1 + t) * x1 - x2 + 1 - t
    assert parse_poly("-1/2*x1 + 3", arity=2) == 3 - x1 / 2


def test_negative_exponents():
    t = MultiPoly.parameter(1)
    assert parse_poly("(-1/2*t^-12 + t^-1)", arity=1) == t**-1 - t**-12 / 2
    # only t carries a negative exponent
    for bad in ("x1^-1", "(1 + t)^-1", "(t)^-1"):
        with pytest.raises(ParseError, match="at position"):
            parse_poly(bad, 1)


def test_implicit_multiplication_is_rejected():
    for bad in ("2x1", "x1x2", "t x1", "3(x1+1)"):
        with pytest.raises(ParseError):
            parse_poly(bad, arity=3)


def test_malformed_inputs():
    for bad in ("", "x1 +", "* x1", "x", "(x1", "x1)", "x1^", "x1^x2", "1//2", "x1 $ x2"):
        with pytest.raises(ParseError, match="at position"):
            parse_poly(bad, arity=3)
    # the arity is bounded before it sizes the keys
    for text, arity in (("x1", 0), ("x1", 65), ("x1", -1), ("x1 $ x99999999999", 2**64)):
        with pytest.raises(ParseError, match="outside 1..64"):
            parse_poly(text, arity)
    assert parse_poly("x64", 64) == MultiPoly.variable(64, 64)


def test_arity_too_small():
    with pytest.raises(ParseError):
        parse_poly("x3", arity=2)


def test_deep_nesting_is_a_parse_error():
    # no parenthesis nests in canonical text, so depth costs nothing
    for depth in (2, 100, 5000):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="at position"):
            parse_poly("(" * depth + "x1" + ")" * depth, 1)
        assert time.perf_counter() - start < 1.0


def test_overlong_digit_strings_are_parse_errors():
    # longer than Python converts from text by default (4300 digits)
    digits = "9" * 5000
    for text in (f"x1^{digits}", f"{digits}*x1", f"x{digits}", f"1/{digits}", f"({digits}*t)",
                 f"(t^{digits})"):
        with pytest.raises(ParseError, match="number too long"):
            parse_poly(text, 1)
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


# Each rule of the canonical form, with texts that break it.
RULES = {
    "groups in descending graded-lex order": (
        "x2 + x1", "x1 + x1", "1 + x1", "x1 + x1^2", "x2^2 + x1*x2", "x2 + (t)*x1",
    ),
    "powers of t ascending in a group": ("(t + 1)", "(t + t)", "(t^2 + t)*x1", "(1 + t^-1)"),
    "parentheses exactly where str writes them": (
        "(x1)", "(3)", "(-3)*x1", "((t))", "t", "t*x1", "3*t", "(t)*(x1)", "(7 + t)^2000*x1",
    ),
    "separators ' + ' and ' - ' and a leading '-' only": (
        "x1+x2", "x1  + x2", "x1 +x2", " x1", "x1 ", "+x1", "x1 + -x2", "-(t)", "x1 - (t)",
        "(- t)", "( t)", "(1 +t)", "x1 - -1",
    ),
    "no 1*, no ^1, no zero coefficient, and 0 only alone": (
        "1*x1", "-1*x1", "(1*t)", "x1^1", "(t^1)", "0*x1", "x1 + 0", "-0", "(0 + t)", "00",
        "0/1", "(t^0)", "x1^0",
    ),
    "no leading zero and no denominator 1": ("01*x1", "x01", "x1^02", "3/1", "3/01", "(t^-01)"),
    "variables in ascending order, in range and within the bound": (
        "x2*x1", "x1*x1", "x4", "x0", "x1^2147483648", "x1*x2^99999999999",
    ),
}


@pytest.mark.parametrize("texts", RULES.values(), ids=RULES.keys())
def test_each_rule_of_the_canonical_form_is_enforced(texts):
    for text in texts:
        with pytest.raises(ParseError, match="at position") as exc:
            parse_poly(text, arity=3)
        assert len(str(exc.value)) < 200, text


def test_the_exponent_bound_is_named():
    top = 2**31 - 1
    assert parse_poly(f"x1^{top}", 1) == MultiPoly(1, {(top, 0): 1})
    for text in (f"x1^{top + 1}", "x1^99999999999"):
        with pytest.raises(ParseError, match=f"above the bound {top}"):
            parse_poly(text, 1)


# The variable powers the general grammar was measured on, each read at
# arity 3: the canonical ones ('x1^2', 'x3^2') read as before, and each
# other text now fails with the position where it leaves the canonical form.
VARIABLE_POWERS = [
    ("x1^2", "x1^2"),
    ("x1 ^ 2", "not canonical text at position 2: ' ^ 2'"),
    ("x1^-1", "not canonical text at position 2: '^-1'"),
    ("x1^2/3", "not canonical text at position 4: '/3'"),
    ("x1^23/4", "not canonical text at position 5: '/4'"),
    ("x1^007", "not canonical text at position 2: '^007'"),
    ("x1^2147483647*x1", "variables out of order at position 0: 'x1^2147483647*x1'"),
    ("x1^2147483648",
     "exponent 2147483648 is above the bound 2147483647 at position 0: 'x1^2147483648'"),
    ("x2^0*x1", "not canonical text at position 2: '^0*x1'"),
    ("x99^2", "variable x99 out of range for arity 3 at position 0: 'x99^2'"),
    ("x3^2", "x3^2"),
    ("x1^2^3", "not canonical text at position 4: '^3'"),
    ("x1^2x2", "not canonical text at position 4: 'x2'"),
]


@pytest.mark.parametrize(("text", "expected"), VARIABLE_POWERS,
                         ids=[t for t, _ in VARIABLE_POWERS])
def test_variable_powers_read_as_before(text, expected):
    try:
        result = str(parse_poly(text, 3))
    except ParseError as exc:
        result = str(exc)
    assert result == expected


def test_a_coefficient_out_of_lowest_terms_reads_at_its_value():
    x1, t = MultiPoly.variable(1, 1), MultiPoly.parameter(1)
    assert parse_poly("2/4*x1 + (6/3*t^-1)", 1) == x1 / 2 + 2 * t**-1
    assert parse_poly("3/3*x1", 1) == x1


def test_error_messages_stay_short():
    digits = "9" * 4000
    for text in (f"({digits}*{digits}*x1)^-1", f"({digits}*x1 + {digits}*x2)^-1",
                 f"x1 {digits}", f"(x1 {digits})", f"x1^{digits}/3", f"x1^{digits}",
                 f"x{digits}"):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, arity=3)
        assert len(str(exc.value)) < 200
    with pytest.raises(ParseError, match="at position"):
        parse_poly("1/0*x1", 1)
