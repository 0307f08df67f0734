"""Sparse multivariate polynomials over the Laurent coefficient ring."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rand_poly, rand_poly_nonzero
from oracles import divide_by_linear_system, ref_render, ref_substitute
from polydegen import parse_poly
from polydegen import _kernel as K
from polydegen._kernel import MAX_EXPONENT
from polydegen.errors import (
    ArityMismatch,
    ExponentOverflow,
    NonUnit,
    ParseError,
    PoleAtZero,
    PolydegenError,
)
from polydegen.multipoly import MultiPoly


def P(text, arity=3):
    return parse_poly(text, arity=arity)


def test_constructors():
    assert MultiPoly.zero(3).is_zero()
    assert MultiPoly.one(3) == MultiPoly.constant(3, 1)
    assert MultiPoly.variable(3, 2) == P("x2")
    assert MultiPoly.parameter(3) == P("(t)")
    assert MultiPoly(3, {(2, 0, 1, 0): Fraction(-1, 3)}) == P("-1/3*x1^2*x3")
    with pytest.raises(ArityMismatch):
        MultiPoly.variable(3, 4)
    with pytest.raises(ArityMismatch):
        MultiPoly(3, {(1, 2, 0): 1})
    with pytest.raises(ValueError, match="negative variable exponent"):
        MultiPoly(2, {(-1, 0, 0): 1})
    # no constructor builds a polynomial without a variable
    builders = (MultiPoly, MultiPoly.zero, MultiPoly.one, MultiPoly.parameter,
                lambda n: MultiPoly.constant(n, 3), lambda n: MultiPoly.sum(n, []))
    for build in builders:
        for arity in (0, -2):
            with pytest.raises(ValueError, match="arity must be at least 1"):
                build(arity)


def test_zero_coefficients_are_dropped():
    p = P("x1 + x2") - P("x2")
    assert p == P("x1")
    assert p.term_count() == 1
    assert all(len(key) == 4 for key, _ in p.terms())


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == MultiPoly.zero(3)
        assert a * MultiPoly.one(3) == a


def test_coercion_with_scalars_and_laurent():
    p = P("x1")
    assert p + 1 == P("x1 + 1")
    assert 2 * p == P("2*x1")
    assert p - Fraction(1, 2) == P("x1 - 1/2")
    assert p * P("(t)") ** -1 == P("(t^-1)*x1")
    assert p / 2 == P("1/2*x1")
    with pytest.raises(ZeroDivisionError):
        p / 0
    # only an int, a Fraction or a polynomial multiplies a polynomial
    for product in (lambda: p * 1.5, lambda: p * None, lambda: "a" * p):
        with pytest.raises(TypeError):
            product()
    with pytest.raises(TypeError):
        p / P("x2")
    with pytest.raises(TypeError):
        p / P("(t)")
    with pytest.raises(NonUnit):
        p * P("(1 + t)") ** -1


def test_operands_of_another_arity_are_refused():
    a, b = P("x1", arity=2), P("x1")
    with pytest.raises(ArityMismatch):
        MultiPoly.sum(2, [a, b])
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b - a):
        with pytest.raises(ArityMismatch):
            op()
    with pytest.raises(ArityMismatch):
        a.coefficient((1,))
    with pytest.raises(ArityMismatch):
        a.involves(3)
    with pytest.raises(ArityMismatch):
        a.diff(0)


def test_pow():
    p = P("x1 + x2")
    assert p**0 == MultiPoly.one(3)
    assert p**2 == P("x1^2 + 2*x1*x2 + x2^2")
    assert (P("(t)") ** -2) == P("(t^-2)")
    with pytest.raises(NonUnit):
        p**-1
    # a base of three terms, t^-1 among them, is multiplied up
    q = P("(-2/3*t^-1)*x1^2 + (t^2)*x2 - 5")
    product = MultiPoly.one(3)
    for e in range(9):
        assert q**e == product
        product = product * q
    zero = MultiPoly.zero(3)
    assert zero**0 == MultiPoly.one(3)
    assert all(zero**e == zero for e in (1, 2, 9))
    assert P("(-2/3*t^5)") ** -2 == P("(9/4*t^-10)")
    with pytest.raises(NonUnit):
        q**-2
    # an exponent that is not an int has no power, even of a monomial
    for base in (q, P("(t)*x1")):
        for exponent in (0.5, 2.0, Fraction(1, 2)):
            with pytest.raises(TypeError):
                base**exponent


def test_a_power_table_builds_each_power_once(monkeypatch):
    p = P("x1 + (t^-1)*x2 + 3")
    expected = {e: p**e for e in (3, 6)}
    products = []
    mul_terms = K.mul_terms

    def counting(a, b, guard):
        products.append((len(a), len(b)))
        return mul_terms(a, b, guard)

    monkeypatch.setattr(K, "mul_terms", counting)
    table = p.powers()
    assert table[0] == MultiPoly.one(3)
    assert table[6] == expected[6]
    assert table[3] == expected[3]
    assert table[6] == expected[6]
    assert len(products) == 5
    # a one-term base is raised in one step, with no product
    assert P("(2*t^-1)*x1*x3").powers()[7] == P("(128*t^-7)*x1^7*x3^7")
    assert len(products) == 5


def test_degrees_and_involvement():
    p = P("x1^2*x3 + (t^-5)*x2")
    assert p.involves(1) and p.involves(2) and p.involves(3)
    assert not P("x1").involves(2)


def test_coefficient_extraction():
    p = P("x1^2*x2^2 + (3*t^-1)*x1^2*x2 + 5")
    assert p.coefficient((2, 1, 0)) == P("(3*t^-1)")
    assert p.coefficient((0, 0, 0)) == MultiPoly.constant(3, 5)
    assert p.coefficient((9, 9, 9)).is_zero()
    assert p.coefficient((-1, 0, 0)).is_zero()
    assert P("(t)*x1^2 + (t + t^2)*x1 + x2").coefficient((1, 0, 0)) == P("(t + t^2)")
    assert P("(-1 + t^2)").is_constant()
    assert not P("(t)*x1").is_constant()


def test_diff_basics():
    p = P("x1^3*x2 + (t)*x3")
    assert p.diff(1) == P("3*x1^2*x2")
    assert p.diff(2) == P("x1^3")
    assert p.diff(3) == P("(t)")
    assert P("7").diff(1).is_zero()


def test_diff_leibniz_random():
    rng = random.Random(23)
    for _ in range(25):
        a = rand_poly(rng)
        b = rand_poly(rng)
        for i in (1, 2, 3):
            assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_substitute_is_a_homomorphism():
    rng = random.Random(37)
    images = [rand_poly(rng, terms=3) for _ in range(3)]
    for _ in range(15):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)
        assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)


def test_substitute_fixed_points_and_arity_change():
    p = P("x1*x2 + (t)")
    identity = [MultiPoly.variable(3, i) for i in (1, 2, 3)]
    assert p.substitute(identity) == p
    into_two = [MultiPoly.variable(2, 1), MultiPoly.variable(2, 2), MultiPoly.one(2)]
    assert p.substitute(into_two) == parse_poly("x1*x2 + (t)", arity=2)
    with pytest.raises(ArityMismatch):
        p.substitute(identity[:2])
    with pytest.raises(ArityMismatch):
        p.substitute([*identity[:2], MultiPoly.variable(2, 1)])
    for images in ([1, *identity[1:]], [identity[0], Fraction(1, 2), identity[2]]):
        with pytest.raises(TypeError):
            p.substitute(images)


def test_substitute_leaves_no_cyclic_garbage():
    # the power tables go with the call, without the cycle collector
    p = P("x1^3*x2 + x2^2*x3 + (t)*x3")
    images = [P("x1 + x2"), P("x2 + (-t)"), P("x1*x3 + 1")]
    gc.collect()
    gc.disable()
    try:
        p.substitute(images)
        assert gc.collect() == 0
    finally:
        gc.enable()


# Substitutions checked against the term-by-term oracle, each named for
# what it exercises: (p, its arity, the images, their arity).
SUBSTITUTIONS = {
    "fewer variables out": ("x1^2*x3 + (t^-1)*x2 - 1/2", 3, ("x1 + x2", "(t)*x2^2", "x1 - 3"), 2),
    "more variables out": ("x2^3 + (t^2)*x1*x2", 2, ("x1*x4 + x3", "x2 + (-2*t^-1)"), 4),
    "negative powers of t and denominators sharing primes": (
        "(1/6*t^-2)*x1^2 + (3/4*t^-1)*x2", 2, ("(2/9*t^-1)*x1 + 1/4", "(-5/12*t^-3)*x2 + 1/6"), 2,
    ),
    "zero and one-term images": ("x1^3*x2 + x2^2*x3 + x3", 3, ("0", "(-2/3*t^-1)*x1^2", "x2"), 3),
    "fixed variables": ("x1^2*x2*x3 + (t)*x2^3", 3, ("x1", "x1^2 + x2", "x3"), 3),
    "a permutation of the variables": ("x1^3*x2 + x2*x3^2 + (-t^-1)*x3", 3, ("x3", "x1", "x2"), 3),
    "degree order unlike index order": (
        "x1*x3^5 + x2^2*x3^4 + x1^2", 3, ("x1 + x2", "x2 - x3", "x1 + x3 + (t)"), 3,
    ),
}


@pytest.mark.parametrize("case", SUBSTITUTIONS.values(), ids=SUBSTITUTIONS.keys())
def test_substitute_matches_the_term_by_term_oracle(case):
    text, n, image_texts, m = case
    p = P(text, n)
    images = [P(image, m) for image in image_texts]
    assert p.substitute(images) == ref_substitute(p, images)


# denominators built from 2 and 3, so that they share primes
_COEFFS = st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.sampled_from((1, 2, 3, 4, 6, 9, 12))
)


def _laurent_polys(arity, max_terms, max_degree):
    """Polynomials of the arity with powers of t from t^-3 to t^3, zero included."""
    keys = st.tuples(*(st.integers(0, max_degree) for _ in range(arity)), st.integers(-3, 3))
    return st.dictionaries(keys, _COEFFS, max_size=max_terms).map(
        lambda terms: MultiPoly(arity, terms)
    )


@st.composite
def substitutions(draw):
    """(p, images): p of arity n and n images of arity m, for 1 <= n, m <= 4.

    An image is a sum, at most one term, any variable, or x_i itself (a
    fixed variable); when m = n the images may instead permute the
    variables.  p's degrees in x1..xn fall in any order.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p = draw(_laurent_polys(n, 6, 3))
    variables = [MultiPoly.variable(m, j) for j in range(1, m + 1)]
    if m == n and draw(st.booleans()):
        return p, [variables[j] for j in draw(st.permutations(range(n)))]
    images = []
    for i in range(n):
        kinds = [_laurent_polys(m, 3, 2), _laurent_polys(m, 1, 3), st.sampled_from(variables)]
        if i < m:
            kinds.append(st.just(variables[i]))
        images.append(draw(st.one_of(kinds)))
    return p, images


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(substitutions())
def test_substitute_matches_the_oracle_on_random_inputs(case):
    p, images = case
    assert p.substitute(images) == ref_substitute(p, images)


def _lone_variable(n, k):
    """The exponents of x_k alone at arity n."""
    return tuple(int(i == k) for i in range(1, n + 1))


@st.composite
def _power_bases(draw):
    """A shift image u*x_k + q with u = c*t^j a unit other than 1, or a base
    with no term c*t^j*x_i alone.  q has powers of t from t^-3 to t^3 and
    may involve x_k."""
    n = draw(st.integers(1, 3))
    q = draw(_laurent_polys(n, 4, 2))
    if draw(st.booleans()):
        k = draw(st.integers(1, n))
        c, j = draw(st.tuples(_COEFFS, st.integers(-3, 3)).filter(lambda u: u != (1, 0)))
        return MultiPoly(n, {_lone_variable(n, k) + (j,): c}) + q
    lone = {_lone_variable(n, k) for k in range(1, n + 1)}
    return MultiPoly(n, {exps: c for exps, c in q.terms() if exps[:-1] not in lone})


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_power_bases())
# shift images whose q involves x_k, and a base with no lone variable
@example(P("x1^2*x2 + (2*t^-1)*x1 + (t^-2)"))
@example(P("x1*x2^2 - 3*x2 + 1/2*x3"))
@example(P("x1*x3^2 + (t^-1)*x2 + (-t^3)*x3"))
@example(P("x1*x2 + (t^-1)*x3^2 + 1"))
def test_a_power_table_holds_the_repeated_products(base):
    products = [MultiPoly.one(base.arity)]
    for _ in range(6):
        products.append(products[-1] * base)
    table = base.powers()
    # a power asked for first, then all of them from 0
    assert table[6] == products[6]
    assert [table[e] for e in range(7)] == products


def test_exact_divide_agrees_with_linear_system_oracle():
    rng = random.Random(53)
    checked = with_quotient = 0
    for trial in range(30):
        divisor = rand_poly_nonzero(rng, max_degree=2, terms=3, min_t=-1, max_t=1)
        if trial % 2 == 0:
            quotient = rand_poly_nonzero(rng, max_degree=2, terms=2, min_t=-1, max_t=1)
            dividend = divisor * quotient
        else:
            dividend = rand_poly_nonzero(rng, max_degree=4, terms=4, min_t=-1, max_t=1)
        mine = dividend.exact_divide(divisor)
        oracle = divide_by_linear_system(dividend, divisor)
        assert (mine is None) == (oracle is None)
        if mine is not None:
            assert mine == oracle
            assert mine * divisor == dividend
            with_quotient += 1
        checked += 1
    assert checked == 30 and with_quotient >= 10


def test_exact_divide_examples():
    assert P("x1^2 - x2^2").exact_divide(P("x1 - x2")) == P("x1 + x2")
    assert P("x1^2 + x2").exact_divide(P("x1 - x2")) is None
    assert P("(t)*x1").exact_divide(P("x1")) == P("(t)")
    # Laurent coefficients: t is invertible, so t*x1 divides x1
    assert P("x1").exact_divide(P("(t)*x1")) == P("(t^-1)")
    assert MultiPoly.zero(3).exact_divide(P("x1")) == MultiPoly.zero(3)
    with pytest.raises(TypeError, match="divisor must be a polynomial"):
        P("x1").exact_divide("a")
    for zero in (0, MultiPoly.zero(3)):
        with pytest.raises(ZeroDivisionError):
            P("x1").exact_divide(zero)


def test_specialize_t():
    p = P("(1 + t^2)*x1 + (2*t^-1)*x2")
    q = p.specialize_t(2)
    assert q == P("5*x1 + x2")
    with pytest.raises(PoleAtZero):
        p.specialize_t(0)
    assert P("(t)*x1").specialize_t(0).is_zero()
    assert p.specialize_t(Fraction(1, 2)) == P("5/4*x1 + 4*x2")


def test_is_t_regular():
    assert P("(t)*x1 + x2").is_t_regular()
    assert not P("(t^-1)*x1").is_t_regular()
    assert MultiPoly.zero(3).is_t_regular()


def test_extend_arity():
    p = P("x1*x3 + (t)")
    q = p.extend_arity(4)
    assert q.arity == 4
    assert q == parse_poly("x1*x3 + (t)", arity=4)
    with pytest.raises(ArityMismatch):
        p.extend_arity(2)


def test_str_round_trip_random():
    rng = random.Random(67)
    for _ in range(50):
        p = rand_poly(rng)
        assert parse_poly(str(p), arity=3) == p


def test_str_fixed_forms():
    x1, x2, t = P("x1"), P("x2"), MultiPoly.parameter(3)
    assert str(MultiPoly.zero(3)) == "0"
    assert str(x2 - x1**2 * t**-1 / 2) == "(-1/2*t^-1)*x1^2 + x2"
    assert str(3 - x1) == "-x1 + 3"
    assert str((t + 1) * x1) == "(1 + t)*x1"
    assert str(x1 * x2 * (x1 - x2)) == "x1^2*x2 - x1*x2^2"


@st.composite
def _render_cases(draw):
    """A polynomial of arity 1-4 with negative powers of t, coefficients of
    +-1 and with large denominators, some of them cancelled to zero."""
    arity = draw(st.integers(1, 4))
    keys = st.tuples(*(st.integers(0, 3) for _ in range(arity)), st.integers(-3, 3))
    coeffs = st.one_of(
        st.sampled_from([1, -1, Fraction(1, 3), Fraction(-1, 3)]),
        st.builds(
            Fraction,
            st.integers(-(10**40), 10**40).filter(bool),
            st.sampled_from([1, 2, 6, 10**9 + 7, 2**64, 3**50 * 7]),
        ),
    )
    terms = st.dictionaries(keys, coeffs, max_size=8)
    first, second = draw(terms), draw(terms)
    cancel = draw(st.sets(st.sampled_from(sorted(first)))) if first else set()
    return (
        MultiPoly(arity, first)
        + MultiPoly(arity, second)
        - MultiPoly(arity, {key: first[key] for key in cancel})
    )


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_render_cases())
def test_str_matches_the_reference_renderer(p):
    assert str(p) == ref_render(p)


def test_str_of_zero_matches_the_reference_renderer():
    for arity in (1, 2, 3, 4):
        assert str(MultiPoly.zero(arity)) == ref_render(MultiPoly.zero(arity)) == "0"


def test_equality_is_structural():
    x1, t = P("x1"), MultiPoly.parameter(3)
    a = x1 + t
    b = t + x1
    assert a == b
    assert hash(a) == hash(b)
    assert a != P("x1")
    assert P("5", arity=2) != P("5", arity=3)


def test_exponent_bound_is_checked_on_input():
    top = MultiPoly(3, {(MAX_EXPONENT, 0, 0, 0): 1})
    assert dict(top.terms()) == {(MAX_EXPONENT, 0, 0, 0): 1}
    with pytest.raises(ExponentOverflow):
        MultiPoly(3, {(MAX_EXPONENT + 1, 0, 0, 0): 1})
    with pytest.raises(ExponentOverflow):
        MultiPoly(3, {(0, MAX_EXPONENT + 1, 0, 0): 1})
    # t has no bound: its slot is the unbounded top of the key
    far = MultiPoly(3, {(0, 0, 0, -(10**40)): 1, (1, 0, 0, 10**40): 2})
    assert dict(far.terms()) == {(0, 0, 0, -(10**40)): 1, (1, 0, 0, 10**40): 2}
    assert not far.is_t_regular()


def test_product_overflow_raises_instead_of_carrying():
    top = MultiPoly(3, {(0, MAX_EXPONENT, 0, 0): 1})
    x2 = MultiPoly.variable(3, 2)
    with pytest.raises(ExponentOverflow) as exc:
        top * (x2 + 1)
    assert isinstance(exc.value, PolydegenError)
    # at the bound in every slot, with t on top, nothing carries
    full = top * MultiPoly(3, {(MAX_EXPONENT, 0, MAX_EXPONENT, -3): 1})
    assert dict(full.terms()) == {(MAX_EXPONENT, MAX_EXPONENT, MAX_EXPONENT, -3): 1}
    with pytest.raises(ExponentOverflow):
        full * MultiPoly.variable(3, 3)


def test_parse_rejects_exponents_beyond_the_bound():
    with pytest.raises(ParseError, match="above the bound"):
        P("x1^99999999999")
    with pytest.raises(ParseError, match="above the bound"):
        P(f"x1*x2^{MAX_EXPONENT + 1}")
    assert P("(t^99999999999)") == MultiPoly.parameter(3) ** 99999999999


def test_monomial_powers_reach_the_bound():
    # a one-term base is raised in one step: no square beyond the result
    assert P("x1^1073741824") == MultiPoly(3, {(2**30, 0, 0, 0): 1})
    assert P(f"x1^{MAX_EXPONENT}") == MultiPoly(3, {(MAX_EXPONENT, 0, 0, 0): 1})
    with pytest.raises(ParseError, match="above the bound"):
        P(f"x1^{MAX_EXPONENT + 1}")
    x2_squared = MultiPoly(3, {(0, 2, 0, 0): 1})
    assert x2_squared ** (MAX_EXPONENT // 2) == MultiPoly(3, {(0, MAX_EXPONENT - 1, 0, 0): 1})
    with pytest.raises(ExponentOverflow):
        x2_squared ** (2**30)


def test_monomial_powers_match_repeated_products():
    rng = random.Random(29)
    for _ in range(20):
        scalar = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        t_exp = rng.randint(-3, 3)
        base = MultiPoly(3, {(*[rng.randint(0, 3) for _ in range(3)], t_exp): scalar})
        expected = MultiPoly.one(3)
        for exponent in range(6):
            assert base**exponent == expected
            expected = expected * base
    assert MultiPoly.zero(3) ** 0 == MultiPoly.one(3)
    assert MultiPoly.zero(3) ** 3 == MultiPoly.zero(3)
    assert MultiPoly(3, {(0, 0, 0, -1): Fraction(-2, 3)}) ** -3 == P("(-27/8*t^3)")
