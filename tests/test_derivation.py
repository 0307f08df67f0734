"""Triangular derivations, exponentials, and the slice homomorphism."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_poly
from oracles import reference_exp, reference_sigma
from polydegen import parse_poly
from polydegen.derivation import TriangularDerivation
from polydegen.errors import ArityMismatch, KernelViolation, NonUnit, NotTriangular
from polydegen.family import family_derivation
from polydegen.multipoly import MultiPoly


def make_delta(*texts):
    n = len(texts)
    return TriangularDerivation(tuple(parse_poly(s, arity=n) for s in texts))


ARITY = 3
examples = settings(derandomize=True, database=None, max_examples=40, deadline=None)
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
t_powers = st.integers(-2, 2)


@st.composite
def polys_below(draw, i):
    """A polynomial in t and x1..x_{i-1} of arity ARITY, possibly zero."""
    powers = st.tuples(*(st.integers(0, 2) for _ in range(i - 1)), t_powers)
    terms = draw(st.dictionaries(powers, coeffs, max_size=3))
    pad = (0,) * (ARITY - i + 1)
    return MultiPoly(ARITY, {key[:-1] + pad + key[-1:]: c for key, c in terms.items()})


@st.composite
def triangular(draw, unit_f1=st.booleans()):
    """A triangular derivation; delta(x1) is c*t^j when unit_f1 draws True, else any scalar."""
    if draw(unit_f1):
        f1 = MultiPoly(ARITY, {(0,) * ARITY + (draw(t_powers),): draw(coeffs)})
    else:
        f1 = draw(polys_below(1))
    return TriangularDerivation((f1,) + tuple(draw(polys_below(i)) for i in range(2, ARITY + 1)))


@pytest.fixture
def delta():
    # delta(x1) = t, delta(x2) = x1, delta(x3) = -2*x2
    return make_delta("(t)", "x1", "-2*x2")


def test_triangularity_is_enforced():
    make_delta("(t)", "x1", "x1*x2")
    with pytest.raises(NotTriangular):
        make_delta("x1", "x1", "x2")
    with pytest.raises(NotTriangular):
        make_delta("(t)", "x2", "x1")
    with pytest.raises(NotTriangular):
        make_delta("(t)", "x1", "x3")


def test_apply_on_variables_and_leibniz(delta):
    x1 = parse_poly("x1", arity=3)
    x2 = parse_poly("x2", arity=3)
    assert delta.apply(x1) == parse_poly("(t)", arity=3)
    assert delta.apply(x2) == x1
    assert delta.apply(MultiPoly.parameter(3) ** -4).is_zero()
    rng = random.Random(91)
    for _ in range(20):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert delta.apply(a * b) == delta.apply(a) * b + a * delta.apply(b)
        assert delta.apply(a + b) == delta.apply(a) + delta.apply(b)


def test_exp_is_an_automorphism(delta):
    phi = delta.exp(MultiPoly.one(3))
    # exp of a derivation is a ring map: check multiplicativity on samples
    rng = random.Random(97)
    for _ in range(10):
        a = rand_poly(rng, terms=3)
        b = rand_poly(rng, terms=3)
        assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)


def test_exp_with_kernel_potential(delta):
    g2 = delta.sigma(parse_poly("x2", arity=3))
    phi = delta.exp(g2)
    assert phi.apply(parse_poly("x1", arity=3)) == parse_poly("x1", arity=3) + g2 * parse_poly("(t)", arity=3)
    # the potential must lie in the kernel
    with pytest.raises(KernelViolation):
        delta.exp(parse_poly("x2", arity=3))


def test_exp_inverse_via_negated_potential(delta):
    g2 = delta.sigma(parse_poly("x2", arity=3))
    phi = delta.exp(g2)
    psi = delta.exp(-g2)
    assert phi.verify_inverse_pair(psi)


@settings(examples)
@given(triangular(), st.sampled_from(["one", "zero", "scalar", "slice image"]), polys_below(1))
def test_exp_is_the_reference_series(delta, kind, scalar):
    # a slice image needs delta(x1) to be a unit; otherwise h is the scalar
    if kind == "slice image" and delta.images[0].is_unit():
        h = delta.sigma(delta.images[2] + MultiPoly.variable(ARITY, 2))
    else:
        h = {"one": MultiPoly.one(ARITY), "zero": MultiPoly.zero(ARITY)}.get(kind, scalar)
    assert delta.exp(h).images == reference_exp(delta, h)


@settings(examples)
@given(triangular(unit_f1=st.just(True)), polys_below(ARITY + 1))
def test_sigma_is_the_reference_series(delta, poly):
    assert delta.sigma(poly) == reference_sigma(delta, poly)


@settings(examples)
@given(triangular())
def test_series_length_bounds_every_variable_series(delta):
    # delta^k(x_i) for k = 0, 1, ... is the series of exp and of sigma on x_i
    for i in range(1, ARITY + 1):
        term, summands = MultiPoly.variable(ARITY, i), 0
        while not term.is_zero():
            term, summands = delta.apply(term), summands + 1
        assert summands <= delta.series_length()


def test_series_length_of_the_family_and_of_a_long_series():
    for l in range(1, 9):
        assert family_derivation(l).series_length() == 2 * l + 2
    # w = (1, 2, 2001): x3's series is x3 and then 2000 more summands
    assert make_delta("(t)", "x1", "-1001*x2^1000").series_length() == 2002
    assert make_delta("0", "0", "0").series_length() == 2


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_family_series_match_the_reference(families, l):
    fam = families[l]
    assert fam.automorphism.images == reference_exp(fam.delta, fam.h)
    for i, g in enumerate(fam.delta.kernel_generators(), start=2):
        assert g == reference_sigma(fam.delta, MultiPoly.variable(fam.delta.arity, i))


def test_sigma_requires_unit_f1():
    bad = make_delta("(1 + t)", "x1", "x2")
    with pytest.raises(NonUnit):
        bad.sigma(parse_poly("x2", arity=3))


def test_sigma_properties(delta):
    rng = random.Random(103)
    x1 = parse_poly("x1", arity=3)
    assert delta.sigma(x1).is_zero()
    for _ in range(30):
        q = rand_poly(rng, terms=4, max_degree=4)
        s = delta.sigma(q)
        assert delta.apply(s).is_zero()
        assert delta.sigma(s) == s
        r = rand_poly(rng, terms=3, max_degree=3)
        assert delta.sigma(q * r) == delta.sigma(q) * delta.sigma(r)


def test_kernel_generators(delta):
    g2, g3 = delta.kernel_generators()
    assert g2 == parse_poly("(-1/2*t^-1)*x1^2 + x2", arity=3)
    assert delta.apply(g2).is_zero()
    assert delta.apply(g3).is_zero()
    assert g3.coefficient((0, 0, 1)) == MultiPoly.one(3)


def test_specialize(delta):
    at2 = delta.specialize(2)
    assert at2.images[0] == parse_poly("2", arity=3)
    assert at2.images[2] == parse_poly("-2*x2", arity=3)


def test_extend_arity(delta):
    wide = delta.extend_arity(4)
    assert wide.arity == 4
    assert wide.apply(parse_poly("x4", arity=4)).is_zero()
    assert wide.apply(parse_poly("x2", arity=4)) == parse_poly("x1", arity=4)
    with pytest.raises(ArityMismatch):
        delta.extend_arity(2)


def test_a_polynomial_of_another_arity_is_refused(delta):
    x1 = parse_poly("x1", arity=4)
    for method in (delta.apply, delta.exp, delta.sigma):
        with pytest.raises(ArityMismatch):
            method(x1)


def test_str(delta):
    assert str(delta) == "((t), x1, -2*x2)"
