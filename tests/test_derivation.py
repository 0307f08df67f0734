"""Triangular derivations, exponentials, and the slice homomorphism."""

import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from polydegen import parse_poly
from polydegen.derivation import TriangularDerivation
from polydegen.errors import KernelViolation, NonUnit, NotTriangular
from polydegen.multipoly import MultiPoly


def make_delta(*texts):
    n = len(texts)
    return TriangularDerivation(tuple(parse_poly(s, arity=n) for s in texts))


@pytest.fixture
def delta():
    # delta(x1) = t, delta(x2) = x1, delta(x3) = -2*x2
    return make_delta("t", "x1", "-2*x2")


def test_triangularity_is_enforced():
    make_delta("t", "x1", "x1*x2")
    with pytest.raises(NotTriangular):
        make_delta("x1", "x1", "x2")
    with pytest.raises(NotTriangular):
        make_delta("t", "x2", "x1")
    with pytest.raises(NotTriangular):
        make_delta("t", "x1", "x3")


def test_apply_on_variables_and_leibniz(delta):
    x1 = parse_poly("x1", arity=3)
    x2 = parse_poly("x2", arity=3)
    assert delta.apply(x1) == parse_poly("t", arity=3)
    assert delta.apply(x2) == x1
    assert delta.apply(MultiPoly.parameter(3) ** -4).is_zero()
    rng = random.Random(91)
    for _ in range(20):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert delta.apply(a * b) == delta.apply(a) * b + a * delta.apply(b)
        assert delta.apply(a + b) == delta.apply(a) + delta.apply(b)


def test_nilpotency(delta):
    q = parse_poly("x3^2", arity=3)
    e = delta.nilpotency_exponent(q)
    p = q
    for _ in range(e):
        p = delta.apply(p)
    assert p.is_zero()
    assert e == 7
    assert delta.nilpotency_exponent(MultiPoly.zero(3)) == 0
    assert delta.nilpotency_exponent(parse_poly("x1", arity=3)) == 2


def test_exp_is_an_automorphism(delta):
    phi = delta.exp()
    # exp of a derivation is a ring map: check multiplicativity on samples
    rng = random.Random(97)
    for _ in range(10):
        a = rand_poly(rng, terms=3)
        b = rand_poly(rng, terms=3)
        assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)


def test_exp_with_kernel_potential(delta):
    g2 = delta.sigma(parse_poly("x2", arity=3))
    phi = delta.exp(g2)
    assert phi.apply(parse_poly("x1", arity=3)) == parse_poly("x1", arity=3) + g2 * parse_poly("t", arity=3)
    # the potential must lie in the kernel
    with pytest.raises(KernelViolation):
        delta.exp(parse_poly("x2", arity=3))


def test_exp_inverse_via_negated_potential(delta):
    g2 = delta.sigma(parse_poly("x2", arity=3))
    phi = delta.exp(g2)
    psi = delta.exp(-g2)
    assert phi.verify_inverse_pair(psi)


def test_sigma_requires_unit_f1():
    bad = make_delta("t + 1", "x1", "x2")
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
    assert g2 == parse_poly("x2 - 1/2*t^-1*x1^2", arity=3)
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


def test_str(delta):
    assert str(delta) == "((t), x1, -2*x2)"
