"""The degeneration family and its t = 0 limit."""

from fractions import Fraction

import pytest

from polydegen import MultiPoly, build_family, parse_poly, slice_coefficients
from polydegen.documents import family_document
from polydegen.family import has_limit_shape


def test_slice_coefficients_recurrence():
    for l in range(1, 8):
        c = slice_coefficients(l)
        assert len(c) == l + 1
        assert c[0] == l + 1
        for i in range(1, l + 1):
            assert (2 * i + 1) * c[i] == -(l - i + 1) * c[i - 1]


def test_slice_coefficients_frozen_values():
    assert slice_coefficients(1) == (Fraction(2), Fraction(-2, 3))
    assert slice_coefficients(2) == (Fraction(3), Fraction(-2), Fraction(2, 5))
    assert slice_coefficients(3) == (
        Fraction(4),
        Fraction(-4),
        Fraction(8, 5),
        Fraction(-8, 35),
    )


def test_l_must_be_positive():
    with pytest.raises(ValueError):
        build_family(0)
    with pytest.raises(ValueError):
        slice_coefficients(-1)


def test_build_family_l1_frozen(families):
    fam = families[1]
    delta, h = build_family(1)
    assert (delta, h) == (fam.delta, fam.h)
    g2, g3 = fam.tau.images[1:]
    assert str(g2) == "(-1/2*t^-1)*x1^2 + x2"
    assert str(g3) == "(-2/3*t^-2)*x1^3 + (2*t^-1)*x1*x2 + x3"
    assert str(fam.h.specialize_t(0)) == "x1^3*x3 + x1^2*x2^2"
    assert str(fam.slice_potential) == "(-8/3*t)*x2^3 + (-3/4*t^2)*x3^2"
    phi_x1 = fam.automorphism.images[0]
    assert phi_x1 == parse_poly("x1", arity=3) + fam.h * parse_poly("(t)", arity=3)


def test_derivation_images(families):
    for l, fam in families.items():
        f1, f2, f3 = fam.delta.images
        assert f1 == parse_poly("(t)", arity=3)
        assert f2 == parse_poly("x1", arity=3)
        assert f3 == -(l + 1) * parse_poly("x2", arity=3) ** l


def test_kernel_identities(families):
    for fam in families.values():
        g2, g3 = fam.tau.images[1:]
        assert fam.delta.apply(g2).is_zero()
        assert fam.delta.apply(g3).is_zero()
        assert fam.delta.apply(fam.h).is_zero()


def test_tau_is_triangular_with_inverse(families):
    for fam in families.values():
        assert fam.tau.is_triangular()
        assert fam.tau.verify_inverse_pair(fam.tau_inv)


def test_slice_potential_recovers_h(families):
    for fam in families.values():
        assert fam.tau.apply(fam.slice_potential) == fam.h
        # p is h with x1 frozen to zero
        x = [parse_poly(s, arity=3) for s in ("0", "x2", "x3")]
        assert fam.h.substitute(x) == fam.slice_potential


def test_limit_check(families):
    for l, fam in families.items():
        assert fam.h.is_t_regular()
        assert family_document(l, fam)["h_limit"] == str(fam.h.specialize_t(0))


def test_h_limit_closed_form(families):
    for l, fam in families.items():
        x1, x2, x3 = (parse_poly(f"x{i}", arity=3) for i in (1, 2, 3))
        expected = x1 ** (2 * l) * (x1 * x3 + x2 ** (l + 1))
        assert fam.h.specialize_t(0) == expected


def test_h_shape_split(families):
    for l, fam in families.items():
        assert has_limit_shape(fam.h, l, slice_coefficients(l)[-1])
    # a wrong x3^2 coefficient, an x3 term without t, and a term with
    # neither x2 nor x3 each break the shape
    fam = families[1]
    c_1 = slice_coefficients(1)[-1]
    for extra in ("x3^2", "x1*x3", "(t^5)*x1"):
        broken = fam.h + parse_poly(extra, arity=3)
        assert not has_limit_shape(broken, 1, c_1), extra
    assert has_limit_shape(fam.h + parse_poly("(t^-3)*x2 + (t)*x3", arity=3), 1, c_1)


def test_fiber_specializations(families):
    fam = families[2]
    for alpha in (0, 1, Fraction(1, 2)):
        fiber = fam.automorphism.specialize(alpha)
        direct = fam.delta.specialize(alpha).exp(fam.h.specialize_t(alpha))
        assert fiber == direct


def test_fiber_zero_is_exp_of_limit(families):
    for fam in families.values():
        delta_zero = fam.delta.specialize(0)
        assert fam.automorphism.specialize(0) == delta_zero.exp(fam.h.specialize_t(0))
        assert delta_zero.images[0].is_zero()


def test_epsilon_shifts_x1_by_t_times_potential(families):
    for fam in families.values():
        t = parse_poly("(t)", arity=3)
        assert fam.epsilon.images[0] == parse_poly("x1", arity=3) + t * fam.slice_potential
        assert fam.epsilon.images[1] == parse_poly("x2", arity=3)
        assert fam.epsilon.images[2] == parse_poly("x3", arity=3)


def test_g2_leading_structure(families):
    for l, fam in families.items():
        # g2 = x2 - x1^2/(2t) for every l
        expected = parse_poly("x2", arity=3) + parse_poly("x1^2", arity=3) * (
            MultiPoly(3, {(0, 0, 0, -1): Fraction(-1, 2)})
        )
        assert fam.tau.images[1] == expected
