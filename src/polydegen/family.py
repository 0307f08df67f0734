"""The degenerating family.

For each l >= 1 the family member is the pair (delta, h): the triangular
derivation

    delta = (t, x1, -(l+1)*x2^l)

over Q[t], and the kernel element h = sigma(p) for a closed-form slice
potential p.  Everything else is a certificate about the automorphism
phi = exp(h*delta) of Q[t,t^-1][x1,x2,x3], built from the pair by the
general builders of certificates.  family_derivation(l) and
family_potential(l, c_l) write delta and p once, for build_family and the
family document's check list.  Away from t = 0 phi is conjugate to the
elementary shift (x1 + t*p, x2, x3) by the triangular map tau = (x1, g2, g3)
(certificates.build_conjugation), so every fiber there is tame.  The pair
is regular at t = 0, and the limit fiber is exp(h_limit * delta_0) with
delta_0 = (0, x1, -(l+1)*x2^l), which fails to be tame (see
certificates.check_wild_at_zero).

The identities the family relies on are checked by the family document's
check list (see documents.family_document), which refuses to emit a failing
member.
"""

from __future__ import annotations

from fractions import Fraction

from .derivation import TriangularDerivation
from .multipoly import MultiPoly


def slice_coefficients(l: int) -> tuple[Fraction, ...]:
    """The coefficients (c_0,...,c_l) of g3, from the recurrence
    c_0 = l+1 and (2i+1)*c_i = -(l-i+1)*c_{i-1}.

    >>> slice_coefficients(1)
    (Fraction(2, 1), Fraction(-2, 3))
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    coeffs = [Fraction(l + 1)]
    for i in range(1, l + 1):
        coeffs.append(Fraction(-(l - i + 1), 2 * i + 1) * coeffs[i - 1])
    return tuple(coeffs)


def family_derivation(l: int) -> TriangularDerivation:
    """delta_l = (t, x1, -(l+1)*x2^l)."""
    x1, x2 = MultiPoly.variable(3, 1), MultiPoly.variable(3, 2)
    return TriangularDerivation((MultiPoly.parameter(3), x1, -(l + 1) * x2**l))


def family_potential(l: int, c_l: Fraction) -> MultiPoly:
    """The closed-form slice potential p_l = t^l*c_l/2 * ((2*x2)^(2l+1) + t*(x3/c_l)^2)."""
    x2, x3 = MultiPoly.variable(3, 2), MultiPoly.variable(3, 3)
    t = MultiPoly.parameter(3)
    return ((2 * x2) ** (2 * l + 1) + t * (x3 / c_l) ** 2) * MultiPoly(3, {(0, 0, 0, l): c_l / 2})


def build_family(l: int) -> tuple[TriangularDerivation, MultiPoly]:
    """The pair (delta, h) for a given l >= 1.

    h = sigma(p) for the closed-form slice potential p.  sigma is a ring map
    that kills x1, and p involves only x2 and x3, so h = p(g2, g3) = tau(p)
    for the slice images g2 and g3.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    delta = family_derivation(l)
    return delta, delta.sigma(family_potential(l, slice_coefficients(l)[l]))


def has_limit_shape(h: MultiPoly, l: int, c_l: Fraction) -> bool:
    """The leading-term decomposition that forces the degeneration.

    True when h splits as t^(l+1)/(2*c_l) * x3^2 + x1^(2l+1)*x3 + q with q
    in x2*Q[t,t^-1][x1,x2] + t*x3*Q[t][x1,x2].
    """
    lead = MultiPoly(3, {(0, 0, 2, l + 1): Fraction(1, 2) / c_l, (2 * l + 1, 0, 1, 0): 1})
    return not any(
        e3 > 1 or (e3 == 1 and et < 1) or (e3 == 0 and e2 == 0)
        for (_, e2, e3, et), _ in (h - lead).terms()
    )
