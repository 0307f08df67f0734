"""The degenerating family.

For each l >= 1 there is a triangular derivation

    delta = (t, x1, -(l+1)*x2^l)

over Q[t], a kernel element h built from a slice potential p, and the
automorphism phi = exp(h*delta) of Q[t,t^-1][x1,x2,x3].  Away from t = 0
phi is conjugate to the elementary shift (x1 + t*p, x2, x3) by the
triangular map tau = (x1, g2, g3), so every fiber there is tame.  All the
data is regular at t = 0, and the limit fiber is exp(h_limit * delta_0)
with delta_0 = (0, x1, -(l+1)*x2^l), which fails to be tame (see
certificates.check_wild_at_zero).

build_family constructs all of this exactly; the identities it relies on
are checked by the family document's check list (see
documents.family_document), which refuses to emit a failing instance.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .derivation import TriangularDerivation
from .endo import PolyEndo
from .multipoly import MultiPoly


class FamilyInstance(Record):
    """All exact data attached to one value of l."""

    l: int
    coefficients: tuple[Fraction, ...]
    delta: TriangularDerivation
    g2: MultiPoly
    g3: MultiPoly
    tau: PolyEndo
    tau_inv: PolyEndo
    slice_potential: MultiPoly
    epsilon: PolyEndo
    h: MultiPoly
    automorphism: PolyEndo
    delta_zero: TriangularDerivation
    h_limit: MultiPoly
    fiber_zero: PolyEndo

    def fiber(self, alpha: int | Fraction) -> PolyEndo:
        """The specialized automorphism at t = alpha."""
        return self.automorphism.specialize(alpha)


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


def build_family(l: int) -> FamilyInstance:
    """Construct the family member for a given l >= 1.

    g2 and g3 are the slice images of x2 and x3, and h = tau(p) for the
    closed-form slice potential p.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    n = 3
    x1 = MultiPoly.variable(n, 1)
    x2 = MultiPoly.variable(n, 2)
    x3 = MultiPoly.variable(n, 3)
    t = MultiPoly.parameter(n)

    delta = TriangularDerivation((t, x1, -(l + 1) * x2**l))
    coeffs = slice_coefficients(l)
    g2, g3 = delta.kernel_generators()
    tau = PolyEndo((x1, g2, g3))
    c_l = coeffs[l]
    p = (
        ((2 * x2) ** (2 * l + 1) + t * (x3 / c_l) ** 2)
        * MultiPoly(n, {(0, 0, 0, l): c_l / 2})
    )
    h = tau.apply(p)
    automorphism = delta.exp(h)
    return FamilyInstance(
        l=l,
        coefficients=coeffs,
        delta=delta,
        g2=g2,
        g3=g3,
        tau=tau,
        tau_inv=tau.invert_triangular(),
        slice_potential=p,
        epsilon=PolyEndo((x1 + t * p, x2, x3)),
        h=h,
        automorphism=automorphism,
        delta_zero=delta.specialize(0),
        h_limit=h.specialize_t(0),
        fiber_zero=automorphism.specialize(0),
    )


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
