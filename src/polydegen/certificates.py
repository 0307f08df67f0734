"""Tameness and wildness certificates.

Three independent pieces of evidence about phi = exp(h*delta):

* a :class:`ConjugationCertificate` factors phi as tau o epsilon o tau_inv
  over Q[t,t^-1], which makes every fiber away from the poles of tau tame;
* a :class:`WildnessReport` decides wildness of the t = 0 fiber for arity
  three, through three residue conditions that together are equivalent to
  wildness under the stated hypotheses;
* a :class:`StabilizationCertificate` writes the arity n+1 extension of phi
  as a commutator of two triangular-type maps, a four-factor word that
  survives every specialization, t = 0 included.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .derivation import TriangularDerivation
from .endo import PolyEndo
from .errors import HypothesisViolation, KernelViolation
from .multipoly import MultiPoly

WILD = "wild"
TAME = "tame"


class WildnessReport(NamedTuple):
    """Outcome of the three residue conditions at t = 0.

    The fiber is wild exactly when all three flags hold; with any flag
    false it is tame.  Residues are the specializations at t = 0 that the
    flags were read from.
    """

    f2_residue_nonzero: bool
    h_residue_not_in_x1: bool
    derivative_outside_ideal: bool
    f2_residue: MultiPoly
    h_residue: MultiPoly
    derivative_residue: MultiPoly
    verdict: str

    @property
    def flags(self) -> tuple[bool, bool, bool]:
        return (
            self.f2_residue_nonzero,
            self.h_residue_not_in_x1,
            self.derivative_outside_ideal,
        )


def check_wild_at_zero(delta: TriangularDerivation, h: MultiPoly) -> WildnessReport:
    """Decide wildness of the t = 0 fiber of exp(h*delta) for arity 3.

    Hypotheses (violations raise): the derivation and h are regular at
    t = 0, delta(x1) is a scalar vanishing at t = 0, and delta kills h.
    Writing bars for specialization at t = 0, the fiber is wild if and only
    if f2bar is nonzero, hbar involves x2 or x3, and the x2 derivative of
    f3bar lies outside the ideal generated by f2bar in Q[x1,x2].
    """
    if delta.arity != 3:
        raise HypothesisViolation(f"the wildness test needs arity 3, got {delta.arity}")
    if h.arity != 3:
        raise HypothesisViolation(f"h has arity {h.arity}, expected 3")
    f1, f2, f3 = delta.images
    for name, poly in (("delta(x1)", f1), ("delta(x2)", f2), ("delta(x3)", f3), ("h", h)):
        if not poly.is_t_regular():
            raise HypothesisViolation(f"{name} is not regular at t = 0")
    if not f1.specialize_t(0).is_zero():
        raise HypothesisViolation("delta(x1) must vanish at t = 0")
    if not delta.apply(h).is_zero():
        raise KernelViolation("h is not killed by the derivation")

    f2_bar = f2.specialize_t(0)
    f3_bar = f3.specialize_t(0)
    h_bar = h.specialize_t(0)

    flag_f2 = not f2_bar.is_zero()
    flag_h = h_bar.involves(2) or h_bar.involves(3)
    derivative = f3_bar.diff(2)
    # membership in the ideal f2bar*Q[x1,x2]; zero lies in every ideal, and
    # nothing else in the zero ideal
    flag_derivative = not derivative.is_zero() and (
        f2_bar.is_zero() or derivative.exact_divide(f2_bar) is None
    )

    verdict = WILD if (flag_f2 and flag_h and flag_derivative) else TAME
    return WildnessReport(
        f2_residue_nonzero=flag_f2,
        h_residue_not_in_x1=flag_h,
        derivative_outside_ideal=flag_derivative,
        f2_residue=f2_bar,
        h_residue=h_bar,
        derivative_residue=derivative,
        verdict=verdict,
    )


# --------------------------------------------------------------- conjugation


class ConjugationCertificate(NamedTuple):
    """phi = tau o epsilon o tau_inv over Q[t,t^-1], all stored exactly."""

    delta: TriangularDerivation
    h: MultiPoly
    tau: PolyEndo
    tau_inv: PolyEndo
    epsilon: PolyEndo
    slice_potential: MultiPoly
    automorphism: PolyEndo


def build_conjugation(delta: TriangularDerivation, h: MultiPoly) -> ConjugationCertificate:
    """Factor exp(h*delta) through an elementary map.

    Needs delta(x1) to be a unit scalar of Q[t,t^-1], which the slice
    ``delta.sigma`` checks, and delta(h) = 0, which ``delta.exp(h)`` checks.
    tau collects the slice images and p is h with x1 sent to zero.  The
    identities, tau o epsilon o tau_inv = exp(h*delta) among them, are
    checked by the conjugation document's check list.
    """
    variables = [MultiPoly.variable(delta.arity, i) for i in range(1, delta.arity + 1)]
    tau = PolyEndo((variables[0], *delta.kernel_generators()))
    automorphism = delta.exp(h)
    p = h.substitute([MultiPoly.zero(delta.arity)] + variables[1:])
    return ConjugationCertificate(
        delta=delta,
        h=h,
        tau=tau,
        tau_inv=tau.invert_triangular(),
        epsilon=PolyEndo((variables[0] + delta.images[0] * p, *variables[1:])),
        slice_potential=p,
        automorphism=automorphism,
    )


TRIANGULAR = "triangular"
REORDERED = "triangular-after-reordering"
OPAQUE = "opaque"

TAME_KINDS = (TRIANGULAR, REORDERED)


def factor_kind(factor: PolyEndo) -> str:
    """Classify one factor of a tameness word at t = alpha.

    A fiber is tame over Q, so a factor whose images carry t is "opaque".
    A map over Q is "triangular" in the standard variable order, "triangular-
    after-reordering" when some relabeling of the variables makes it
    triangular (elementary maps always are), and "opaque" otherwise.
    """
    # a coefficient equals its value at t = 1 exactly when it is free of t
    if factor.specialize(1) != factor:
        return OPAQUE
    order = factor.is_triangular_up_to_permutation()
    if order is None:
        return OPAQUE
    return TRIANGULAR if order == tuple(range(1, factor.arity + 1)) else REORDERED


class TamenessWord(NamedTuple):
    """A factorization of one fiber into tame-certifying factors."""

    alpha: Fraction
    factors: tuple[PolyEndo, ...]
    fiber: PolyEndo
    factor_kinds: tuple[str, ...]


def specialized_tameness(cert: ConjugationCertificate, alpha: int | Fraction) -> TamenessWord:
    """Specialize the conjugation at t = alpha into a three-factor word.

    The factors are (tau, epsilon, tau_inv) at alpha, maps of Q[x1,...,xn]
    each classified by :func:`factor_kind`; the word document's check list
    checks that they compose to the fiber and that every kind certifies
    tameness.  A pole of tau at alpha surfaces as the usual specialization
    error.
    """
    alpha = Fraction(alpha)
    factors = tuple(
        endo.specialize(alpha) for endo in (cert.tau, cert.epsilon, cert.tau_inv)
    )
    return TamenessWord(
        alpha=alpha,
        factors=factors,
        fiber=cert.automorphism.specialize(alpha),
        factor_kinds=tuple(factor_kind(f) for f in factors),
    )


# -------------------------------------------------------------- stabilization


class StabilizationCertificate(NamedTuple):
    """The arity n+1 extension of exp(h*delta) as a four-factor commutator.

    gamma shifts the fresh variable by h, rho = exp(x_{n+1}*delta), and

        extension = gamma_inv o rho_inv o gamma o rho

    holds over Q[t] and survives every specialization of t, zero included.
    The zero fiber therefore becomes a product of four tame factors one
    variable up, even when it is wild in its own arity.
    """

    delta: TriangularDerivation
    h: MultiPoly
    base: PolyEndo
    extension: PolyEndo
    gamma: PolyEndo
    rho: PolyEndo

    @property
    def factor_count(self) -> int:
        return 4

    def factor_word(self) -> tuple[PolyEndo, PolyEndo, PolyEndo, PolyEndo]:
        """(gamma_inv, rho_inv, gamma, rho), composing to the extension."""
        m = self.gamma.arity
        extended = self.delta.extend_arity(m)
        h_lift = self.h.extend_arity(m)
        new_var = MultiPoly.variable(m, m)
        gamma_inv = PolyEndo(self.gamma.images[:-1] + (new_var - h_lift,))
        rho_inv = extended.exp(-new_var)
        return (gamma_inv, rho_inv, self.gamma, self.rho)


def compose_commutator(
    gamma_inv: PolyEndo, rho_inv: PolyEndo, gamma: PolyEndo, rho: PolyEndo
) -> PolyEndo:
    """gamma_inv o rho_inv o gamma o rho, grouped as gamma_inv o ((rho_inv o gamma) o rho).

    Exact: composition of maps is associative and :meth:`PolyEndo.compose`
    is exact, so every grouping yields the images of the literal four-factor
    word; only the intermediates differ.

    Small: rho_inv = exp(-x_m*delta) fixes x_m, which delta kills, and h,
    since delta(h) = 0.  So rho_inv o gamma is rho_inv with its last image
    shifted to x_m + h.  Substituting it into rho's images gives
    rho_inv o gamma o rho, the conjugate of the shift gamma, and when the
    certified identity holds that is gamma o extension: the extension's
    first n images, which do not involve x_m, followed by x_m + h.  The one
    large substitution thus lands on a result the size of the answer, and
    the last step only sends x_m to x_m - h in it.  Folding from either end
    instead starts from gamma o rho or gamma_inv o rho_inv, which expand
    powers of x_m + h or x_m - h through the exponential series and swell
    far beyond the answer.
    """
    return gamma_inv.compose(rho_inv.compose(gamma).compose(rho))


def build_stabilization(delta: TriangularDerivation, h: MultiPoly) -> StabilizationCertificate:
    """Build the commutator word one variable up.

    Works for any triangular derivation with delta(h) = 0; no unit
    condition on delta(x1) is needed, so the t = 0 data of the family is
    accepted directly.  ``delta.exp(h)`` checks delta(h) = 0.  The
    stabilization document's check list checks that the factors invert and
    that the word composes to the extension.
    """
    base = delta.exp(h)
    m = delta.arity + 1
    new_var = MultiPoly.variable(m, m)
    gamma = PolyEndo(
        tuple(MultiPoly.variable(m, i) for i in range(1, m)) + (new_var + h.extend_arity(m),)
    )
    return StabilizationCertificate(
        delta=delta,
        h=h,
        base=base,
        extension=base.extend_arity(m),
        gamma=gamma,
        rho=delta.extend_arity(m).exp(new_var),
    )
