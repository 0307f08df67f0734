"""Triangular derivations and their exponentials.

A derivation here is determined by the images f_i of the variables, with
the triangularity constraint that f_i only involves x_1..x_{i-1}.  Repeated
application therefore strictly lowers a weighted degree, every orbit of a
polynomial terminates at zero, and exponential sums are finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .endo import Images, PolyEndo
from .errors import ArityMismatch, KernelViolation, NonUnit, NotTriangular
from .multipoly import MultiPoly


class TriangularDerivation(Images):
    """The derivation sending x_i to images[i-1].

    >>> t = MultiPoly.parameter(3)
    >>> x1 = MultiPoly.variable(3, 1)
    >>> x2 = MultiPoly.variable(3, 2)
    >>> delta = TriangularDerivation((t, x1, -2 * x2))
    >>> print(delta.apply(x2 * x2))
    2*x1*x2
    """

    __slots__ = ()

    # extend_arity sends a new variable to zero
    _new_image = staticmethod(lambda arity, i: MultiPoly.zero(arity))

    def __init__(self, images: Sequence[MultiPoly]):
        super().__init__(images)
        for i, img in enumerate(self.images, start=1):
            for j in range(i, self.arity + 1):
                if img.involves(j):
                    raise NotTriangular(f"image of x{i} involves x{j}")

    # ------------------------------------------------------------- application

    def apply(self, poly: MultiPoly) -> MultiPoly:
        """Leibniz extension: sum of f_i * d(poly)/dx_i."""
        if poly.arity != self.arity:
            raise ArityMismatch(f"polynomial arity {poly.arity} vs derivation arity {self.arity}")
        return MultiPoly.sum(
            self.arity,
            [f * poly.diff(i) for i, f in enumerate(self.images, start=1) if not f.is_zero()],
        )

    # ------------------------------------------------------------ exponential

    def exp(self, h: MultiPoly) -> PolyEndo:
        """The automorphism exp(h*delta), with h in the kernel of delta.

        Images are the finite sums sum_k h^k delta^k(x_i) / k!, and the
        result is returned as a PolyEndo.  The n images read the powers of
        h from one table, so each power is built once.

        >>> t = MultiPoly.parameter(3)
        >>> x1 = MultiPoly.variable(3, 1)
        >>> x2 = MultiPoly.variable(3, 2)
        >>> delta = TriangularDerivation((t, x1, -2 * x2))
        >>> print(delta.exp(MultiPoly.one(3)).images[1])
        x1 + x2 + (1/2*t)
        """
        n = self.arity
        if h.arity != n:
            raise ArityMismatch(f"h has arity {h.arity}, derivation has {n}")
        if not self.apply(h).is_zero():
            raise KernelViolation("h is not killed by the derivation")
        powers = h.powers()
        return PolyEndo(tuple(self._series(MultiPoly.variable(n, i), powers) for i in range(1, n + 1)))

    # ------------------------------------------------------------------ slice

    def sigma(self, poly: MultiPoly) -> MultiPoly:
        """Projection onto the kernel along the slice variable x1.

        Requires f1 = delta(x1) to be a scalar unit of Q[t,t^-1].  The value
        is sum_k delta^k(poly)/k! * (-x1/f1)^k, which kills x1, fixes the
        kernel pointwise, and is a ring homomorphism onto the kernel.  The
        ratio -x1/f1 is one term, so each of its powers is raised in one
        step.

        >>> t = MultiPoly.parameter(3)
        >>> x1 = MultiPoly.variable(3, 1)
        >>> x2 = MultiPoly.variable(3, 2)
        >>> delta = TriangularDerivation((t, x1, -2 * x2))
        >>> print(delta.sigma(x2))
        (-1/2*t^-1)*x1^2 + x2
        """
        n = self.arity
        if poly.arity != n:
            raise ArityMismatch(f"polynomial arity {poly.arity} vs derivation arity {n}")
        f1 = self.images[0]
        if not f1.is_unit():
            raise NonUnit(f"delta(x1) = {f1} is not a unit scalar of Q[t,t^-1]")
        return self._series(poly, (-MultiPoly.variable(n, 1) * f1**-1).powers())

    def _series(self, poly: MultiPoly, powers: Mapping[int, MultiPoly]) -> MultiPoly:
        """The finite sum of s^k * delta^k(poly) / k!, with powers[k] = s^k."""
        summands = [poly]
        term = poly
        k = 0
        while True:
            term = self.apply(term)
            if term.is_zero():
                return MultiPoly.sum(poly.arity, summands)
            k += 1
            summands.append(powers[k] * term * Fraction(1, math.factorial(k)))

    def series_length(self) -> int:
        """A bound on the summand count of every exp series, and of sigma on a variable.

        Weigh t as 0, x1 as w_1 = 1 and x_i as w_i = 1 + the weighted
        degree of delta(x_i), which involves only earlier variables.  Then
        delta lowers the weighted degree of every term, so delta^k(x_i) is
        zero once k > w_i, and each of those series has at most max(w) + 1
        summands.

        >>> t = MultiPoly.parameter(3)
        >>> x1 = MultiPoly.variable(3, 1)
        >>> x2 = MultiPoly.variable(3, 2)
        >>> TriangularDerivation((t, x1, -2 * x2)).series_length()
        4
        """
        weights: list[int] = []
        for img in self.images:
            # zip stops at x_{i-1}: a triangular image involves no later variable
            degrees = (sum(w * e for w, e in zip(weights, exps)) for exps, _ in img.terms())
            weights.append(1 + max(degrees, default=0))
        return max(weights) + 1

    def kernel_generators(self) -> tuple[MultiPoly, ...]:
        """The slice images (sigma(x2),...,sigma(xn)).

        Together with the scalars these generate the kernel of the
        derivation, and substituting them for x2..xn is exactly sigma.
        """
        return tuple(self.sigma(MultiPoly.variable(self.arity, i)) for i in range(2, self.arity + 1))
