"""Endomorphisms of Q[t,t^-1][x1,...,xn] given by their variable images.

A :class:`PolyEndo` stores the tuple (phi(x1),...,phi(xn)) in the shape
:class:`Images`, which triangular derivations share.  Composition
follows the usual convention (phi o psi)(xi) = phi(psi(xi)): psi's images
are rewritten through phi.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Sequence

from .errors import ArityMismatch, NotTriangular
from .multipoly import MultiPoly


class Images:
    """A map of Q[t,t^-1][x1,...,xn] given by the images of x1..xn, all of arity n.

    The shape shared by endomorphisms and derivations: the validated image
    tuple, its arity, specialization at t = alpha image by image, extension
    by later variables, and text.  A map is an immutable value, equal only
    to a map of its own class with the same images.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[MultiPoly]):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ArityMismatch("a map needs at least one image")
        for img in images:
            if not isinstance(img, MultiPoly):
                raise TypeError("images must be MultiPoly instances")
            if img.arity != n:
                raise ArityMismatch(f"image arity {img.arity} does not match count {n}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    @property
    def arity(self) -> int:
        return len(self.images)

    def specialize(self, alpha: int | Fraction):
        return type(self)(tuple(img.specialize_t(alpha) for img in self.images))

    def extend_arity(self, arity: int):
        """The same map with extra later variables x_i, each sent to ``_new_image(arity, i)``."""
        images = [img.extend_arity(arity) for img in self.images]
        images += [self._new_image(arity, i) for i in range(self.arity + 1, arity + 1)]
        return type(self)(tuple(images))

    def __str__(self) -> str:
        return "(" + ", ".join(str(img) for img in self.images) + ")"

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self}"


class PolyEndo(Images):
    """An endomorphism, determined by where each variable goes.

    >>> x1 = MultiPoly.variable(2, 1)
    >>> x2 = MultiPoly.variable(2, 2)
    >>> tau = PolyEndo((x1, x2 + x1**2))
    >>> print(tau)
    (x1, x1^2 + x2)
    """

    __slots__ = ()

    # extend_arity fixes a new variable
    _new_image = staticmethod(MultiPoly.variable)

    @classmethod
    def identity(cls, arity: int) -> PolyEndo:
        return cls(tuple(MultiPoly.variable(arity, i) for i in range(1, arity + 1)))

    # ------------------------------------------------------------- application

    def apply(self, poly: MultiPoly) -> MultiPoly:
        return poly.substitute(self.images)

    def compose(self, other: PolyEndo) -> PolyEndo:
        """self o other, so (self.compose(other)).apply == apply through both."""
        return PolyEndo(tuple(self.apply(img) for img in other.images))

    @staticmethod
    def compose_chain(factors: Sequence[PolyEndo]) -> PolyEndo:
        """Compose factors left to right as maps: factors[0] o ... o factors[-1].

        Folds from the left: each step substitutes the accumulated map's
        images into the next factor's images.  Composition is associative
        and exact, so every grouping gives the same map; this one keeps a
        conjugation tau o epsilon o tau_inv with an elementary epsilon cheap,
        because tau o epsilon is tau with one image shifted, and the single
        large substitution is the last one, into tau_inv.
        """
        if not factors:
            raise ArityMismatch("at least one factor is required")
        return reduce(PolyEndo.compose, factors)

    # ------------------------------------------------------------------ shape

    def _split(self, i: int) -> tuple[MultiPoly, MultiPoly]:
        """(u, r) with image i = u*x_i + r, u the scalar coefficient of x_i alone."""
        n = self.arity
        unit_vec = tuple(1 if j == i - 1 else 0 for j in range(n))
        lead = self.images[i - 1].coefficient(unit_vec)
        return lead, self.images[i - 1] - lead * MultiPoly.variable(n, i)

    def is_triangular(self) -> bool:
        """x_i maps to u_i*x_i + (terms in x1..x_{i-1}) with u_i a unit.

        The units are those of Q[t,t^-1], the single terms c*t^k.  The map
        is triangular exactly when its first triangularizing order is the
        standard one.

        >>> x1 = MultiPoly.variable(2, 1)
        >>> x2 = MultiPoly.variable(2, 2)
        >>> PolyEndo((x1, x2 + x1**3)).is_triangular()
        True
        >>> PolyEndo((x1 + x2, x2)).is_triangular()
        False
        """
        return self.is_triangular_up_to_permutation() == tuple(range(1, self.arity + 1))

    def is_triangular_up_to_permutation(self) -> tuple[int, ...] | None:
        """A variable order making the map triangular, or None.

        Returns the first permutation p of 1..n, in lexicographic order, such
        that conjugating by the linear map x_i -> x_{p_i} is triangular in
        the standard order: image p_k must be u*x_{p_k} plus terms in
        x_{p_1}..x_{p_{k-1}}.  So an order exists exactly when every image i
        is u*x_i + r_i with u a unit and r_i free of x_i, and the graph with
        an edge j -> i whenever r_i involves x_j has no cycle; the orders are
        then its topological orders, and taking the smallest ready variable
        at each step gives the first.  O(n^2) variable tests.
        """
        n = self.arity
        needs = []
        for i in range(1, n + 1):
            lead, rest = self._split(i)
            if not lead.is_unit() or rest.involves(i):
                return None
            needs.append({j for j in range(1, n + 1) if rest.involves(j)})
        order: list[int] = []
        placed: set[int] = set()
        while len(order) < n:
            ready = [i for i in range(1, n + 1) if i not in placed and needs[i - 1] <= placed]
            if not ready:
                return None  # every variable left lies on or after a cycle
            order.append(ready[0])
            placed.add(ready[0])
        return tuple(order)

    # ---------------------------------------------------------------- inverses

    def invert_triangular(self) -> PolyEndo:
        """Exact inverse of a triangular map by back substitution.

        >>> x1 = MultiPoly.variable(2, 1)
        >>> x2 = MultiPoly.variable(2, 2)
        >>> tau = PolyEndo((x1, x2 + x1**2))
        >>> print(tau.invert_triangular())
        (x1, -x1^2 + x2)
        """
        if not self.is_triangular():
            raise NotTriangular("the map is not triangular over Q[t,t^-1]")
        n = self.arity
        inverse: list[MultiPoly] = []
        for i in range(1, n + 1):
            lead, rest = self._split(i)
            # x_i = (phi(x_i) - rest) / lead, then push the earlier inverse
            # images through rest.
            filler = inverse + [
                MultiPoly.variable(n, j) for j in range(i, n + 1)
            ]
            shifted = rest.substitute(filler)
            inverse.append((MultiPoly.variable(n, i) - shifted) * lead**-1)
        return PolyEndo(tuple(inverse))

    def verify_inverse_pair(self, other: PolyEndo) -> bool:
        """True when both composites are the identity, checked exactly."""
        ident = PolyEndo.identity(self.arity)
        return self.compose(other) == ident and other.compose(self) == ident
