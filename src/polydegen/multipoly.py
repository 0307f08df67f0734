"""Sparse multivariate polynomials over Q[t,t^-1].

A :class:`MultiPoly` of arity n lives in Q[t,t^-1][x1,...,xn].  Terms are
stored flat in a :class:`~polydegen._kernel.Terms` container: each key is one
int packing the (nonnegative) variable exponents e1..en together with the
exponent of t, which may be negative, and each value is an integer numerator
over a denominator shared by the whole polynomial.  Folding t into the key
keeps multiplication a single merge loop of int additions and int products;
see :mod:`polydegen._kernel` for the layout.  The public accessor
:meth:`MultiPoly.terms` decodes keys to exponent tuples and values to
``Fraction``.  A scalar of Q[t,t^-1] is a constant ``MultiPoly``, one in
which no variable occurs; :meth:`MultiPoly.coefficient` returns one.

Variables are numbered from 1, matching the text form x1, x2, ...  The
monomial order used for rendering and for division is graded lexicographic
with x1 > x2 > ... > xn, higher total degree first.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from . import _kernel as K
from .errors import (
    ArityMismatch,
    CoefficientTooLong,
    ExponentOverflow,
    NonUnit,
    PoleAtZero,
)

_W = K.SLOT_BITS
_SLOT = K.SLOT_MASK


class MultiPoly:
    """An element of Q[t,t^-1][x1,...,xn], immutable and hashable.

    >>> x1 = MultiPoly.variable(2, 1)
    >>> x2 = MultiPoly.variable(2, 2)
    >>> t = MultiPoly.parameter(2)
    >>> print(x2 - x1**2 * t**-1 * Fraction(1, 2))
    (-1/2*t^-1)*x1^2 + x2
    >>> print((x1 + x2) * (x1 - x2))
    x1^2 - x2^2
    """

    __slots__ = ("arity", "_terms")

    def __init__(self, arity: int, terms: Mapping[tuple, int | Fraction] | None = None):
        _check_arity(arity)
        pieces = []
        for key, coeff in (terms or {}).items():
            key = tuple(int(e) for e in key)
            if len(key) != arity + 1:
                raise ArityMismatch(f"term key {key} has length {len(key)}, expected {arity + 1}")
            if any(e < 0 for e in key[:arity]):
                raise ValueError(f"negative variable exponent in {key}")
            _check_bound(key[:arity])
            c = Fraction(coeff)
            pieces.append(K.canonical({_pack(key[:arity], key[arity]): c.numerator}, c.denominator))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", K.add_terms(*pieces))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @staticmethod
    def _raw(arity: int, terms: K.Terms) -> MultiPoly:
        # internal fast path: terms already canonical
        out = _new_object(MultiPoly)
        _set_arity(out, arity)
        _set_terms(out, terms)
        return out

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, arity: int) -> MultiPoly:
        _check_arity(arity)
        return cls._raw(arity, K.make({}))

    @classmethod
    def one(cls, arity: int) -> MultiPoly:
        return cls.constant(arity, 1)

    @classmethod
    def constant(cls, arity: int, value: int | Fraction) -> MultiPoly:
        """Embed a rational, so the variables do not occur."""
        _check_arity(arity)
        c = Fraction(value)
        if not c:
            return cls.zero(arity)
        return cls._raw(arity, K.make({0: c.numerator}, c.denominator))

    @classmethod
    def variable(cls, arity: int, index: int) -> MultiPoly:
        """The variable x_index, with 1 <= index <= arity."""
        if not 1 <= index <= arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {arity}")
        return cls._raw(arity, K.make({K.variable_key(arity, index): 1}))

    @classmethod
    def parameter(cls, arity: int) -> MultiPoly:
        """The parameter t as a constant polynomial."""
        _check_arity(arity)
        return cls._raw(arity, K.make({K.t_key(arity): 1}))

    @classmethod
    def sum(cls, arity: int, polys: Iterable[MultiPoly]) -> MultiPoly:
        """The sum of polynomials of the given arity, added in one pass.

        Unlike a chain of ``+``, no partial sum is copied or reduced.

        >>> x1 = MultiPoly.variable(2, 1)
        >>> print(MultiPoly.sum(2, [x1, x1**2 / 2, -x1]))
        1/2*x1^2
        """
        _check_arity(arity)
        pieces = []
        for poly in polys:
            if poly.arity != arity:
                raise ArityMismatch(f"arity {arity} vs {poly.arity}")
            pieces.append(poly._terms)
        return cls._raw(arity, K.add_terms(*pieces))

    # ---------------------------------------------------------------- queries

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = self._coerce_eq(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.arity == other.arity
            and self._terms.den == other._terms.den
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.arity, self._terms.den, frozenset(self._terms.items())))

    def _coerce_eq(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.arity, other)
        return NotImplemented

    def term_count(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[tuple, Fraction]]:
        """Flat terms ((e1,...,en,et), coefficient), unordered."""
        n, den = self.arity, self._terms.den
        t_shift = n * _W
        for key, c in self._terms.items():
            yield _powers(key, n) + (key >> t_shift,), Fraction(c, den)

    def coefficient(self, powers: Sequence[int]) -> MultiPoly:
        """The Q[t,t^-1] coefficient of x1^p1*...*xn^pn, as a constant.

        >>> p = MultiPoly(2, {(1, 0, -1): Fraction(1, 2), (1, 0, 0): 3})
        >>> print(p.coefficient((1, 0)))
        (1/2*t^-1 + 3)
        """
        if len(powers) != self.arity:
            raise ArityMismatch(f"{len(powers)} powers for arity {self.arity}")
        xs = tuple(int(p) for p in powers)
        if any(not 0 <= p <= K.MAX_EXPONENT for p in xs):
            return MultiPoly.zero(self.arity)
        low = _pack(xs)
        low_mask = (1 << (self.arity * _W)) - 1
        terms = self._terms
        part = {key - low: c for key, c in terms.items() if key & low_mask == low}
        return MultiPoly._raw(self.arity, K.canonical(part, terms.den))

    def is_constant(self) -> bool:
        """True when no variable occurs (scalars in t are allowed)."""
        low_mask = (1 << (self.arity * _W)) - 1
        return not any(key & low_mask for key in self._terms)

    def is_unit(self) -> bool:
        """True for a unit of Q[t,t^-1]: one term c*t^k and no variable.
        Its inverse is ``self ** -1``.

        >>> t = MultiPoly.parameter(1)
        >>> (t**-3 * 2).is_unit(), (t + 1).is_unit()
        (True, False)
        """
        if len(self._terms) != 1:
            return False
        [key] = self._terms
        return not key & ((1 << (self.arity * _W)) - 1)

    def involves(self, index: int) -> bool:
        """True when x_index occurs in some term."""
        shift = self._shift(index)
        return any((key >> shift) & _SLOT for key in self._terms)

    def is_t_regular(self) -> bool:
        """True when no negative power of t occurs anywhere."""
        # the variable slots are nonnegative, so the sign of a key is that of et
        return all(key >= 0 for key in self._terms)

    def _shift(self, index: int) -> int:
        """Bit offset of x_index's slot in a key."""
        if not 1 <= index <= self.arity:
            raise ArityMismatch(f"variable index {index} out of range for arity {self.arity}")
        return (self.arity - index) * _W

    # ------------------------------------------------------------- arithmetic

    def _coerce(self, other) -> MultiPoly:
        other = self._coerce_eq(other)
        if other is NotImplemented:
            return NotImplemented
        if other.arity != self.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")
        return other

    def __add__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly._raw(self.arity, K.add_terms(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._raw(self.arity, K.neg_terms(self._terms))

    def __sub__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly._raw(self.arity, K.sub_terms(self._terms, other._terms))

    def __rsub__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly._raw(self.arity, K.sub_terms(other._terms, self._terms))

    def __mul__(self, other) -> MultiPoly:
        if type(other) is not MultiPoly:
            if isinstance(other, (int, Fraction)):
                return MultiPoly._raw(self.arity, K.scale_terms(self._terms, other))
            return NotImplemented
        elif other.arity != self.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")
        return MultiPoly._raw(
            self.arity, K.mul_terms(self._terms, other._terms, K.guard_mask(self.arity))
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __pow__(self, exponent: int) -> MultiPoly:
        if not isinstance(exponent, int):
            return NotImplemented
        return self.powers()[exponent]

    def powers(self) -> Mapping[int, MultiPoly]:
        """A table of this polynomial's powers: ``table[e]`` is ``self ** e``.

        Each power is built once per table, when first asked for.  A base
        of at most one term is raised in one step; any other base is
        multiplied up, one product from the power below, and never
        squared.  A negative power needs a unit base and raises NonUnit
        otherwise.  The table keeps every power it has built.

        >>> print((MultiPoly.variable(1, 1) + 1).powers()[3])
        x1^3 + 3*x1^2 + 3*x1 + 1
        """
        return _PowerTable({1: self})

    # ------------------------------------------------------------- operations

    def diff(self, index: int) -> MultiPoly:
        """Partial derivative with respect to x_index.

        >>> p = MultiPoly(2, {(2, 1, 0): 1, (0, 0, 3): 5})
        >>> print(p.diff(1))
        2*x1*x2
        """
        shift = self._shift(index)
        unit = 1 << shift
        out: dict[int, int] = {}
        for key, c in self._terms.items():
            e = (key >> shift) & _SLOT
            if e:
                out[key - unit] = c * e
        return MultiPoly._raw(self.arity, K.canonical(out, self._terms.den))

    def substitute(self, images: Sequence[MultiPoly]) -> MultiPoly:
        """Evaluate at x_i = images[i-1]; t is carried along unchanged.

        All images must share one arity, which becomes the arity of the
        result.  Terms are grouped one variable at a time, and the groups
        of each level are added in one n-ary kernel sum.  The powers of
        each image come from one :meth:`powers` table per call, shared
        across all groups; that keeps repeated substitution of large images
        linear in the number of groups rather than quadratic.  A table
        builds only the powers some group reads.

        >>> p = MultiPoly(2, {(2, 0, 0): 1, (0, 1, 0): 1})
        >>> y1 = MultiPoly.variable(1, 1)
        >>> print(p.substitute([y1 + 1, y1 * y1]))
        2*x1^2 + 2*x1 + 1
        """
        n = self.arity
        if len(images) != n:
            raise ArityMismatch(f"{len(images)} images for arity {n}")
        for img in images:
            if not isinstance(img, MultiPoly):
                raise TypeError("images must be MultiPoly instances")
            if img.arity != images[0].arity:
                raise ArityMismatch("images have mixed arities")
        m = images[0].arity
        if not self._terms:
            return MultiPoly.zero(m)
        tables = [img.powers() for img in images]
        return MultiPoly._raw(m, _substitute(self._terms, 0, tables, self._terms.den, m))

    def exact_divide(self, divisor: MultiPoly) -> MultiPoly | None:
        """Exact quotient with coefficients in Q[t,t^-1], or None.

        Both operands are first shifted by a power of t so that each has
        smallest t exponent 0.  Then t does not divide the shifted divisor,
        and as t is prime, divisibility in Q[t,t^-1][x] is divisibility in
        Q[x1,...,xn,t].  There division eliminates leading terms, ordered
        graded-lex on the variables with the t exponent breaking ties (a
        monomial order); a leading term that the divisor's leading term
        does not divide means no quotient exists, and None is returned.

        >>> x1 = MultiPoly.variable(2, 1)
        >>> x2 = MultiPoly.variable(2, 2)
        >>> q = (x1**2 - x2**2).exact_divide(x1 + x2)
        >>> print(q)
        x1 - x2
        >>> (x1**2 + x2).exact_divide(x1 + x2) is None
        True
        """
        other = self._coerce(divisor)
        if other is NotImplemented:
            raise TypeError("divisor must be a polynomial")
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        n = self.arity
        if self.is_zero():
            return MultiPoly.zero(n)
        t_shift = n * _W
        low_mask = (1 << t_shift) - 1
        guard = K.guard_mask(n)
        # the smallest key has the smallest t exponent
        r_shift = min(self._terms) >> t_shift << t_shift
        d_shift = min(other._terms) >> t_shift << t_shift
        rem = K.make({key - r_shift: c for key, c in self._terms.items()}, self._terms.den)
        div = K.make({key - d_shift: c for key, c in other._terms.items()}, other._terms.den)

        def order(key: int) -> tuple:
            return _degree(key & low_mask), key & low_mask, key

        d_key = max(div, key=order)
        shift = r_shift - d_shift
        quotient = []
        while rem:
            r_key = max(rem, key=order)
            gap = r_key - d_key
            if gap < 0 or gap & guard:  # a variable's exponent, or t's, would go negative
                return None
            q = Fraction(rem[r_key] * div.den, rem.den * div[d_key])
            quotient.append(K.make({gap + shift: q.numerator}, q.denominator))
            rem = K.sub_terms(rem, K.mul_terms(K.make({gap: q.numerator}, q.denominator), div, guard))
        return MultiPoly._raw(n, K.add_terms(*quotient))

    def specialize_t(self, alpha: int | Fraction) -> MultiPoly:
        """Substitute a rational value for t.

        Specializing at 0 requires every coefficient to be regular there;
        otherwise the offending monomial is named in the error.

        >>> p = MultiPoly(2, {(1, 0, 1): 1, (0, 1, 0): 2})
        >>> print(p.specialize_t(Fraction(1, 2)))
        1/2*x1 + 2*x2
        """
        alpha = Fraction(alpha)
        n = self.arity
        t_shift = n * _W
        low_mask = (1 << t_shift) - 1
        terms = self._terms
        out: dict[int, int] = {}
        if alpha == 0:
            for key, c in terms.items():
                if key < 0:
                    monomial = _monomial_str(key & low_mask, n)
                    raise PoleAtZero(f"coefficient of {monomial or '1'} has a pole at t = 0")
                if key <= low_mask:
                    out[key] = c
            return MultiPoly._raw(n, K.canonical(out, terms.den))
        if not terms:
            return self
        # alpha^et = p^et / q^et; scale every term by p^-lo * q^hi, with lo and
        # hi the extreme t exponents, so the sums stay integral, and put that
        # factor back once at the end.
        p, q = alpha.numerator, alpha.denominator
        lo = min(terms) >> t_shift
        hi = max(terms) >> t_shift
        factors: dict[int, int] = {}
        for key, c in terms.items():
            et = key >> t_shift
            f = factors.get(et)
            if f is None:
                f = factors[et] = p ** (et - lo) * q ** (hi - et)
            low = key & low_mask
            out[low] = out.get(low, 0) + c * f
        back = Fraction(p) ** lo / Fraction(q) ** hi
        scale = back.numerator
        return MultiPoly._raw(
            n, K.canonical({key: c * scale for key, c in out.items()}, terms.den * back.denominator)
        )

    def extend_arity(self, arity: int) -> MultiPoly:
        """View this polynomial inside a ring with extra later variables."""
        if arity < self.arity:
            raise ArityMismatch(f"cannot shrink arity {self.arity} to {arity}")
        if arity == self.arity:
            return self
        # the new slots go below the old ones: a shift per key
        shift = (arity - self.arity) * _W
        terms = self._terms
        return MultiPoly._raw(
            arity, K.make({key << shift: c for key, c in terms.items()}, terms.den)
        )

    # -------------------------------------------------------------- rendering

    def __str__(self) -> str:
        """Canonical text: one group per variable monomial, graded-lex
        descending; a group whose coefficient is not a rational is
        parenthesised, its powers of t ascending.
        """
        terms = self._terms
        if not terms:
            return "0"
        n, den = self.arity, terms.den
        t_shift = n * _W
        low_mask = (1 << t_shift) - 1
        groups: dict[int, list[tuple[int, int]]] = {}
        for key, c in terms.items():
            groups.setdefault(key & low_mask, []).append((key >> t_shift, c))
        parts = []
        for low in sorted(groups, key=lambda low: (_degree(low), low), reverse=True):
            mono = _monomial_str(low, n)
            group = groups[low]
            if len(group) == 1 and not group[0][0]:
                c = group[0][1]
                body = _rational(abs(c), den)
                if mono:
                    body = mono if body == "1" else f"{body}*{mono}"
                parts.append(f" - {body}" if c < 0 else f" + {body}")
            else:
                inner = []
                group.sort()
                for e, c in group:
                    body = _rational(abs(c), den)
                    if e:
                        power = "t" if e == 1 else f"t^{e}"
                        body = power if body == "1" else f"{body}*{power}"
                    inner.append(f" - {body}" if c < 0 else f" + {body}")
                body = f"({_signed(''.join(inner))})"
                parts.append(f" + {body}*{mono}" if mono else f" + {body}")
        return _signed("".join(parts))

    def __repr__(self) -> str:
        return f"MultiPoly({self.arity}, '{self}')"


_new_object = object.__new__
_set_arity = MultiPoly.arity.__set__
_set_terms = MultiPoly._terms.__set__


def _monomial_str(low: int, n: int) -> str:
    """x1^e1*...*xn^en for a key whose t slot is zero, '' for the key 0."""
    pieces = []
    for i in range(1, n + 1):
        e = (low >> ((n - i) * _W)) & _SLOT
        if e == 1:
            pieces.append(f"x{i}")
        elif e:
            pieces.append(f"x{i}^{e}")
    return "*".join(pieces)


def _rational(num: int, den: int) -> str:
    """num/den in lowest terms, as str(Fraction(num, den)) writes it."""
    g = gcd(num, den)
    try:
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    except ValueError:  # more digits than int's str() converts
        limit = sys.get_int_max_str_digits()
        raise CoefficientTooLong(
            f"a coefficient has more than {limit} digits, the limit for printing an integer"
        ) from None


def _signed(joined: str) -> str:
    """A sum built as ' + a - b ...', with its first operator made a sign."""
    return joined[3:] if joined[1] == "+" else "-" + joined[3:]


# ------------------------------------------------------------- key layout


def _check_arity(arity: int) -> None:
    if arity < 1:
        raise ValueError("arity must be at least 1")


def _check_bound(powers: Sequence[int]) -> None:
    for e in powers:
        if e > K.MAX_EXPONENT:
            raise ExponentOverflow(f"variable exponent {e} is above {K.MAX_EXPONENT}")


def _pack(powers: Sequence[int], t_exp: int = 0) -> int:
    """The key of x1^e1*...*xn^en*t^et; exponents must be in range."""
    key = t_exp
    for e in powers:
        key = (key << _W) | e
    return key


def _powers(key: int, n: int) -> tuple:
    """The variable exponents (e1,...,en) of a key."""
    return tuple((key >> (j * _W)) & _SLOT for j in range(n - 1, -1, -1))


def _degree(low: int) -> int:
    """Total degree of a key whose t slot is zero."""
    total = 0
    while low:
        total += low & _SLOT
        low >>= _W
    return total


def _substitute(terms: dict[int, int], i: int, tables: list, den: int, m: int) -> K.Terms:
    """The numerators ``terms`` over ``den``, in which x1..x_i no longer
    occur, with x_(i+1)..x_n replaced by the bases of ``tables[i:]``,
    polynomials of arity m."""
    n = len(tables)
    if i == n:
        # only t is left: move its slot from above n variables to above m
        n_shift, m_shift = n * _W, m * _W
        return K.canonical({key >> n_shift << m_shift: c for key, c in terms.items()}, den)
    shift = (n - 1 - i) * _W
    groups: dict[int, dict[int, int]] = {}
    for key, c in terms.items():
        e = (key >> shift) & _SLOT
        groups.setdefault(e, {})[key - (e << shift)] = c
    table, guard = tables[i], K.guard_mask(m)
    pieces = []
    for e in sorted(groups, reverse=True):
        part = _substitute(groups[e], i + 1, tables, den, m)
        pieces.append(part if e == 0 else K.mul_terms(part, table[e]._terms, guard))
    return K.add_terms(*pieces)


class _PowerTable(dict):
    """Exponent -> power of the base ``self[1]``, each built on first use.
    For a base of two or more terms, powers 1..k are always all present."""

    __slots__ = ()

    def __missing__(self, e: int) -> MultiPoly:
        base = self[1]
        n, terms = base.arity, base._terms
        if len(terms) < 2:  # zero or one term, raised in one step
            key, num = next(iter(terms.items()), (0, 0))
            key, num, den = K.monomial_power(key, num, terms.den, e, n)
            power = MultiPoly._raw(n, K.make({key: num} if num else {}, den))
        elif e < 1:
            if e:  # the units are the nonzero terms c*t^k, which have one term
                raise NonUnit("negative powers need a unit base")
            power = MultiPoly.one(n)
        else:
            k = len(self) - (0 in self)
            power = self[k]
            while k < e:
                k += 1
                power = self[k] = MultiPoly._raw(n, K.mul_terms(power._terms, terms, K.guard_mask(n)))
        self[e] = power
        return power
