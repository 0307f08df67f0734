"""The term kernel: sparse arithmetic on packed exponents and integer numerators.

A polynomial's terms live in a :class:`Terms` dict.  Each key is one int
that packs a whole exponent vector, as in Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors" (CASC
2007): for arity n the variable exponents e1..en sit in n slots of
``SLOT_BITS`` bits each, x1 highest, and the exponent of t sits above them
in a signed top slot,

    key = et * 2**(n*SLOT_BITS) + e1 * 2**((n-1)*SLOT_BITS) + ... + en.

Python ints are unbounded, so et may be any integer; the low n slots are
always nonnegative.  Adding two keys multiplies the monomials.  The top bit
of each variable slot is a guard bit: a valid exponent is at most
``MAX_EXPONENT``, so a sum of two never carries into the next slot, and a
set guard bit in a product key is exactly an exponent overflow.

The values are integer numerators over one positive denominator ``den``
shared by every term, the content form of FLINT's ``fmpq_poly``.  The form
is canonical -- ``den > 0``, no zero numerators, and
``gcd(den, all numerators) == 1`` -- so equal polynomials have equal
``Terms``.  The five operations take canonical operands, which lets them
find the common factor of a result from the operands' denominators, and
return canonical results.  None mutates its arguments, and each returns a
fresh container, except that the sum of one piece is that piece.

``add_terms`` is the one sum, and it is n-ary: it puts any number of pieces
over the lcm of their denominators in one pass and reduces the sum with one
gcd, so a caller that adds many polynomials (a substitution's groups, an
exponential series, the terms of a constructor) copies and reduces no
partial sum.  Subtraction adds the negation.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import ExponentOverflow, NonUnit

SLOT_BITS = 32
SLOT_MASK = (1 << SLOT_BITS) - 1
MAX_EXPONENT = (1 << (SLOT_BITS - 1)) - 1

# The largest arity parse_poly accepts.  A key holds arity * SLOT_BITS bits
# and a substitution recurses once per variable, so an arity read from
# untrusted text must be bounded before either happens.  64 is far inside
# the recursion limit and 16 times the largest arity any command emits.
MAX_ARITY = 64


def kernel_backend() -> str:
    """Name of the term kernel; there is one, written in pure Python."""
    return "pure"


class Terms(dict):
    """Packed key -> nonzero int numerator, over the shared denominator ``den``.

    Build one with :func:`make`, which sets ``den``.
    """

    __slots__ = ("den",)


def make(acc: dict, den: int = 1) -> Terms:
    """Terms holding ``acc``, already canonical over ``den``."""
    out = Terms(acc)
    out.den = den
    return out


def canonical(acc: dict, den: int, bound: int | None = None) -> Terms:
    """Terms holding the values ``acc[k] / den`` in canonical form (den > 0).

    ``bound`` is a divisor of ``den`` known to be a multiple of
    ``gcd(den, numerators)``; it defaults to ``den``.  A smaller bound makes
    the gcd cheap when the numerators are large.
    """
    if 0 in acc.values():
        acc = {key: c for key, c in acc.items() if c}
    if not acc:
        return make(acc)
    if bound is None:
        bound = den
    if bound != 1:
        g = gcd(bound, *acc.values())
        if g != 1:
            return make({key: c // g for key, c in acc.items()}, den // g)
    return make(acc, den)


def variable_key(arity: int, index: int) -> int:
    """The key of x_index, for 1 <= index <= arity."""
    return 1 << ((arity - index) * SLOT_BITS)


def t_key(arity: int) -> int:
    """The key of t."""
    return 1 << (arity * SLOT_BITS)


def monomial_power(key: int, num: int, den: int, e: int, arity: int) -> tuple[int, int, int]:
    """The term ``num/den`` times the monomial ``key``, raised to ``e``.

    Returns ``(key, numerator, denominator > 0)`` in lowest terms; ``den``
    must be positive.  Scaling the key scales every exponent, t's included.
    A negative ``e`` needs a unit, a nonzero term with no variable (``c*t^k``),
    and raises NonUnit otherwise; zero to the power 0 is 1.  Raises
    ExponentOverflow when a variable exponent would pass ``MAX_EXPONENT``.
    """
    low = key & (t_key(arity) - 1)  # the variable slots
    if e < 0:
        if not num or low:
            raise NonUnit("negative powers need a unit base")
        key, num, den, e = -key, den, num, -e
        if den < 0:
            num, den = -num, -den
    elif not num:
        return 0, 0 if e else 1, 1
    while low:
        if (low & SLOT_MASK) * e > MAX_EXPONENT:
            raise ExponentOverflow(
                f"a power has a variable exponent above the bound {MAX_EXPONENT}"
            )
        low >>= SLOT_BITS
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return key * e, num**e, den**e


@lru_cache(maxsize=None)
def guard_mask(arity: int) -> int:
    """The guard bits of the arity's variable slots."""
    top = 1 << (SLOT_BITS - 1)
    mask = 0
    for _ in range(arity):
        mask = (mask << SLOT_BITS) | top
    return mask


def add_terms(*pieces: Terms) -> Terms:
    """The sum of any number of canonical Terms, in one pass.

    Every piece is put over the lcm of the denominators and added into one
    dict, which is reduced once; a sum of many pieces thus copies and
    reduces no partial sum.
    """
    if len(pieces) < 2:
        return pieces[0] if pieces else make({})
    # Knuth's argument for two fractions, extended: a prime that divides the
    # lcm and every numerator of the sum must reach its highest power in the
    # lcm in two pieces or more, since in a lone piece of that power it would
    # divide that piece's content.  Its second arrival, piece k, brings it
    # into gcd(lcm of pieces 1..k-1, d_k); the lcm of those gcds bounds the
    # common factor.
    den = bound = 1
    for piece in pieces:
        g = gcd(den, piece.den)
        den *= piece.den // g
        bound *= g // gcd(bound, g)
    # the largest piece is copied, not looped over
    i = max(range(len(pieces)), key=lambda j: len(pieces[j]))
    base = pieces[i]
    scale = den // base.den
    acc = dict(base) if scale == 1 else {key: c * scale for key, c in base.items()}
    get = acc.get
    for piece in pieces[:i] + pieces[i + 1 :]:
        scale = den // piece.den
        if scale == 1:
            for key, c in piece.items():
                acc[key] = get(key, 0) + c
        else:
            for key, c in piece.items():
                acc[key] = get(key, 0) + c * scale
    return canonical(acc, den, bound)


def sub_terms(a: Terms, b: Terms) -> Terms:
    return add_terms(a, neg_terms(b))


def neg_terms(a: Terms) -> Terms:
    return make({key: -c for key, c in a.items()}, a.den)


def scale_terms(a: Terms, c) -> Terms:
    """a * c for a rational c (an int or a Fraction)."""
    if not c or not a:
        return make({})
    num, den = c.numerator, c.denominator
    # any common factor divides gcd(a.den, num) * den
    return canonical({key: v * num for key, v in a.items()}, a.den * den, gcd(a.den, num) * den)


def mul_terms(a: Terms, b: Terms, guard: int) -> Terms:
    """a * b; raises ExponentOverflow when a product key sets a bit of ``guard``."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return make({})
    if len(a) == 1:
        # a monomial times b: distinct keys of b stay distinct, nothing cancels
        [(ka, ca)] = a.items()
        acc = {ka + kb: ca * cb for kb, cb in b.items()}
    else:
        acc = {}
        get = acc.get
        b_items = list(b.items())
        for ka, ca in a.items():
            for kb, cb in b_items:
                key = ka + kb
                acc[key] = get(key, 0) + ca * cb
        if 0 in acc.values():
            acc = {key: c for key, c in acc.items() if c}
    if any(map(guard.__and__, acc)):
        raise ExponentOverflow(f"a product has a variable exponent above {MAX_EXPONENT}")
    # Gauss's lemma: the content of a product is the product of the contents,
    # and canonical a, b have gcd(da, content a) = gcd(db, content b) = 1, so
    # the common factor of the product is gcd(da, content b) * gcd(db, content a).
    da, db = a.den, b.den
    den = da * db
    if den != 1:
        g = (gcd(da, *b.values()) if da != 1 else 1) * (gcd(db, *a.values()) if db != 1 else 1)
        if g != 1:
            return make({key: c // g for key, c in acc.items()}, den // g)
    return make(acc, den)
