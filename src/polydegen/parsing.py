"""Text forms.

``parse_poly`` reads exactly the text that ``str(MultiPoly)`` writes, and
raises ``ParseError``, naming the position, for any other text.  The zero
polynomial is ``0``; any other is a sum of groups, one per monomial of the
variables:

    text      ::=  '-'? group ((' + ' | ' - ') group)*
    group     ::=  rational | (rational '*')? monomial
                |  '(' scalar ')' ('*' monomial)?
    scalar    ::=  '-'? tterm ((' + ' | ' - ') tterm)*
    tterm     ::=  rational | (rational '*')? 't' ('^' '-'? digits)?
    monomial  ::=  'x' digits ('^' digits)? ('*' 'x' digits ('^' digits)?)*
    rational  ::=  digits ('/' digits)?

A text that reads to the same value in any other way is refused, so these
hold as well:

* the groups stand in strictly descending graded-lex order of their
  monomials (higher total degree first, then x1 > x2 > ... > xn);
* a group is parenthesised unless it is one term with no t; its terms
  stand in strictly ascending powers of t, and it is preceded by ' + ',
  its signs inside;
* no coefficient is 0 or written ``1*``, no number starts with 0, no
  power is written ``^1``, no denominator is 1, and ``0`` stands only as
  the whole text;
* the variables of a monomial stand in ascending index order, each index
  in 1..arity and each power at most ``MAX_EXPONENT`` (2^31 - 1), the
  largest the packed term kernel holds.

A coefficient out of lowest terms, ``2/4``, reads at its value.  A digit
string longer than ``int()`` converts from text
(``sys.get_int_max_str_digits()``) is a ``ParseError`` too.  The reader is
one regex match per group and one per term of a parenthesised group, so it
takes time linear in the text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from ._kernel import MAX_ARITY, MAX_EXPONENT, SLOT_BITS, canonical
from .errors import ParseError
from .multipoly import MultiPoly

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")

_NUM = r"[1-9]\d*"  # no leading zero, and not 0
_DEN = r"(?!1(?!\d))[1-9]\d*"  # and not 1
_POWER = r"(?:[1-9]\d+|[2-9])"  # and not 1
_MONOMIAL = rf"x{_NUM}(?:\^{_POWER})?(?:\*x{_NUM}(?:\^{_POWER})?)*"
# One group: its separator, then a parenthesised scalar (its terms read by
# _TERM_RE, no minus before it) and its monomial, a rational and its
# monomial, or a monomial alone.
_GROUP_RE = re.compile(
    rf"( \+ | - |-|)(?:(?<!-)(?<!- )\(([^()]*)\)(?:\*({_MONOMIAL}))?"
    rf"|(?!1\*)({_NUM})(?:/({_DEN}))?(?:\*({_MONOMIAL}))?|({_MONOMIAL}))"
)
# One term of a parenthesised scalar: its separator, then a rational and a
# power of t, a rational alone, or a power of t alone.
_TERM_RE = re.compile(
    rf"( \+ | - |-|)(?:(?!1\*)({_NUM})(?:/({_DEN}))?(\*t(?:\^(-?{_POWER}|-1))?)?"
    rf"|t(?:\^(-?{_POWER}|-1))?)"
)
_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")
_DIGITS_RE = re.compile(r"\d+")
_OPENING = ("", "-")  # the separators of a first term


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational like '-2/3' or '5'.

    >>> parse_rational('-2/3')
    Fraction(-2, 3)
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not a rational: {_clip(text)!r}")
    num, _, den = text.partition("/")
    den = _digits(den) if den else 1
    if not den:
        raise ParseError(f"zero denominator in {_clip(text)!r}")
    return Fraction(_digits(num), den)


def _digits(text: str) -> int:
    """int(text), reporting a digit string too long to convert as a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"number too long: {text[:20]}... ({len(text)} characters)") from None


def _clip(text: str, width: int = 40) -> str:
    """text, cut to ``width`` characters so that error messages stay short."""
    return text if len(text) <= width else f"{text[:width]}..."


def _error(text: str, pos: int, what: str) -> ParseError:
    return ParseError(f"{what} at position {pos}: {_clip(text[pos:], 20)!r}")


def _monomial(text: str, arity: int) -> tuple[int, int]:
    """(total degree, packed key) of a monomial that _MONOMIAL matched."""
    degree = key = last = 0
    for index, power in _FACTOR_RE.findall(text):
        i = int(index)
        e = int(power) if power else 1
        if i <= last:
            raise ParseError("variables out of order")
        if i > arity:
            raise ParseError(f"variable x{_clip(index)} out of range for arity {arity}")
        if e > MAX_EXPONENT:
            raise ParseError(f"exponent {_clip(power)} is above the bound {MAX_EXPONENT}")
        degree += e
        key |= e << ((arity - i) * SLOT_BITS)
        last = i
    return degree, key


def _read(text: str, arity: int) -> tuple[list[int], list[int], list[int]]:
    """The keys, numerators and denominators of the terms of a nonzero text."""
    shift = arity * SLOT_BITS
    keys: list[int] = []
    nums: list[int] = []
    dens: list[int] = []
    last = (float("inf"),)  # (degree, key) of the previous group
    pos, end = 0, len(text)
    while True:
        m = _GROUP_RE.match(text, pos)
        if m is None or (m[1] in _OPENING) != (pos == 0):
            raise _error(text, pos, "not canonical text")
        sep, inner, mono, num, den, mono2, mono3 = m.groups()
        mono = mono or mono2 or mono3
        if mono:
            try:
                order = _monomial(mono, arity)
            except ParseError as exc:  # the monomial ends the group
                raise _error(text, m.end() - len(mono), str(exc)) from None
        else:
            order = (0, 0)
        if order >= last:
            raise _error(text, pos, "terms out of graded-lex order")
        last = order
        low = order[1]
        if inner is None:
            keys.append(low)
            c = int(num) if num else 1
            nums.append(-c if "-" in sep else c)
            dens.append(int(den) if den else 1)
        else:
            start = pos = m.start(2)
            stop = m.end(2)
            last_e = None
            while True:
                t = _TERM_RE.match(text, pos, stop)
                if t is None or (t[1] in _OPENING) != (pos == start):
                    raise _error(text, pos, "not canonical text")
                tsep, num, den, times_t, e1, e2 = t.groups()
                if num is None:
                    e = int(e2 or 1)
                else:
                    e = int(e1 or 1) if times_t else 0
                if last_e is not None and e <= last_e:
                    raise _error(text, pos, "powers of t out of ascending order")
                last_e = e
                keys.append(low + (e << shift))
                c = int(num) if num else 1
                nums.append(-c if "-" in tsep else c)
                dens.append(int(den) if den else 1)
                pos = t.end()
                if pos == stop:
                    break
            if not e and t.start() == start:  # one term, with no t
                raise _error(text, start - 1, "a rational in parentheses")
        pos = m.end()
        if pos == end:
            return keys, nums, dens


def parse_poly(text: str, arity: int) -> MultiPoly:
    """Read a polynomial of the given arity over Q[t,t^-1] from its canonical text.

    An arity outside 1..MAX_ARITY is a ParseError.

    >>> print(parse_poly('(-1/2*t^-1)*x1^2 + x2', 2))
    (-1/2*t^-1)*x1^2 + x2
    """
    if not 1 <= arity <= MAX_ARITY:
        raise ParseError(f"arity {_clip(str(arity))} is outside 1..{MAX_ARITY}")
    if text == "0":
        return MultiPoly.zero(arity)
    try:
        keys, nums, dens = _read(text, arity)
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        # int() refused a digit string, so the longest one is too long
        _digits(max(_DIGITS_RE.findall(text), key=len))
        raise
    den = lcm(*dens)
    if den == 1:
        acc = dict(zip(keys, nums))
    else:
        acc = {key: num * (den // d) for key, num, d in zip(keys, nums, dens)}
    return MultiPoly._raw(arity, canonical(acc, den))
