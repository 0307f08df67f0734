"""Text forms.

The grammar round-trips the canonical rendering of MultiPoly, scalars in t
included:

    rational   ::=  ('+'|'-')? digits ('/' digits)?
    atom       ::=  number | 't' | 'x' digits | '(' expr ')'
    factor     ::=  atom ('^' '-'? digits)?
    term       ::=  factor ('*' factor)*
    expr       ::=  ('+'|'-')? term (('+'|'-') term)*

Negative exponents are only accepted on unit bases (t, or a single-term
scalar), since everything must stay inside Q[t,t^-1][x1,...,xn].  A power
of an expression in the variables, and any variable exponent the input
builds up, must stay at most ``MAX_EXPONENT`` (2^31 - 1), the largest the
packed term kernel holds; beyond it the input is rejected with
``ParseError``.  So is a power of a one-term base whose coefficient would
get a numerator or denominator with more digits than ``int()`` converts
from text (``sys.get_int_max_str_digits()``, the limit that also rejects a
digit string too long to read): ``7^20000000`` is refused at once instead
of being computed.  No rendered polynomial holds such a coefficient, since
rendering prints it with ``str()``.

Canonical text goes straight to packed terms.  One regex pass splits the
text into tokens; a variable power written without spaces, ``x3^2``, is one
token, whose packed key each parse computes once and then looks up, as it
does for a bare ``x3``.  Each product of numbers, ``t``, variables, their
integer powers and parenthesised one-term scalars folds into one ``(key,
numerator, denominator)`` monomial with int arithmetic, the key packed as
in :mod:`polydegen._kernel`; any other power of such a factor is taken by
``_kernel.monomial_power``, as ``MultiPoly.__pow__`` takes it.  Each sum
puts its monomials over one common denominator with a single ``canonical``
call, and adds any parenthesised sums to them in one n-ary kernel sum.
Only a parenthesised factor of two or more terms, or a power of one, goes
through ``MultiPoly`` arithmetic.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from math import lcm

from ._kernel import (
    MAX_ARITY,
    MAX_EXPONENT,
    canonical,
    guard_mask,
    monomial_power,
    t_key,
    variable_key,
)
from .errors import CoefficientTooLong, ExponentOverflow, NonUnit, ParseError
from .multipoly import MultiPoly

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")

# One token per match, after optional whitespace: a number, a variable with
# the exponent written straight after it ('x3^2', as canonical text writes
# every variable power), a power ('^', an optional '-' and a number, spaces
# allowed between), an operator or 't', and last any other character, which
# no rule accepts.  A variable keeps any other power ('x3 ^ 2', 'x3^-1',
# 'x3^2/3') as a token of its own, so those read, and fail, as before.
_TOKEN_RE = re.compile(
    r"\s*(\d+(?:/\d+)?|x\d+(?:\^\d+(?![\d/]))?|\^\s*-?\s*\d+(?:/\d+)?|[-+*^()t]|\S)"
)
_KNOWN_RE = re.compile(r"\d|x\d|[-+*^()t]")  # how each token but a stray character starts
_END = "<end>"  # closes the token list

# (packed key, numerator, denominator > 0): one term, not yet in lowest terms
Monomial = tuple[int, int, int]


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational like '-2/3' or '5'.

    >>> parse_rational('-2/3')
    Fraction(-2, 3)
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not a rational: {_clip(text)!r}")
    return Fraction(*_number(text))


def _number(text: str) -> tuple[int, int]:
    """The numerator and the nonzero denominator of a number 'n' or 'n/d'."""
    num, _, den = text.partition("/")
    try:
        num = int(num)
        den = int(den) if den else 1
    except ValueError:  # a digit string longer than int() converts
        raise _too_long(max(text.split("/"), key=len)) from None
    if not den:
        raise ParseError(f"zero denominator in {_clip(text)!r}")
    return num, den


def _digits(text: str) -> int:
    """int(text), reporting a digit string too long to convert as a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise _too_long(text) from None


def _too_long(text: str) -> ParseError:
    return ParseError(f"number too long: {text[:20]}... ({len(text)} characters)")


def _clip(text: str, width: int = 40) -> str:
    """text, cut to ``width`` characters so that error messages stay short."""
    return text if len(text) <= width else f"{text[:width]}..."


# the digit limit of int() and str(), 0 for none (Python before 3.10.7)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _scalar_power(value: int, exponent: int) -> int:
    """value ** exponent, refused when int() could not read its digits back."""
    limit = abs(value) > 1 and _max_str_digits()
    if limit:
        ceiling = 10**limit
        # |value| >= 2^(bits - 1), so this bound alone proves the power too
        # long, and below it the power has fewer than twice the ceiling's bits
        if exponent * (abs(value).bit_length() - 1) >= ceiling.bit_length():
            raise ParseError(f"a power's coefficient has more than {limit} digits")
        power = value**exponent
        if abs(power) >= ceiling:
            raise ParseError(f"a power's coefficient has more than {limit} digits")
        return power
    return value**exponent


def _describe(poly: MultiPoly) -> str:
    """Short text for poly in an error message."""
    try:
        return _clip(str(poly))
    except CoefficientTooLong:
        return f"{poly.term_count()}-term polynomial with a coefficient too long to print"


class _Parser:
    """Recursive descent over the tokens of one text."""

    def __init__(self, text: str, arity: int | None):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append(_END)
        self.pos = 0
        self.arity = arity  # None until parse_poly infers it
        self.var_keys: dict[str, int] = {}  # variable token -> its key
        # the key of t and the guard mask, set by parse_poly with the arity
        self.t = self.guard = 0

    def expr(self) -> Monomial | MultiPoly:
        """A sum: a monomial when it has at most one term, else a MultiPoly."""
        tokens = self.tokens
        i = self.pos
        negative = tokens[i] == "-"
        if negative or tokens[i] == "+":
            i += 1
        monomials: list[Monomial] = []
        polys: list[MultiPoly] = []
        while True:
            term, i = self.term(i)
            if type(term) is tuple:
                monomials.append((term[0], -term[1], term[2]) if negative else term)
            else:
                polys.append(-term if negative else term)
            op = tokens[i]
            if op == "+":
                negative = False
            elif op == "-":
                negative = True
            else:
                break
            i += 1
        self.pos = i
        if not polys and len(monomials) == 1:
            return monomials[0]
        # canonical text has each coefficient in lowest terms, so the lcm of
        # the denominators is the sum's own denominator
        den = lcm(*[m[2] for m in monomials])
        acc: dict[int, int] = {}
        for key, num, d in monomials:
            acc[key] = acc.get(key, 0) + num * (den // d)
        summands = [MultiPoly._raw(self.arity, canonical(acc, den)), *polys]
        result = MultiPoly.sum(self.arity, summands)
        terms = result._terms
        if len(terms) > 1:
            return result
        if not terms:
            return (0, 0, 1)
        [(key, num)] = terms.items()
        return (key, num, terms.den)

    def term(self, i: int) -> tuple[Monomial | MultiPoly, int]:
        """The product starting at token i, and the index after it.

        Factors fold left to right, and each product is checked for an
        exponent overflow as the kernel checks it, so the same inputs
        overflow.
        """
        tokens = self.tokens
        var_keys = self.var_keys
        key, num, den = 0, 1, 1
        poly = None  # the product so far, once a factor had two or more terms
        while True:
            tok = tokens[i]
            i += 1
            first = tok[0]
            factor = None
            fnum = fden = 1
            if first == "x":
                fkey = var_keys.get(tok) or self.variable(i - 1)
            elif first.isdecimal():
                fkey = 0
                fnum, fden = _number(tok)
            elif first == "t":
                fkey = self.t
            elif first == "(":
                self.pos = i
                inner = self.expr()
                i = self.pos
                if tokens[i] != ")":
                    self.unexpected(i, "expected ')', found")
                i += 1
                if type(inner) is tuple:
                    fkey, fnum, fden = inner
                else:
                    factor = inner
            else:
                self.unexpected(i - 1, "unexpected token")
            tok = tokens[i]
            # a '^' after a variable token that holds its own power is left
            # to the caller, as after any other power
            if tok[0] == "^" and not (first == "x" and "^" in tokens[i - 1]):
                i += 1
                if factor is not None:
                    factor = self.poly_power(factor, tok[1:], i)
                else:
                    e = self.exponent(tok[1:], i)
                    base = (fkey, fnum, fden)
                    try:
                        fkey, fnum, fden = monomial_power(*base, e, self.arity, _scalar_power)
                    except NonUnit:
                        shown = _describe(self.to_poly(base))
                        raise ParseError(f"negative power of a non-unit: ({shown})^{e}") from None
            if factor is None and poly is None:
                # a valid key plus one with no variable slot set stays valid
                overlap = key and fkey
                key += fkey
                num *= fnum
                den *= fden
                if overlap and num and key & self.guard:
                    raise ExponentOverflow(f"a product has a variable exponent above {MAX_EXPONENT}")
            else:
                if poly is None:
                    poly = self.to_poly((key, num, den))
                poly = poly * (factor if factor is not None else self.to_poly((fkey, fnum, fden)))
            if tokens[i] != "*":
                return (key, num, den) if poly is None else poly, i
            i += 1

    def variable(self, i: int) -> int:
        """The key of variable token i, 'x<index>' or 'x<index>^<e>'."""
        tok = self.tokens[i]
        if len(tok) == 1:
            self.unexpected(i, "unexpected token")  # an 'x' without an index
        name, power, e = tok.partition("^")
        index = _digits(name[1:])
        if not 1 <= index <= self.arity:
            raise ParseError(f"variable {_clip(name)} out of range for arity {self.arity}")
        key = variable_key(self.arity, index)
        if power:
            key = monomial_power(key, 1, 1, _digits(e), self.arity)[0]
        self.var_keys[tok] = key
        return key

    def exponent(self, text: str, i: int) -> int:
        """The exponent after a '^' whose token ends before token i."""
        text = "".join(text.split())
        if not text:  # a '^' with no number after it
            self.unexpected(i + (self.tokens[i] == "-"), "exponent must be an integer, found")
        if "/" in text:
            raise ParseError(f"exponent must be an integer, found {_clip(text.lstrip('-'))!r}")
        if text[0] == "-":
            return -_digits(text[1:])
        return _digits(text)

    def poly_power(self, base: MultiPoly, text: str, i: int) -> MultiPoly:
        """base ** e for a base of two or more terms, which is never a unit."""
        e = self.exponent(text, i)
        if e > MAX_EXPONENT and not base.is_constant():
            raise ParseError(f"exponent {e} is above the bound {MAX_EXPONENT}")
        if e < 0:
            raise ParseError(f"negative power of a non-unit: ({_describe(base)})^{e}")
        return base**e

    def unexpected(self, i: int, what: str) -> None:
        tok = self.tokens[i]
        if tok is _END:
            raise ParseError("unexpected end of input")
        if not _KNOWN_RE.match(tok):
            pos = next(islice(_TOKEN_RE.finditer(self.text), i, None)).start()
            raise ParseError(
                f"unexpected character at position {pos}: {self.text[pos:].strip()[:10]!r}"
            )
        if tok[0] == "x":
            tok = tok.partition("^")[0]  # a variable's power is a token of its own
        raise ParseError(f"{what} {_clip(tok)!r}")

    def to_poly(self, monomial: Monomial) -> MultiPoly:
        key, num, den = monomial
        return MultiPoly._raw(self.arity, canonical({key: num}, den))


def parse_poly(text: str, arity: int | None = None) -> MultiPoly:
    """Parse a polynomial in x1..xn over Q[t,t^-1].

    When arity is omitted it is inferred as the largest variable index that
    occurs (at least 1).  An arity outside 1..MAX_ARITY is a ParseError.

    >>> print(parse_poly('(-1/2*t^-1)*x1^2 + x2'))
    (-1/2*t^-1)*x1^2 + x2
    """
    parser = _Parser(text, arity)
    if arity is None:
        # a stray character is an error wherever it stands: report it before
        # the arity, and so the size of the keys, is read off the variables
        tokens = parser.tokens[:-1]
        for i, tok in enumerate(tokens):
            if not _KNOWN_RE.match(tok):
                parser.unexpected(i, "unexpected token")
        variables = {tok.partition("^")[0] for tok in tokens if tok[0] == "x"}
        parser.arity = max([1, *(_digits(name[1:]) for name in variables)])
    if not 1 <= parser.arity <= MAX_ARITY:
        raise ParseError(f"arity {_clip(str(parser.arity))} is outside 1..{MAX_ARITY}")
    parser.t = t_key(parser.arity)
    parser.guard = guard_mask(parser.arity)
    try:
        result = parser.expr()
    except ExponentOverflow as exc:
        raise ParseError(str(exc)) from None
    except RecursionError:
        raise ParseError("parentheses nested too deeply") from None
    if parser.tokens[parser.pos] is not _END:
        parser.unexpected(parser.pos, "trailing input from token")
    if type(result) is tuple:
        return parser.to_poly(result)
    return result

