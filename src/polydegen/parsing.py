"""Text forms.

The grammar round-trips the canonical renderings of LaurentPoly and
MultiPoly:

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
``ParseError``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._kernel import MAX_EXPONENT
from .errors import ExponentOverflow, ParseError
from .laurent import LaurentPoly, RingMode
from .multipoly import MultiPoly

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<t>t)|(?P<op>[-+*^()]))"
)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational like '-2/3' or '5'.

    >>> parse_rational('-2/3')
    Fraction(-2, 3)
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not a rational: {text!r}")
    try:
        return _digits(Fraction, text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


def _digits(convert, text: str):
    """convert(text), reporting a digit string too long to convert as a ParseError."""
    try:
        return convert(text)
    except ValueError:
        raise ParseError(f"number too long: {text[:20]}... ({len(text)} characters)") from None


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character at position {pos}: {rest[:10]!r}")
        pos = match.end()
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(kind)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], arity: int):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, found {tok[1]!r}")

    def expr(self) -> MultiPoly:
        sign = 1
        tok = self.peek()
        if tok in (("op", "+"), ("op", "-")):
            self.take()
            sign = -1 if tok[1] == "-" else 1
        # (sign, term) pairs, summed pairwise: a long sum of terms with
        # distinct denominators then rescales each numerator O(log n) times,
        # not O(n) times, and still takes one addition per term.
        parts = [(1, self.term() * sign)]
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                parts.append((1, self.term()))
            elif tok == ("op", "-"):
                self.take()
                parts.append((-1, self.term()))
            else:
                break
        while len(parts) > 1:
            paired = [_signed_sum(a, b) for a, b in zip(parts[::2], parts[1::2])]
            if len(parts) % 2:
                paired.append(parts[-1])
            parts = paired
        return parts[0][1]

    def term(self) -> MultiPoly:
        result = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            result = result * self.factor()
        return result

    def factor(self) -> MultiPoly:
        base = self.atom()
        if self.peek() != ("op", "^"):
            return base
        self.take()
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        kind, text = self.take()
        if kind != "number" or "/" in text:
            raise ParseError(f"exponent must be an integer, found {text!r}")
        exponent = sign * _digits(int, text)
        if exponent > MAX_EXPONENT and not base.is_constant():
            raise ParseError(f"exponent {exponent} is above the bound {MAX_EXPONENT}")
        if exponent >= 0:
            return base**exponent
        if base.is_constant() and base.as_laurent().is_unit(RingMode.LAURENT):
            return base**exponent
        raise ParseError(f"negative power of a non-unit: ({base})^{exponent}")

    def atom(self) -> MultiPoly:
        kind, text = self.take()
        if kind == "number":
            return MultiPoly.constant(self.arity, _digits(Fraction, text))
        if kind == "t":
            return MultiPoly.parameter(self.arity)
        if kind == "var":
            index = _digits(int, text[1:])
            if not 1 <= index <= self.arity:
                raise ParseError(f"variable {text} out of range for arity {self.arity}")
            return MultiPoly.variable(self.arity, index)
        if (kind, text) == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {text!r}")


def _signed_sum(a: tuple[int, MultiPoly], b: tuple[int, MultiPoly]) -> tuple[int, MultiPoly]:
    """sa*pa + sb*pb as a (sign, poly) pair, with one addition or subtraction."""
    (sa, pa), (sb, pb) = a, b
    if sa == sb:
        return sa, pa + pb
    return (1, pa - pb) if sa == 1 else (1, pb - pa)


def parse_poly(text: str, arity: int | None = None) -> MultiPoly:
    """Parse a polynomial in x1..xn over Q[t,t^-1].

    When arity is omitted it is inferred as the largest variable index that
    occurs (at least 1).

    >>> print(parse_poly('(-1/2*t^-1)*x1^2 + x2'))
    (-1/2*t^-1)*x1^2 + x2
    """
    tokens = _tokenize(text)
    if arity is None:
        arity = 1
        for kind, tok in tokens:
            if kind == "var":
                arity = max(arity, _digits(int, tok[1:]))
    parser = _Parser(tokens, arity)
    try:
        result = parser.expr()
    except ExponentOverflow as exc:
        raise ParseError(str(exc)) from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input from token {parser.peek()[1]!r}")
    return result


def parse_laurent(text: str) -> LaurentPoly:
    """Parse a scalar in Q[t,t^-1].

    >>> print(parse_laurent('-2/3*t^-2 + 1 + 5*t^3'))
    -2/3*t^-2 + 1 + 5*t^3
    """
    poly = parse_poly(text, arity=1)
    if not poly.is_constant():
        raise ParseError(f"expected a scalar in t, found variables in {text!r}")
    return poly.as_laurent()
