"""Independent brute-force oracles used to cross-check the library.

The divisibility oracle decides whether a quotient exists by solving a
dense linear system for the quotient coefficients with Gaussian
elimination over Fraction. It shares no code with the elimination-based
`exact_divide` it is checking.  The variable-order oracle tries all n!
orders, testing each against the definition of a triangular map, where
the library walks a dependency graph.  The exponential
oracles sum each series in its own loop, as written in the paper.  The
substitution oracle expands term by term, where the library groups terms
one variable at a time and shares each image's powers.  The text reader
follows README's grammar with regular expressions, where the library
scans packed terms straight out of the text.
"""

import itertools
import math
import re
from fractions import Fraction

from polydegen.endo import PolyEndo
from polydegen.multipoly import MultiPoly


def _t_range(poly):
    exps = [key[-1] for key, _ in poly.terms()]
    return min(exps), max(exps)


def _degrees(poly):
    """Per-variable degrees and total degree of a nonzero poly (t does not count)."""
    powers = [key[:-1] for key, _ in poly.terms()]
    return [max(column) for column in zip(*powers)], max(sum(p) for p in powers)


def solve_linear(rows, rhs):
    """Solve A*x = rhs over Fraction. Returns a solution list or None."""
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    n_rows = len(m)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if m[i][-1] != 0:
            return None
    solution = [Fraction(0)] * n_cols
    for row, col in enumerate(pivots):
        solution[col] = m[row][-1]
    return solution


def divide_by_linear_system(dividend, divisor):
    """Quotient of dividend by divisor, or None, found by linear algebra.

    Enumerates every monomial the quotient could contain (per-variable
    degrees and the t-window are both additive over products, so the
    bounds are exact) and solves for its coefficients.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("divisor is zero")
    if dividend.is_zero():
        return MultiPoly.zero(dividend.arity)
    arity = dividend.arity
    n_degrees, n_total = _degrees(dividend)
    d_degrees, d_total = _degrees(divisor)
    var_bounds = [a - b for a, b in zip(n_degrees, d_degrees)]
    if min(var_bounds) < 0:
        return None
    n_lo, n_hi = _t_range(dividend)
    d_lo, d_hi = _t_range(divisor)
    t_lo, t_hi = n_lo - d_lo, n_hi - d_hi
    if t_lo > t_hi:
        return None
    total_bound = n_total - d_total

    candidates = [
        powers + (t_exp,)
        for powers in itertools.product(*(range(b + 1) for b in var_bounds))
        if sum(powers) <= total_bound
        for t_exp in range(t_lo, t_hi + 1)
    ]

    divisor_terms = list(divisor.terms())
    columns = []
    support = set()
    for key in candidates:
        col = {}
        for d_key, d_coeff in divisor_terms:
            prod = tuple(a + b for a, b in zip(key, d_key))
            col[prod] = col.get(prod, Fraction(0)) + d_coeff
        columns.append(col)
        support.update(col)
    target = dict(dividend.terms())
    support.update(target)
    ordered = sorted(support)
    rows = [[col.get(key, Fraction(0)) for col in columns] for key in ordered]
    rhs = [target.get(key, Fraction(0)) for key in ordered]
    solution = solve_linear(rows, rhs)
    if solution is None:
        return None
    return MultiPoly(arity, {key: value for key, value in zip(candidates, solution) if value})


# ------------------------------------------------------------ exponentials
#
# The two series written out separately, one loop each, with the powers of
# h and of -x1/f1 built afresh for every image: sum_k h^k delta^k(x_i)/k!
# for exp(h*delta) and sum_k delta^k(p)/k! * (-x1/f1)^k for the slice map.


def reference_exp(delta, h):
    """The images of exp(h*delta), h in the kernel of delta, as a tuple."""
    n = delta.arity
    images = []
    for i in range(1, n + 1):
        term = MultiPoly.variable(n, i)
        image = term
        h_power = MultiPoly.one(n)
        k = 0
        while True:
            term = delta.apply(term)
            if term.is_zero():
                break
            k += 1
            h_power = h_power * h
            image = image + h_power * term * Fraction(1, math.factorial(k))
        images.append(image)
    return tuple(images)


def reference_sigma(delta, poly):
    """The slice image of poly; delta(x1) must be a unit c*t^j."""
    n = delta.arity
    ratio = MultiPoly.variable(n, 1) * delta.images[0] ** -1
    value = poly
    term = poly
    power = MultiPoly.one(n)
    k = 0
    while True:
        term = delta.apply(term)
        if term.is_zero():
            return value
        k += 1
        power = power * ratio
        value = value + term * power * (Fraction(-1) ** k / math.factorial(k))


# ------------------------------------------------------------ term kernel
#
# A naive reference for polydegen._kernel: terms are dicts from exponent
# tuples (e1,...,en,et) to nonzero Fractions, and every operation is the
# schoolbook one.  The packed layout is decoded here with integer division,
# independently of the bit operations the kernel uses.


def ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def ref_neg(a):
    return {key: -c for key, c in a.items()}


def ref_sub(a, b):
    return ref_add(a, ref_neg(b))


def ref_scale(a, c):
    return {key: v * c for key, v in a.items() if v * c}


def ref_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {key: c for key, c in out.items() if c}


def ref_pack(key, slot_bits):
    """The packed int of (e1,...,en,et): et above n slots, x1 highest."""
    *powers, t_exp = key
    packed = t_exp
    for e in powers:
        packed = packed * 2**slot_bits + e
    return packed


def ref_unpack(packed, arity, slot_bits):
    powers = []
    for _ in range(arity):
        packed, e = divmod(packed, 2**slot_bits)
        powers.append(e)
    return tuple(reversed(powers)) + (packed,)


def ref_decode(terms, arity, slot_bits):
    """Packed terms with a shared denominator as a reference dict."""
    return {
        ref_unpack(key, arity, slot_bits): Fraction(num, terms.den) for key, num in terms.items()
    }


# ------------------------------------------------------------ substitution
#
# Substitution summed term by term on the reference dicts above: each term's
# coefficient c*t^k, moved to the images' arity by decoding and re-encoding
# its key, times each image power, taken by repeated multiplication.


def ref_substitute(poly, images):
    """poly at x_i = images[i-1], a MultiPoly of the images' arity."""
    m = images[0].arity
    image_terms = [dict(image.terms()) for image in images]
    total = {}
    for key, c in poly.terms():
        *powers, t_exp = key
        value = {(0,) * m + (t_exp,): c}
        for image, e in zip(image_terms, powers):
            for _ in range(e):
                value = ref_mul(value, image)
        total = ref_add(total, value)
    return MultiPoly(m, total)


# --------------------------------------------------------- variable orders


def is_triangular_by_definition(endo):
    """Image i is u*x_i plus terms in x1..x_{i-1}, with u a unit of Q[t,t^-1]."""
    n = endo.arity
    for i, img in enumerate(endo.images, start=1):
        lead = img.coefficient(tuple(int(j == i) for j in range(1, n + 1)))
        rest = img - lead * MultiPoly.variable(n, i)
        if not lead.is_unit() or any(rest.involves(j) for j in range(i, n + 1)):
            return False
    return True


def triangularizing_order_by_search(endo):
    """The first permutation p, in lexicographic order, for which
    conjugating endo by x_i -> x_{p_i} gives a triangular map; None if
    there is none.  Tries every one of the n! orders.
    """
    n = endo.arity
    for perm in itertools.permutations(range(1, n + 1)):
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p - 1] = i + 1
        front = PolyEndo(tuple(MultiPoly.variable(n, p) for p in inverse))
        back = PolyEndo(tuple(MultiPoly.variable(n, p) for p in perm))
        if is_triangular_by_definition(front.compose(endo).compose(back)):
            return perm
    return None


# ---------------------------------------------------------------- rendering
#
# The canonical text built the plain way: group the terms by variable
# monomial into Fraction dicts keyed by the t exponent, order the groups
# graded-lex descending (higher total degree first, then x1 > x2 > ...),
# and print a rational coefficient bare and any other scalar in
# parentheses, its powers of t ascending.


def _ref_sum(pieces):
    """'a + b - c' from (negative, body) pairs, a leading '-' for the first."""
    out = []
    for negative, body in pieces:
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


def _ref_scaled(q, base):
    """|q| times a monomial text, '1' and empty factors left out."""
    if not base:
        return str(abs(q))
    return base if abs(q) == 1 else f"{abs(q)}*{base}"


def ref_render(poly):
    groups = {}
    for key, c in poly.terms():
        groups.setdefault(key[:-1], {})[key[-1]] = c
    pieces = []
    for powers in sorted(groups, key=lambda p: (sum(p), p), reverse=True):
        mono = "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(powers, start=1) if e
        )
        scalar = groups[powers]
        if list(scalar) == [0]:
            q = scalar[0]
            pieces.append((q < 0, _ref_scaled(q, mono)))
        else:
            inner = [
                (q < 0, _ref_scaled(q, "" if e == 0 else "t" if e == 1 else f"t^{e}"))
                for e, q in sorted(scalar.items())
            ]
            text = f"({_ref_sum(inner)})"
            pieces.append((False, f"{text}*{mono}" if mono else text))
    return _ref_sum(pieces) or "0"


# ------------------------------------------------------------------ reading
#
# README's grammar read into a Fraction dict keyed (e1,...,en,et): split the
# text into signed groups outside the parentheses, a parenthesized scalar
# into signed t-terms, and a monomial at each '*'.  Equal keys add up, so
# the reader checks the grammar but not the canonical order.

_RATIONAL = r"\d+(?:/\d+)?"
_GROUP = re.compile(rf"\((.+)\)(?:\*(x.+))?|({_RATIONAL})(?:\*(x.+))?|(x.+)")
_TTERM = re.compile(rf"({_RATIONAL})|(?:({_RATIONAL})\*)?t(?:\^(-?\d+))?")
_POWER = re.compile(r"x(\d+)(?:\^(\d+))?")


def _signed(text):
    """(sign, piece) pairs of "'-'? piece ((' + ' | ' - ') piece)*".

    A separator lies inside parentheses exactly when a ')' follows it
    before any '('.
    """
    negative = text.startswith("-")
    parts = re.split(r" ([+-]) (?![^()]*\))", text[negative:])
    signs = [-1 if negative else 1] + [1 if s == "+" else -1 for s in parts[1::2]]
    return zip(signs, parts[::2])


def _match(pattern, text):
    match = pattern.fullmatch(text)
    if match is None:
        raise ValueError(f"not in the grammar: {text!r}")
    return match.groups()


def _powers(monomial, arity):
    powers = [0] * arity
    for factor in monomial.split("*") if monomial else ():
        index, exponent = _match(_POWER, factor)
        if not 1 <= int(index) <= arity:
            raise ValueError(f"x{index} at arity {arity}")
        powers[int(index) - 1] += int(exponent or 1)
    return tuple(powers)


def ref_read(text, arity):
    """The terms of polynomial text in README's grammar, {(e1,...,en,et): Fraction}."""
    out = {}
    for sign, group in _signed(text):
        scalar, scaled, rational, monomial, bare = _match(_GROUP, group)
        if scalar is None:
            coefficient = {0: Fraction(rational or 1)}
        else:
            coefficient = {}
            for t_sign, tterm in _signed(scalar):
                constant, q, t_exp = _match(_TTERM, tterm)
                e = 0 if constant else int(t_exp or 1)
                coefficient[e] = coefficient.get(e, 0) + t_sign * Fraction(constant or q or 1)
        powers = _powers(scaled or monomial or bare, arity)
        for t_exp, c in coefficient.items():
            key = powers + (t_exp,)
            out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}
