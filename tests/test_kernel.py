"""The packed term kernel against the naive Fraction reference in oracles.py.

Operands are random term dicts over x1, x2, x3 and t, with negative powers
of t and denominators that share prime factors, encoded into the kernel's
packed form.  After every operation the result must decode to the
reference result, be in canonical form, and leave its arguments unchanged.
Hypothesis runs derandomized, so every run draws the same examples.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ref_add,
    ref_decode,
    ref_mul,
    ref_neg,
    ref_pack,
    ref_scale,
    ref_sub,
)
from polydegen import _kernel as K
from polydegen import kernel_backend
from polydegen.errors import ExponentOverflow, NonUnit
from polydegen.multipoly import MultiPoly

ARITY = 3
W = K.SLOT_BITS
GUARD = K.guard_mask(ARITY)

keys = st.tuples(*(st.integers(0, 4) for _ in range(ARITY)), st.integers(-3, 3))
denominators = st.builds(
    lambda i, j, k, big: 2**i * 3**j * 5**k * big,
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 1),
    st.sampled_from([1, 1, 7654321, 10**9 + 7]),
)
coeffs = st.builds(Fraction, st.integers(-10**12, 10**12), denominators).filter(bool)
term_dicts = st.dictionaries(keys, coeffs, max_size=7)
scalars = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-30, 30), denominators))

examples = settings(derandomize=True, database=None, max_examples=80, deadline=None)


def encode(ref):
    """Canonical kernel terms for a reference dict, built independently."""
    den = lcm(*(c.denominator for c in ref.values()))
    return K.make({ref_pack(key, W): int(c * den) for key, c in ref.items()}, den)


def decode(terms):
    return ref_decode(terms, ARITY, W)


def assert_canonical(terms):
    assert isinstance(terms, K.Terms)
    assert type(terms.den) is int and terms.den > 0
    assert all(type(c) is int and c != 0 for c in terms.values())
    assert gcd(terms.den, *terms.values()) == 1


def snapshot(terms):
    return dict(terms), terms.den


@examples
@given(term_dicts, term_dicts, scalars)
def test_every_op_matches_the_reference(a, b, c):
    ta, tb = encode(a), encode(b)
    before = snapshot(ta), snapshot(tb)
    results = [
        (K.add_terms(ta, tb), ref_add(a, b)),
        (K.sub_terms(ta, tb), ref_sub(a, b)),
        (K.neg_terms(ta), ref_neg(a)),
        (K.scale_terms(ta, c), ref_scale(a, Fraction(c))),
        (K.mul_terms(ta, tb, GUARD), ref_mul(a, b)),
    ]
    for got, want in results:
        assert_canonical(got)
        assert decode(got) == want
        assert len(got) == len(want)
    assert (snapshot(ta), snapshot(tb)) == before


@examples
@given(term_dicts, term_dicts)
def test_cancellation_to_zero(a, extra):
    # b cancels a except where extra overrides it
    b = {**ref_neg(a), **extra}
    ta, tb = encode(a), encode(b)
    for got, want in (
        (K.add_terms(ta, tb), ref_add(a, b)),
        (K.sub_terms(ta, ta), {}),
        (K.add_terms(ta, K.neg_terms(ta)), {}),
        (K.scale_terms(ta, 0), {}),
    ):
        assert_canonical(got)
        assert decode(got) == want
    assert K.sub_terms(ta, ta).den == 1


@examples
@given(st.lists(term_dicts, max_size=5), st.integers(0, 5))
def test_n_ary_sum_is_the_fold_of_two_operand_sums(dicts, negated):
    # 0 to 6 pieces with mixed denominators, some empty; the piece after
    # position ``negated`` (when there is one) cancels it, so parts of the
    # sum, or all of it, cancel to zero
    if negated < len(dicts):
        dicts.insert(negated + 1, ref_neg(dicts[negated]))
    pieces = [encode(d) for d in dicts]
    before = [snapshot(p) for p in pieces]
    got = K.add_terms(*pieces)
    fold = K.make({})
    want = {}
    for piece, d in zip(pieces, dicts):
        fold = K.add_terms(fold, piece)
        want = ref_add(want, d)
    assert_canonical(got)
    assert got == fold and got.den == fold.den
    assert decode(got) == want
    assert [snapshot(p) for p in pieces] == before


def test_n_ary_sum_cancels_to_zero():
    a = encode({(1, 0, 0, -1): Fraction(1, 6), (0, 0, 0, 0): Fraction(5, 4)})
    b = encode({(1, 0, 0, -1): Fraction(-1, 10)})
    zero = K.add_terms(a, b, K.neg_terms(a), K.neg_terms(b))
    assert zero == {} and zero.den == 1
    assert K.add_terms() == {} and K.add_terms().den == 1


@settings(examples, max_examples=40)
@given(term_dicts, term_dicts, term_dicts)
def test_ring_laws_hold_on_packed_terms(a, b, c):
    ta, tb, tc = encode(a), encode(b), encode(c)
    ab = K.mul_terms(ta, tb, GUARD)
    assert K.mul_terms(ab, tc, GUARD) == K.mul_terms(ta, K.mul_terms(tb, tc, GUARD), GUARD)
    left = K.mul_terms(ta, K.add_terms(tb, tc), GUARD)
    right = K.add_terms(ab, K.mul_terms(ta, tc, GUARD))
    assert left == right and left.den == right.den


@examples
@given(term_dicts, st.integers(1, ARITY), scalars)
def test_multipoly_boundary_ops_stay_canonical(a, index, alpha):
    p = MultiPoly(ARITY, a)
    assert_canonical(p._terms)
    assert dict(p.terms()) == a
    diff = p.diff(index)
    assert_canonical(diff._terms)
    want = {}
    for key, c in a.items():
        if key[index - 1]:
            lowered = key[: index - 1] + (key[index - 1] - 1,) + key[index:]
            want[lowered] = c * key[index - 1]
    assert dict(diff.terms()) == want
    if alpha:
        special = p.specialize_t(alpha)
        assert_canonical(special._terms)
        want = {}
        for key, c in a.items():
            flat = key[:-1] + (0,)
            want[flat] = want.get(flat, Fraction(0)) + c * Fraction(alpha) ** key[-1]
        assert dict(special.terms()) == {k: v for k, v in want.items() if v}
    wide = p.extend_arity(ARITY + 2)
    assert_canonical(wide._terms)
    assert dict(wide.terms()) == {k[:-1] + (0, 0, k[-1]): v for k, v in a.items()}


def test_empty_and_zero_cases():
    a = encode({(1, 0, 0, 0): Fraction(1)})
    empty = K.make({})
    assert K.add_terms(empty, empty) == {}
    assert K.mul_terms(a, empty, GUARD) == {}
    assert K.mul_terms(empty, a, GUARD) == {}
    assert K.scale_terms(a, Fraction(0)) == {}
    assert K.sub_terms(a, a) == {}
    assert K.neg_terms(empty) == {}
    for result in (K.mul_terms(a, empty, GUARD), K.scale_terms(a, 0), K.sub_terms(a, a)):
        assert_canonical(result)


def test_product_overflow_is_caught_per_result_term():
    top = encode({(K.MAX_EXPONENT, 0, 0, 0): Fraction(1)})
    one = encode({(1, 0, 0, 0): Fraction(1)})
    other_slot = encode({(0, K.MAX_EXPONENT, 0, -5): Fraction(1)})
    with pytest.raises(ExponentOverflow):
        K.mul_terms(top, one, GUARD)
    # exponents at the bound in different slots do not carry
    both = K.mul_terms(top, other_slot, GUARD)
    assert decode(both) == {(K.MAX_EXPONENT, K.MAX_EXPONENT, 0, -5): Fraction(1)}


@examples
@given(keys, coeffs, st.integers(-4, 4), st.integers(1, 6))
def test_monomial_power_matches_the_reference(key, c, e, common):
    # the base need not be in lowest terms
    base = (ref_pack(key, W), c.numerator * common, c.denominator * common)
    if e < 0 and any(key[:ARITY]):
        with pytest.raises(NonUnit):
            K.monomial_power(*base, e, ARITY)
        return
    power_key, num, den = K.monomial_power(*base, e, ARITY)
    power = K.make({power_key: num}, den)
    assert_canonical(power)
    assert decode(power) == {tuple(k * e for k in key): c**e}


def test_monomial_power_edge_cases():
    x1, t = K.variable_key(ARITY, 1), K.t_key(ARITY)
    assert (K.variable_key(ARITY, ARITY), t) == (1, 1 << (ARITY * W))
    assert K.monomial_power(x1, 0, 1, 0, ARITY) == (0, 1, 1)
    assert K.monomial_power(x1, 0, 5, 3 * K.MAX_EXPONENT, ARITY) == (0, 0, 1)
    assert K.monomial_power(x1, 1, 1, K.MAX_EXPONENT, ARITY) == (x1 * K.MAX_EXPONENT, 1, 1)
    with pytest.raises(ExponentOverflow):
        K.monomial_power(x1, 1, 1, K.MAX_EXPONENT + 1, ARITY)
    with pytest.raises(NonUnit):
        K.monomial_power(t, 0, 1, -1, ARITY)
    assert K.monomial_power(t, -2, 3, -2, ARITY) == (-2 * t, 9, 4)


def test_active_backend_is_reported():
    assert kernel_backend() == "pure"
