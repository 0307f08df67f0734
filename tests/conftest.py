"""Shared fixtures and random generators for the test suite.

Randomized tests use explicitly seeded `random.Random` instances so every
run exercises the same inputs.
"""

import random
from fractions import Fraction

import pytest

from polydegen import build_conjugation, build_family
from polydegen.multipoly import MultiPoly

_FAMILY_CACHE: dict[int, object] = {}


def family(l):
    """Build (and cache) the conjugation certificate of the family member
    for a given l; its delta and h are the pair build_family returns."""
    if l not in _FAMILY_CACHE:
        _FAMILY_CACHE[l] = build_conjugation(*build_family(l))
    return _FAMILY_CACHE[l]


@pytest.fixture(scope="session")
def families():
    """The family members' conjugation certificates for l = 1..4, keyed by l."""
    return {l: family(l) for l in (1, 2, 3, 4)}


def rand_rational(rng, max_num=9, max_den=5):
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def rand_laurent(rng, min_exp=-3, max_exp=3, terms=4):
    """A random scalar of Q[t,t^-1], a constant of arity 1, possibly zero."""
    out = MultiPoly.zero(1)
    for _ in range(rng.randint(0, terms)):
        exp = rng.randint(min_exp, max_exp)
        out = out + MultiPoly(1, {(0, exp): rand_rational(rng)})
    return out


def rand_poly(rng, arity=3, max_degree=3, terms=5, min_t=-2, max_t=2):
    """A random multivariate polynomial, possibly zero."""
    out = MultiPoly.zero(arity)
    for _ in range(rng.randint(0, terms)):
        budget = rng.randint(0, max_degree)
        powers = [0] * arity
        for _ in range(budget):
            powers[rng.randrange(arity)] += 1
        t_exp = rng.randint(min_t, max_t)
        out = out + MultiPoly(arity, {(*powers, t_exp): rand_rational(rng)})
    return out


def rand_poly_nonzero(rng, **kwargs):
    while True:
        p = rand_poly(rng, **kwargs)
        if not p.is_zero():
            return p
