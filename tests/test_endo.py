"""Polynomial endomorphisms: composition, triangularity, inversion."""

import random
import time
from fractions import Fraction

import pytest

from conftest import rand_poly, rand_rational
from oracles import triangularizing_order_by_search
from polydegen import parse_poly
from polydegen.certificates import OPAQUE, REORDERED, TRIANGULAR, factor_kind
from polydegen.derivation import TriangularDerivation
from polydegen.endo import PolyEndo
from polydegen.errors import ArityMismatch, NotTriangular
from polydegen.multipoly import MultiPoly


def endo(*texts, arity=None):
    n = arity or len(texts)
    return PolyEndo(tuple(parse_poly(s, arity=n) for s in texts))


def test_maps_are_frozen_values():
    images = [parse_poly("x1", arity=2), parse_poly("x1^2 + x2", arity=2)]
    tau = PolyEndo(images)
    assert tau == PolyEndo(images=tuple(images)) and type(tau.images) is tuple
    assert hash(tau) == hash(PolyEndo(tuple(images)))
    assert tau != PolyEndo.identity(2)
    assert repr(tau) == "PolyEndo(x1, x1^2 + x2)"
    with pytest.raises(AttributeError):
        tau.images = ()
    with pytest.raises(AttributeError):
        del tau.images
    with pytest.raises(ArityMismatch):
        PolyEndo(())
    with pytest.raises(TypeError):
        PolyEndo(tuple(images), images=tuple(images))
    with pytest.raises(TypeError):
        PolyEndo()
    with pytest.raises(TypeError, match="images must be MultiPoly instances"):
        PolyEndo(("x1",))
    # a map is never equal to a derivation with the same images
    triangular = (MultiPoly.zero(2), MultiPoly.variable(2, 1))
    assert PolyEndo(triangular) != TriangularDerivation(triangular)
    assert TriangularDerivation(triangular) != PolyEndo(triangular)


def test_identity_and_apply():
    e = PolyEndo.identity(3)
    assert e == endo("x1", "x2", "x3")
    p = parse_poly("x1*x3 + (t)", arity=3)
    assert e.apply(p) == p
    shift = endo("x1 + 1", "x2", "x3")
    assert shift.apply(parse_poly("x1^2", arity=3)) == parse_poly(
        "x1^2 + 2*x1 + 1", arity=3
    )


def test_compose_convention():
    # as ring maps: (phi o psi)(q) = phi(psi(q)), so the images of the
    # composite are phi applied to psi's images
    phi = endo("x1 + 1", "x2")
    psi = endo("2*x1", "x2")
    assert phi.compose(psi) == endo("2*x1 + 2", "x2")
    assert psi.compose(phi) == endo("2*x1 + 1", "x2")
    q = parse_poly("x1^2", arity=2)
    assert phi.compose(psi).apply(q) == phi.apply(psi.apply(q))


def test_compose_is_associative_on_random_endos():
    rng = random.Random(71)
    for _ in range(10):
        a = PolyEndo(tuple(rand_poly(rng, terms=2, max_degree=2) for _ in range(3)))
        b = PolyEndo(tuple(rand_poly(rng, terms=2, max_degree=2) for _ in range(3)))
        c = PolyEndo(tuple(rand_poly(rng, terms=2, max_degree=2) for _ in range(3)))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_compose_chain_matches_pairwise():
    rng = random.Random(73)
    factors = [
        PolyEndo(tuple(rand_poly(rng, terms=2, max_degree=2) for _ in range(3)))
        for _ in range(4)
    ]
    chained = PolyEndo.compose_chain(factors)
    paired = factors[0].compose(factors[1]).compose(factors[2]).compose(factors[3])
    assert chained == paired
    right = factors[0].compose(factors[1].compose(factors[2].compose(factors[3])))
    assert chained == right
    assert PolyEndo.compose_chain([factors[0]]) == factors[0]


def test_arity_checks():
    with pytest.raises(ArityMismatch):
        endo("x1", "x2").compose(PolyEndo.identity(3))
    with pytest.raises(ArityMismatch):
        endo("x1", "x2").apply(parse_poly("x1", arity=3))
    with pytest.raises(ArityMismatch):
        PolyEndo((parse_poly("x1", arity=2), parse_poly("x1", arity=3)))
    with pytest.raises(ArityMismatch):
        PolyEndo.compose_chain(())
    with pytest.raises(ArityMismatch):
        endo("x1 + x2", "x2").extend_arity(1)


def test_triangular_detection():
    tri = endo("2*x1 + 1", "x1^5 + x2", "x1*x2 + x3")
    assert tri.is_triangular()
    assert endo("(t)*x1", "x2", "x3").is_triangular()
    assert not endo("x1 + x2", "x2", "x3").is_triangular()
    assert not endo("x1*x2", "x2", "x3").is_triangular()


def test_triangular_after_reordering():
    # shifting x1 by later variables becomes triangular once the variable
    # order is reversed
    shift = endo("x2*x3^2 + x1", "x2", "x3")
    assert not shift.is_triangular()
    assert shift.is_triangular_up_to_permutation()
    # every diagonal entry of the linear part is zero here, and conjugating
    # by a permutation cannot repair that
    cycle = endo("x3^2 + x2", "x3", "x1 + 1")
    assert not cycle.is_triangular_up_to_permutation()
    assert not endo("x1 + x2", "x1 + x2", "x3").is_triangular_up_to_permutation()


def _random_reorderable(rng, n):
    """u_i*x_i plus terms in variables earlier in a random order, then with
    some images given a term that may break the order: a later variable, a
    cycle, or the image's own variable; some u_i are t or 0."""
    x = [MultiPoly.variable(n, i) for i in range(1, n + 1)]
    t = MultiPoly.parameter(n)
    order = rng.sample(range(n), n)
    images = [None] * n
    for k, i in enumerate(order):
        unit = rng.choice((1, -1, 2, Fraction(1, 2), 3, t, 0)) if rng.random() < 0.3 else 1
        img = x[i] * unit
        pool = [order[j] for j in range(k)]
        if rng.random() < 0.3:
            pool = pool + [rng.randrange(n)]
        for _ in range(rng.randint(0, 2)):
            if pool:
                term = x[rng.choice(pool)] ** rng.randint(1, 2) * rand_rational(rng)
                img = img + term * (t if rng.random() < 0.2 else 1)
        images[i] = img
    return PolyEndo(tuple(images))


def test_reordering_matches_the_permutation_search():
    rng = random.Random(83)
    outcomes = set()
    for _ in range(60):
        e = _random_reorderable(rng, rng.randint(1, 5))
        expected = triangularizing_order_by_search(e)
        assert e.is_triangular_up_to_permutation() == expected, e
        standard = expected == tuple(range(1, e.arity + 1))
        assert e.is_triangular() == standard, e
        # a factor of a word is a map over Q: one whose images carry t is opaque
        over_q = all(key[-1] == 0 for img in e.images for key, _ in img.terms())
        kind = (
            OPAQUE
            if expected is None or not over_q
            else TRIANGULAR if standard else REORDERED
        )
        assert factor_kind(e) == kind, e
        outcomes.add(kind)
    assert outcomes == {OPAQUE, TRIANGULAR, REORDERED}


def test_large_factors_are_classified_fast():
    n = 9
    x = [MultiPoly.variable(n, i) for i in range(1, n + 1)]
    cycle = PolyEndo(tuple(x[i] + x[(i + 1) % n] ** 2 for i in range(n)))
    chain = PolyEndo(tuple(x[i] + x[i + 1] ** 2 for i in range(n - 1)) + (x[-1],))
    start = time.perf_counter()
    assert factor_kind(cycle) == OPAQUE
    assert factor_kind(chain) == REORDERED
    assert chain.is_triangular_up_to_permutation() == tuple(range(n, 0, -1))
    assert time.perf_counter() - start < 1.0


def test_invert_triangular():
    tri = endo("2*x1 + 1", "x1^5 + x2", "x1*x2 + x3")
    inv = tri.invert_triangular()
    assert tri.verify_inverse_pair(inv)
    assert inv.compose(tri) == PolyEndo.identity(3)
    # the scale 1 + t is not a unit of Q[t,t^-1], so the map is not triangular
    with pytest.raises(NotTriangular, match=r"^the map is not triangular over Q\[t,t\^-1\]$"):
        endo("(1 + t)*x1", "x2", "x3").invert_triangular()


def test_invert_triangular_random():
    rng = random.Random(79)
    for _ in range(8):
        images = []
        for i in range(3):
            scale = Fraction(rng.choice((1, 2, -1, 3)))
            lower = rand_poly(rng, arity=i, terms=2, max_degree=2) if i else None
            img = MultiPoly.variable(3, i + 1) * scale
            if lower is not None and not lower.is_zero():
                img = img + lower.extend_arity(3)
            images.append(img)
        tri = PolyEndo(tuple(images))
        inv = tri.invert_triangular()
        assert tri.verify_inverse_pair(inv)


def test_specialize_and_extend():
    e = endo("(t)*x1", "x2 + (t^-1)", "x3")
    at2 = e.specialize(2)
    assert at2 == endo("2*x1", "x2 + 1/2", "x3")
    wide = endo("x1 + x2", "x2").extend_arity(4)
    assert wide.arity == 4
    assert wide.apply(parse_poly("x3*x4", arity=4)) == parse_poly("x3*x4", arity=4)


def test_str():
    # non-rational coefficients stay parenthesized in canonical text
    assert str(endo("x1 + (t)", "x2")) == "(x1 + (t), x2)"
