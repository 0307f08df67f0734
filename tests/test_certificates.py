"""Wildness reports, conjugation and tameness words, stabilization."""

from fractions import Fraction

import pytest

from polydegen import MultiPoly, parse_poly, slice_coefficients
from polydegen.certificates import (
    TAME,
    WILD,
    build_conjugation,
    build_stabilization,
    check_wild_at_zero,
    compose_commutator,
    factor_kind,
    specialized_tameness,
)
from polydegen.derivation import TriangularDerivation
from polydegen.endo import PolyEndo
from polydegen.errors import (
    HypothesisViolation,
    KernelViolation,
    NonUnit,
    PoleAtZero,
)


def make_delta(*texts):
    n = len(texts)
    return TriangularDerivation(tuple(parse_poly(s, arity=n) for s in texts))


# ------------------------------------------------------------------ wildness


def test_family_members_are_wild_at_zero(families):
    for fam in families.values():
        report = check_wild_at_zero(fam.delta, fam.h)
        assert report.flags == (True, True, True)
        assert report.verdict == WILD


def test_wildness_residues_are_recorded(families):
    fam = families[1]
    report = check_wild_at_zero(fam.delta, fam.h)
    assert report.f2_residue == parse_poly("x1", arity=3)
    assert report.h_residue == fam.h.specialize_t(0)
    assert report.derivative_residue == parse_poly("-2", arity=3)


def test_third_flag_isolated_by_control_derivation():
    # delta = (t, x1, x1*x2) has d(f3)/dx2 = x1 = f2 at t = 0, so the
    # ideal-membership condition fails while the other two flags hold
    delta = make_delta("(t)", "x1", "x1*x2")
    h = parse_poly("x2^2 - 2*x3", arity=3)
    assert delta.apply(h).is_zero()
    report = check_wild_at_zero(delta, h)
    assert report.flags == (True, True, False)
    assert report.verdict == TAME


def test_second_flag_false_when_h_collapses_to_x1():
    delta = make_delta("(t)", "x1", "-2*x2")
    g2 = delta.sigma(parse_poly("x2", arity=3))
    h = (g2 * parse_poly("(t)", arity=3)) ** 2
    report = check_wild_at_zero(delta, h)
    assert report.flags[1] is False
    assert report.verdict == TAME


def test_first_flag_false_when_f2_vanishes():
    delta = make_delta("(t)", "(t)*x1", "x2")
    h = parse_poly("0", arity=3)
    report = check_wild_at_zero(delta, h)
    assert report.flags[0] is False


def test_wildness_hypotheses_are_checked(families):
    fam = families[1]
    with pytest.raises(KernelViolation):
        check_wild_at_zero(fam.delta, parse_poly("x2", arity=3))
    # f1 must vanish at t = 0
    delta = make_delta("1", "x1", "x2")
    with pytest.raises(HypothesisViolation):
        check_wild_at_zero(delta, parse_poly("0", arity=3))
    # everything must be regular at t = 0; g2^2*t has valuation -1
    with pytest.raises(HypothesisViolation):
        g2 = fam.tau.images[1]
        check_wild_at_zero(fam.delta, g2 * g2 * parse_poly("(t)", arity=3))
    two_var = TriangularDerivation(
        (parse_poly("(t)", arity=2), parse_poly("x1", arity=2))
    )
    with pytest.raises(HypothesisViolation):
        check_wild_at_zero(two_var, parse_poly("0", arity=2))
    with pytest.raises(HypothesisViolation):
        check_wild_at_zero(fam.delta, parse_poly("x4", arity=4))


# --------------------------------------------------------------- conjugation


def test_build_conjugation_matches_family(families):
    # the general builder recovers the closed forms of the family's slice
    # potential p and slice images g2, g3
    x1, x2, x3 = (MultiPoly.variable(3, i) for i in (1, 2, 3))
    t = MultiPoly.parameter(3)
    for l, cert in families.items():
        c = slice_coefficients(l)
        p = ((2 * x2) ** (2 * l + 1) + t * (x3 / c[l]) ** 2) * MultiPoly(
            3, {(0, 0, 0, l): c[l] / 2}
        )
        g2 = x2 + MultiPoly(3, {(2, 0, 0, -1): Fraction(-1, 2)})
        g3 = MultiPoly.sum(
            3, [x3] + [MultiPoly(3, {(2 * i + 1, l - i, 0, -(i + 1)): c[i]}) for i in range(l + 1)]
        )
        assert cert.slice_potential == p
        assert cert.tau.images[1:] == (g2, g3)
        assert cert.epsilon == PolyEndo((x1 + t * p, x2, x3))
        assert cert.automorphism == cert.delta.exp(cert.h)
        assert PolyEndo.compose_chain(
            (cert.tau, cert.epsilon, cert.tau_inv)
        ) == cert.automorphism


def test_build_conjugation_needs_unit_f1():
    delta = make_delta("(1 + t)", "x1", "x2")
    with pytest.raises(NonUnit):
        build_conjugation(delta, parse_poly("0", arity=3))


def test_build_conjugation_generic_kernel_potential():
    delta = make_delta("(t)", "x1", "x1*x2")
    h = parse_poly("x2^2 - 2*x3", arity=3)
    cert = build_conjugation(delta, h)
    assert cert.automorphism == delta.exp(h)


def test_builders_leave_the_kernel_check_to_exp(families):
    delta = families[1].delta
    for build in (build_conjugation, build_stabilization):
        with pytest.raises(KernelViolation, match="h is not killed by the derivation") as caught:
            build(delta, parse_poly("x2", arity=3))
        assert caught.traceback[-1].name == "exp"


# ------------------------------------------------------------- factor kinds


def test_factor_kind_classification():
    tri = PolyEndo(tuple(parse_poly(s, arity=3) for s in ("2*x1", "x1^2 + x2", "x3")))
    assert factor_kind(tri) == "triangular"
    shift = PolyEndo(tuple(parse_poly(s, arity=3) for s in ("x2*x3 + x1", "x2", "x3")))
    assert factor_kind(shift) == "triangular-after-reordering"
    opaque = PolyEndo(
        tuple(parse_poly(s, arity=3) for s in ("x2^2 + x1", "x1^2 + x2", "x3"))
    )
    assert factor_kind(opaque) == "opaque"
    # triangular over Q[t,t^-1], but a factor of a word must be a map over Q
    scaled = PolyEndo(tuple(parse_poly(s, arity=3) for s in ("x1", "(t)*x1 + x2", "x3")))
    assert factor_kind(scaled) == "opaque"


# ------------------------------------------------------------ tameness words


def test_specialized_tameness_words(families):
    cert = families[1]
    for alpha in (1, -1, 2, Fraction(1, 2)):
        word = specialized_tameness(cert, alpha)
        assert word.alpha == Fraction(alpha)
        assert len(word.factors) == 3
        assert word.factor_kinds == (
            "triangular",
            "triangular-after-reordering",
            "triangular",
        )
        assert PolyEndo.compose_chain(word.factors) == word.fiber
        assert word.fiber == cert.automorphism.specialize(alpha)


def test_specialized_tameness_hits_the_pole_at_zero(families):
    # tau for the family has a pole at t = 0, so no three-factor word
    # comes out of this construction there
    cert = families[1]
    with pytest.raises(PoleAtZero):
        specialized_tameness(cert, 0)


def test_specialized_tameness_at_zero_without_a_pole():
    # with f1 a nonvanishing constant the word exists at alpha = 0 too
    delta = make_delta("2", "x1", "x2")
    g2 = delta.sigma(parse_poly("x2", arity=3))
    cert = build_conjugation(delta, g2 * g2)
    word = specialized_tameness(cert, 0)
    assert PolyEndo.compose_chain(word.factors) == word.fiber


# ------------------------------------------------------------- stabilization


def test_stabilization_certificate(families):
    fam = families[1]
    stab = build_stabilization(fam.delta, fam.h)
    assert stab.factor_count == 4
    assert stab.base == fam.automorphism
    assert stab.extension.arity == 4
    # the extension acts like the base on x1..x3 and fixes x4
    for i in range(3):
        assert stab.extension.images[i] == fam.automorphism.images[i].extend_arity(4)
    assert stab.extension.images[3] == parse_poly("x4", arity=4)
    word = PolyEndo.compose_chain(stab.factor_word())
    assert word == stab.extension


def test_stabilization_factors_invert(families):
    fam = families[1]
    stab = build_stabilization(fam.delta, fam.h)
    gamma_inv, rho_inv, gamma, rho = stab.factor_word()
    assert gamma.verify_inverse_pair(gamma_inv)
    assert rho.verify_inverse_pair(rho_inv)
    # gamma fixes x1..x3 and shifts the fresh variable by h
    assert gamma.images[:3] == PolyEndo.identity(4).images[:3]
    assert gamma.images[3] == parse_poly("x4", arity=4) + fam.h.extend_arity(4)


def test_stabilization_specializes(families):
    fam = families[1]
    stab = build_stabilization(fam.delta, fam.h)
    for alpha in (0, 1, -1):
        specialized = [f.specialize(alpha) for f in stab.factor_word()]
        assert PolyEndo.compose_chain(specialized) == stab.extension.specialize(alpha)


@pytest.mark.parametrize("l", (1, 2))
def test_every_grouping_of_the_certified_words_agrees(families, l):
    # the constructors compose each word in one cheap grouping; the literal
    # word is the same map under every bracketing.  (a o b) o (c o d) joins
    # two swollen halves (about 25 s at l = 1 over Q[t, 1/t]), so that one is
    # checked on the t = 0 fiber.
    fam = families[l]
    stab = build_stabilization(fam.delta, fam.h)
    a, b, c, d = stab.factor_word()
    for composite in (
        a.compose(b).compose(c).compose(d),
        a.compose(b.compose(c)).compose(d),
        compose_commutator(a, b, c, d),
        a.compose(b.compose(c.compose(d))),
    ):
        assert composite == stab.extension
    a0, b0, c0, d0 = (f.specialize(0) for f in (a, b, c, d))
    assert a0.compose(b0).compose(c0.compose(d0)) == stab.extension.specialize(0)
    tau, epsilon, tau_inv = fam.tau, fam.epsilon, fam.tau_inv
    assert tau.compose(epsilon).compose(tau_inv) == fam.automorphism
    assert tau.compose(epsilon.compose(tau_inv)) == fam.automorphism


# ------------------------------------------------------------------ records


_RECORDS = {
    "WildnessReport": (
        lambda fam: check_wild_at_zero(fam.delta, fam.h),
        (
            "f2_residue_nonzero",
            "h_residue_not_in_x1",
            "derivative_outside_ideal",
            "f2_residue",
            "h_residue",
            "derivative_residue",
            "verdict",
        ),
    ),
    "ConjugationCertificate": (
        lambda fam: fam,
        ("delta", "h", "tau", "tau_inv", "epsilon", "slice_potential", "automorphism"),
    ),
    "TamenessWord": (
        lambda fam: specialized_tameness(fam, Fraction(5, 3)),
        ("alpha", "factors", "fiber", "factor_kinds"),
    ),
    "StabilizationCertificate": (
        lambda fam: build_stabilization(fam.delta, fam.h),
        ("delta", "h", "base", "extension", "gamma", "rho"),
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_certificates_are_frozen_records(families, name):
    build, fields = _RECORDS[name]
    record = build(families[1])
    cls = type(record)
    assert cls.__name__ == name
    values = [getattr(record, field) for field in fields]
    keywords = dict(zip(fields, values))
    # by position and by keyword, every field given once
    assert cls(*values) == record == cls(**keywords)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**{field: keywords[field] for field in fields[1:]})
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(**keywords, unknown=values[0])
    # neither a field nor a new name can be set or deleted
    for attr in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, attr, values[0])
        with pytest.raises(AttributeError):
            delattr(record, attr)
    # equal and equally hashed by value; a copy with one field changed differs
    twin = cls(*values)
    assert twin is not record and hash(twin) == hash(record)
    assert record._replace(**{fields[-1]: None}) != record
    shown = ", ".join(f"{field}={value!r}" for field, value in keywords.items())
    assert repr(record) == f"{name}({shown})"
