"""Verification documents.

Every CLI payload is a JSON document that embeds all of its own data as
canonical polynomial text plus a transcript of exact identities.  Emission
and verification share one engine: a builder assembles the fields, runs the
same per-kind verifier that ``verify`` uses, refuses to emit unless every
identity passes, and stores the transcript it just computed.  A verifier
reparses every field from text and recomputes every identity from scratch,
so any edit to any embedded value flips at least one transcript line.

Document kinds: family, conjugation, wildness, tameness_word,
stabilization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .certificates import (
    ConjugationCertificate,
    StabilizationCertificate,
    TamenessWord,
    WILD,
    WildnessReport,
    check_wild_at_zero,
    compose_commutator,
    factor_kind,
    _TAME_KINDS,
)
from .derivation import TriangularDerivation
from .endo import PolyEndo
from .errors import CheckFailed, ParseError, PolydegenError
from .family import FamilyInstance, limit_shape_problems
from .laurent import LaurentPoly, RingMode
from .multipoly import MultiPoly
from .parsing import parse_poly, parse_rational

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Check:
    identity: str
    passed: bool


class _Lazy:
    """Memoized thunk that replays its error on every call."""

    def __init__(self, fn: Callable):
        self._fn = fn
        self._result = None

    def __call__(self):
        if self._result is None:
            try:
                self._result = ("ok", self._fn())
            except PolydegenError as exc:
                self._result = ("err", exc)
        tag, value = self._result
        if tag == "err":
            raise value
        return value


class _Transcript:
    def __init__(self):
        self.checks: list[Check] = []

    def run(self, identity: str, thunk: Callable[[], bool]) -> None:
        try:
            passed = bool(thunk())
        except PolydegenError:
            passed = False
        self.checks.append(Check(identity, passed))


# ------------------------------------------------------------ field parsing


def _field(doc: dict, key: str, kind: type):
    if key not in doc:
        raise ParseError(f"document is missing the field {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"field {key!r} should be {kind.__name__}, found {type(value).__name__}")
    return value


def _poly_field(doc: dict, key: str, arity: int) -> MultiPoly:
    text = _field(doc, key, str)
    try:
        return parse_poly(text, arity)
    except ParseError as exc:
        raise ParseError(f"field {key!r}: {exc}") from None


def _parse_poly_list(values, arity: int, label: str) -> tuple[MultiPoly, ...]:
    if not isinstance(values, list):
        raise ParseError(f"{label} should be a list of polynomial strings")
    if not values:
        raise ParseError(f"{label} must not be empty")
    out = []
    for i, text in enumerate(values):
        if not isinstance(text, str):
            raise ParseError(f"{label}[{i}] should be a string")
        try:
            out.append(parse_poly(text, arity))
        except ParseError as exc:
            raise ParseError(f"{label}[{i}]: {exc}") from None
    return tuple(out)


def _poly_list_field(doc: dict, key: str, arity: int) -> tuple[MultiPoly, ...]:
    return _parse_poly_list(_field(doc, key, list), arity, key)


def _rational_field(doc: dict, key: str) -> Fraction:
    return parse_rational(_field(doc, key, str))


def _images(endo: PolyEndo) -> list[str]:
    return [str(img) for img in endo.images]


# ------------------------------------------------------------------ builders


def _finish(doc: dict) -> dict:
    checks = verify_document(doc)
    failed = [c.identity for c in checks if not c.passed]
    if failed:
        raise CheckFailed("refusing to emit a failing document: " + "; ".join(failed))
    doc["transcript"] = [{"identity": c.identity, "pass": c.passed} for c in checks]
    return doc


def family_document(fam: FamilyInstance) -> dict:
    report = check_wild_at_zero(fam.delta, fam.h)
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "family",
        "l": fam.l,
        "arity": 3,
        "ring_mode": RingMode.LAURENT.value,
        "coefficients": [str(c) for c in fam.coefficients],
        "derivation": [str(f) for f in fam.delta.images],
        "g2": str(fam.g2),
        "g3": str(fam.g3),
        "tau": _images(fam.tau),
        "tau_inv": _images(fam.tau_inv),
        "slice_potential": str(fam.slice_potential),
        "epsilon": _images(fam.epsilon),
        "h": str(fam.h),
        "automorphism": _images(fam.automorphism),
        "derivation_at_zero": [str(f) for f in fam.delta_zero.images],
        "h_limit": str(fam.h_limit),
        "fiber_at_zero": _images(fam.fiber_zero),
        "wildness": _wildness_fields(report),
    }
    return _finish(doc)


def conjugation_document(cert: ConjugationCertificate) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "conjugation",
        "arity": cert.delta.arity,
        "ring_mode": RingMode.LAURENT.value,
        "derivation": [str(f) for f in cert.delta.images],
        "h": str(cert.h),
        "tau": _images(cert.tau),
        "tau_inv": _images(cert.tau_inv),
        "slice_potential": str(cert.slice_potential),
        "epsilon": _images(cert.epsilon),
        "automorphism": _images(cert.automorphism),
    }
    return _finish(doc)


def _wildness_fields(report: WildnessReport) -> dict:
    return {
        "f2_residue_nonzero": report.f2_residue_nonzero,
        "h_residue_not_in_x1": report.h_residue_not_in_x1,
        "derivative_outside_ideal": report.derivative_outside_ideal,
        "verdict": report.verdict,
    }


def wildness_document(
    delta: TriangularDerivation,
    h: MultiPoly,
    l: int | None = None,
) -> dict:
    report = check_wild_at_zero(delta, h)
    fiber = delta.exp(h).specialize(0)
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "kind": "wildness",
        "arity": 3,
    }
    if l is not None:
        doc["l"] = l
    doc.update(
        {
            "derivation": [str(f) for f in delta.images],
            "h": str(h),
            "flags": {
                "f2_residue_nonzero": report.f2_residue_nonzero,
                "h_residue_not_in_x1": report.h_residue_not_in_x1,
                "derivative_outside_ideal": report.derivative_outside_ideal,
            },
            "residues": {
                "f2": str(report.f2_residue),
                "h": str(report.h_residue),
                "derivative": str(report.derivative_residue),
            },
            "verdict": report.verdict,
            "fiber_at_zero": _images(fiber),
        }
    )
    return _finish(doc)


def word_document(
    word: TamenessWord,
    delta: TriangularDerivation,
    h: MultiPoly,
    l: int | None = None,
) -> dict:
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "kind": "tameness_word",
        "arity": word.fiber.arity,
    }
    if l is not None:
        doc["l"] = l
    doc.update(
        {
            "alpha": str(word.alpha),
            "derivation": [str(f) for f in delta.images],
            "h": str(h),
            "factors": [_images(f) for f in word.factors],
            "factor_kinds": list(word.factor_kinds),
            "fiber": _images(word.fiber),
        }
    )
    return _finish(doc)


def stabilization_document(
    cert: StabilizationCertificate,
    l: int | None = None,
    bounds: dict | None = None,
) -> dict:
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "kind": "stabilization",
        "arity": cert.delta.arity,
        "extended_arity": cert.gamma.arity,
    }
    if l is not None:
        doc["l"] = l
    doc.update(
        {
            "derivation": [str(f) for f in cert.delta.images],
            "h": str(cert.h),
            "base": _images(cert.base),
            "extension": _images(cert.extension),
            "gamma": _images(cert.gamma),
            "rho": _images(cert.rho),
            "factor_count": cert.factor_count,
        }
    )
    if bounds is not None:
        doc["length_bounds"] = dict(bounds)
    return _finish(doc)


# ----------------------------------------------------------------- verifiers


def verify_document(doc: dict) -> list[Check]:
    """Recompute every identity a document claims.

    Raises ParseError for text-level problems (bad JSON shape, missing
    fields, unparseable polynomials); semantic failures come back as failed
    checks, never exceptions.
    """
    if not isinstance(doc, dict):
        raise ParseError("a document must be a JSON object")
    if _field(doc, "format_version", int) != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    kind = _field(doc, "kind", str)
    verifier = _VERIFIERS.get(kind)
    if verifier is None:
        raise ParseError(f"unknown document kind {kind!r}")
    return verifier(doc)


def _verify_family(doc: dict) -> list[Check]:
    l = _field(doc, "l", int)
    arity = _field(doc, "arity", int)
    if arity != 3:
        raise ParseError("family documents have arity 3")
    coeff_text = _field(doc, "coefficients", list)
    coeffs = tuple(parse_rational(str(c)) for c in coeff_text)
    delta_images = _poly_list_field(doc, "derivation", arity)
    g2 = _poly_field(doc, "g2", arity)
    g3 = _poly_field(doc, "g3", arity)
    tau_images = _poly_list_field(doc, "tau", arity)
    tau_inv_images = _poly_list_field(doc, "tau_inv", arity)
    p = _poly_field(doc, "slice_potential", arity)
    eps_images = _poly_list_field(doc, "epsilon", arity)
    h = _poly_field(doc, "h", arity)
    phi_images = _poly_list_field(doc, "automorphism", arity)
    dz_images = _poly_list_field(doc, "derivation_at_zero", arity)
    h_limit = _poly_field(doc, "h_limit", arity)
    fiber_images = _poly_list_field(doc, "fiber_at_zero", arity)
    wild = _field(doc, "wildness", dict)

    tr = _Transcript()
    delta = _Lazy(lambda: TriangularDerivation(delta_images))
    delta_zero = _Lazy(lambda: TriangularDerivation(dz_images))
    tau = _Lazy(lambda: PolyEndo(tau_images))
    tau_inv = _Lazy(lambda: PolyEndo(tau_inv_images))
    epsilon = _Lazy(lambda: PolyEndo(eps_images))
    phi = _Lazy(lambda: PolyEndo(phi_images))
    fiber = _Lazy(lambda: PolyEndo(fiber_images))
    exp_h = _Lazy(lambda: delta().exp(h))
    report = _Lazy(lambda: check_wild_at_zero(delta(), h))

    x1 = MultiPoly.variable(arity, 1)
    x2 = MultiPoly.variable(arity, 2)
    x3 = MultiPoly.variable(arity, 3)
    t = MultiPoly.parameter(arity)

    tr.run("ring mode is Q[t,t^-1]", lambda: doc.get("ring_mode") == RingMode.LAURENT.value)
    tr.run(
        "l is at least 1 and matches the coefficient count",
        lambda: l >= 1 and len(coeffs) == l + 1,
    )
    tr.run("coefficients start at l+1", lambda: bool(coeffs) and coeffs[0] == l + 1)
    tr.run(
        "coefficients satisfy the recurrence (2i+1)*c_i = -(l-i+1)*c_{i-1}",
        lambda: len(coeffs) == l + 1
        and all(
            (2 * i + 1) * coeffs[i] == -(l - i + 1) * coeffs[i - 1] for i in range(1, l + 1)
        ),
    )
    tr.run(
        "derivation is (t, x1, -(l+1)*x2^l)",
        lambda: delta_images == (t, x1, -(l + 1) * x2**l),
    )
    tr.run("g2 is the slice image of x2", lambda: delta().sigma(x2) == g2)
    tr.run("g3 is the slice image of x3", lambda: delta().sigma(x3) == g3)

    def g3_formula() -> bool:
        if len(coeffs) != l + 1 or l < 1:
            return False
        expected = x3
        for i in range(l + 1):
            expected = expected + MultiPoly.monomial(
                arity, (2 * i + 1, l - i, 0), LaurentPoly.t_power(-(i + 1), coeffs[i])
            )
        return expected == g3

    tr.run("g3 matches its coefficient formula", g3_formula)
    tr.run("derivation kills g2", lambda: delta().apply(g2).is_zero())
    tr.run("derivation kills g3", lambda: delta().apply(g3).is_zero())
    tr.run("derivation kills h", lambda: delta().apply(h).is_zero())
    tr.run("tau is (x1, g2, g3)", lambda: tau_images == (x1, g2, g3))
    tr.run("tau is triangular over Q[t,t^-1]", lambda: tau().is_triangular(RingMode.LAURENT))
    tr.run("tau and tau_inv are mutually inverse", lambda: tau().verify_inverse_pair(tau_inv()))
    tr.run(
        "slice potential is h at x1 = 0",
        lambda: h.substitute([MultiPoly.zero(arity), x2, x3]) == p,
    )

    def p_formula() -> bool:
        if len(coeffs) != l + 1 or l < 1 or not coeffs[l]:
            return False
        c_l = coeffs[l]
        expected = ((2 * x2) ** (2 * l + 1) + t * (x3 / c_l) ** 2) * MultiPoly.constant(
            arity, LaurentPoly.t_power(l, c_l / 2)
        )
        return expected == p

    tr.run("slice potential matches its closed formula", p_formula)
    tr.run("tau sends the slice potential to h", lambda: tau().apply(p) == h)
    tr.run(
        "epsilon is the elementary shift of x1 by t times the slice potential",
        lambda: eps_images == (x1 + t * p, x2, x3),
    )
    tr.run("automorphism is exp(h*delta)", lambda: phi() == exp_h())
    tr.run(
        "tau o epsilon o tau_inv equals the automorphism",
        lambda: PolyEndo.compose_chain((tau(), epsilon(), tau_inv())) == phi(),
    )
    tr.run("h is regular at t = 0", lambda: h.is_t_regular())
    tr.run("h_limit is h at t = 0", lambda: h.specialize_t(0) == h_limit)
    tr.run(
        "h_limit equals x1^(2l)*(x1*x3 + x2^(l+1))",
        lambda: h_limit == x1 ** (2 * l) * (x1 * x3 + x2 ** (l + 1)),
    )
    tr.run(
        "h splits into its two leading terms plus an admissible remainder",
        lambda: len(coeffs) == l + 1
        and l >= 1
        and bool(coeffs[l])
        and not limit_shape_problems(h, l, coeffs[l]),
    )
    tr.run(
        "derivation_at_zero is the derivation at t = 0",
        lambda: dz_images == tuple(f.specialize_t(0) for f in delta_images),
    )
    tr.run("fiber_at_zero is the automorphism at t = 0", lambda: phi().specialize(0) == fiber())
    tr.run(
        "fiber_at_zero is exp(h_limit*delta_zero)",
        lambda: fiber() == delta_zero().exp(h_limit),
    )
    tr.run(
        "wildness flags recompute at t = 0",
        lambda: wild == _wildness_fields(report()),
    )
    tr.run("wildness verdict is wild", lambda: wild.get("verdict") == WILD)
    return tr.checks


def _verify_conjugation(doc: dict) -> list[Check]:
    arity = _field(doc, "arity", int)
    if arity < 1:
        raise ParseError("arity must be positive")
    delta_images = _poly_list_field(doc, "derivation", arity)
    h = _poly_field(doc, "h", arity)
    tau_images = _poly_list_field(doc, "tau", arity)
    tau_inv_images = _poly_list_field(doc, "tau_inv", arity)
    p = _poly_field(doc, "slice_potential", arity)
    eps_images = _poly_list_field(doc, "epsilon", arity)
    phi_images = _poly_list_field(doc, "automorphism", arity)

    tr = _Transcript()
    delta = _Lazy(lambda: TriangularDerivation(delta_images))
    tau = _Lazy(lambda: PolyEndo(tau_images))
    tau_inv = _Lazy(lambda: PolyEndo(tau_inv_images))
    epsilon = _Lazy(lambda: PolyEndo(eps_images))
    phi = _Lazy(lambda: PolyEndo(phi_images))
    variables = [MultiPoly.variable(arity, i) for i in range(1, arity + 1)]

    tr.run("ring mode is Q[t,t^-1]", lambda: doc.get("ring_mode") == RingMode.LAURENT.value)
    tr.run(
        "delta(x1) is a unit scalar of Q[t,t^-1]",
        lambda: delta_images[0].is_constant()
        and delta_images[0].as_laurent().is_unit(RingMode.LAURENT),
    )
    tr.run("derivation kills h", lambda: delta().apply(h).is_zero())
    tr.run(
        "tau is x1 followed by the slice images",
        lambda: tau_images == (variables[0], *delta().kernel_generators()),
    )
    tr.run("tau is triangular over Q[t,t^-1]", lambda: tau().is_triangular(RingMode.LAURENT))
    tr.run("tau and tau_inv are mutually inverse", lambda: tau().verify_inverse_pair(tau_inv()))
    tr.run(
        "slice potential is h at x1 = 0",
        lambda: h.substitute([MultiPoly.zero(arity)] + variables[1:]) == p,
    )
    tr.run("tau sends the slice potential to h", lambda: tau().apply(p) == h)
    tr.run(
        "epsilon is the elementary shift of x1 by delta(x1) times the slice potential",
        lambda: eps_images == (variables[0] + delta_images[0] * p, *variables[1:]),
    )
    tr.run("automorphism is exp(h*delta)", lambda: phi() == delta().exp(h))
    tr.run(
        "tau o epsilon o tau_inv equals the automorphism",
        lambda: PolyEndo.compose_chain((tau(), epsilon(), tau_inv())) == phi(),
    )
    return tr.checks


def _verify_wildness(doc: dict) -> list[Check]:
    arity = _field(doc, "arity", int)
    if arity != 3:
        raise ParseError("wildness documents have arity 3")
    delta_images = _poly_list_field(doc, "derivation", arity)
    h = _poly_field(doc, "h", arity)
    flags = _field(doc, "flags", dict)
    residues = _field(doc, "residues", dict)
    verdict = _field(doc, "verdict", str)

    tr = _Transcript()
    delta = _Lazy(lambda: TriangularDerivation(delta_images))
    report = _Lazy(lambda: check_wild_at_zero(delta(), h))

    tr.run(
        "derivation and h are regular at t = 0",
        lambda: all(f.is_t_regular() for f in delta_images) and h.is_t_regular(),
    )
    tr.run(
        "delta(x1) is a scalar vanishing at t = 0",
        lambda: delta_images[0].is_constant()
        and delta_images[0].specialize_t(0).is_zero(),
    )
    tr.run("derivation kills h", lambda: delta().apply(h).is_zero())
    tr.run(
        "flag f2_residue_nonzero recomputes",
        lambda: flags.get("f2_residue_nonzero") == report().f2_residue_nonzero,
    )
    tr.run(
        "flag h_residue_not_in_x1 recomputes",
        lambda: flags.get("h_residue_not_in_x1") == report().h_residue_not_in_x1,
    )
    tr.run(
        "flag derivative_outside_ideal recomputes",
        lambda: flags.get("derivative_outside_ideal") == report().derivative_outside_ideal,
    )

    def residues_recompute() -> bool:
        rep = report()
        return (
            residues.get("f2") == str(rep.f2_residue)
            and residues.get("h") == str(rep.h_residue)
            and residues.get("derivative") == str(rep.derivative_residue)
        )

    tr.run("residues recompute", residues_recompute)
    tr.run("verdict matches the flags", lambda: verdict == report().verdict)
    if "fiber_at_zero" in doc:
        fiber_images = _poly_list_field(doc, "fiber_at_zero", arity)
        tr.run(
            "fiber_at_zero is exp(h*delta) at t = 0",
            lambda: PolyEndo(fiber_images) == delta().exp(h).specialize(0),
        )
    return tr.checks


def _verify_word(doc: dict) -> list[Check]:
    arity = _field(doc, "arity", int)
    if arity < 1:
        raise ParseError("arity must be positive")
    alpha = _rational_field(doc, "alpha")
    delta_images = _poly_list_field(doc, "derivation", arity)
    h = _poly_field(doc, "h", arity)
    factor_lists = _field(doc, "factors", list)
    factors = [
        _parse_poly_list(lst, arity, f"factors[{j}]") for j, lst in enumerate(factor_lists)
    ]
    if not factors:
        raise ParseError("a tameness word needs at least one factor")
    kinds = _field(doc, "factor_kinds", list)
    if len(kinds) != len(factors):
        raise ParseError("factor_kinds and factors have different lengths")
    fiber_images = _poly_list_field(doc, "fiber", arity)

    tr = _Transcript()
    delta = _Lazy(lambda: TriangularDerivation(delta_images))
    fiber = _Lazy(lambda: PolyEndo(fiber_images))
    factor_endos = [_Lazy(lambda imgs=imgs: PolyEndo(imgs)) for imgs in factors]

    def composes() -> bool:
        return PolyEndo.compose_chain([lazy() for lazy in factor_endos]) == fiber()

    tr.run("factors compose to the fiber", composes)
    tr.run(
        "fiber is exp(h*delta) at t = alpha",
        lambda: delta().exp(h).specialize(alpha) == fiber(),
    )
    for i, lazy in enumerate(factor_endos):
        tr.run(
            f"factor {i + 1} kind recomputes as stated",
            lambda i=i, lazy=lazy: factor_kind(lazy(), RingMode.POLY) == kinds[i],
        )
    tr.run(
        "every factor kind certifies tameness",
        lambda: all(kind in _TAME_KINDS for kind in kinds),
    )
    return tr.checks


def _verify_stabilization(doc: dict) -> list[Check]:
    arity = _field(doc, "arity", int)
    extended_arity = _field(doc, "extended_arity", int)
    if arity < 1 or extended_arity != arity + 1:
        raise ParseError("extended_arity must be arity + 1")
    m = extended_arity
    delta_images = _poly_list_field(doc, "derivation", arity)
    h = _poly_field(doc, "h", arity)
    base_images = _poly_list_field(doc, "base", arity)
    ext_images = _poly_list_field(doc, "extension", m)
    gamma_images = _poly_list_field(doc, "gamma", m)
    rho_images = _poly_list_field(doc, "rho", m)
    factor_count = _field(doc, "factor_count", int)

    tr = _Transcript()
    delta = _Lazy(lambda: TriangularDerivation(delta_images))
    extended_delta = _Lazy(lambda: delta().extend_arity(m))
    base = _Lazy(lambda: PolyEndo(base_images))
    extension = _Lazy(lambda: PolyEndo(ext_images))
    gamma = _Lazy(lambda: PolyEndo(gamma_images))
    rho = _Lazy(lambda: PolyEndo(rho_images))
    new_var = MultiPoly.variable(m, m)

    def pieces_lazy() -> tuple[PolyEndo, PolyEndo]:
        h_lift = h.extend_arity(m)
        gamma_inv = PolyEndo(gamma().images[:-1] + (new_var - h_lift,))
        rho_inv = extended_delta().exp(-new_var)
        return gamma_inv, rho_inv

    pieces = _Lazy(pieces_lazy)
    word = _Lazy(lambda: compose_commutator(pieces()[0], pieces()[1], gamma(), rho()))

    tr.run("derivation kills h", lambda: delta().apply(h).is_zero())
    tr.run("base is exp(h*delta)", lambda: base() == delta().exp(h))
    tr.run(
        "extension is the base with the new variable fixed",
        lambda: extension() == base().extend_arity(m),
    )
    tr.run(
        "gamma shifts the new variable by h",
        lambda: gamma_images
        == tuple(MultiPoly.variable(m, i) for i in range(1, m)) + (new_var + h.extend_arity(m),),
    )
    tr.run(
        "rho is exp of the new variable against the extended derivation",
        lambda: rho() == extended_delta().exp(new_var),
    )
    tr.run(
        "gamma and rho invert exactly",
        lambda: gamma().verify_inverse_pair(pieces()[0]) and rho().verify_inverse_pair(pieces()[1]),
    )
    tr.run("the commutator word composes to the extension", lambda: word() == extension())

    regular = all(f.is_t_regular() for f in delta_images) and h.is_t_regular()
    if regular:
        for alpha in (0, 1, -1):
            tr.run(
                f"the word specializes at t = {alpha}",
                lambda alpha=alpha: word().specialize(alpha) == extension().specialize(alpha),
            )
    tr.run("factor_count is 4", lambda: factor_count == 4)
    if "length_bounds" in doc:
        bounds = _field(doc, "length_bounds", dict)
        tr.run(
            "stated length bounds are (3, 4)",
            lambda: bounds.get("nonzero_alpha") == 3 and bounds.get("zero_alpha") == 4,
        )
    return tr.checks


_VERIFIERS = {
    "family": _verify_family,
    "conjugation": _verify_conjugation,
    "wildness": _verify_wildness,
    "tameness_word": _verify_word,
    "stabilization": _verify_stabilization,
}


# -------------------------------------------------------------- serialization


def dumps(doc: dict) -> str:
    """Canonical JSON text: fixed key order, two-space indent."""
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("a document must be a JSON object")
    return doc


def render_text(doc: dict) -> str:
    """Flat deterministic text rendering of a document."""
    lines: list[str] = []
    for key, value in doc.items():
        if key == "transcript":
            continue
        if isinstance(value, list):
            lines.append(f"{key}:")
            for item in value:
                lines.append(f"  {item}")
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            for k, v in value.items():
                lines.append(f"  {k}: {v}")
        else:
            lines.append(f"{key}: {value}")
    entries = doc.get("transcript", [])
    lines.append("transcript:")
    for entry in entries:
        mark = "pass" if entry.get("pass") else "FAIL"
        lines.append(f"  {mark}  {entry.get('identity')}")
    good = sum(1 for e in entries if e.get("pass"))
    verdict = "pass" if good == len(entries) else "FAIL"
    lines.append(f"result: {verdict} ({good}/{len(entries)} identities)")
    return "\n".join(lines) + "\n"
