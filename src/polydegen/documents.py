"""Verification documents.

Every CLI payload is a JSON document that embeds all of its own data as
canonical polynomial text plus a transcript of exact identities.  Each
document kind's fields are written once, in ``_SCHEMAS``, and its
identities once, in its verifier's ordered check list: the constructors
only build.  A builder names the fields, and ``_document`` renders them as
text in schema order, runs the kind's verifier on them, refuses to emit
unless every identity passes, and stores the transcript it just computed;
``verify`` runs the same verifier.  One reader reads every field by the
schema: a document must have exactly its kind's keys, each field its
type, a dict field exactly its keys and a list field items of its type,
and a polynomial or a rational is read only as the canonical text that
``str`` writes.  A verifier reparses every field from text and recomputes
every identity from scratch, so an edit to an embedded value either makes
the document unreadable or flips at least one transcript line.  One edit
keeps a document verified: a polynomial coefficient rewritten out of
lowest terms, which reads at its value.  A derivation whose exp or sigma
series could outgrow the document's length (``_series_bound``) is
refused, which fails each identity that uses it.  A wildness,
tameness_word or stabilization document may leave out ``l``; when it
states one, its first identity checks that the derivation and h are that
family member.

This module is the only reader of documents: ``read_document`` reads a
file, ``verify_report`` writes what ``verify`` prints, and ``family_l``
reads the family member that ``specialize --in`` rebuilds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, partial
from types import SimpleNamespace

from ._kernel import MAX_ARITY
from .certificates import (
    ConjugationCertificate,
    StabilizationCertificate,
    TAME_KINDS,
    TamenessWord,
    WILD,
    WildnessReport,
    check_wild_at_zero,
    compose_commutator,
    factor_kind,
)
from .derivation import TriangularDerivation
from .endo import Images, PolyEndo
from .errors import ArityMismatch, CheckFailed, HypothesisViolation, ParseError, PolydegenError
from .family import family_derivation, family_potential, has_limit_shape, slice_coefficients
from .multipoly import MultiPoly
from .parsing import parse_poly, parse_rational

FORMAT_VERSION = 1
_BASE_RING = "Q[t,t^-1]"  # the ring_mode field: every map's coefficients lie here

_FLAGS = ("f2_residue_nonzero", "h_residue_not_in_x1", "derivative_outside_ideal")
_LENGTH_BOUNDS = {"nonzero_alpha": 3, "zero_alpha": 4, "zero_alpha_exactness": "claimed"}

# the keys of the flag and residue dicts, each with its type
_FLAG_KEYS = dict.fromkeys(_FLAGS, bool)
_RESIDUE_KEYS = dict.fromkeys(("f2", "h", "derivative"), str)


# ------------------------------------------------------------ field parsing


def _field(doc: dict, key: str, kind):
    """``doc[key]``, read as ``kind`` (see ``_typed``)."""
    if key not in doc:
        raise ParseError(f"document is missing the field {key!r}")
    return _typed(doc[key], kind, f"field {key!r}")


def _typed(value, kind, label: str):
    """``value`` read as ``kind``: a type, which it must have; a dict of
    key -> kind, for a dict with exactly those keys; ``[kind]``, for a
    nonempty list, read into a tuple; ``(cls, reader)``, for a map
    ``cls(images)`` with the images read as ``[reader]``; or a reader of a
    str, such as ``parse_poly`` with its arity bound."""
    if isinstance(kind, tuple):
        cls, reader = kind
        try:
            return cls(_typed(value, [reader], label))
        except ArityMismatch as exc:
            raise ParseError(f"{label}: {exc}") from None
    if isinstance(kind, (dict, list)):
        want = type(kind)
    else:
        want = kind if isinstance(kind, type) else str
    if not isinstance(value, want) or (want is int and isinstance(value, bool)):
        raise ParseError(f"{label} should be {want.__name__}, found {type(value).__name__}")
    if isinstance(kind, dict):
        if value.keys() != kind.keys():
            raise ParseError(f"{label} should have exactly the keys {', '.join(kind)}")
        return {k: _typed(value[k], k_kind, f"{label}[{k!r}]") for k, k_kind in kind.items()}
    if isinstance(kind, list):
        if not value:
            raise ParseError(f"{label} must not be empty")
        return tuple(_typed(item, kind[0], f"{label}[{i}]") for i, item in enumerate(value))
    if want is kind:
        return value
    try:
        return kind(value)
    except ParseError as exc:
        raise ParseError(f"{label}: {exc}") from None


def _rational(text: str) -> Fraction:
    """The rational ``text`` states, which must be written as str(Fraction) writes it."""
    value = parse_rational(text)
    if str(value) != text:
        raise ParseError("not the canonical text of a rational")
    return value


# Each kind's fields in the order a document states them, each with the
# ``_typed`` kind it is read as; ``_resolved`` reads a placeholder as a
# polynomial, map or derivation at the document's arity, or a map at its
# extended_arity.  Only ``l`` may be left out, and not from a family.
_POLY, _MAP, _DERIVATION, _OPTIONAL_INT = "polynomial", "map", "derivation", "optional int"
_EXTENDED_MAP, _EXTENSION = "map at extended_arity", "map at extended_arity, base copies lifted"

_SCHEMAS = {
    "family": {
        "l": int, "arity": int, "ring_mode": str, "coefficients": [_rational],
        "derivation": _DERIVATION, "g2": _POLY, "g3": _POLY, "tau": _MAP, "tau_inv": _MAP,
        "slice_potential": _POLY, "epsilon": _MAP, "h": _POLY, "automorphism": _MAP,
        "derivation_at_zero": _DERIVATION, "h_limit": _POLY, "fiber_at_zero": _MAP,
        "wildness": {**_FLAG_KEYS, "verdict": str},
    },
    "conjugation": {
        "arity": int, "ring_mode": str, "derivation": _DERIVATION, "h": _POLY, "tau": _MAP,
        "tau_inv": _MAP, "slice_potential": _POLY, "epsilon": _MAP, "automorphism": _MAP,
    },
    "wildness": {
        "arity": int, "l": _OPTIONAL_INT, "derivation": _DERIVATION, "h": _POLY,
        "flags": _FLAG_KEYS, "residues": _RESIDUE_KEYS, "verdict": str, "fiber_at_zero": _MAP,
    },
    "tameness_word": {
        "arity": int, "l": _OPTIONAL_INT, "alpha": _rational, "derivation": _DERIVATION,
        "h": _POLY, "factors": [_MAP], "factor_kinds": [str], "fiber": _MAP,
    },
    "stabilization": {
        "arity": int, "extended_arity": int, "l": _OPTIONAL_INT, "derivation": _DERIVATION,
        "h": _POLY, "base": _MAP, "extension": _EXTENSION, "gamma": _EXTENDED_MAP,
        "rho": _EXTENDED_MAP, "factor_count": int,
        "length_bounds": {k: type(v) for k, v in _LENGTH_BOUNDS.items()},
    },
}
_FIXED_ARITY = {"family": 3, "wildness": 3}  # the arity a kind must state


def _resolved(kind, f: SimpleNamespace, doc: dict):
    """The ``_typed`` kind a schema entry names, a placeholder resolved to
    its reader at the arity that ``f`` has already read."""
    if isinstance(kind, list):
        return [_resolved(kind[0], f, doc)]
    if not isinstance(kind, str):
        return kind
    if kind == _OPTIONAL_INT:
        return int
    n = f.extended_arity if kind in (_EXTENDED_MAP, _EXTENSION) else f.arity
    read = partial(parse_poly, arity=n)
    if kind == _POLY:
        return read
    if kind == _EXTENSION:
        # An extension image written as a base image is that image lifted,
        # so the copied text is parsed once.  Past MAX_ARITY, parse_poly
        # refuses every extension image, copies included.
        copies = dict(zip(doc["base"], f.base.images)) if n <= MAX_ARITY else {}
        return PolyEndo, lambda text: copies[text].extend_arity(n) if text in copies else read(text)
    return (Images if kind == _DERIVATION else PolyEndo, read)


def _read_fields(doc: dict, kind: str, keys=None) -> SimpleNamespace:
    """A ``kind`` document's fields, read in schema order into one attribute
    each (``l`` None when left out), after refusing a key the kind lacks.
    A wrong arity is refused as soon as it is read, before any polynomial.
    ``keys`` reads only those fields, at the ``_FIXED_ARITY``, and refuses
    no key: ``family_l`` reads the family member so."""
    schema = _SCHEMAS[kind]
    if keys is None:
        keys = schema
        unknown = doc.keys() - schema.keys() - {"format_version", "kind", "transcript"}
        if unknown:
            raise ParseError(f"document has the unknown field {min(unknown)!r}")
    f = SimpleNamespace(l=None, arity=_FIXED_ARITY.get(kind))
    for key in keys:
        if key not in doc and schema[key] == _OPTIONAL_INT:
            continue
        value = _field(doc, key, _resolved(schema[key], f, doc))
        if key == "arity" and kind in _FIXED_ARITY and value != f.arity:
            raise ParseError(f"{kind} documents have arity {f.arity}")
        if key == "extended_arity" and value != f.arity + 1:
            raise ParseError("extended_arity must be arity + 1")
        setattr(f, key, value)
    return f


# ------------------------------------------------------------------ builders


def _render(value):
    """A field as JSON: a polynomial or a rational as its text, a map as its
    images, a list item by item, anything else as it is."""
    if isinstance(value, Images):
        value = value.images
    if isinstance(value, (list, tuple)):
        return [_render(item) for item in value]
    return str(value) if isinstance(value, (MultiPoly, Fraction)) else value


def _document(kind: str, **fields) -> dict:
    """The document of one kind with the given fields, in schema order, None ones left out.

    Runs the kind's check list on it, refuses to emit it unless every
    identity passes, and stores the transcript it just computed.
    """
    doc = {"format_version": FORMAT_VERSION, "kind": kind}
    doc.update((key, _render(fields[key])) for key in _SCHEMAS[kind] if fields[key] is not None)
    transcript = verify_document(doc)
    failed = [entry["identity"] for entry in transcript if not entry["pass"]]
    if failed:
        raise CheckFailed("refusing to emit a failing document: " + "; ".join(failed))
    doc["transcript"] = transcript
    return doc


def family_document(l: int, cert: ConjugationCertificate) -> dict:
    delta, h = cert.delta, cert.h
    return _document(
        "family",
        l=l,
        arity=3,
        ring_mode=_BASE_RING,
        coefficients=slice_coefficients(l),
        derivation=delta,
        g2=cert.tau.images[1],
        g3=cert.tau.images[2],
        tau=cert.tau,
        tau_inv=cert.tau_inv,
        slice_potential=cert.slice_potential,
        epsilon=cert.epsilon,
        h=h,
        automorphism=cert.automorphism,
        derivation_at_zero=delta.specialize(0),
        h_limit=h.specialize_t(0),
        fiber_at_zero=cert.automorphism.specialize(0),
        wildness=_wildness_fields(check_wild_at_zero(delta, h)),
    )


def conjugation_document(cert: ConjugationCertificate) -> dict:
    return _document(
        "conjugation",
        arity=cert.delta.arity,
        ring_mode=_BASE_RING,
        derivation=cert.delta,
        h=cert.h,
        tau=cert.tau,
        tau_inv=cert.tau_inv,
        slice_potential=cert.slice_potential,
        epsilon=cert.epsilon,
        automorphism=cert.automorphism,
    )


def _wildness_fields(report: WildnessReport) -> dict:
    return {**dict(zip(_FLAGS, report.flags)), "verdict": report.verdict}


def _residues(report: WildnessReport) -> dict:
    residues = (report.f2_residue, report.h_residue, report.derivative_residue)
    return dict(zip(_RESIDUE_KEYS, map(str, residues)))


def wildness_document(
    delta: TriangularDerivation,
    h: MultiPoly,
    l: int | None = None,
) -> dict:
    report = check_wild_at_zero(delta, h)
    return _document(
        "wildness",
        arity=3,
        l=l,
        derivation=delta,
        h=h,
        flags=dict(zip(_FLAGS, report.flags)),
        residues=_residues(report),
        verdict=report.verdict,
        fiber_at_zero=delta.exp(h).specialize(0),
    )


def word_document(
    word: TamenessWord,
    delta: TriangularDerivation,
    h: MultiPoly,
    l: int | None = None,
) -> dict:
    return _document(
        "tameness_word",
        arity=word.fiber.arity,
        l=l,
        alpha=word.alpha,
        derivation=delta,
        h=h,
        factors=word.factors,
        factor_kinds=word.factor_kinds,
        fiber=word.fiber,
    )


def stabilization_document(cert: StabilizationCertificate, l: int | None = None) -> dict:
    return _document(
        "stabilization",
        arity=cert.delta.arity,
        extended_arity=cert.gamma.arity,
        l=l,
        derivation=cert.delta,
        h=cert.h,
        base=cert.base,
        extension=cert.extension,
        gamma=cert.gamma,
        rho=cert.rho,
        factor_count=cert.factor_count,
        length_bounds=dict(_LENGTH_BOUNDS),
    )


# ----------------------------------------------------------------- verifiers
#
# ``verify_document`` reads a document's fields by its schema into a
# namespace ``f`` and adds what the pair (derivation, h) implies: the
# derivation ``f.delta()``, the variables ``f.x``, ``f.member`` (the entry
# that checks a stated l) and ``f.regular`` (the pair is regular at t = 0).
# It then runs the kind's check list over ``f``.  An entry is (identity,
# predicate, *premises): the predicate takes ``f`` and fails by returning
# False or by raising a PolydegenError, and an entry fails without running
# when one of its premises, the identities of earlier entries, failed.
# Only the values whose building can fail an identity or costs products
# (the derivations, the wildness report and the stabilization word and its
# composite) are built on first use and cached; an error is raised again
# on each use, after a cheap validation, and the word composes only behind
# its premises.


def document_kind(doc: dict) -> str:
    """The kind a document's header names, after checking the header.

    Raises ParseError unless ``doc`` is a JSON object of this format_version
    whose kind has a verifier.  ``verify`` and ``specialize --in`` both read
    a header through here.
    """
    if not isinstance(doc, dict):
        raise ParseError("a document must be a JSON object")
    if _field(doc, "format_version", int) != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    kind = _field(doc, "kind", str)
    if kind not in _VERIFIERS:
        raise ParseError(f"unknown document kind {kind!r}")
    return kind


def verify_document(doc: dict) -> list[dict]:
    """Recompute every identity a document claims, as its transcript.

    Returns one entry ``{"identity": str, "pass": bool}`` per identity of
    the kind's check list, in order, as ``_document`` stores them.  Raises
    ParseError for text-level problems (bad JSON shape, missing fields,
    unparseable polynomials); semantic failures come back as failed
    entries, never exceptions.
    """
    kind = document_kind(doc)
    f = _read_fields(doc, kind)
    f.delta = cache(lambda: _derivation(f.derivation.images, doc))
    f.x = tuple(MultiPoly.variable(f.arity, i) for i in range(1, f.arity + 1))
    f.member = () if f.l is None else (_IS_MEMBER,)
    f.regular = all(g.is_t_regular() for g in f.derivation.images) and f.h.is_t_regular()
    return _run(f, _VERIFIERS[kind](f, doc))


def _run(f: SimpleNamespace, checks) -> list[dict]:
    passed: dict[str, bool] = {}
    out = []
    for identity, predicate, *premises in checks:
        ok = all(passed[p] for p in premises)
        if ok:
            try:
                ok = bool(predicate(f))
            except PolydegenError:
                ok = False
        passed[identity] = ok
        out.append({"identity": identity, "pass": ok})
    return out


# Identities that read the same in several kinds: the conjugation's, which a
# family document holds too.
_RING_MODE = ("ring mode is Q[t,t^-1]", lambda f: f.ring_mode == _BASE_RING)
_KILLS_H = ("derivation kills h", lambda f: f.delta().apply(f.h).is_zero())
_TAU_TRIANGULAR = ("tau is triangular over Q[t,t^-1]", lambda f: f.tau.is_triangular())
_TAU_INVERTS = (
    "tau and tau_inv are mutually inverse",
    lambda f: f.tau.verify_inverse_pair(f.tau_inv),
)
_POTENTIAL_IS_H_AT_ZERO = (
    "slice potential is h at x1 = 0",
    lambda f: f.h.substitute([MultiPoly.zero(f.arity), *f.x[1:]]) == f.slice_potential,
)
_TAU_SENDS_POTENTIAL = (
    "tau sends the slice potential to h", lambda f: f.tau.apply(f.slice_potential) == f.h
)
_AUTOMORPHISM_IS_EXP = (
    "automorphism is exp(h*delta)", lambda f: f.automorphism == f.delta().exp(f.h)
)
_CONJUGATES = (
    "tau o epsilon o tau_inv equals the automorphism",
    lambda f: PolyEndo.compose_chain((f.tau, f.epsilon, f.tau_inv)) == f.automorphism,
)


# The longest exp or sigma series a document may ask for: _SERIES_FLOOR
# summands, and one more for each _SERIES_BYTES bytes of its compact JSON
# text.  The family's series have 2l + 2 summands; the tightest emitted
# document, the wildness document of l = 8, is 3,039 bytes for 18.
_SERIES_FLOOR, _SERIES_BYTES = 256, 64


def _series_bound(doc: dict) -> int:
    return _SERIES_FLOOR + len(json.dumps(doc, separators=(",", ":"))) // _SERIES_BYTES


def _derivation(images: tuple, doc: dict) -> TriangularDerivation:
    """The derivation a document states, refused with HypothesisViolation
    when its exp or sigma series could outgrow ``_series_bound(doc)``."""
    delta = TriangularDerivation(images)
    length = delta.series_length()
    # the floor allows every honest l up to 127 without measuring the text
    if length > _SERIES_FLOOR and length > _series_bound(doc):
        raise HypothesisViolation(f"the derivation's series may have {length} summands")
    return delta


def _is_member(f: SimpleNamespace) -> bool:
    """Whether the pair (derivation, h) that ``f`` read is family member
    ``f.l``, cheapest test first.  An honest h has 2l + 3 terms, so l is
    bounded by the term count of h before any member is built, and neither
    the check nor a rebuild outgrows the document.  x1/t is a slice, so an
    element of the kernel is fixed by its value at x1 = 0."""
    if not 1 <= f.l <= f.h.term_count():
        return False
    delta = family_derivation(f.l)
    x2, x3 = MultiPoly.variable(3, 2), MultiPoly.variable(3, 3)
    return (
        f.derivation.images == delta.images
        and delta.apply(f.h).is_zero()
        and f.h.substitute([MultiPoly.zero(3), x2, x3])
        == family_potential(f.l, slice_coefficients(f.l)[f.l])
    )


# the first entry of a wildness, word or stabilization document that states its l
_IS_MEMBER = ("derivation and h are family member l", _is_member)


def _verify_family(f: SimpleNamespace, doc: dict) -> tuple:
    l, coeffs = f.l, f.coefficients
    f.delta_zero = cache(lambda: _derivation(f.derivation_at_zero.images, doc))
    x1, x2, x3 = f.x
    t = MultiPoly.parameter(3)
    # the closed formulas read c_0..c_l
    counted = l >= 1 and len(coeffs) == l + 1

    def g3_formula(f) -> bool:
        expected = x3
        for i in range(l + 1):
            expected = expected + MultiPoly(3, {(2 * i + 1, l - i, 0, -(i + 1)): coeffs[i]})
        return expected == f.g3

    return (
        _RING_MODE,
        ("l is at least 1 and matches the coefficient count", lambda f: counted),
        ("coefficients start at l+1", lambda f: bool(coeffs) and coeffs[0] == l + 1),
        (
            "coefficients satisfy the recurrence (2i+1)*c_i = -(l-i+1)*c_{i-1}",
            lambda f: len(coeffs) == l + 1
            and all(
                (2 * i + 1) * coeffs[i] == -(l - i + 1) * coeffs[i - 1] for i in range(1, l + 1)
            ),
        ),
        (
            "derivation is (t, x1, -(l+1)*x2^l)",
            lambda f: f.derivation.images == family_derivation(l).images,
        ),
        ("g2 is the slice image of x2", lambda f: f.delta().sigma(x2) == f.g2),
        ("g3 is the slice image of x3", lambda f: f.delta().sigma(x3) == f.g3),
        ("g3 matches its coefficient formula", lambda f: counted and g3_formula(f)),
        ("derivation kills g2", lambda f: f.delta().apply(f.g2).is_zero()),
        ("derivation kills g3", lambda f: f.delta().apply(f.g3).is_zero()),
        _KILLS_H,
        ("tau is (x1, g2, g3)", lambda f: f.tau.images == (x1, f.g2, f.g3)),
        _TAU_TRIANGULAR,
        _TAU_INVERTS,
        _POTENTIAL_IS_H_AT_ZERO,
        (
            "slice potential matches its closed formula",
            lambda f: counted
            and bool(coeffs[l])
            and family_potential(l, coeffs[l]) == f.slice_potential,
        ),
        _TAU_SENDS_POTENTIAL,
        (
            "epsilon is the elementary shift of x1 by t times the slice potential",
            lambda f: f.epsilon.images == (x1 + t * f.slice_potential, x2, x3),
        ),
        _AUTOMORPHISM_IS_EXP,
        _CONJUGATES,
        ("h is regular at t = 0", lambda f: f.h.is_t_regular()),
        ("h_limit is h at t = 0", lambda f: f.h.specialize_t(0) == f.h_limit),
        (
            "h_limit equals x1^(2l)*(x1*x3 + x2^(l+1))",
            lambda f: f.h_limit == x1 ** (2 * l) * (x1 * x3 + x2 ** (l + 1)),
        ),
        (
            "h splits into its two leading terms plus an admissible remainder",
            lambda f: counted and bool(coeffs[l]) and has_limit_shape(f.h, l, coeffs[l]),
        ),
        (
            "derivation_at_zero is the derivation at t = 0",
            lambda f: f.derivation_at_zero == f.derivation.specialize(0),
        ),
        (
            "fiber_at_zero is the automorphism at t = 0",
            lambda f: f.automorphism.specialize(0) == f.fiber_at_zero,
        ),
        (
            "fiber_at_zero is exp(h_limit*delta_zero)",
            lambda f: f.fiber_at_zero == f.delta_zero().exp(f.h_limit),
        ),
        (
            "wildness flags recompute at t = 0",
            lambda f: f.wildness == _wildness_fields(check_wild_at_zero(f.delta(), f.h)),
        ),
        ("wildness verdict is wild", lambda f: f.wildness["verdict"] == WILD),
    )


def _verify_conjugation(f: SimpleNamespace, doc: dict) -> tuple:
    return (
        _RING_MODE,
        ("delta(x1) is a unit scalar of Q[t,t^-1]", lambda f: f.derivation.images[0].is_unit()),
        _KILLS_H,
        (
            "tau is x1 followed by the slice images",
            lambda f: f.tau.images == (f.x[0], *f.delta().kernel_generators()),
        ),
        _TAU_TRIANGULAR,
        _TAU_INVERTS,
        _POTENTIAL_IS_H_AT_ZERO,
        _TAU_SENDS_POTENTIAL,
        (
            "epsilon is the elementary shift of x1 by delta(x1) times the slice potential",
            lambda f: f.epsilon.images
            == (f.x[0] + f.derivation.images[0] * f.slice_potential, *f.x[1:]),
        ),
        _AUTOMORPHISM_IS_EXP,
        _CONJUGATES,
    )


def _verify_wildness(f: SimpleNamespace, doc: dict) -> tuple:
    f.report = cache(lambda: check_wild_at_zero(f.delta(), f.h))
    return (
        *f.member,
        ("derivation and h are regular at t = 0", lambda f: f.regular),
        (
            "delta(x1) is a scalar vanishing at t = 0",
            lambda f: f.derivation.images[0].is_constant()
            and f.derivation.images[0].specialize_t(0).is_zero(),
        ),
        _KILLS_H,
        *(
            (
                f"flag {flag} recomputes",
                lambda f, i=i, flag=flag: f.flags[flag] == f.report().flags[i],
            )
            for i, flag in enumerate(_FLAGS)
        ),
        ("residues recompute", lambda f: f.residues == _residues(f.report())),
        ("verdict matches the flags", lambda f: f.verdict == f.report().verdict),
        (
            "fiber_at_zero is exp(h*delta) at t = 0",
            lambda f: f.fiber_at_zero == f.delta().exp(f.h).specialize(0),
        ),
    )


def _verify_word(f: SimpleNamespace, doc: dict) -> tuple:
    if len(f.factor_kinds) != len(f.factors):
        raise ParseError("factor_kinds and factors have different lengths")
    return (
        *f.member,
        ("factors compose to the fiber", lambda f: PolyEndo.compose_chain(f.factors) == f.fiber),
        (
            "fiber is exp(h*delta) at t = alpha",
            lambda f: f.delta().exp(f.h).specialize(f.alpha) == f.fiber,
        ),
        *(
            (
                f"factor {i + 1} kind recomputes as stated",
                lambda f, i=i: factor_kind(f.factors[i]) == f.factor_kinds[i],
            )
            for i in range(len(f.factors))
        ),
        (
            "every factor kind certifies tameness",
            lambda f: all(kind in TAME_KINDS for kind in f.factor_kinds),
        ),
    )


# compose_commutator keeps the word small only when delta kills h and the
# factors invert (see its docstring); without them composing can swell far
# beyond the answer, so the word is not composed when either failed
_WORD_PREMISES = ("derivation kills h", "gamma and rho invert exactly")


def _verify_stabilization(f: SimpleNamespace, doc: dict) -> list:
    m = f.extended_arity
    # (gamma_inv, rho_inv, gamma, rho): the certificate derives the inverses
    f.word = cache(
        lambda: StabilizationCertificate(
            f.delta(), f.h, f.base, f.extension, f.gamma, f.rho
        ).factor_word()
    )
    f.composed = cache(lambda: compose_commutator(*f.word()))
    x = [MultiPoly.variable(m, i) for i in range(1, m + 1)]

    def inverts(f) -> bool:
        gamma_inv, rho_inv, gamma, rho = f.word()
        return gamma.verify_inverse_pair(gamma_inv) and rho.verify_inverse_pair(rho_inv)

    checks = [
        *f.member,
        _KILLS_H,
        ("base is exp(h*delta)", lambda f: f.base == f.delta().exp(f.h)),
        (
            "extension is the base with the new variable fixed",
            lambda f: f.extension == f.base.extend_arity(m),
        ),
        (
            "gamma shifts the new variable by h",
            lambda f: f.gamma.images == (*x[:-1], x[-1] + f.h.extend_arity(m)),
        ),
        (
            "rho is exp of the new variable against the extended derivation",
            lambda f: f.rho == f.delta().extend_arity(m).exp(x[-1]),
        ),
        ("gamma and rho invert exactly", inverts),
        (
            "the commutator word composes to the extension",
            lambda f: f.composed() == f.extension,
            *_WORD_PREMISES,
        ),
    ]
    if f.regular:
        checks += [
            (
                f"the word specializes at t = {alpha}",
                lambda f, alpha=alpha: f.composed().specialize(alpha)
                == f.extension.specialize(alpha),
                *_WORD_PREMISES,
            )
            for alpha in (0, 1, -1)
        ]
    checks += [
        ("factor_count is 4", lambda f: f.factor_count == 4),
        ("stated length bounds are (3, 4)", lambda f: f.length_bounds == _LENGTH_BOUNDS),
    ]
    return checks


def family_l(doc: dict) -> int:
    """The l of a family document that holds member l, for ``specialize --in``."""
    if document_kind(doc) != "family":
        raise ParseError("--in expects a family document")
    f = _read_fields(doc, "family", ("l", "derivation", "h"))
    if not _is_member(f):
        raise ParseError(f"family document's derivation and h are not family member {f.l}")
    return f.l


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


def read_document(path: str) -> dict:
    """The document in the file at ``path``, which must be UTF-8 JSON text."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("a document must be a JSON object")
    return doc


def verify_report(doc: dict, fmt: str) -> tuple[str, bool]:
    """What ``verify`` writes for a document in ``fmt``, "json" or "text", and
    whether the embedded transcript, read before the check list runs, matches
    the recomputed one with every identity passing."""
    embedded = _field(doc, "transcript", [{"identity": str, "pass": bool}])
    checks = verify_document(doc)
    matches = list(embedded) == checks
    verified = matches and all(entry["pass"] for entry in checks)
    if fmt == "json":
        report = {"verified": verified, "transcript_matches": matches, "checks": checks}
        return dumps(report), verified
    good = sum(1 for entry in checks if entry["pass"])
    lines = [
        *(f"{'pass' if entry['pass'] else 'FAIL'}  {entry['identity']}" for entry in checks),
        f"transcript match: {'yes' if matches else 'NO'}",
        f"result: {'pass' if verified else 'FAIL'} ({good}/{len(checks)} identities)",
    ]
    return "\n".join(lines) + "\n", verified
