"""Verification documents.

Every CLI payload is a JSON document that embeds all of its own data as
canonical polynomial text plus a transcript of exact identities.  Each
document kind has one ordered check list, in its verifier here, and that
list is the only place its identities are written: the constructors only
build.  A builder names the fields, and ``_document`` renders them as text,
runs the kind's verifier on them, refuses to emit unless every identity
passes, and stores the transcript it just computed; ``verify`` runs the
same verifier.  A verifier reads every field through one reader, which
requires the document to have exactly its kind's keys, each field its
type, a dict field exactly its keys and a list field items of its type;
it reads a polynomial or a rational only as the canonical text that
``str`` writes.  It reparses every field from text and recomputes every
identity from scratch, so an edit to an embedded value either makes the
document unreadable or flips at least one transcript line.  One edit
keeps a document verified: a polynomial coefficient rewritten out of
lowest terms, which reads at its value.  A derivation whose exp or
sigma series could outgrow the document's length (``_series_bound``) is
refused, which fails each identity that uses it.  A wildness,
tameness_word or stabilization document may leave out ``l``; when it
states one, its first identity checks that the derivation and h are that
family member.

This module is the only reader of documents: ``read_document`` reads a
file, ``verify_report`` writes what ``verify`` prints, and ``family_l``
reads the family member that ``specialize --in`` rebuilds.

Document kinds: family, conjugation, wildness, tameness_word,
stabilization.
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
from .errors import CheckFailed, HypothesisViolation, ParseError, PolydegenError
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


class _Fields(dict):
    """A document's top-level fields, recording the keys that were read.

    The header keys, and the transcript that only ``verify`` reads, count
    as read.
    """

    def __init__(self, doc: dict):
        super().__init__(doc)
        self.read = {"format_version", "kind", "transcript"}

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _field(doc: dict, key: str, kind):
    """``doc[key]``, read as ``kind`` (see ``_typed``)."""
    if key not in doc:
        raise ParseError(f"document is missing the field {key!r}")
    return _typed(doc[key], kind, f"field {key!r}")


def _typed(value, kind, label: str):
    """``value`` read as ``kind``: a type, which it must have; a dict of
    key -> kind, for a dict with exactly those keys; ``[kind]``, for a
    nonempty list, read into a tuple; or a reader of a str, such as
    ``parse_poly`` with its arity bound."""
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
    """The document of one kind with the given fields, in order, None ones left out.

    Runs the kind's check list on it, refuses to emit it unless every
    identity passes, and stores the transcript it just computed.
    """
    doc = {"format_version": FORMAT_VERSION, "kind": kind}
    doc.update((key, _render(value)) for key, value in fields.items() if value is not None)
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
# A verifier parses a document's fields into a namespace ``f`` and returns
# it with the kind's ordered check list; ``verify_document`` refuses a
# document with a top-level key the verifier did not read, and then runs
# the list over ``f``.  An entry is (identity, predicate,
# *premises): the predicate takes ``f`` (a kind's own predicates may also
# read the verifier's local constants) and fails by returning False or by
# raising a PolydegenError, and an entry fails without running when one of
# its premises, the identities of earlier entries, failed.  Maps are built
# from their images on first use and cached.  An error is not cached but
# raised again on the next use, which costs little: every thunk that can
# raise does so after a cheap validation, and composing the word, the one
# costly thunk, runs only behind its premises.


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
    verifier = _VERIFIERS[document_kind(doc)]
    fields = _Fields(doc)
    f, checks = verifier(fields)
    unread = fields.keys() - fields.read
    if unread:
        raise ParseError(f"document has the unknown field {min(unread)!r}")
    return _run(f, checks)


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


# Identities that read the same in several kinds.  _KILLS_H needs ``f.delta``
# and ``f.h``; the rest read the fields of _conjugation_fields.
_RING_MODE = ("ring mode is Q[t,t^-1]", lambda f: f.ring_mode == _BASE_RING)
_KILLS_H = ("derivation kills h", lambda f: f.delta().apply(f.h).is_zero())
_TAU_TRIANGULAR = ("tau is triangular over Q[t,t^-1]", lambda f: f.tau().is_triangular())
_TAU_INVERTS = (
    "tau and tau_inv are mutually inverse",
    lambda f: f.tau().verify_inverse_pair(f.tau_inv()),
)
_POTENTIAL_IS_H_AT_ZERO = (
    "slice potential is h at x1 = 0",
    lambda f: f.h.substitute([MultiPoly.zero(f.h.arity), *f.x[1:]]) == f.p,
)
_TAU_SENDS_POTENTIAL = ("tau sends the slice potential to h", lambda f: f.tau().apply(f.p) == f.h)
_AUTOMORPHISM_IS_EXP = ("automorphism is exp(h*delta)", lambda f: f.phi() == f.delta().exp(f.h))
_CONJUGATES = (
    "tau o epsilon o tau_inv equals the automorphism",
    lambda f: PolyEndo.compose_chain((f.tau(), f.epsilon(), f.tau_inv())) == f.phi(),
)


def _pair_fields(doc: dict, poly) -> SimpleNamespace:
    """The pair (derivation, h) that every kind states, read in that order
    with the polynomial reader ``poly``: ``f.delta_images``, ``f.h`` and the
    derivation ``f.delta()``, after the ``l`` a document may state: ``f.l``,
    None when it states none.  Also what the pair implies: ``f.member``, the
    entries that check the stated l (none when it states none), and
    ``f.regular``, whether the derivation and h are regular at t = 0."""
    l = _field(doc, "l", int) if "l" in doc else None
    f = SimpleNamespace(l=l, delta_images=_field(doc, "derivation", [poly]), h=_field(doc, "h", poly))
    f.delta = cache(lambda: _derivation(f.delta_images, doc))
    f.member = () if l is None else (_IS_MEMBER,)
    f.regular = all(g.is_t_regular() for g in f.delta_images) and f.h.is_t_regular()
    return f


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
    """Whether the pair that ``_pair_fields`` read is family member ``f.l``,
    cheapest test first.  An honest h has 2l + 3 terms, so l is bounded by
    the term count of h before any member is built, and neither the check
    nor a rebuild outgrows the document.  x1/t is a slice, so an element of
    the kernel is fixed by its value at x1 = 0."""
    if not 1 <= f.l <= f.h.term_count():
        return False
    delta = family_derivation(f.l)
    x2, x3 = MultiPoly.variable(3, 2), MultiPoly.variable(3, 3)
    return (
        f.delta_images == delta.images
        and delta.apply(f.h).is_zero()
        and f.h.substitute([MultiPoly.zero(3), x2, x3])
        == family_potential(f.l, slice_coefficients(f.l)[f.l])
    )


# the first entry of a wildness, word or stabilization document that states its l
_IS_MEMBER = ("derivation and h are family member l", _is_member)


def _conjugation_fields(doc: dict, poly) -> SimpleNamespace:
    """The fields of a conjugation, which a family document holds too."""
    f = _pair_fields(doc, poly)
    f.ring_mode = _field(doc, "ring_mode", str)
    f.tau_images = _field(doc, "tau", [poly])
    f.tau_inv_images = _field(doc, "tau_inv", [poly])
    f.p = _field(doc, "slice_potential", poly)
    f.eps_images = _field(doc, "epsilon", [poly])
    f.phi_images = _field(doc, "automorphism", [poly])
    f.x = tuple(MultiPoly.variable(f.h.arity, i) for i in range(1, f.h.arity + 1))
    f.tau = cache(lambda: PolyEndo(f.tau_images))
    f.tau_inv = cache(lambda: PolyEndo(f.tau_inv_images))
    f.epsilon = cache(lambda: PolyEndo(f.eps_images))
    f.phi = cache(lambda: PolyEndo(f.phi_images))
    return f


def _verify_family(doc: dict) -> tuple:
    l = _field(doc, "l", int)
    arity = _field(doc, "arity", int)
    if arity != 3:
        raise ParseError("family documents have arity 3")
    coeffs = _field(doc, "coefficients", [_rational])
    poly = partial(parse_poly, arity=arity)
    f = _conjugation_fields(doc, poly)
    f.g2 = _field(doc, "g2", poly)
    f.g3 = _field(doc, "g3", poly)
    f.dz_images = _field(doc, "derivation_at_zero", [poly])
    f.h_limit = _field(doc, "h_limit", poly)
    f.fiber_images = _field(doc, "fiber_at_zero", [poly])
    f.wild = _field(doc, "wildness", {**_FLAG_KEYS, "verdict": str})
    f.delta_zero = cache(lambda: _derivation(f.dz_images, doc))
    f.fiber = cache(lambda: PolyEndo(f.fiber_images))
    x1, x2, x3 = f.x
    t = MultiPoly.parameter(arity)
    # the closed formulas read c_0..c_l
    counted = l >= 1 and len(coeffs) == l + 1

    def g3_formula(f) -> bool:
        expected = x3
        for i in range(l + 1):
            expected = expected + MultiPoly(arity, {(2 * i + 1, l - i, 0, -(i + 1)): coeffs[i]})
        return expected == f.g3

    return f, (
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
            lambda f: f.delta_images == family_derivation(l).images,
        ),
        ("g2 is the slice image of x2", lambda f: f.delta().sigma(x2) == f.g2),
        ("g3 is the slice image of x3", lambda f: f.delta().sigma(x3) == f.g3),
        ("g3 matches its coefficient formula", lambda f: counted and g3_formula(f)),
        ("derivation kills g2", lambda f: f.delta().apply(f.g2).is_zero()),
        ("derivation kills g3", lambda f: f.delta().apply(f.g3).is_zero()),
        _KILLS_H,
        ("tau is (x1, g2, g3)", lambda f: f.tau_images == (x1, f.g2, f.g3)),
        _TAU_TRIANGULAR,
        _TAU_INVERTS,
        _POTENTIAL_IS_H_AT_ZERO,
        (
            "slice potential matches its closed formula",
            lambda f: counted and bool(coeffs[l]) and family_potential(l, coeffs[l]) == f.p,
        ),
        _TAU_SENDS_POTENTIAL,
        (
            "epsilon is the elementary shift of x1 by t times the slice potential",
            lambda f: f.eps_images == (x1 + t * f.p, x2, x3),
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
            lambda f: f.dz_images == tuple(g.specialize_t(0) for g in f.delta_images),
        ),
        (
            "fiber_at_zero is the automorphism at t = 0",
            lambda f: f.phi().specialize(0) == f.fiber(),
        ),
        (
            "fiber_at_zero is exp(h_limit*delta_zero)",
            lambda f: f.fiber() == f.delta_zero().exp(f.h_limit),
        ),
        (
            "wildness flags recompute at t = 0",
            lambda f: f.wild == _wildness_fields(check_wild_at_zero(f.delta(), f.h)),
        ),
        ("wildness verdict is wild", lambda f: f.wild["verdict"] == WILD),
    )


def _verify_conjugation(doc: dict) -> tuple:
    f = _conjugation_fields(doc, partial(parse_poly, arity=_field(doc, "arity", int)))
    return f, (
        _RING_MODE,
        ("delta(x1) is a unit scalar of Q[t,t^-1]", lambda f: f.delta_images[0].is_unit()),
        _KILLS_H,
        (
            "tau is x1 followed by the slice images",
            lambda f: f.tau_images == (f.x[0], *f.delta().kernel_generators()),
        ),
        _TAU_TRIANGULAR,
        _TAU_INVERTS,
        _POTENTIAL_IS_H_AT_ZERO,
        _TAU_SENDS_POTENTIAL,
        (
            "epsilon is the elementary shift of x1 by delta(x1) times the slice potential",
            lambda f: f.eps_images == (f.x[0] + f.delta_images[0] * f.p, *f.x[1:]),
        ),
        _AUTOMORPHISM_IS_EXP,
        _CONJUGATES,
    )


def _verify_wildness(doc: dict) -> tuple:
    arity = _field(doc, "arity", int)
    if arity != 3:
        raise ParseError("wildness documents have arity 3")
    poly = partial(parse_poly, arity=arity)
    f = _pair_fields(doc, poly)
    f.flags = _field(doc, "flags", _FLAG_KEYS)
    f.residues = _field(doc, "residues", _RESIDUE_KEYS)
    f.verdict = _field(doc, "verdict", str)
    f.fiber_images = _field(doc, "fiber_at_zero", [poly])
    f.report = cache(lambda: check_wild_at_zero(f.delta(), f.h))
    return f, (
        *f.member,
        ("derivation and h are regular at t = 0", lambda f: f.regular),
        (
            "delta(x1) is a scalar vanishing at t = 0",
            lambda f: f.delta_images[0].is_constant()
            and f.delta_images[0].specialize_t(0).is_zero(),
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
            lambda f: PolyEndo(f.fiber_images) == f.delta().exp(f.h).specialize(0),
        ),
    )


def _verify_word(doc: dict) -> tuple:
    poly = partial(parse_poly, arity=_field(doc, "arity", int))
    alpha = _field(doc, "alpha", _rational)
    f = _pair_fields(doc, poly)
    factors = _field(doc, "factors", [[poly]])
    kinds = _field(doc, "factor_kinds", [str])
    if len(kinds) != len(factors):
        raise ParseError("factor_kinds and factors have different lengths")
    f.fiber_images = _field(doc, "fiber", [poly])
    f.fiber = cache(lambda: PolyEndo(f.fiber_images))
    f.factors = [cache(lambda imgs=imgs: PolyEndo(imgs)) for imgs in factors]
    return f, (
        *f.member,
        (
            "factors compose to the fiber",
            lambda f: PolyEndo.compose_chain([factor() for factor in f.factors]) == f.fiber(),
        ),
        (
            "fiber is exp(h*delta) at t = alpha",
            lambda f: f.delta().exp(f.h).specialize(alpha) == f.fiber(),
        ),
        *(
            (
                f"factor {i + 1} kind recomputes as stated",
                lambda f, i=i: factor_kind(f.factors[i]()) == kinds[i],
            )
            for i in range(len(factors))
        ),
        (
            "every factor kind certifies tameness",
            lambda f: all(kind in TAME_KINDS for kind in kinds),
        ),
    )


# compose_commutator keeps the word small only when delta kills h and the
# factors invert (see its docstring); without them composing can swell far
# beyond the answer, so the word is not composed when either failed
_WORD_PREMISES = ("derivation kills h", "gamma and rho invert exactly")


def _verify_stabilization(doc: dict) -> tuple:
    arity = _field(doc, "arity", int)
    m = _field(doc, "extended_arity", int)
    if m != arity + 1:
        raise ParseError("extended_arity must be arity + 1")
    poly, extended = partial(parse_poly, arity=arity), partial(parse_poly, arity=m)
    f = _pair_fields(doc, poly)
    f.base_images = _field(doc, "base", [poly])
    # An extension image written as a base image is that image lifted, so
    # the copied text is parsed once.  Past MAX_ARITY, parse_poly refuses
    # every extension image, copies included.
    copies = dict(zip(doc["base"], f.base_images)) if m <= MAX_ARITY else {}
    f.ext_images = _field(
        doc,
        "extension",
        [lambda text: copies[text].extend_arity(m) if text in copies else extended(text)],
    )
    f.gamma_images = _field(doc, "gamma", [extended])
    f.rho_images = _field(doc, "rho", [extended])
    f.factor_count = _field(doc, "factor_count", int)
    f.bounds = _field(doc, "length_bounds", {k: type(v) for k, v in _LENGTH_BOUNDS.items()})
    f.base = cache(lambda: PolyEndo(f.base_images))
    f.extension = cache(lambda: PolyEndo(f.ext_images))
    f.gamma = cache(lambda: PolyEndo(f.gamma_images))
    f.rho = cache(lambda: PolyEndo(f.rho_images))
    # (gamma_inv, rho_inv, gamma, rho): the certificate derives the inverses
    f.word = cache(
        lambda: StabilizationCertificate(
            f.delta(), f.h, f.base(), f.extension(), f.gamma(), f.rho()
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
        ("base is exp(h*delta)", lambda f: f.base() == f.delta().exp(f.h)),
        (
            "extension is the base with the new variable fixed",
            lambda f: f.extension() == f.base().extend_arity(m),
        ),
        (
            "gamma shifts the new variable by h",
            lambda f: f.gamma_images == (*x[:-1], x[-1] + f.h.extend_arity(m)),
        ),
        (
            "rho is exp of the new variable against the extended derivation",
            lambda f: f.rho() == f.delta().extend_arity(m).exp(x[-1]),
        ),
        ("gamma and rho invert exactly", inverts),
        (
            "the commutator word composes to the extension",
            lambda f: f.composed() == f.extension(),
            *_WORD_PREMISES,
        ),
    ]
    if f.regular:
        checks += [
            (
                f"the word specializes at t = {alpha}",
                lambda f, alpha=alpha: f.composed().specialize(alpha)
                == f.extension().specialize(alpha),
                *_WORD_PREMISES,
            )
            for alpha in (0, 1, -1)
        ]
    checks += [
        ("factor_count is 4", lambda f: f.factor_count == 4),
        ("stated length bounds are (3, 4)", lambda f: f.bounds == _LENGTH_BOUNDS),
    ]
    return f, checks


def family_l(doc: dict) -> int:
    """The l of a family document that holds member l, for ``specialize --in``."""
    if document_kind(doc) != "family":
        raise ParseError("--in expects a family document")
    l = _field(doc, "l", int)
    if not _is_member(_pair_fields(doc, partial(parse_poly, arity=3))):
        raise ParseError(f"family document's derivation and h are not family member {l}")
    return l


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
