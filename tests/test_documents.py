"""Emission and independent re-verification of certificate documents."""

import copy
import json
import re
from fractions import Fraction

import pytest

from conftest import family
from oracles import ref_read, ref_render
from polydegen import MultiPoly, documents, parse_poly
from polydegen.cli import build_parser, cmd_verify
from polydegen.derivation import TriangularDerivation
from polydegen.certificates import build_stabilization, specialized_tameness
from polydegen.documents import (
    FORMAT_VERSION,
    conjugation_document,
    dumps,
    family_document,
    family_l,
    loads,
    stabilization_document,
    verify_document,
    wildness_document,
    word_document,
)
from polydegen.errors import CheckFailed, ParseError


@pytest.fixture(scope="module")
def docs():
    cert = family(1)
    word = specialized_tameness(cert, 2)
    stab = build_stabilization(cert.delta, cert.h)
    return {
        "family": family_document(1, cert),
        "conjugation": conjugation_document(cert),
        "wildness": wildness_document(cert.delta, cert.h, l=1),
        "tameness_word": word_document(word, cert.delta, cert.h, l=1),
        "stabilization": stabilization_document(stab, l=1),
    }


def all_pass(doc):
    checks = verify_document(doc)
    return all(c["pass"] for c in checks), checks


def test_every_kind_emits_and_reverifies(docs):
    for kind, doc in docs.items():
        assert doc["kind"] == kind
        assert doc["format_version"] == FORMAT_VERSION
        ok, checks = all_pass(doc)
        assert ok, [c["identity"] for c in checks if not c["pass"]]
        assert doc["transcript"] == checks


def test_dumps_loads_round_trip(docs):
    for doc in docs.values():
        text = dumps(doc)
        assert text.endswith("\n")
        again = loads(text)
        assert again == doc
        assert dumps(again) == text


def test_loads_rejects_bad_json():
    with pytest.raises(ParseError):
        loads("{not json")
    with pytest.raises(ParseError):
        loads("[1, 2]")


def test_family_l_reads_only_a_document_that_holds_its_member(docs):
    doc = docs["family"]
    assert family_l(doc) == 1
    h = parse_poly(doc["h"], arity=3)
    x2, x3, t = MultiPoly.variable(3, 2), MultiPoly.variable(3, 3), MultiPoly.parameter(3)
    edits = {
        "member 2's derivation": ("derivation", [*doc["derivation"][:2], str(-3 * x2**2)]),
        "l relabelled": ("l", 2),
        # member 1's h has 5 terms, so no member is built for this l
        "l beyond the term count of h": ("l", 6),
        # the derivation does not kill h + x3
        "h not in the kernel": ("h", str(h + x3)),
        # 2h, h + t and h + h^2 are in the kernel, but differ from h at x1 = 0
        "h doubled": ("h", str(2 * h)),
        "h plus t": ("h", str(h + t)),
        "h plus its square": ("h", str(h + h * h)),
    }
    for name, (key, value) in edits.items():
        edited = {**doc, key: value}
        with pytest.raises(ParseError, match="not family member"):
            family_l(edited)
        assert not all_pass(edited)[0], name


def test_only_a_document_that_states_its_l_checks_its_member(docs):
    member = "derivation and h are family member l"
    cert = family(1)
    word = specialized_tameness(cert, 2)
    unlabelled = {
        "wildness": wildness_document(cert.delta, cert.h),
        "tameness_word": word_document(word, cert.delta, cert.h),
        "stabilization": stabilization_document(build_stabilization(cert.delta, cert.h)),
    }
    for kind, doc in unlabelled.items():
        assert "l" not in doc
        assert member not in [entry["identity"] for entry in doc["transcript"]]
        assert docs[kind]["transcript"] == [{"identity": member, "pass": True}, *doc["transcript"]]
    for kind in ("family", "conjugation"):
        assert member not in [entry["identity"] for entry in docs[kind]["transcript"]]


def test_verify_rejects_wrong_envelope(docs):
    doc = copy.deepcopy(docs["family"])
    doc["format_version"] = 99
    with pytest.raises(ParseError):
        verify_document(doc)
    doc = copy.deepcopy(docs["family"])
    doc["kind"] = "mystery"
    with pytest.raises(ParseError):
        verify_document(doc)
    with pytest.raises(ParseError):
        verify_document("not a dict")


def test_verify_rejects_missing_and_mistyped_fields(docs):
    doc = copy.deepcopy(docs["family"])
    del doc["g2"]
    with pytest.raises(ParseError):
        verify_document(doc)
    doc = copy.deepcopy(docs["family"])
    doc["h"] = 7
    with pytest.raises(ParseError):
        verify_document(doc)
    doc = copy.deepcopy(docs["family"])
    doc["l"] = "one"
    with pytest.raises(ParseError):
        verify_document(doc)


def test_verify_rejects_unparseable_polynomials(docs):
    doc = copy.deepcopy(docs["family"])
    doc["g2"] = "x2 +"
    with pytest.raises(ParseError):
        verify_document(doc)


def test_family_requires_arity_three(docs):
    doc = copy.deepcopy(docs["family"])
    doc["arity"] = 4
    with pytest.raises(ParseError):
        verify_document(doc)


def _set_path(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


def _get_path(doc, path):
    target = doc
    for key in path:
        target = target[key]
    return target


def _mutate(value):
    """The value plus one, written as the document writes it, so that the
    edited document still reads and only its identities can catch it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        try:
            return str(Fraction(value) + 1)
        except ValueError:
            pass
        try:
            return str(parse_poly(value, 4) + 1)
        except ParseError:
            return value + " + 1"
    raise TypeError(f"no mutation for {value!r}")


# every path here is a claim a verifier must catch when it is off by one
PERTURBATION_PATHS = {
    "family": [
        ("l",),
        ("coefficients", 0),
        ("coefficients", 1),
        ("derivation", 0),
        ("derivation", 2),
        ("g2",),
        ("g3",),
        ("tau", 1),
        ("tau_inv", 2),
        ("slice_potential",),
        ("epsilon", 0),
        ("h",),
        ("automorphism", 0),
        ("derivation_at_zero", 1),
        ("h_limit",),
        ("fiber_at_zero", 0),
        ("wildness", "f2_residue_nonzero"),
        ("wildness", "h_residue_not_in_x1"),
        ("wildness", "derivative_outside_ideal"),
    ],
    "conjugation": [
        ("derivation", 1),
        ("h",),
        ("tau", 1),
        ("tau_inv", 1),
        ("slice_potential",),
        ("epsilon", 0),
        ("automorphism", 2),
    ],
    "wildness": [
        ("l",),
        ("derivation", 2),
        ("h",),
        ("flags", "f2_residue_nonzero"),
        ("flags", "h_residue_not_in_x1"),
        ("flags", "derivative_outside_ideal"),
        ("residues", "f2"),
        ("residues", "h"),
        ("residues", "derivative"),
        ("fiber_at_zero", 0),
    ],
    "tameness_word": [
        ("l",),
        ("alpha",),
        ("derivation", 2),
        ("h",),
        ("factors", 0, 0),
        ("factors", 1, 0),
        ("factors", 2, 2),
        ("fiber", 0),
    ],
    "stabilization": [
        ("l",),
        ("derivation", 0),
        ("h",),
        ("base", 0),
        ("extension", 3),
        ("gamma", 3),
        ("rho", 0),
        ("factor_count",),
        ("length_bounds", "zero_alpha"),
        ("length_bounds", "zero_alpha_exactness"),
    ],
}


def test_single_field_perturbations_fail_verification(docs):
    for kind, paths in PERTURBATION_PATHS.items():
        for path in paths:
            doc = copy.deepcopy(docs[kind])
            _set_path(doc, path, _mutate(_get_path(doc, path)))
            checks = verify_document(doc)
            failed = [c["identity"] for c in checks if not c["pass"]]
            assert failed, f"{kind}: perturbing {path} went unnoticed"


@pytest.mark.parametrize(
    "kind, field, edit",
    [
        ("stabilization", "length_bounds", lambda value: value.pop("zero_alpha_exactness")),
        ("family", "wildness", lambda value: value.update(extra=True)),
        ("wildness", "flags", lambda value: value.update(f2_residue_nonzero=1)),
        ("stabilization", "length_bounds", lambda value: value.update(zero_alpha=4.0)),
    ],
    ids=["missing key", "extra key", "int for bool", "float for int"],
)
def test_a_dict_field_has_exactly_its_keys_and_their_types(docs, kind, field, edit):
    # 1 == True and 4.0 == 4, so a comparison alone would let these through
    doc = copy.deepcopy(docs[kind])
    edit(doc[field])
    with pytest.raises(ParseError, match=f"field '{field}'"):
        verify_document(doc)


def test_verdict_perturbation_fails(docs):
    doc = copy.deepcopy(docs["wildness"])
    doc["verdict"] = "tame"
    checks = verify_document(doc)
    assert any(not c["pass"] for c in checks)
    doc = copy.deepcopy(docs["family"])
    doc["wildness"]["verdict"] = "tame"
    checks = verify_document(doc)
    assert any(not c["pass"] for c in checks)


def test_factor_kind_perturbation_fails(docs):
    doc = copy.deepcopy(docs["tameness_word"])
    doc["factor_kinds"][1] = "triangular"
    checks = verify_document(doc)
    assert any(not c["pass"] for c in checks)
    doc = copy.deepcopy(docs["tameness_word"])
    doc["factor_kinds"] = ["opaque"] * 3
    checks = verify_document(doc)
    assert any(not c["pass"] for c in checks)


def test_verify_parses_each_copied_text_once(docs, monkeypatch):
    # the smith --l 1 document: each extension image that copies a base
    # image's text is that image lifted, not parsed again
    parsed = []

    def counting(text, arity):
        parsed.append(text)
        return parse_poly(text, arity)

    monkeypatch.setattr(documents, "parse_poly", counting)
    doc = docs["stabilization"]
    n = doc["arity"]
    assert doc["extension"][:n] == doc["base"]
    ok, checks = all_pass(doc)
    assert ok and checks == doc["transcript"]
    assert parsed == [
        *doc["derivation"],
        doc["h"],
        *doc["base"],
        *doc["extension"][n:],
        *doc["gamma"],
        *doc["rho"],
    ]
    assert len(parsed) == 16  # of 19 texts

    # an extension image that is no copy is parsed, and fails the identity
    edited = copy.deepcopy(doc)
    extension_0 = parse_poly(edited["extension"][0], arity=n + 1)
    edited["extension"][0] = str(extension_0 + MultiPoly.variable(n + 1, n + 1))
    parsed.clear()
    failed = [c["identity"] for c in verify_document(edited) if not c["pass"]]
    assert "extension is the base with the new variable fixed" in failed
    assert len(parsed) == 17 and edited["extension"][0] in parsed


def test_semantic_breakage_is_reported_not_raised(docs):
    # a stored derivation that is not triangular fails checks without
    # crashing the verifier
    doc = copy.deepcopy(docs["tameness_word"])
    doc["derivation"] = ["x2", "x1", "x1"]
    checks = verify_document(doc)
    assert any(not c["pass"] for c in checks)


@pytest.mark.parametrize("l", (1, 2, 3))
def test_emitted_documents_stay_ten_times_under_the_series_bound(l):
    cert = family(l)
    emitted = (
        family_document(l, cert),
        wildness_document(cert.delta, cert.h, l=l),
        word_document(specialized_tameness(cert, Fraction(5, 3)), cert.delta, cert.h, l=l),
        stabilization_document(build_stabilization(cert.delta, cert.h), l=l),
    )
    for doc in emitted:
        for field in ("derivation", "derivation_at_zero"):
            if field in doc:
                images = tuple(parse_poly(g, arity=doc["arity"]) for g in doc[field])
                length = TriangularDerivation(images).series_length()
                assert 10 * length <= documents._series_bound(doc), (doc["kind"], field)


def test_emission_refuses_inconsistent_input():
    cert = family(1)
    tampered = cert.slice_potential + parse_poly("x2", arity=3)
    broken = cert._replace(slice_potential=tampered)
    with pytest.raises(CheckFailed):
        family_document(1, broken)


def test_wildness_document_for_tame_control_is_consistent():
    from polydegen.derivation import TriangularDerivation

    delta = TriangularDerivation(
        tuple(parse_poly(s, arity=3) for s in ("(t)", "x1", "x1*x2"))
    )
    h = parse_poly("x2^2 - 2*x3", arity=3)
    doc = wildness_document(delta, h)
    assert doc["verdict"] == "tame"
    ok, checks = all_pass(doc)
    assert ok, [c["identity"] for c in checks if not c["pass"]]


def test_transcript_is_json_stable(docs):
    for doc in docs.values():
        assert json.loads(dumps(doc)) == doc


# ------------------------------------------------------ every edit is caught
#
# Every leaf of every kind's l = 1 document is edited in each way below, and
# every key and list item deleted and one added at each level.  Each edited
# document must be unreadable (ParseError) or fail or mismatch its
# transcript, as `verify` reports it, with the allowed cases below aside.

_RATIONAL_FIELDS = ("alpha", "coefficients")
# a coefficient digit run: not an exponent, not a variable index
_COEFFICIENT = re.compile(r"(?<![\dx^/])(?<!\^-)(\d+)(?:/(\d+))?")
# a space before a top-level ' + ' or ' - ', not one inside parentheses
_GROUP_BREAK = re.compile(r" (?=[+-] )(?![^(]*\))")


def _out_of_lowest_terms(text):
    """text with its first coefficient n/d written as 2n/2d."""
    m = _COEFFICIENT.search(text)
    if m is None:
        return None
    num, den = int(m[1]), int(m[2] or 1)
    return f"{text[:m.start()]}{2 * num}/{2 * den}{text[m.end():]}"


def _swapped_groups(text):
    """text with its first two groups swapped, or None with one group."""
    groups = _GROUP_BREAK.split(text)
    if len(groups) < 2:
        return None
    first, second = groups[0], groups[1]
    first = f"- {first[1:]}" if first.startswith("-") else f"+ {first}"
    second = second[2:] if second.startswith("+") else f"-{second[2:]}"
    return " ".join([second, first, *groups[2:]])


def _text_rewrites(text):
    """Texts that read to the polynomial ``text`` states, written otherwise."""
    rewrites = {
        "parenthesised": f"({text})",
        "leading space": f" {text}",
        "trailing space": f"{text} ",
        "plus zero": f"{text} + 0",
        "times a power 0": f"(7 + t)^0*({text})",
        "groups swapped": _swapped_groups(text),
        "bare t": re.sub(r"\((-?)t\)", r"\1t", text, count=1),
        "t^1": re.sub(r"t(?!\^)", "t^1", text, count=1),
        "x^1": re.sub(r"(x\d+)(?![\d^])", r"\1^1", text, count=1),
        "1*": re.sub(r"(^|[ (-])(x\d|t)", r"\g<1>1*\2", text, count=1),
        "wide separator": text.replace(" + ", "  + ", 1),
    }
    return {name: new for name, new in rewrites.items() if new is not None and new != text}


def _leaf_edits(path, leaf):
    """(edit name, new value) for one leaf of a document."""
    yield "null", None
    if isinstance(leaf, bool):
        yield "flipped", not leaf
        yield "as int", int(leaf)
        return
    if isinstance(leaf, int):
        yield "plus one", leaf + 1
        yield "as float", float(leaf)
        yield "as str", str(leaf)
        yield "as bool", bool(leaf)
        return
    yield "as list", [leaf]
    if path[0] in _RATIONAL_FIELDS:
        value = Fraction(leaf)
        yield "plus one", str(value + 1)
        yield "as number", int(value) if value.denominator == 1 else float(value)
        for name, new in (("leading plus", f"+{leaf}"), ("leading space", f" {leaf}"),
                          ("out of lowest terms", f"{2 * value.numerator}/{2 * value.denominator}"),
                          ("leading zero", f"0{leaf}" if leaf[0] != "-" else f"-0{leaf[1:]}")):
            yield name, new
        return
    try:
        poly = parse_poly(leaf, 4)
    except ParseError:
        yield "changed", leaf + "x"
        yield "leading space", f" {leaf}"
        return
    yield "plus one", str(poly + 1)
    yield "as int", 0
    yield from _text_rewrites(leaf).items()
    lowered = _out_of_lowest_terms(leaf)
    if lowered is not None:
        yield "coefficient out of lowest terms", lowered


def _walk(value, path=()):
    """(path, value) for every value below ``value``, itself included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _walk(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _walk(item, (*path, i))


def _copied_along(doc, path):
    """A copy of ``doc`` in which the containers on ``path``, and the one at
    its end, are copies, and that last copy."""
    edited = target = copy.copy(doc)
    for key in path:
        target[key] = copy.copy(target[key])
        target = target[key]
    return edited, target


def _edits(doc):
    """(path, edit name, edited copy) for every edit of ``doc``."""
    for path, value in _walk(doc):
        if isinstance(value, (dict, list)):
            for key in value if isinstance(value, dict) else range(len(value)):
                edited, target = _copied_along(doc, path)
                del target[key]
                yield (*path, key), "deleted", edited
            edited, target = _copied_along(doc, path)
            if isinstance(value, dict):
                target["extra"] = "x1"
            else:
                target.append(value[-1])
            yield path, "added", edited
        else:
            for name, new in _leaf_edits(path, value):
                edited, target = _copied_along(doc, path[:-1])
                target[path[-1]] = new
                yield path, name, edited


def _verify_exit(doc, args):
    """The exit code of ``verify`` on the document, written to ``args.input``.

    ``args`` is parsed once: building the parser for every edit would take
    half of the test's time.
    """
    with open(args.input, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc))
    try:
        return cmd_verify(args)[1]
    except ParseError:
        return 2


# (kind or None for any, top-level field or None for any, edit or None for
# any) -> why that edit may leave a document verified
ALLOWED_EDITS = {
    (None, None, "coefficient out of lowest terms"): "a polynomial coefficient reads at its "
    "value; refusing it would change how the benchmark's tampered copies read",
}


def _allowed(kind, path, name):
    field = path[0] if path else None
    return any(
        (k is None or k == kind) and (f is None or f == field) and (e is None or e == name)
        for k, f, e in ALLOWED_EDITS
    )


def test_every_edit_of_every_document_is_caught(docs, tmp_path):
    args = build_parser().parse_args(["verify", "--in", str(tmp_path / "edited.json")])
    missed, allowed = [], 0
    for kind, doc in docs.items():
        for path, name, edited in _edits(doc):
            if _verify_exit(edited, args) == 0:
                if _allowed(kind, path, name):
                    allowed += 1
                else:
                    missed.append(f"{kind}: {name} at {path}")
    assert not missed, missed
    # the allowed edits still verify: the list above is not stale
    assert allowed


# the polynomial fields of each emitted kind; those of the stabilization's
# extended maps are at its extended arity
_POLY_FIELDS = {
    "family": (
        "derivation", "g2", "g3", "tau", "tau_inv", "slice_potential", "epsilon", "h",
        "automorphism", "derivation_at_zero", "h_limit", "fiber_at_zero",
    ),
    "wildness": ("derivation", "h", "residues", "fiber_at_zero"),
    "tameness_word": ("derivation", "h", "factors", "fiber"),
    "stabilization": ("derivation", "h", "base", "extension", "gamma", "rho"),
}
_EXTENDED = ("extension", "gamma", "rho")


def _texts(value):
    if isinstance(value, str):
        yield value
    else:
        for item in value.values() if isinstance(value, dict) else value:
            yield from _texts(item)


def test_emitted_text_reads_and_renders_as_the_reference_does():
    # an independent reader and renderer of README's grammar agree with
    # parse_poly and str on every polynomial an emitted document states
    emitted = []
    for l in (1, 2, 3):
        cert = family(l)
        emitted += [family_document(l, cert), wildness_document(cert.delta, cert.h, l=l)]
        for alpha in (Fraction(5, 3), Fraction(-7, 11)):
            emitted.append(word_document(specialized_tameness(cert, alpha), cert.delta, cert.h, l=l))
        if l < 3:
            emitted.append(stabilization_document(build_stabilization(cert.delta, cert.h), l=l))
    assert sorted({doc["kind"] for doc in emitted}) == sorted(_POLY_FIELDS)
    for doc in emitted:
        for field in _POLY_FIELDS[doc["kind"]]:
            arity = doc["extended_arity" if field in _EXTENDED else "arity"]
            for text in _texts(doc[field]):
                poly = parse_poly(text, arity)
                assert ref_read(text, arity) == dict(poly.terms()), (doc["kind"], field, text)
                assert ref_render(poly) == text, (doc["kind"], field, text)
