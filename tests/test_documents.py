"""Emission and independent re-verification of certificate documents."""

import copy
import json
from fractions import Fraction

import pytest

from conftest import family
from polydegen import parse_poly
from polydegen.certificates import (
    ConjugationCertificate,
    build_stabilization,
    specialized_tameness,
)
from polydegen.documents import (
    FORMAT_VERSION,
    conjugation_document,
    dumps,
    family_document,
    loads,
    render_text,
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
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        try:
            return str(Fraction(value) + 1)
        except ValueError:
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
        ("alpha",),
        ("derivation", 2),
        ("h",),
        ("factors", 0, 0),
        ("factors", 1, 0),
        ("factors", 2, 2),
        ("fiber", 0),
    ],
    "stabilization": [
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


def test_semantic_breakage_is_reported_not_raised(docs):
    # a stored derivation that is not triangular fails checks without
    # crashing the verifier
    doc = copy.deepcopy(docs["tameness_word"])
    doc["derivation"] = ["x2", "x1", "x1"]
    checks = verify_document(doc)
    assert any(not c["pass"] for c in checks)


def test_emission_refuses_inconsistent_input():
    cert = family(1)
    tampered = cert.slice_potential + parse_poly("x2", arity=3)
    broken = ConjugationCertificate(**{**vars(cert), "slice_potential": tampered})
    with pytest.raises(CheckFailed):
        family_document(1, broken)


def test_wildness_document_for_tame_control_is_consistent():
    from polydegen.derivation import TriangularDerivation

    delta = TriangularDerivation(
        tuple(parse_poly(s, arity=3) for s in ("t", "x1", "x1*x2"))
    )
    h = parse_poly("x2^2 - 2*x3", arity=3)
    doc = wildness_document(delta, h)
    assert doc["verdict"] == "tame"
    ok, checks = all_pass(doc)
    assert ok, [c["identity"] for c in checks if not c["pass"]]


def test_render_text(docs):
    for doc in docs.values():
        text = render_text(doc)
        assert text.count("pass  ") == len(doc["transcript"])
        assert "result: pass" in text
        assert text == render_text(doc)


def test_transcript_is_json_stable(docs):
    for doc in docs.values():
        assert json.loads(dumps(doc)) == doc
