"""End-to-end command line behavior and exit codes."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polydegen
from conftest import family
from polydegen import MultiPoly, PolyEndo, parse_poly
from polydegen.cli import main
from polydegen.documents import conjugation_document, dumps


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_writes_verified_document(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code, _, _ = run(["family", "--l", "1", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "family"
    assert doc["l"] == 1
    assert all(entry["pass"] for entry in doc["transcript"])


def test_family_writes_its_document_to_stdout(capsys):
    code, stdout, _ = run(["family", "--l", "1"], capsys)
    assert code == 0
    assert json.loads(stdout)["kind"] == "family"


def test_emission_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["family", "--l", "2", "--out", str(a)], capsys)[0] == 0
    assert run(["family", "--l", "2", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_round_trip(tmp_path, capsys):
    doc_path = tmp_path / "fam.json"
    run(["family", "--l", "1", "--out", str(doc_path)], capsys)
    code, stdout, _ = run(["verify", "--in", str(doc_path)], capsys)
    assert code == 0
    assert "transcript match: yes" in stdout
    code, stdout, _ = run(
        ["verify", "--in", str(doc_path), "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["verified"] is True
    assert report["transcript_matches"] is True


def test_specialize_nonzero_alpha_gives_word(tmp_path, capsys):
    out = tmp_path / "word.json"
    code, _, _ = run(
        ["specialize", "--l", "1", "--alpha", "1/2", "--out", str(out)], capsys
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "tameness_word"
    assert doc["alpha"] == "1/2"
    assert len(doc["factors"]) == 3
    assert run(["verify", "--in", str(out)], capsys)[0] == 0


def test_specialize_zero_alpha_gives_wildness(tmp_path, capsys):
    out = tmp_path / "wild.json"
    code, _, _ = run(
        ["specialize", "--l", "1", "--alpha", "0", "--out", str(out)], capsys
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "wildness"
    assert doc["verdict"] == "wild"
    assert run(["verify", "--in", str(out)], capsys)[0] == 0


def test_specialize_reads_family_document(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    run(["family", "--l", "2", "--out", str(fam_path)], capsys)
    out = tmp_path / "word.json"
    code, _, _ = run(
        ["specialize", "--in", str(fam_path), "--alpha", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["l"] == 2
    assert doc["alpha"] == "3"


@pytest.mark.parametrize("alpha", ["0", "5/3"])
def test_specialize_from_a_family_document_matches_specialize_by_l(tmp_path, capsys, alpha):
    fam_path = tmp_path / "fam.json"
    run(["family", "--l", "2", "--out", str(fam_path)], capsys)
    from_document = run(["specialize", "--in", str(fam_path), f"--alpha={alpha}"], capsys)
    assert from_document[0] == 0
    assert from_document == run(["specialize", "--l", "2", f"--alpha={alpha}"], capsys)


def test_specialize_flag_conflicts(tmp_path, capsys):
    fam_path = tmp_path / "fam.json"
    run(["family", "--l", "1", "--out", str(fam_path)], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["specialize", "--l", "1", "--in", str(fam_path), "--alpha", "1"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["specialize", "--alpha", "1"])
    assert exc.value.code == 2
    assert "one of the arguments --l --in is required" in capsys.readouterr().err


def test_smith_document(tmp_path, capsys):
    out = tmp_path / "smith.json"
    code, _, _ = run(["smith", "--l", "1", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "stabilization"
    assert doc["factor_count"] == 4
    assert doc["extended_arity"] == 4
    assert doc["length_bounds"]["zero_alpha"] == 4
    assert run(["verify", "--in", str(out)], capsys)[0] == 0


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["family", "--l", "2"], "04ee3c8b6af4a5b1"),
        (["specialize", "--l", "3", "--alpha=5/3"], "0c1e55b441f89523"),
        (["specialize", "--l", "3", "--alpha=0"], "100a3c3f7e8a353b"),
        (["smith", "--l", "2"], "7a973fff06b9776c"),
        (None, "ee83639c3b24d574"),
        (["family", "--l", "4"], "a18d015d5be5c6e6"),
        (["specialize", "--l", "4", "--alpha=-7/11"], "bba97ed5016892ce"),
        (["smith", "--l", "3"], "590ec1b3da23330c"),
        # sizes where an image's power table grows long
        (["family", "--l", "6"], "bc8aeb2819c6e897"),
        (["specialize", "--l", "6", "--alpha=5/3"], "3568b8de708d30b5"),
        (["smith", "--l", "5"], "d77b44d28650c80d"),
    ],
    ids=[
        "family", "specialize nonzero", "specialize zero", "smith", "conjugation",
        "family l4", "specialize l4", "smith l3", "family l6", "specialize l6", "smith l5",
    ],
)
def test_output_matches_pinned_digests(capsys, argv, prefix):
    # SHA-256 of each payload as emitted by earlier versions: the identity
    # texts, their order and every rendered polynomial stay byte-identical
    if argv is None:
        payload = dumps(conjugation_document(family(1)))
    else:
        code, payload, _ = run(argv, capsys)
        assert code == 0
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest().startswith(prefix)


@pytest.mark.parametrize(
    "fmt, prefix", [("text", "30330a9342a05c1b"), ("json", "798dc602a75ff356")], ids=["text", "json"]
)
def test_verify_reports_match_pinned_digests(tmp_path, capsys, fmt, prefix):
    # SHA-256 of verify's report on the smith l = 1 document, as earlier
    # versions print it
    doc_path = tmp_path / "smith.json"
    assert run(["smith", "--l", "1", "--out", str(doc_path)], capsys)[0] == 0
    code, payload, _ = run(["verify", "--in", str(doc_path), "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest().startswith(prefix)


@pytest.mark.parametrize("index", [0, 1])
def test_verify_fails_fast_on_a_perturbed_stabilization_derivation(tmp_path, capsys, index):
    # the word is not composed once "derivation kills h" or "gamma and rho
    # invert exactly" has failed, since without them it swells
    doc = json.loads(run(["smith", "--l", "2"], capsys)[1])
    # the canonical text of the image plus 1, so that the document reads
    doc["derivation"][index] = str(parse_poly(doc["derivation"][index], 3) + 1)
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, stdout, _ = run(["verify", "--in", str(bad)], capsys)
    assert code == 1
    assert time.perf_counter() - start < 2.0
    assert "FAIL  the commutator word composes to the extension" in stdout


@pytest.mark.parametrize(
    "arity, message",
    [("1000", "outside 1..64"), ("1000000000000", "outside 1..64"), ("9" * 5000, "invalid JSON")],
    ids=["1000", "10^12", "5000 digits"],
)
def test_verify_rejects_a_huge_arity(tmp_path, capsys, arity, message):
    text = dumps(conjugation_document(family(1)))
    bad = tmp_path / "huge_arity.json"
    bad.write_text(text.replace('"arity": 3,', f'"arity": {arity},'))
    code, _, err = run(["verify", "--in", str(bad)], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and len(err) < 400


def test_verify_flags_tampered_document(tmp_path, capsys):
    doc_path = tmp_path / "fam.json"
    run(["family", "--l", "1", "--out", str(doc_path)], capsys)
    doc = json.loads(doc_path.read_text())
    doc["h_limit"] = doc["h_limit"] + " + x2"
    doc_path.write_text(json.dumps(doc))
    code, stdout, _ = run(["verify", "--in", str(doc_path)], capsys)
    assert code == 1
    assert "FAIL" in stdout


def _endo(*images):
    return PolyEndo(tuple(parse_poly(image, arity=3) for image in images))


@pytest.mark.parametrize(
    "kinds, failing",
    [
        (
            ["triangular", "triangular-after-reordering", "triangular"],
            {"factor 2 kind recomputes as stated", "factor 3 kind recomputes as stated"},
        ),
        (["triangular", "opaque", "opaque"], {"every factor kind certifies tameness"}),
    ],
    ids=["kinds over Q[t,t^-1]", "kinds opaque"],
)
def test_verify_rejects_a_word_whose_factors_carry_t(tmp_path, capsys, kinds, failing):
    # (T, E, Ti) refactored as (T, E o D, D^-1 o Ti) with D = (x1, x2, x3 + t*x2):
    # the same product, but the last two factors are not maps over Q
    doc = json.loads(run(["specialize", "--l", "1", "--alpha=5/3"], capsys)[1])
    tau, epsilon, tau_inv = (_endo(*images) for images in doc["factors"])
    d, d_inv = _endo("x1", "x2", "(t)*x2 + x3"), _endo("x1", "x2", "(-t)*x2 + x3")
    factors = (tau, epsilon.compose(d), d_inv.compose(tau_inv))
    assert PolyEndo.compose_chain(factors) == PolyEndo.compose_chain((tau, epsilon, tau_inv))
    doc["factors"] = [[str(image) for image in factor.images] for factor in factors]
    doc["factor_kinds"] = kinds
    doc_path = tmp_path / "word.json"
    doc_path.write_text(json.dumps(doc))
    code, stdout, _ = run(["verify", "--in", str(doc_path)], capsys)
    assert code == 1
    assert {line[6:] for line in stdout.splitlines() if line.startswith("FAIL  ")} == failing


def test_verify_flags_tampered_transcript(tmp_path, capsys):
    doc_path = tmp_path / "fam.json"
    run(["family", "--l", "1", "--out", str(doc_path)], capsys)
    doc = json.loads(doc_path.read_text())
    doc["transcript"][0]["identity"] = "something else"
    doc_path.write_text(json.dumps(doc))
    code, stdout, _ = run(["verify", "--in", str(doc_path)], capsys)
    assert code == 1
    assert "transcript match: NO" in stdout


def test_verify_parse_problems_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["verify", "--in", str(bad)], capsys)[0] == 2
    missing = tmp_path / "missing.json"
    assert run(["verify", "--in", str(missing)], capsys)[0] == 2
    no_transcript = tmp_path / "no_transcript.json"
    doc = json.loads((run(["family", "--l", "1"], capsys))[1])
    del doc["transcript"]
    no_transcript.write_text(json.dumps(doc))
    assert run(["verify", "--in", str(no_transcript)], capsys)[0] == 2
    # every field an emitter writes is required, even with its identity
    # dropped from the transcript
    for argv, field, identity in [
        (["family", "--l", "1"], "ring_mode", "ring mode is Q[t,t^-1]"),
        (
            ["specialize", "--l", "1", "--alpha=0"],
            "fiber_at_zero",
            "fiber_at_zero is exp(h*delta) at t = 0",
        ),
        (["smith", "--l", "1"], "length_bounds", "stated length bounds are (3, 4)"),
    ]:
        doc = json.loads(run(argv, capsys)[1])
        del doc[field]
        doc["transcript"] = [entry for entry in doc["transcript"] if entry["identity"] != identity]
        stripped = tmp_path / f"no_{field}.json"
        stripped.write_text(json.dumps(doc))
        code, _, err = run(["verify", "--in", str(stripped)], capsys)
        assert code == 2
        assert f"missing the field {field!r}" in err
    # and a dict field has exactly its keys
    wildness = run(["specialize", "--l", "1", "--alpha=0"], capsys)[1]
    for field in ("flags", "residues"):
        doc = json.loads(wildness)
        doc[field]["extra"] = "x1"
        extended = tmp_path / f"extra_{field}.json"
        extended.write_text(json.dumps(doc))
        code, _, err = run(["verify", "--in", str(extended)], capsys)
        assert code == 2
        assert f"field {field!r} should have exactly the keys" in err
    # and a list field has at least one item
    doc = json.loads(run(["specialize", "--l", "1", "--alpha=5/3"], capsys)[1])
    doc["factors"] = []
    no_factors = tmp_path / "no_factors.json"
    no_factors.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--in", str(no_factors)], capsys)
    assert code == 2
    assert "field 'factors' must not be empty" in err


@pytest.mark.parametrize(
    "argv",
    [["specialize", "--l", "1", "--alpha=0"], ["specialize", "--l", "2", "--alpha=5/3"],
     ["smith", "--l", "1"]],
    ids=["wildness", "tameness_word", "stabilization"],
)
@pytest.mark.parametrize("l", [7, 0, 1_000_000])
def test_verify_fails_a_document_that_states_another_member(tmp_path, capsys, argv, l):
    # l = 1000000 is past the term count of h, so no member is built
    doc = json.loads(run(argv, capsys)[1])
    doc["l"] = l
    relabelled = tmp_path / "relabelled.json"
    relabelled.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, stdout, _ = run(["verify", "--in", str(relabelled)], capsys)
    assert code == 1
    assert time.perf_counter() - start < 1.0
    assert stdout.startswith("FAIL  derivation and h are family member l\n")
    assert stdout.count("FAIL") == 2  # that line and the result


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"a":' * 100_000 + b"1" + b"}" * 100_000,
        b'{"format_version": 2, "kind": "family", "l": 1, "transcript": []}',
    ],
    ids=["not UTF-8", "deep arrays", "deep objects", "format_version 2"],
)
@pytest.mark.parametrize(
    "command", [["verify"], ["specialize", "--alpha", "2"]], ids=["verify", "specialize"]
)
def test_an_unreadable_document_exits_two(tmp_path, command, content):
    # a fresh process, so that a traceback would reach stderr and exit 1
    bad = tmp_path / "unreadable.json"
    bad.write_bytes(content)
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "polydegen", *command, "--in", str(bad)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 2, result.stderr
    assert time.perf_counter() - start < 5.0
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_specialize_rejects_an_l_its_family_document_cannot_hold(tmp_path, capsys):
    # an honest family document's h has 2l + 3 terms, so its l is at most
    # that count; verify exits 1 on this document, and specialize must not
    # rebuild the family at l = 100000 but refuse it as any other non-member
    doc = json.loads(run(["family", "--l", "1"], capsys)[1])
    doc["l"] = 100_000
    bad = tmp_path / "huge_l.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "polydegen", "specialize", "--alpha", "2", "--in", str(bad)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 2, result.stderr
    assert time.perf_counter() - start < 5.0
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert result.stderr == "error: family document's derivation and h are not family member 100000\n"


def test_specialize_rejects_a_document_that_is_not_a_family_document(tmp_path, capsys):
    smith = tmp_path / "smith.json"
    assert run(["smith", "--l", "1", "--out", str(smith)], capsys)[0] == 0
    code, stdout, err = run(["specialize", "--alpha=5/3", "--in", str(smith)], capsys)
    assert (code, stdout, err) == (2, "", "error: --in expects a family document\n")


def test_specialize_rejects_a_family_document_that_does_not_hold_its_member(tmp_path, capsys):
    # member 1 with h padded to 45 terms and "l": 20 passes the term-count
    # bound, and rebuilding member 20 from it would run for minutes; member 2
    # relabelled "l": 3 would emit member 3's fiber
    padded = json.loads(run(["family", "--l", "1"], capsys)[1])
    x2 = MultiPoly.variable(3, 2)
    h = parse_poly(padded["h"], arity=3) + sum((x2**i for i in range(1, 41)), MultiPoly.zero(3))
    padded["h"], padded["l"] = str(h), 20
    relabelled = json.loads(run(["family", "--l", "2"], capsys)[1])
    relabelled["l"] = 3
    for name, doc in (("padded", padded), ("relabelled", relabelled)):
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(doc))
        expected = f"error: family document's derivation and h are not family member {doc['l']}\n"
        for alpha in ("5/3", "0"):
            command = ["specialize", f"--alpha={alpha}", "--in", str(bad)]
            start = time.perf_counter()
            result = subprocess.run(
                [sys.executable, "-m", "polydegen", *command],
                capture_output=True,
                text=True,
                timeout=30,
            )
            assert result.returncode == 2, (name, alpha, result.stderr)
            assert time.perf_counter() - start < 5.0
            assert result.stderr == expected


@pytest.mark.parametrize("l", [1, 3, 4])
def test_specialize_from_a_family_document_is_specialize_at_its_l(tmp_path, capsys, l):
    fam_path = tmp_path / "fam.json"
    run(["family", "--l", str(l), "--out", str(fam_path)], capsys)
    for alpha in ("5/3", "0"):
        from_document = run(["specialize", "--in", str(fam_path), f"--alpha={alpha}"], capsys)
        assert from_document[0] == 0
        assert from_document == run(["specialize", "--l", str(l), f"--alpha={alpha}"], capsys)


PACKAGE = Path(polydegen.__file__).resolve().parent


def _imported_names(path):
    """(module, name) for every ``from module import name`` in the file, a
    relative module written with its leading dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield from ((module, alias.name) for alias in node.names)


def test_no_module_imports_a_private_name_of_a_sibling():
    # "from . import _kernel" imports a module, not a name of one
    private = [
        f"{path.name}: from {module} import {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name in _imported_names(path)
        if module.startswith(".") and module != "." and name.startswith("_")
    ]
    assert not private, private


def test_no_module_reads_a_name_through_the_package_root():
    # the root binds its names lazily; "from . import X" must name a module
    through_root = [
        f"{path.name}: from {module} import {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name in _imported_names(path)
        if module in (".", "polydegen") and not (PACKAGE / f"{name}.py").is_file()
    ]
    assert not through_root, through_root


def test_the_command_line_reads_no_document_itself():
    # reading and checking documents belongs to polydegen.documents
    names = {name for _, name in _imported_names(PACKAGE / "cli.py")}
    assert not names & {"_field", "document_kind", "loads", "parse_poly", "partial"}


@pytest.mark.parametrize("version", [2, None], ids=["format_version 2", "no format_version"])
def test_specialize_reads_a_header_as_verify_does(tmp_path, capsys, version):
    doc = json.loads(run(["family", "--l", "1"], capsys)[1])
    if version is None:
        del doc["format_version"]
    else:
        doc["format_version"] = version
    bad = tmp_path / "header.json"
    bad.write_text(json.dumps(doc))
    verified = run(["verify", "--in", str(bad)], capsys)
    assert verified[0] == 2 and verified[2].startswith("error: ")
    assert run(["specialize", "--in", str(bad), "--alpha=2"], capsys) == verified


def test_verify_rejects_an_exponent_beyond_the_bound(tmp_path, capsys):
    doc = json.loads(run(["family", "--l", "1"], capsys)[1])
    doc["h"] = "x1^99999999999"
    bad = tmp_path / "huge_exponent.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run(["verify", "--in", str(bad)], capsys)
    assert code == 2
    assert time.perf_counter() - start < 1.0
    assert "above the bound" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "h",
    [
        "1/0*x1",
        f"({'9' * 4000}*{'9' * 4000}*x1)^-1",
        "7^20000000*x1",
        "(" * 5000 + "x1" + ")" * 5000,
        "(7 + t)^2000*x1",
    ],
    ids=[
        "zero denominator", "huge coefficient in the message", "huge scalar power", "deep nesting",
        "power of a sum",
    ],
)
def test_verify_rejects_hostile_numbers_without_a_traceback(tmp_path, capsys, h):
    doc = json.loads(run(["specialize", "--l", "1", "--alpha", "2"], capsys)[1])
    doc["h"] = h
    bad = tmp_path / "hostile.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run(["verify", "--in", str(bad)], capsys)
    assert code == 2
    assert time.perf_counter() - start < 1.0
    assert err.startswith("error: ") and len(err) < 300


def _verify_edited(tmp_path, capsys, argv, edit):
    """verify's exit code and stderr on the document of ``argv`` after ``edit``."""
    doc = json.loads(run(argv, capsys)[1])
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["verify", "--in", str(path)], capsys)
    return code, err


def _set(field, value, index=None):
    def edit(doc):
        if index is None:
            doc[field] = value(doc[field]) if callable(value) else value
        else:
            doc[field][index] = value

    return edit


@pytest.mark.parametrize(
    "argv, edit, field",
    [
        (["smith", "--l", "1"], _set("derivation", "t", 0), "'derivation'[0]"),
        (["smith", "--l", "1"], _set("derivation", "(t^1)", 0), "'derivation'[0]"),
        (["smith", "--l", "1"], _set("derivation", "(x1)", 1), "'derivation'[1]"),
        (["smith", "--l", "1"], _set("derivation", "1*x1", 1), "'derivation'[1]"),
        (["smith", "--l", "1"], _set("h", lambda h: f"(7 + t)^0*({h})"), "'h'"),
        (["smith", "--l", "1"], _set("comment", "anything"), "'comment'"),
        (["family", "--l", "1"], _set("coefficients", 2, 0), "'coefficients'[0]"),
        (["specialize", "--l", "1", "--alpha=5/3"], _set("alpha", "10/6"), "'alpha'"),
    ],
    ids=[
        "bare t", "t^1", "parenthesised x1", "1*x1", "power 0", "extra key",
        "coefficient as a number", "alpha out of lowest terms",
    ],
)
def test_an_edit_that_keeps_the_values_exits_two_and_names_its_field(
    tmp_path, capsys, argv, edit, field
):
    code, err = _verify_edited(tmp_path, capsys, argv, edit)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def _resize(field, grow, index):
    """Drop the last image of a map field, or repeat it when ``grow``."""

    def edit(doc):
        images = doc[field] if index is None else doc[field][index]
        if grow:
            images.append(images[-1])
        else:
            images.pop()

    return edit


_MAP_FIELDS = [
    (["family", "--l", "1"], "tau", None),
    (["family", "--l", "1"], "derivation_at_zero", None),
    (["specialize", "--l", "1", "--alpha=0"], "derivation", None),
    (["specialize", "--l", "1", "--alpha=0"], "fiber_at_zero", None),
    (["specialize", "--l", "1", "--alpha=5/3"], "factors", 1),
    (["specialize", "--l", "1", "--alpha=5/3"], "fiber", None),
    (["smith", "--l", "1"], "gamma", None),
    (["smith", "--l", "1"], "extension", None),
]


@pytest.mark.parametrize("grow", [False, True], ids=["image dropped", "image repeated"])
@pytest.mark.parametrize(
    "argv, field, index",
    _MAP_FIELDS,
    ids=[f"{argv[0]} {field}" + ("" if i is None else f"[{i}]") for argv, field, i in _MAP_FIELDS],
)
def test_a_map_whose_image_count_is_not_its_arity_exits_two_and_names_its_field(
    tmp_path, capsys, argv, field, index, grow
):
    code, err = _verify_edited(tmp_path, capsys, argv, _resize(field, grow, index))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(field) + ("" if index is None else f"[{index}]") in err
    assert "does not match count" in err


def test_a_polynomial_coefficient_out_of_lowest_terms_reads_at_its_value(tmp_path, capsys):
    # -8/3 written as -16/6 keeps the value and verifies; -16/7 does not
    argv = ["smith", "--l", "1"]
    for text, expected in (("-16/6", 0), ("-16/7", 1)):
        code, _ = _verify_edited(
            tmp_path, capsys, argv, _set("h", lambda h, text=text: h.replace("-8/3", text))
        )
        assert code == expected, text


def test_exponent_overflow_in_a_computation_exits_one(capsys):
    # delta needs x2^l, and the powering overflows the x2 slot at once
    code, stdout, err = run(["family", "--l", "3000000000"], capsys)
    assert code == 1
    assert stdout == ""
    assert "exponent above" in err and "Traceback" not in err


def test_a_coefficient_too_long_to_print_exits_one(capsys):
    # the fiber's coefficients are powers of alpha, past str()'s digit limit
    alpha = "7" * 1000
    code, stdout, err = run(["specialize", "--l", "1", f"--alpha={alpha}"], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


def test_a_huge_variable_power_in_a_word_factor_fails_fast(tmp_path, capsys):
    # x1 maps to the one-term x1 through the first factor, so its power is
    # raised in one step and the composite overflows at once
    doc = json.loads(run(["specialize", "--l", "1", "--alpha=5/3"], capsys)[1])
    doc["factors"][1][0] = "x1^536870912"
    bad = tmp_path / "power.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "polydegen", "verify", "--in", str(bad)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 1, result.stderr
    assert time.perf_counter() - start < 5.0


_WORD = ["specialize", "--l", "1", "--alpha=5/3"]


@pytest.mark.parametrize(
    "argv, field, changes, failing",
    [
        (
            _WORD,
            "derivation",
            {"h": "1"},
            ["derivation and h are family member l", "fiber is exp(h*delta) at t = alpha"],
        ),
        (_WORD, "derivation", {"h": "1", "l": None}, ["fiber is exp(h*delta) at t = alpha"]),
        (
            ["family", "--l", "1"],
            "derivation_at_zero",
            {},
            [
                "derivation_at_zero is the derivation at t = 0",
                "fiber_at_zero is exp(h_limit*delta_zero)",
            ],
        ),
    ],
    ids=["word with l", "word without l", "family derivation_at_zero"],
)
def test_a_long_exp_series_fails_only_the_identities_using_it(
    tmp_path, capsys, argv, field, changes, failing
):
    # w_3 = 2001, so the series of x3 has 2002 summands: far past the bound
    # of a document this short, whether it states l or not
    doc = json.loads(run(argv, capsys)[1])
    doc[field][2] = "-1001*x2^1000"
    doc.update(changes)
    bad = tmp_path / "series.json"
    bad.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}, indent=2) + "\n")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "polydegen", "verify", "--in", str(bad), "--format", "json"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 1, result.stderr
    assert time.perf_counter() - start < 5.0
    assert [c["identity"] for c in json.loads(result.stdout)["checks"] if not c["pass"]] == failing


def test_import_loads_neither_dataclasses_nor_inspect():
    # both cost a fresh process milliseconds of start-up on every command
    import polydegen

    src = str(Path(polydegen.__file__).resolve().parents[1])
    code = "import sys, polydegen.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["family", "--l", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["family", "--l", "abc"])
    assert exc.value.code == 2
    assert "not an integer: 'abc'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["specialize", "--l", "1", "--alpha", "pi"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # only verify has a second output form
    for argv in (["family"], ["specialize", "--alpha", "1"], ["smith"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--l", "1", "--format", "text"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_module_entry_point(tmp_path):
    out = tmp_path / "fam.json"
    result = subprocess.run(
        [sys.executable, "-m", "polydegen", "family", "--l", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(out.read_text())["kind"] == "family"
    verify = subprocess.run(
        [sys.executable, "-m", "polydegen", "verify", "--in", str(out)],
        capture_output=True,
        text=True,
    )
    assert verify.returncode == 0
    assert "result: pass" in verify.stdout


# block-buffered stdout, as by default, so that the process's last flush
# is the one that writes the tail of its output
_BUFFERED = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


def _process(*argv, **kwargs):
    """``python -m polydegen`` in a fresh process, through ``cli.run``."""
    return subprocess.run(
        [sys.executable, "-m", "polydegen", *argv],
        capture_output=True,
        timeout=60,
        env=_BUFFERED,
        **kwargs,
    )


def test_main_returns_the_exit_code_in_process(tmp_path, capsys):
    # cli.run ends its process; cli.main must not, since callers loop over it
    doc_path = tmp_path / "smith.json"
    code = main(["smith", "--l", "1", "--out", str(doc_path)])
    assert type(code) is int and code == 0
    doc = json.loads(doc_path.read_text())
    doc["h"] = doc["h"] + " + 1"
    doc_path.write_text(json.dumps(doc))
    code = main(["verify", "--in", str(doc_path)])
    assert type(code) is int and code == 1
    assert type(main(["verify", "--in", str(tmp_path / "missing.json")])) is int


def test_a_piped_document_is_written_whole(tmp_path, capsys):
    # the smith l = 4 document (about 0.22 MB) is larger than a pipe's
    # buffer, so the process must not end before its reader has it all
    code, expected, _ = run(["smith", "--l", "4"], capsys)
    assert code == 0 and len(expected) > 200_000
    out = tmp_path / "smith4.json"
    assert _process("smith", "--l", "4", "--out", str(out)).returncode == 0
    piped = _process("smith", "--l", "4")
    assert piped.returncode == 0 and piped.stderr == b""
    assert piped.stdout == expected.encode("utf-8") == out.read_bytes()


def test_a_process_that_fails_still_writes_both_streams(tmp_path, capsys):
    doc_path = tmp_path / "fam.json"
    run(["family", "--l", "1", "--out", str(doc_path)], capsys)
    doc = json.loads(doc_path.read_text())
    doc["h_limit"] = doc["h_limit"] + " + x2"
    doc_path.write_text(json.dumps(doc))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    for path, expected_code, line in [(doc_path, 1, b"FAIL"), (bad, 2, b"error: invalid JSON")]:
        code, stdout, stderr = run(["verify", "--in", str(path)], capsys)
        result = _process("verify", "--in", str(path))
        assert code == result.returncode == expected_code
        assert (result.stdout, result.stderr) == (stdout.encode(), stderr.encode())
        assert line in result.stdout + result.stderr


def test_a_profiled_process_still_reports():
    # the process exits normally when a profiler watches it
    result = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "polydegen", "smith", "--l", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith('{\n  "format_version": 1')
    assert "function calls" in result.stdout and "Ordered by" in result.stdout


def test_a_closed_stdout_exits_two():
    result = _process("smith", "--l", "1", preexec_fn=lambda: os.close(1))
    assert result.returncode == 2
    assert result.stderr == b"error: standard output is closed\n"


def _without_stderr(how, *argv):
    """``python -m polydegen`` whose stderr is closed before it starts, or a
    pipe whose reader has gone."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "polydegen", *argv],
            stdout=subprocess.PIPE,
            stderr=write,
            preexec_fn=(lambda: os.close(2)) if how == "closed" else None,
            timeout=60,
            env=_BUFFERED,
        )
    finally:
        os.close(write)


@pytest.mark.parametrize("how", ["closed", "reader gone"])
def test_an_error_without_stderr_exits_two_and_writes_no_stdout(tmp_path, how):
    result = _without_stderr(how, "verify", "--in", str(tmp_path / "missing.json"))
    assert (result.returncode, result.stdout) == (2, b"")


@pytest.mark.parametrize("how", ["closed", "reader gone"])
@pytest.mark.parametrize("argv", [["--bogus"], ["family"]], ids=["top level", "subcommand"])
def test_a_usage_error_without_stderr_exits_two_and_writes_no_stdout(how, argv):
    result = _without_stderr(how, *argv)
    assert (result.returncode, result.stdout) == (2, b"")


@pytest.mark.parametrize("how", ["closed", "reader gone"])
def test_a_failing_check_without_stderr_exits_one(tmp_path, capsys, how):
    result = _without_stderr(how, "family", "--l", "3000000000")
    assert (result.returncode, result.stdout) == (1, b"")
    doc_path = tmp_path / "fam.json"
    run(["family", "--l", "1", "--out", str(doc_path)], capsys)
    doc = json.loads(doc_path.read_text())
    doc["h_limit"] = doc["h_limit"] + " + x2"
    doc_path.write_text(json.dumps(doc))
    result = _without_stderr(how, "verify", "--in", str(doc_path))
    assert result.returncode == 1 and b"result: FAIL" in result.stdout


def test_a_broken_pipe_exits_two():
    # the reader is gone before the command writes; the document (4,624
    # bytes) stays in stdout's 8 KiB buffer until the process flushes it
    with subprocess.Popen(
        [sys.executable, "-m", "polydegen", "smith", "--l", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_BUFFERED,
    ) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert stderr == b"error: [Errno 32] Broken pipe\n"
