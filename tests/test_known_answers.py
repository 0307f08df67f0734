"""Known answers from the literature: Nagata's automorphism and tame controls.

Write z, y, x as x1, x2, x3.  Nagata's automorphism is exp(Δ*D) for the
locally nilpotent derivation D = (0, x1, -2*x2) and its kernel element
Δ = x1*x3 + x2^2.  Shestakov and Umirbaev proved it wild (J. Amer. Math.
Soc. 17 (2004) 197-227), and Smith proved it stably tame (J. Pure Appl.
Algebra 58 (1989) 209-212): one variable up it is the commutator of two
tame maps, the four-factor word a stabilization document states.  The
family's l = 1 derivation at t = 0 is D and its h_limit is x1^2*Δ, so the
paper's first zero fiber is a Nagata-type map.  exp(f*D) with f in Q[x1]
is triangular, hence tame, and so is exp(x2*(0, 0, x1)).
"""

import pytest

from oracles import ref_read
from polydegen import build_stabilization, check_wild_at_zero, parse_poly
from polydegen.certificates import WILD
from polydegen.cli import main
from polydegen.derivation import TriangularDerivation
from polydegen.documents import dumps, stabilization_document, wildness_document


def _derivation(*images):
    return TriangularDerivation(tuple(parse_poly(image, arity=3) for image in images))


NAGATA_D = _derivation("0", "x1", "-2*x2")
NAGATA_DELTA = parse_poly("x1*x3 + x2^2", arity=3)

# Nagata's map as published, image by image
NAGATA_MAP = (
    "x1",
    "x1^2*x3 + x1*x2^2 + x2",
    "-x1^3*x3^2 - 2*x1^2*x2^2*x3 - x1*x2^4 - 2*x1*x2*x3 - 2*x2^3 + x3",
)


def test_exp_of_the_nagata_derivation_is_nagatas_map():
    images = NAGATA_D.exp(NAGATA_DELTA).images
    assert [dict(image.terms()) for image in images] == [
        ref_read(text, 3) for text in NAGATA_MAP
    ]


def test_nagatas_map_is_certified_wild_at_zero():
    report = check_wild_at_zero(NAGATA_D, NAGATA_DELTA)
    assert report.flags == (True, True, True)
    assert report.verdict == WILD


@pytest.mark.parametrize(
    "document, identities",
    [
        (lambda: wildness_document(NAGATA_D, NAGATA_DELTA), 9),
        (lambda: stabilization_document(build_stabilization(NAGATA_D, NAGATA_DELTA)), 12),
    ],
    ids=["wildness", "stabilization"],
)
def test_nagatas_documents_verify(tmp_path, capsys, document, identities):
    path = tmp_path / "nagata.json"
    path.write_text(dumps(document()), encoding="utf-8")
    assert main(["verify", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f"result: pass ({identities}/{identities} identities)\n")


@pytest.mark.parametrize(
    "delta, h",
    [
        (NAGATA_D, "x1"),
        (NAGATA_D, "x1^3 + 2"),
        (_derivation("0", "0", "x1"), "x2"),
    ],
    ids=["x1 against D", "x1^3 + 2 against D", "x2 against (0, 0, x1)"],
)
def test_a_tame_control_is_called_tame(delta, h):
    assert check_wild_at_zero(delta, parse_poly(h, arity=3)).verdict == "tame"
