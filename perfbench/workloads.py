"""The benchmark workloads and the inputs they are built from.

Each workload is a fixed list of ``polydegen`` commands, run one after the
other as a user would type them.  The seed picks only the rational values
of t and the tampered or malformed spots in the ``verify`` inputs; the l
values and the commands are fixed, so every seed costs about the same.

``BENCHMARK.json`` lists ``fibers`` and ``smith`` only.  Every run of a
comparison has to fit a fixed time budget, and on a shared two-core
machine whose speed drifts by 20-40% over minutes, runs that measure
only one or two passes were not steady: with three workloads a run could
measure 25 s, and ``smith`` (one 15 s command) then spread by 28% across
ten seeds.  Two workloads leave 45 s per run.  ``verify`` stays runnable
by name for work on the read side; ``family`` is gone.

Why each workload exists
------------------------
``fibers``
    ``specialize --l 3`` at three seeded nonzero alphas of increasing
    height, ``specialize --l 3 --alpha 0`` and ``specialize --l 4`` at one
    seeded alpha.  The only workload that runs ``specialized_tameness``,
    ``factor_kind``, ``check_wild_at_zero`` on a fiber and
    ``MultiPoly.specialize_t`` at nonzero alpha.  Its coefficients are big
    rationals over Q rather than Laurent monomials, so a kernel change
    that favours one coefficient shape over the other shows here.  Every
    command also builds the family over Q[t, 1/t] first (``build_family``:
    ``derivation`` exp/sigma, the triangular inverse in ``endo``, the
    conjugation compose), then renders its document and verifies it again
    on emission.
``smith``
    ``smith --l 1`` and ``--l 2``.  The ``PolyEndo.compose_chain`` swell:
    nearly all of the time is kernel multiplication inside the
    four-factor composition, and the largest intermediate images.
``verify``
    ``verify`` on documents emitted during set-up (family l=4, tameness
    word l=4, wildness l=3, stabilization l=1), on seeded tampered copies
    (one coefficient changed, exit 1) and on seeded malformed copies
    (truncated JSON or an unparseable polynomial, exit 2).  The read side:
    parsing and the verifier, with no construction.  Emission-time
    verification is not on this path, so a change to it must not move
    this workload.  The stabilization document is l=1, not l=2: emitting
    l=2 adds 14 s to every run's set-up, and verifying it is the same
    compose swell the ``smith`` workload already times.  Not in
    ``BENCHMARK.json`` (see above): its set-up of about 12 s per run left
    no room for longer runs, and its layers are all measured on ``fibers``
    and ``smith`` through the verification and reparse done on emission.

Deliberately left out
---------------------
* A ``family`` workload (``family --l 1`` .. ``--l 4``).  Its construction
  runs inside every ``fibers`` command and the ``verify`` workload reads a
  family document, so it measured no layer the others miss.
* The Tier-1 test suite time: the test code changes between versions, so
  its time is not a measure of the program, and one run takes a minute
  or more.
* ``smith --l 3``: about 150 s on its own, longer than one benchmark run
  may take.  It belongs in ``smith`` once composition cost no longer
  follows the intermediate swell.
* The hostile ``parse_poly('(x1+x2+x3+t)^40')``: it does not finish today,
  so it cannot be timed until the parser has input budgets.
* A compiled-versus-pure kernel comparison: only the pure kernel can be
  built without Cython, and results from different kernel backends are
  never compared (see ``compare.py``).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Exit codes of the polydegen CLI.
OK, FAILED_CHECK, BAD_INPUT = 0, 1, 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome it must have."""

    argv: tuple[str, ...]
    expect: int = OK
    emits: bool = False  # stdout is a document that must itself verify


@dataclass(frozen=True)
class Workload:
    name: str
    # Wrapped layers that must be entered at least once (see tracer.py).
    must_hit: frozenset[str]
    # Wrapped layers that must never be entered.
    must_miss: frozenset[str] = frozenset()


# Layers every workload passes through, and those every emitting one adds.
_COMMON = {"cli.main", "kernel", "multipoly.substitute", "derivation.apply",
           "derivation.exp", "parsing.parse_poly", "documents.verify_document",
           "endo.compose"}
_EMITTING = _COMMON | {"family.build_family", "documents.emit", "derivation.sigma", "render"}
_CONSTRUCTION = {"family.build_family", "documents.emit",
                 "certificates.build_stabilization", "certificates.specialized_tameness"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fibers",
            frozenset(_EMITTING | {"certificates.specialized_tameness", "certificates.factor_kind",
                                   "certificates.check_wild_at_zero", "multipoly.specialize_t"}),
        ),
        Workload(
            "smith",
            frozenset(_EMITTING | {"certificates.build_stabilization", "multipoly.specialize_t"}),
        ),
        Workload(
            "verify",
            frozenset(_COMMON | {"certificates.factor_kind", "certificates.check_wild_at_zero",
                                 "multipoly.specialize_t"}),
            frozenset(_CONSTRUCTION),
        ),
    )
}


def _alpha(rng: random.Random, digits: int) -> str:
    """A nonzero rational in lowest terms whose numerator and denominator
    both have ``digits`` digits, so its height does not depend on the seed."""
    lo, hi = 10 ** (digits - 1), 10**digits
    while True:
        num, den = rng.randrange(lo, hi), rng.randrange(lo, hi)
        if math.gcd(num, den) == 1 and num != den:
            return str(Fraction(num, den) * rng.choice((1, -1)))


def fibers_commands(rng: random.Random) -> list[Command]:
    # Heights 2, 4 and 8 digits: the coefficient size grows with the height.
    cmds = [
        Command(("specialize", "--l", "3", f"--alpha={_alpha(rng, d)}"), emits=True)
        for d in (2, 4, 8)
    ]
    cmds.append(Command(("specialize", "--l", "3", "--alpha=0"), emits=True))
    cmds.append(Command(("specialize", "--l", "4", f"--alpha={_alpha(rng, 2)}"), emits=True))
    return cmds


def smith_commands(rng: random.Random) -> list[Command]:
    return [Command(("smith", "--l", str(l)), emits=True) for l in (1, 2)]


# Documents the verify workload reads, emitted in set-up, and the field of
# each in which one coefficient is tampered with.  Each tampered field is a
# claimed result that the verifier only compares against, never an input
# it computes from, so a tampered copy costs what the clean one does.
VERIFY_SOURCES = (
    ("family", ("family", "--l", "4"), "automorphism"),
    ("word", ("specialize", "--l", "4", None), "fiber"),
    ("wildness", ("specialize", "--l", "3", "--alpha=0"), "fiber_at_zero"),
    ("stabilization", ("smith", "--l", "1"), "extension"),
)

# A coefficient digit run: not an exponent, not part of a variable name.
_COEFF = re.compile(r"(?<![\dx^])(?<!\^-)\d+")


def tamper(doc: dict, field: str, rng: random.Random) -> dict:
    """Copy of ``doc`` with one seeded coefficient of ``field`` changed by one."""
    images = list(doc[field])
    spots = [(i, m) for i, text in enumerate(images) for m in _COEFF.finditer(text)]
    i, m = rng.choice(spots)
    text = images[i]
    images[i] = text[: m.start()] + str(int(m.group()) + 1) + text[m.end() :]
    return {**doc, field: images}


def malformed(text: str, doc: dict, rng: random.Random) -> list[str]:
    """Two unreadable copies: JSON cut short, and ``h`` with a syntax error."""
    cut = text[: rng.randrange(1, len(text) - 1)]
    h = doc["h"]
    at = rng.randrange(0, len(h) + 1)
    broken = json.dumps({**doc, "h": h[:at] + " @ " + h[at:]}, indent=2) + "\n"
    return [cut, broken]


def verify_commands(
    rng: random.Random, workdir: Path, emit: Callable[[tuple[str, ...], Path], None]
) -> list[Command]:
    """Emit the source documents with ``emit`` and list the verify commands.

    ``emit(argv, path)`` runs one emitting command and stores its stdout.
    """
    clean, tampered, broken = [], [], []
    for name, argv, field in VERIFY_SOURCES:
        if None in argv:
            argv = tuple(a if a is not None else f"--alpha={_alpha(rng, 2)}" for a in argv)
        path = workdir / f"{name}.json"
        emit(argv, path)
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        clean.append(Command(("verify", "--in", str(path)), OK))
        bad = workdir / f"{name}.tampered.json"
        bad.write_text(json.dumps(tamper(doc, field, rng), indent=2) + "\n", encoding="utf-8")
        tampered.append(Command(("verify", "--in", str(bad)), FAILED_CHECK))
        for j, copy in enumerate(malformed(text, doc, rng)):
            bad = workdir / f"{name}.malformed{j}.json"
            bad.write_text(copy, encoding="utf-8")
            broken.append(Command(("verify", "--in", str(bad)), BAD_INPUT))
    return clean + tampered + broken


COMMANDS = {
    "fibers": fibers_commands,
    "smith": smith_commands,
}
