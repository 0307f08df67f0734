"""Check the bytes of every frontier document against a committed manifest.

Emits ``smith``, ``family`` and ``specialize`` at alpha 0, 5/3 and -7/11,
each for l = 1..8 (40 documents), runs ``verify --format json`` on each,
and prints the manifest of SHA-256 digests it computed, of each document
and each report, to stdout.  Exits 1, naming each entry that differs from
``frontier_digests.json`` beside this script on stderr, and 0 when none
does.  A change that alters documents on purpose regenerates the manifest
by redirecting the output:

    PYTHONPATH=src python tests/frontier_digests.py > tests/frontier_digests.json

Every command runs in this one process through ``polydegen.cli.main``; the
40 documents take some 25 s to emit and as long again to verify.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from polydegen import cli

MANIFEST = Path(__file__).with_name("frontier_digests.json")
COMMANDS = [
    argv
    for l in range(1, 9)
    for argv in (
        ["smith", "--l", str(l)],
        ["family", "--l", str(l)],
        *(["specialize", "--l", str(l), f"--alpha={alpha}"] for alpha in ("0", "5/3", "-7/11")),
    )
]


def _digest(argv: list[str], out: Path) -> str:
    """The SHA-256 of what ``polydegen argv`` writes, which must exit 0."""
    code = cli.main([*argv, "--out", str(out)])
    if code != 0:
        sys.exit(f"frontier_digests: {' '.join(argv)} exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def manifest() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        document, report = Path(work, "document.json"), Path(work, "report.json")
        for argv in COMMANDS:
            digests[" ".join(argv)] = {
                "document": _digest(argv, document),
                "verify --format json": _digest(
                    ["verify", "--in", str(document), "--format", "json"], report
                ),
            }
    return digests


def main() -> int:
    computed = manifest()
    sys.stdout.write(json.dumps(computed, indent=2) + "\n")
    committed = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = [
        f"{command}: {part}"
        for command in sorted(computed.keys() | committed.keys())
        for part in sorted({**computed.get(command, {}), **committed.get(command, {})})
        if computed.get(command, {}).get(part) != committed.get(command, {}).get(part)
    ]
    for entry in differ:
        print(f"frontier_digests: differs from {MANIFEST.name}: {entry}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
