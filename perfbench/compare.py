"""Compare two result records written by ``run.py``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each record is a file from ``.perfbench/results/``.  The two must come from
the same workload and the same kind of run (traced or not), and from the
same kernel backend: a compiled and a pure kernel are different programs,
so comparing them says nothing about a change.  Prints each metric before
and after with the relative change; exits 2 when the records do not match.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    for key in ("kernel_backend", "workload", "trace"):
        a, b = before["context"][key], after["context"][key]
        if a != b:
            print(f"error: refusing to compare {key} {a!r} with {b!r}", file=sys.stderr)
            return 2
    ctx = after["context"]
    print(f"{ctx['workload']} (trace {ctx['trace']}, {ctx['kernel_backend']} kernel): "
          f"{before['context']['commit'][:12]} -> {ctx['commit'][:12]}")
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            continue
        change = f"{(new - old) / old:+.1%}" if old else "n/a"
        print(f"  {name:44s} {old:>14.6g} {new:>14.6g} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
