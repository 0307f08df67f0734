"""README's table of each document kind's fields matches the schema that
reads them: the same names in the same order, each read as README says,
and optional exactly where README says."""

import re
from pathlib import Path

from polydegen import documents

README = Path(__file__).resolve().parent.parent / "README.md"

_NAMES = {int: "integer", str: "string", bool: "boolean", documents._rational: "rational"}


def _read_as(kind) -> str:
    """What a schema entry reads, in README's words."""
    if kind == documents._OPTIONAL_INT:
        return "integer"
    if isinstance(kind, str):  # a placeholder names what it reads
        return kind
    if isinstance(kind, list):
        return f"list of {_read_as(kind[0])}s"
    if isinstance(kind, dict):
        return "object: " + ", ".join(f"{key} ({_read_as(k)})" for key, k in kind.items())
    return _NAMES[kind]


def _tables() -> dict:
    """Each kind's rows in README's Documents section: (field, read as, optional)."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Documents\n(.*?)(?=^## )", text, re.S | re.M).group(1)
    tables = {}
    for kind, body in re.findall(r"^### `(\w+)`\n(.*?)(?=^### |\Z)", section, re.S | re.M):
        rows = re.findall(r"^\| `(\w+)` \| (.*?) \| (yes|no) \|$", body, re.M)
        tables[kind] = [(field, read_as, optional == "yes") for field, read_as, optional in rows]
    return tables


def test_readme_lists_each_kinds_fields_as_the_schema_reads_them():
    expected = {
        kind: [(key, _read_as(k), k == documents._OPTIONAL_INT) for key, k in schema.items()]
        for kind, schema in documents._SCHEMAS.items()
    }
    assert _tables() == expected
