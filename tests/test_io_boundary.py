"""Every file the package reads or writes goes through ``corpus.read_input``
or ``corpus.write_output``: no other function under ``src/statetrack`` opens
a file, so every input is decoded and every output encoded as UTF-8 in one
place each."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "statetrack"
FILE_CALLS = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}
ALLOWED = {("corpus", "read_input"), ("corpus", "write_output")}


def _file_calls(path):
    """(module, enclosing top-level definition or None, line, called name)
    of every call in one module to ``open`` or to a method of that name or
    of a ``Path`` reader or writer."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in FILE_CALLS:
                yield path.stem, owner, node.lineno, name


def test_only_read_input_and_write_output_open_files():
    calls = [call for path in sorted(PACKAGE.glob("*.py")) for call in _file_calls(path)]
    assert [call for call in calls if call[:2] not in ALLOWED] == []
    # The scan sees the calls it looks for: the two allowed functions make them.
    assert {call[:2] for call in calls} == ALLOWED
