"""Every file the package reads or writes goes through ``corpus.read_input``
or ``corpus.write_output``: no other function under ``src/statetrack`` opens
a file, so every input is decoded and every output encoded as UTF-8 in one
place each.  The one other opener, ``cli._write_stdout``, opens os.devnull
to point a broken stdout's descriptor at it, and passes it no text.  And only the CLI writes to stdout or stderr: no other module
prints or names ``sys.stdout`` or ``sys.stderr``, so a library caller's
streams are its own."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "statetrack"
FILE_CALLS = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}
ALLOWED = {("corpus", "read_input"), ("corpus", "write_output"), ("cli", "_write_stdout")}
STREAM_NAMES = {"print", "stdout", "stderr"}


def _names(path, names):
    """(module, enclosing top-level definition or None, line, name) of every
    use in one module of a name or attribute in ``names``, such as ``open``,
    ``path.read_text`` or ``sys.stderr``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in names:
                yield path.stem, owner, node.lineno, name


def _scan(names):
    return [use for path in sorted(PACKAGE.glob("*.py")) for use in _names(path, names)]


def test_only_read_input_and_write_output_open_files():
    uses = _scan(FILE_CALLS)
    assert [use for use in uses if use[:2] not in ALLOWED] == []
    # The scan sees the uses it looks for: each allowed function makes one.
    assert {use[:2] for use in uses} == ALLOWED


def test_only_the_cli_writes_to_stdout_or_stderr():
    uses = _scan(STREAM_NAMES)
    assert [use for use in uses if use[0] != "cli"] == []
    # The scan sees the uses it looks for: the CLI's error line is one.
    assert ("cli", "main", "print") in {(m, owner, name) for m, owner, _, name in uses}
