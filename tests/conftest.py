import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from statetrack import corpus as corpus_mod
from statetrack import parses as parses_mod
from statetrack.abstraction import default_role_synonyms
from statetrack.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def small_corpus():
    """The seeded-metrics fixture: procedures (coref attached) and gold grids."""
    pairs = corpus_mod.load_procedures(DATA / "corpus_small.json")
    procedures = corpus_mod.load_coref(DATA / "coref_small.json", [p for p, _ in pairs])
    gold = {g.procedure_id: g for _, g in pairs}
    return procedures, gold


@pytest.fixture(scope="session")
def predict_corpus():
    pairs = corpus_mod.load_procedures(DATA / "corpus_predict.json")
    procedures = [p for p, _ in pairs]
    gold = {g.procedure_id: g for _, g in pairs}
    return procedures, gold


@pytest.fixture(scope="session")
def configs():
    return (
        parses_mod.default_ontology(),
        parses_mod.default_class_map(),
        default_role_synonyms(),
    )


@pytest.fixture(scope="session")
def hand_sheet():
    return json.loads((DATA / "hand_sheet.json").read_text())


@pytest.fixture(scope="session")
def small_parses():
    return {
        pid: parses_mod.load_trips(DATA / "parses" / f"{pid}.trips.json")
        for pid in ("p1", "p2", "p3")
    }


@pytest.fixture(scope="session")
def cli_fails():
    """``cli_fails(argv, code)`` runs ``statetrack.cli.main(argv)`` in process,
    checks that it fails with exit ``code`` as every failing command must,
    and returns its error message.

    The failure contract: the exit code is ``code``; stderr is the one line
    ``error: <message>``, so no traceback; stdout is empty; the ``--output``
    file does not exist, or is the directory it was before the run; and no
    forked child is left."""

    def run(argv, code):
        argv = [str(a) for a in argv]
        output = Path(argv[argv.index("--output") + 1]) if "--output" in argv else None
        was_dir = output is not None and output.is_dir()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            got = main(argv)
        err = err.getvalue()
        assert got == code, (argv, got, err)
        assert out.getvalue() == "", (argv, out.getvalue())
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
        message = err[len("error: "):-1]
        if output is not None:
            assert output.is_dir() if was_dir else not output.exists(), (argv, message)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return message

    return run
