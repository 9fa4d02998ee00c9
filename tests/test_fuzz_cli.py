"""The command-line contract on mutated inputs (Hypothesis property test).

Each example copies the fixtures into a fresh directory, mutates one input
file and runs every file-reading command (predict, abstract, build-graph
with each parser and with a question entity, evaluate).  Whatever the
mutation, each command exits 0, 2, 3 or 4 with no traceback, and a non-zero
exit leaves no output file; an exit 0 gives the same bytes when the command
is run again, and predict gives the same exit, stderr and bytes with
``--jobs 2``; a non-zero exit is checked again by the ``cli_fails``
fixture, which holds it to the failure contract.  The same check runs on
the action file with each field swap in its step column, which the
derandomized examples do not all reach.
After an out-of-range mutation of a logical-form parse file, every command
that reads it gives the same exit and stderr.

Mutations: a value swapped for one of another type, a deletion, a
duplication, a ``null``, a span or index out of range, the file replaced by
a directory, and non-UTF-8 bytes; in JSON inputs also a value replaced by
brackets nested 100,000 deep.  JSON inputs are mutated as JSON values, TSV
and text inputs as lines and tab-separated fields.

A second property respells one predicted entity in another case for
``evaluate --pred``: the report keeps its bytes, and the entity spelled
both ways in one procedure is exit 4.
"""

import copy
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from genutil import write_paragraphs_tsv
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statetrack.cli import main

DATA = Path(__file__).parent / "data"
CONFIGS = ("ontology.tsv", "action_classes.tsv", "role_synonyms.tsv")
COREF = [{"procedure_id": "erosion-1",
          "mentions": [{"entity": "rock", "step": 3, "span": [0, 2]}]}]

JSON_INPUTS = [
    "corpus.json", "coref.json",
    "parses/book-1.trips.json", "parses/erosion-1.trips.json",
    "parses/book-1.srl.json", "parses/erosion-1.srl.json",
]
TEXT_INPUTS = [
    "pred.tsv", "off.txt", "propara/paragraphs.tsv", "propara/grids.tsv", *CONFIGS,
]
MUTATIONS = ["swap", "delete", "duplicate", "null", "out-of-range", "directory", "non-utf8"]
SWAPS = [True, 0, 7, 1.5, "x", "", [], {}, [1, 2]]
FIELD_SWAPS = ["x", "1.5", "MOVE", "-", "?", "the", "3000000000000000000"]
# json.dumps cannot encode brackets this deep, so they replace a marker in its text
NEST_MARK, NEST = "\0nest", "[" * 100_000 + "]" * 100_000
OUT_OF_RANGE = [[0, 99], [-1, 1], [3, 2], [5, 5], 0, -1, 99]


def _write_fixtures(work: Path) -> None:
    """The predict corpus as JSON and as a propara-tsv directory, its parses,
    a coreference sidecar, its own gold as the prediction, copies of the
    shipped configuration files and a rules-off file."""
    shutil.copy(DATA / "corpus_predict.json", work / "corpus.json")
    (work / "coref.json").write_text(json.dumps(COREF))
    (work / "parses").mkdir()
    for name in JSON_INPUTS[2:]:
        shutil.copy(DATA / name, work / name)
    shutil.copy(DATA / "golden" / "predictions.tsv", work / "pred.tsv")
    (work / "off.txt").write_text("destroy_affected\n")
    for name in CONFIGS:
        (work / name).write_bytes(
            resources.files("statetrack").joinpath("data", name).read_bytes()
        )
    (work / "propara").mkdir()
    procedures = json.loads((DATA / "corpus_predict.json").read_text())
    write_paragraphs_tsv(work / "propara" / "paragraphs.tsv", procedures)
    shutil.copy(DATA / "golden" / "predictions.tsv", work / "propara" / "grids.tsv")


def _commands(work: Path, propara: bool) -> dict[str, list[str]]:
    """Every file-reading command, by the name of its output file."""
    if propara:
        corpus = ["--corpus", str(work / "propara"), "--corpus-format", "propara-tsv"]
    else:
        corpus = ["--corpus", str(work / "corpus.json"), "--coref", str(work / "coref.json")]
    parses = ["--parses", str(work / "parses")]
    ontology = ["--ontology", str(work / CONFIGS[0]), "--classes", str(work / CONFIGS[1])]
    roles = ["--roles", str(work / CONFIGS[2])]
    return {
        "pred.out": ["predict", *corpus, *parses, *ontology, *roles,
                     "--rules-off", str(work / "off.txt")],
        "frames.out": ["abstract", *corpus, *parses, *ontology, *roles],
        "graphs.out": ["build-graph", *corpus, *parses],
        "srl.out": ["build-graph", *corpus, *parses, "--parser", "srl"],
        "qa.out": ["build-graph", *corpus, *parses, "--qa-entity", "rock"],
        "report.out": ["evaluate", "--pred", str(work / "pred.tsv"), *corpus, *parses,
                       *ontology, "--tier", "all"],
    }


def _json_paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _json_paths(value, path + (k,))


def _mutate_json(data, text: str, mutation: str) -> str:
    doc = json.loads(text)
    paths = [p for p in _json_paths(doc) if p]
    if mutation == "out-of-range":
        paths = [p for p in paths if p[-1] in ("span", "step", "index", "sentence_index")]
    elif mutation == "duplicate":
        paths = [p for p in paths if type(p[-1]) is int]
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation == "swap":
        parent[key] = data.draw(st.sampled_from(SWAPS))
    elif mutation == "delete":
        del parent[key]
    elif mutation == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
    elif mutation == "null":
        parent[key] = None
    elif mutation == "nest":
        parent[key] = NEST_MARK
        return json.dumps(doc).replace(json.dumps(NEST_MARK), NEST)
    else:
        parent[key] = data.draw(st.sampled_from(OUT_OF_RANGE))
    return json.dumps(doc)


def _mutate_text(data, text: str, mutation: str) -> str:
    lines = text.splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    if mutation in ("delete", "duplicate") and data.draw(st.booleans(), label="whole line"):
        if mutation == "delete":
            del lines[k]
        else:
            lines.insert(k, lines[k])
    else:
        fields = lines[k].split("\t")
        f = data.draw(st.integers(0, len(fields) - 1))
        if mutation == "delete":
            del fields[f]
        elif mutation == "duplicate":
            fields.insert(f, fields[f])
        else:
            choices = {"swap": FIELD_SWAPS, "null": ["", "null"], "out-of-range": ["0", "-1", "99"]}
            fields[f] = data.draw(st.sampled_from(choices[mutation]))
        lines[k] = "\t".join(fields)
    return "".join(line + "\n" for line in lines)


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _check_contract(work: Path, propara: bool, cli_fails) -> dict[str, tuple[int, str]]:
    """Run every command on the inputs in ``work``.  Each exits 0, 2, 3 or 4:
    exit 0 prints nothing to stderr and gives the same bytes when the
    command is run again, and any other exit is run again through
    ``cli_fails``, which must give the same message.  predict gives the
    same exit, stderr and output with ``--jobs 2``.  Returns each command's
    exit and stderr by the name of its output file."""
    results = {}
    for out_name, argv in _commands(work, propara).items():
        out = work / out_name
        argv = [*argv, "--output", str(out)]
        code, err = results[out_name] = _run(argv)
        reruns = [[], ["--jobs", "2"]] if argv[0] == "predict" else [[]]
        if code == 0:
            assert err == "", (argv, err)
            first = out.read_bytes()
            for extra in reruns:
                out.unlink()
                assert _run([*argv, *extra]) == (0, ""), (argv, extra)
                assert out.read_bytes() == first, (argv, extra)
            out.unlink()
        else:
            assert code in (2, 3, 4), (argv, code, err)
            for extra in reruns:
                assert f"error: {cli_fails([*argv, *extra], code)}\n" == err, (argv, extra)
    return results


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_keeps_its_contract_on_mutated_inputs(cli_fails, data):
    name = data.draw(st.sampled_from(JSON_INPUTS + TEXT_INPUTS), label="input")
    mutations = MUTATIONS + ["nest"] if name in JSON_INPUTS else MUTATIONS
    mutation = data.draw(st.sampled_from(mutations), label="mutation")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_fixtures(work)
        target = work / name
        if mutation == "directory":
            target.unlink()
            target.mkdir()
        elif mutation == "non-utf8":
            raw = target.read_bytes()
            at = data.draw(st.integers(0, len(raw)))
            target.write_bytes(raw[:at] + b"\xff" + raw[at:])
        else:
            mutate = _mutate_json if name in JSON_INPUTS else _mutate_text
            target.write_text(mutate(data, target.read_text(), mutation))
        results = _check_contract(work, name.startswith("propara/"), cli_fails)
    if mutation == "out-of-range" and name.endswith(".trips.json"):
        # One span rule: every command but build-graph --parser srl reads
        # a logical-form file, and all of them report its fault alike.
        readers = {results[out] for out in results if out != "srl.out"}
        assert len(readers) == 1, (name, readers)


@pytest.mark.parametrize("value", FIELD_SWAPS)
def test_every_command_keeps_its_contract_on_a_swapped_step(cli_fails, value):
    # The property's derandomized examples never put some of these values
    # into the step column of an action file.
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_fixtures(work)
        pred = work / "pred.tsv"
        lines = pred.read_text().splitlines(keepends=True)
        fields = lines[0].split("\t")
        fields[1] = value
        lines[0] = "\t".join(fields)
        pred.write_text("".join(lines))
        _check_contract(work, False, cli_fails)


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_evaluate_reads_a_case_variant_entity_as_its_canonical_name(cli_fails, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_fixtures(work)
        argv = _commands(work, data.draw(st.booleans(), label="propara"))["report.out"]
        out = work / "report.out"
        argv += ["--output", str(out)]
        assert _run(argv) == (0, "")
        expected = out.read_bytes()
        out.unlink()

        pred = work / "pred.tsv"
        rows = [line.split("\t") for line in pred.read_text().splitlines(keepends=True)]
        pid, name = data.draw(st.sampled_from(sorted({(r[0], r[2]) for r in rows})),
                              label="entity")
        variant = getattr(str, data.draw(st.sampled_from(["upper", "title", "swapcase"])))(name)
        both = data.draw(st.booleans(), label="both spellings")
        for r in [r for r in rows if (r[0], r[2]) == (pid, name)]:
            if both:
                rows.append([*r[:2], variant, *r[3:]])
            else:
                r[2] = variant
        pred.write_text("".join("\t".join(r) for r in rows))

        if both:
            assert "both normalize to" in cli_fails(argv, 4)
        else:
            assert _run(argv) == (0, "")
            assert out.read_bytes() == expected
