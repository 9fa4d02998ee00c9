import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statetrack
from genutil import write_paragraphs_tsv
from statetrack.cli import main

# The directory the package under test was imported from: this checkout's
# src/, or site-packages when the tests run against an installed copy.
SRC = Path(statetrack.__file__).resolve().parents[1]


def _env() -> dict:
    """The environment with the package under test first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _loaded_by_cli_import(*modules: str, argv=None, code: str = "") -> list[str]:
    """Those of ``modules`` a fresh interpreter has loaded after importing
    statetrack.cli, running ``code`` and, given ``argv``, running that
    command.  A module the bare interpreter had already loaded (a site hook
    may load some) is not counted."""
    run = "" if argv is None else f"assert statetrack.cli.main({list(map(str, argv))!r}) == 0\n"
    probe = (
        "import sys\nbare = set(sys.modules)\nimport statetrack.cli\n"
        f"{code}{run}print(*[m for m in {modules!r} if m in sys.modules and m not in bare])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def _predict_args(data_dir, out, extra=()):
    return [
        "predict",
        "--corpus", str(data_dir / "corpus_predict.json"),
        "--parses", str(data_dir / "parses"),
        "--output", str(out),
        *extra,
    ]


def _evaluate_args(d, out, extra=()):
    return [
        "evaluate", "--pred", d / "pred_seeded.tsv", "--corpus", d / "corpus_small.json",
        "--coref", d / "coref_small.json", "--parses", d / "parses", "--tier", "all",
        "--output", out, *extra,
    ]


# The one table of golden files: every command but gat-check on the
# fixtures, as a name -> (its golden file under data/golden, (data
# directory, output path) -> argv).  predictions.tsv is written twice, by
# one process and by two.
_FIXTURE_COMMANDS = {
    "predict": ("predictions.tsv", _predict_args),
    "predict --jobs 2": ("predictions.tsv", lambda d, out: _predict_args(d, out, ["--jobs", "2"])),
    "predict --format json": (
        "predictions.json", lambda d, out: _predict_args(d, out, ["--format", "json"])),
    "abstract": ("abstract.json", lambda d, out: [
        "abstract", "--corpus", d / "corpus_predict.json", "--parses", d / "parses",
        "--output", out,
    ]),
    "evaluate": ("report_seeded.json", _evaluate_args),
    "evaluate --format table": (
        "report_seeded.txt", lambda d, out: _evaluate_args(d, out, ["--format", "table"])),
    "build-graph": ("graphs_trips.json", lambda d, out: [
        "build-graph", "--corpus", d / "corpus_small.json", "--coref", d / "coref_small.json",
        "--parses", d / "parses", "--output", out,
    ]),
    "build-graph --qa-entity": ("graphs_qa.json", lambda d, out: [
        "build-graph", "--corpus", d / "corpus_small.json", "--coref", d / "coref_small.json",
        "--parses", d / "parses", "--output", out,
        "--qa-entity", "water", "--qa-entity", "magma", "--qa-entity", "rock",
    ]),
    "build-graph --parser srl": ("graphs_srl.json", lambda d, out: [
        "build-graph", "--corpus", d / "corpus_predict.json", "--parses", d / "parses",
        "--parser", "srl", "--output", out,
    ]),
}


def _fixture(name, data_dir, out):
    """A table row's argv, writing to ``out``, and its golden bytes."""
    golden, argv = _FIXTURE_COMMANDS[name]
    return [str(a) for a in argv(data_dir, out)], (data_dir / "golden" / golden).read_bytes()


@pytest.mark.parametrize("name", sorted(_FIXTURE_COMMANDS))
def test_golden_file(data_dir, tmp_path, name):
    argv, golden = _fixture(name, data_dir, tmp_path / "out")
    assert main(argv) == 0
    assert (tmp_path / "out").read_bytes() == golden


# The string hash seed, fixed when an interpreter starts, orders sets of
# strings; it must not change a byte.  -W error fails a run on any warning,
# such as the one Python 3.12+ gives when --jobs forks a process with threads.
@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name", sorted(_FIXTURE_COMMANDS))
def test_golden_file_under_hash_seed(data_dir, tmp_path, name, seed):
    argv, golden = _fixture(name, data_dir, tmp_path / "out")
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "statetrack.cli", *argv],
        env={**_env(), "PYTHONHASHSEED": seed}, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out").read_bytes() == golden


class TestPredict:
    def test_jobs_flag_keeps_order(self, data_dir, tmp_path):
        serial = tmp_path / "serial.tsv"
        parallel = tmp_path / "parallel.tsv"
        assert main(_predict_args(data_dir, serial)) == 0
        assert main(_predict_args(data_dir, parallel, ["--jobs", "2"])) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("count", [0, 1])
    def test_jobs_with_fewer_procedures_than_workers(self, data_dir, tmp_path, count):
        corpus = tmp_path / "corpus.json"
        procedures = json.loads((data_dir / "corpus_predict.json").read_text())
        corpus.write_text(json.dumps(procedures[:count]))
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"pred{jobs}.tsv"
            args = _predict_args(data_dir, out, ["--jobs", jobs])
            args[2] = str(corpus)
            assert main(args) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("count, forks", [(1, 0), (2, 1)])
    def test_jobs_are_capped_at_the_procedure_count(self, data_dir, tmp_path, monkeypatch,
                                                    count, forks):
        # The parent runs the first slice and forks one child per other
        # slice, so --jobs 5000 must fork no more children than there are
        # procedures after the first; one procedure runs in process.
        made = []
        fork = os.fork

        def counting_fork():
            made.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        corpus = tmp_path / "corpus.json"
        procedures = json.loads((data_dir / "corpus_predict.json").read_text())
        corpus.write_text(json.dumps(procedures[:count]))
        outputs = []
        for jobs in ("1", "5000"):
            out = tmp_path / f"pred{jobs}.tsv"
            args = _predict_args(data_dir, out, ["--jobs", jobs])
            args[2] = str(corpus)
            assert main(args) == 0
            outputs.append(out.read_bytes())
        assert len(made) == forks
        assert outputs[1] == outputs[0]

    def test_run_settings_reach_every_slice(self, data_dir, tmp_path):
        # Five procedures, the fixtures twice and rock-1; the last two are in
        # a child's slice under --jobs 2 and 3.  rock-1 destroys its rock in
        # the valley, then again in the cave: by default the second destroy
        # becomes a move (the row enters "cave" from "-", exported as CREATE),
        # --strict-destroy drops it, and --rules-off destroy_affected drops both.
        procedures = json.loads((data_dir / "corpus_predict.json").read_text())
        procedures += [dict(proc, id=proc["id"].replace("-1", "-2")) for proc in procedures]
        parses = tmp_path / "parses"
        parses.mkdir()
        for proc in procedures:
            source = data_dir / "parses" / f"{proc['id'].replace('-2', '-1')}.trips.json"
            (parses / f"{proc['id']}.trips.json").write_bytes(source.read_bytes())
        steps, sentences = [], []
        for index, place in ((1, "valley"), (2, "cave")):
            text = f"The rock cracks apart in the {place} ."
            steps.append({"index": index, "text": text, "tokens": text.split()})
            nodes = [("V1", "F", "BREAK-OBJECT", "cracks", [2, 3]),
                     ("N1", "THE", "ROCK", "rock", [1, 2]),
                     ("N2", "THE", place.upper(), place, [6, 7])]
            sentences.append({
                "sentence_index": index, "root": "V1",
                "nodes": [dict(zip(("id", "indicator", "type", "word", "span"), n))
                          for n in nodes],
                "edges": [{"src": "V1", "label": "AFFECTED", "dst": "N1"},
                          {"src": "V1", "label": "IN", "dst": "N2"}],
            })
        procedures.append({"id": "rock-1", "steps": steps, "entities": [{"name": "rock"}],
                           "gold_grid": {"rock": ["valley", "-", "-"]}})
        (parses / "rock-1.trips.json").write_text(json.dumps(sentences))
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(procedures))
        off = tmp_path / "off.txt"
        off.write_text("destroy_affected\n")

        def run(extra, jobs="1"):
            out = tmp_path / "pred.tsv"
            assert main(["predict", "--corpus", str(corpus), "--parses", str(parses),
                         "--output", str(out), "--jobs", jobs, *extra]) == 0
            return out.read_text()

        default = run([])
        assert "rock-1\t2\trock\tCREATE\t-\tcave\n" in default
        assert "rock-1\t2\trock\tNONE\t-\t-\n" in run(["--strict-destroy"])
        for extra in (["--strict-destroy"], ["--rules-off", str(off)],
                      ["--strict-destroy", "--rules-off", str(off)]):
            serial = run(extra)
            assert serial != default, extra
            for jobs in ("2", "3"):
                assert run(extra, jobs) == serial, (extra, jobs)

    def test_jobs_without_fork_run_in_process(self, data_dir, tmp_path, monkeypatch):
        # Windows has no os.fork: --jobs N then gives the same bytes in process.
        monkeypatch.delattr(os, "fork")
        argv, golden = _fixture("predict --jobs 2", data_dir, tmp_path / "pred.tsv")
        assert main(argv) == 0
        assert (tmp_path / "pred.tsv").read_bytes() == golden

    def test_config_files_named_by_flag(self, data_dir, tmp_path):
        # Copies of the shipped configuration files, named by --ontology,
        # --classes and --roles, read as the defaults do.
        names = {"--ontology": "ontology.tsv", "--classes": "action_classes.tsv",
                 "--roles": "role_synonyms.tsv"}
        for name in names.values():
            (tmp_path / name).write_bytes((SRC / "statetrack" / "data" / name).read_bytes())
        argv, golden = _fixture("predict", data_dir, tmp_path / "pred.tsv")
        argv += [a for flag, name in names.items() for a in (flag, str(tmp_path / name))]
        assert main(argv) == 0
        assert (tmp_path / "pred.tsv").read_bytes() == golden

    def test_config_dir_environment_changes_no_output(self, data_dir, tmp_path, monkeypatch):
        # A table comes from its flag or from the shipped file; the
        # environment is not read, even when the file it names is malformed.
        (tmp_path / "ontology.tsv").write_text("one column only\n")
        monkeypatch.setenv("STATETRACK_CONFIG_DIR", str(tmp_path))
        argv, golden = _fixture("predict", data_dir, tmp_path / "pred.tsv")
        assert main(argv) == 0
        assert (tmp_path / "pred.tsv").read_bytes() == golden

    def test_empty_corpus_writes_an_empty_file(self, data_dir, tmp_path):
        corpus = tmp_path / "empty.json"
        corpus.write_text("[]")
        out = tmp_path / "pred.tsv"
        args = _predict_args(data_dir, out)
        args[2] = str(corpus)
        assert main(args) == 0
        assert out.read_bytes() == b""
        assert main(["evaluate", "--pred", str(out), "--corpus", str(corpus),
                     "--tier", "sentence", "--output", str(tmp_path / "report.json")]) == 0

    def test_srl_parser_rejected(self, data_dir, tmp_path, cli_fails):
        # predict and abstract read logical-form parses only, so neither
        # takes --parser; build-graph keeps it.
        for command in ("predict", "abstract"):
            argv = _predict_args(data_dir, tmp_path / "x.out", ["--parser", "srl"])
            argv[0] = command
            assert "unrecognized arguments: --parser srl" in cli_fails(argv, 2)

    def test_missing_corpus_is_exit_3(self, data_dir, tmp_path, cli_fails):
        args = _predict_args(data_dir, tmp_path / "x.tsv")
        args[2] = str(tmp_path / "nowhere.json")
        cli_fails(args, 3)

    def test_malformed_corpus_is_exit_4(self, tmp_path, data_dir, cli_fails):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        args = _predict_args(data_dir, tmp_path / "x.tsv")
        args[2] = str(bad)
        cli_fails(args, 4)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, data_dir, tmp_path, jobs, cli_fails):
        argv = _predict_args(data_dir, tmp_path / "x.tsv", ["--jobs", jobs])
        assert "--jobs" in cli_fails(argv, 2)

    def test_duplicate_sentence_index_is_exit_4(self, data_dir, tmp_path, cli_fails):
        corpus, parses = _copy_inputs(data_dir, tmp_path)
        book = parses / "book-1.trips.json"
        graphs = json.loads(book.read_text())
        book.write_text(json.dumps(graphs + graphs[:1]))
        args = ["predict", "--corpus", corpus, "--parses", parses, "--output", tmp_path / "x.tsv"]
        assert "duplicate sentence_index" in cli_fails(args, 4)

    def test_rules_off(self, data_dir, tmp_path):
        override = tmp_path / "off.txt"
        override.write_text("move_affected\n")
        out = tmp_path / "pred.tsv"
        assert main(_predict_args(data_dir, out, ["--rules-off", str(override)])) == 0
        # with the move rule off the book never moves
        line = out.read_text().splitlines()[0]
        assert line.split("\t")[3] == "NONE"


class TestEvaluate:
    def test_perfect_prediction_all_100(self, data_dir, tmp_path):
        pred = tmp_path / "pred.tsv"
        assert main(_predict_args(data_dir, pred)) == 0
        report_path = tmp_path / "report.json"
        code = main([
            "evaluate",
            "--pred", str(pred),
            "--corpus", str(data_dir / "corpus_predict.json"),
            "--parses", str(data_dir / "parses"),
            "--tier", "all",
            "--output", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["sentence"]["cat1"] == 100.0
        assert report["sentence"]["micro_avg"] == 100.0
        assert report["document"]["avg_f1"] == 100.0
        for cat in report["decision"]["categories"].values():
            for key in ("action_acc", "location_acc", "both_acc"):
                assert cat[key] in (None, 100.0)

    def test_seeded_fixture_with_coref(self, data_dir, tmp_path, hand_sheet):
        argv, _ = _fixture("evaluate", data_dir, tmp_path / "report.json")
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["sentence"]["counts"] == hand_sheet["sentence"]["counts"]
        assert report["decision"]["ambiguous_support"] == 3

    def test_decision_tier_alone_gives_the_golden_block(self, data_dir, tmp_path):
        argv, golden = _fixture("evaluate", data_dir, tmp_path / "report.json")
        argv[argv.index("--tier") + 1] = "decision"
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report == {"sentence": None, "document": None,
                          "decision": json.loads(golden)["decision"]}

    def _evaluate_seeded(self, data_dir, pred, out):
        """The seeded run's argv on another prediction file, and the golden report."""
        argv, golden = _fixture("evaluate", data_dir, out)
        argv[argv.index("--pred") + 1] = str(pred)
        return argv, golden

    def test_entity_spelled_in_another_case_scores_as_gold_spelling(self, data_dir, tmp_path):
        # Predictions are keyed by the entity's canonical name, as gold is.
        pred = tmp_path / "pred.tsv"
        seeded = (data_dir / "pred_seeded.tsv").read_text()
        pred.write_text(seeded.replace("\twater\t", "\tWater\t"))
        assert "\tWater\t" in pred.read_text()
        report = tmp_path / "report.json"
        argv, golden = self._evaluate_seeded(data_dir, pred, report)
        assert main(argv) == 0
        assert report.read_bytes() == golden

    def test_two_spellings_of_one_entity_are_exit_4(self, data_dir, tmp_path, cli_fails):
        seeded = (data_dir / "pred_seeded.tsv").read_text()
        water = "".join(line for line in seeded.splitlines(keepends=True) if "\twater\t" in line)
        pred = tmp_path / "pred.tsv"
        pred.write_text(seeded + water.replace("\twater\t", "\tThe Water\t"))
        argv, _ = self._evaluate_seeded(data_dir, pred, tmp_path / "report.json")
        assert f"{pred}: procedure p1: entities 'water' and 'The Water'" in cli_fails(argv, 4)

    def test_non_integer_step_is_exit_4(self, data_dir, tmp_path, cli_fails):
        lines = (data_dir / "pred_seeded.tsv").read_text().splitlines()
        cols = lines[1].split("\t")
        cols[1] = "x"
        lines[1] = "\t".join(cols)
        pred = tmp_path / "pred.tsv"
        pred.write_text("\n".join(lines) + "\n")
        argv = ["evaluate", "--pred", pred, "--corpus", data_dir / "corpus_small.json",
                "--tier", "sentence"]
        assert f"{pred}:2: expected an integer, got 'x'" in cli_fails(argv, 4)

    def test_huge_step_is_exit_4(self, data_dir, tmp_path, cli_fails):
        # Steps are checked by count and least value, so a row at step 3e18
        # asks for no list of 3e18 steps.
        pred = tmp_path / "pred.tsv"
        pred.write_text("p1\t3000000000000000000\twater\tNONE\troot\troot\n")
        argv = ["evaluate", "--pred", pred, "--corpus", data_dir / "corpus_small.json",
                "--tier", "sentence", "--output", tmp_path / "report.json"]
        message = cli_fails(argv, 4)
        assert message.startswith(f"{pred}: p1/water: expected 3000000000000000001 cells")

    @pytest.mark.parametrize("tier", ["all", "sentence"])
    def test_procedure_with_no_entities_needs_no_predictions(self, data_dir, tmp_path, tier):
        # predict writes no rows for a procedure with no entities, and the
        # report is that of the corpus without it.
        corpus, parses = _copy_inputs(data_dir, tmp_path)
        procedures = json.loads(corpus.read_text())
        empty = dict(procedures[0], id="empty-1", entities=[], gold_grid={})
        corpus.write_text(json.dumps([*procedures, empty]))
        (parses / "empty-1.trips.json").write_bytes(
            (parses / f"{procedures[0]['id']}.trips.json").read_bytes())
        pred = tmp_path / "pred.tsv"
        assert main(["predict", "--corpus", str(corpus), "--parses", str(parses),
                     "--output", str(pred)]) == 0
        assert pred.read_bytes() == (data_dir / "golden" / "predictions.tsv").read_bytes()
        reports = []
        for gold in (corpus, data_dir / "corpus_predict.json"):
            out = tmp_path / f"report{len(reports)}.json"
            assert main(["evaluate", "--pred", str(pred), "--corpus", str(gold),
                         "--parses", str(parses), "--tier", tier, "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_decision_tier_requires_parses(self, tmp_path, cli_fails):
        # Checked before any file is read: neither file exists, and the
        # usage error comes first, not exit 3.
        for tier in ("decision", "all"):
            assert cli_fails(["evaluate", "--pred", tmp_path / "pred.tsv",
                              "--corpus", tmp_path / "corpus.json", "--tier", tier], 2) == (
                "the decision tier needs --parses for mention and ambiguity checks"
            )

    @pytest.mark.parametrize("target", ["--pred", "grids.tsv"])
    def test_action_that_its_locations_do_not_give_is_exit_4(self, data_dir, tmp_path, cli_fails,
                                                              target):
        # Line 1 of the seeded predictions moves water from soil to root.
        lines = (data_dir / "pred_seeded.tsv").read_text().splitlines(keepends=True)
        assert lines[0] == "p1\t1\twater\tMOVE\tsoil\troot\n"
        lines[0] = lines[0].replace("MOVE", "CREATE")
        argv, _ = _fixture("evaluate", data_dir, tmp_path / "report.json")
        if target == "--pred":
            path = tmp_path / "pred.tsv"
            argv[argv.index("--pred") + 1] = str(path)
        else:  # the same lines as the grids of a propara-tsv corpus
            path = tmp_path / "propara" / "grids.tsv"
            path.parent.mkdir()
            procedures = json.loads((data_dir / "corpus_small.json").read_text())
            write_paragraphs_tsv(path.parent / "paragraphs.tsv", procedures)
            i = argv.index("--corpus")
            argv[i:i + 2] = ["--corpus", str(path.parent), "--corpus-format", "propara-tsv",
                             "--tier", "sentence"]
        path.write_text("".join(lines))
        assert cli_fails(argv, 4) == f"{path}:1: action CREATE, but 'soil' to 'root' is MOVE"

    @pytest.mark.parametrize("target", ["--pred", "--corpus"])
    def test_blank_location_is_exit_4(self, data_dir, tmp_path, cli_fails, target):
        # Scored, a blank cell was a place named "".
        argv, _ = _fixture("evaluate", data_dir, tmp_path / "report.json")
        path = tmp_path / "input"
        if target == "--pred":
            path.write_text((data_dir / "pred_seeded.tsv").read_text().replace(
                "p1\t1\twater\tMOVE\tsoil\t", "p1\t1\twater\tMOVE\t  \t", 1))
            message = f"{path}:1: location empty after normalization"
        else:
            procedures = json.loads((data_dir / "corpus_small.json").read_text())
            procedures[0]["gold_grid"]["water"][1] = "  "
            path.write_text(json.dumps(procedures))
            message = f"{path}: procedure p1: entity 'water': cell 1 empty after normalization"
        argv[argv.index(target) + 1] = str(path)
        assert cli_fails(argv, 4) == message

    def test_roles_is_a_usage_error(self, data_dir, tmp_path, cli_fails):
        # No tier reads role synonyms, so evaluate takes no --roles file.
        argv = ["evaluate", "--pred", data_dir / "pred_seeded.tsv",
                "--corpus", data_dir / "corpus_small.json", "--roles", tmp_path / "roles.tsv"]
        assert "unrecognized arguments: --roles" in cli_fails(argv, 2)

    def test_duplicate_tsv_entity_is_exit_4(self, data_dir, tmp_path, cli_fails):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "paragraphs.tsv").write_text("7\t1\tWater falls .\n")
        grid = "7\t1\tWater\tMOVE\tsky\tsoil\n7\t1\twater\tMOVE\tsky\tsoil\n"
        (corpus / "grids.tsv").write_text(grid)
        pred = tmp_path / "pred.tsv"
        pred.write_text("7\t1\twater\tMOVE\tsky\tsoil\n")
        argv = ["evaluate", "--pred", pred, "--corpus", corpus, "--corpus-format", "propara-tsv",
                "--tier", "sentence"]
        assert f"{corpus / 'grids.tsv'}: paragraph 7: duplicate entity 'water'" in (
            cli_fails(argv, 4)
        )

    def test_table_format(self, data_dir, tmp_path, capsys):
        # The table row without --output prints its golden table to stdout.
        argv, golden = _fixture("evaluate --format table", data_dir, tmp_path / "report.txt")
        i = argv.index("--output")
        assert main(argv[:i] + argv[i + 2:]) == 0
        assert capsys.readouterr().out.encode() == golden


class TestDeterminism:
    def test_predict_and_evaluate_twice_byte_identical(self, data_dir, tmp_path):
        outputs = []
        for run in ("a", "b"):
            pred = tmp_path / f"pred-{run}.tsv"
            report = tmp_path / f"report-{run}.json"
            assert main(_predict_args(data_dir, pred)) == 0
            assert main([
                "evaluate",
                "--pred", str(pred),
                "--corpus", str(data_dir / "corpus_predict.json"),
                "--parses", str(data_dir / "parses"),
                "--tier", "all",
                "--output", str(report),
            ]) == 0
            outputs.append(pred.read_bytes() + report.read_bytes())
        assert outputs[0] == outputs[1]


class TestOtherCommands:
    @pytest.mark.parametrize("command", ["abstract", "build-graph"])
    def test_format_is_a_usage_error(self, data_dir, tmp_path, cli_fails, command):
        # Both write JSON only, so neither takes --format.
        argv = _predict_args(data_dir, tmp_path / "x.json", ["--format", "json"])
        argv[0] = command
        assert "unrecognized arguments: --format json" in cli_fails(argv, 2)

    def test_abstract(self, data_dir, tmp_path):
        argv, _ = _fixture("abstract", data_dir, tmp_path / "events.json")
        assert main(argv) == 0
        events = json.loads((tmp_path / "events.json").read_text())
        book_step = next(e for e in events if e["procedure"] == "book-1")
        assert book_step["frames"][0]["class"] == "MOVE"
        assert book_step["passive"] == [{"step": 1, "holder": "book", "location": "shelf"}]

    def test_build_graph_deterministic(self, data_dir, tmp_path):
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"graph-{run}.json"
            code = main([
                "build-graph",
                "--corpus", str(data_dir / "corpus_predict.json"),
                "--parses", str(data_dir / "parses"),
                "--parser", "trips",
                "--output", str(out),
            ])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        graphs = json.loads(blobs[0])
        assert {g["procedure"] for g in graphs} == {"book-1", "erosion-1"}

    def test_build_graph_srl(self, data_dir, tmp_path):
        argv, _ = _fixture("build-graph --parser srl", data_dir, tmp_path / "srl-graph.json")
        assert main(argv) == 0
        graphs = json.loads((tmp_path / "srl-graph.json").read_text())
        book = next(g for g in graphs if g["procedure"] == "book-1")
        kinds = {n["text"]: n["kind"] for n in book["graph"]["nodes"]}
        assert kinds["Move"] == "predicate"
        assert kinds["the book"] == "entity_mention"
        # three args of one frame: 3 pred-arg plus 3 arg-arg edges
        assert len(book["graph"]["edges"]) == 6

    def test_build_graph_qa_extension(self, data_dir, tmp_path):
        out = tmp_path / "qa.json"
        code = main([
            "build-graph",
            "--corpus", str(data_dir / "corpus_predict.json"),
            "--parses", str(data_dir / "parses"),
            "--qa-entity", "book",
            "--output", str(out),
        ])
        assert code == 0
        graphs = json.loads(out.read_text())
        assert [g["entity"] for g in graphs] == ["book"]
        kinds = {n["kind"] for n in graphs[0]["graph"]["nodes"]}
        assert "question" in kinds and "step" in kinds

    def test_cli_import_does_not_load_numpy(self):
        assert not _loaded_by_cli_import("numpy")

    def test_cli_import_does_not_load_multiprocessing(self):
        assert not _loaded_by_cli_import("multiprocessing")

    # predict --jobs forks its own children, so no run loads a process pool,
    # and only a run that forks loads pickle.
    @pytest.mark.parametrize("jobs, loaded", [("1", []), ("2", ["pickle"])])
    def test_predict_loads_pickle_only_when_it_forks(self, data_dir, tmp_path, jobs, loaded):
        argv = _predict_args(data_dir, tmp_path / "pred.tsv", ["--jobs", jobs])
        modules = ("pickle", "multiprocessing", "concurrent.futures")
        assert _loaded_by_cli_import(*modules, argv=argv) == loaded

    def test_cli_import_loads_no_command_module(self):
        assert not _loaded_by_cli_import("statetrack.metrics", "statetrack.semgraph",
                                         "statetrack.reasoning", "statetrack.rules")

    def test_predict_loads_neither_metrics_nor_semgraph(self, data_dir, tmp_path):
        argv = _predict_args(data_dir, tmp_path / "pred.tsv")
        assert not _loaded_by_cli_import("statetrack.metrics", "statetrack.semgraph", argv=argv)

    def test_build_graph_loads_neither_metrics_nor_reasoning(self, data_dir, tmp_path):
        argv = ["build-graph", "--corpus", data_dir / "corpus_predict.json",
                "--parses", data_dir / "parses", "--output", tmp_path / "graphs.json"]
        assert not _loaded_by_cli_import("statetrack.metrics", "statetrack.reasoning", argv=argv)

    # Records are named tuples and slotted classes, so no command but
    # gat-check loads dataclasses, nor the inspect module it imports.
    @pytest.mark.parametrize("command", sorted(_FIXTURE_COMMANDS))
    def test_command_loads_no_dataclass_machinery(self, data_dir, tmp_path, command):
        argv, _ = _fixture(command, data_dir, tmp_path / "out")
        assert not _loaded_by_cli_import("dataclasses", "inspect", argv=argv)

    # No library module imports logging; its one notice is printed to stderr.
    @pytest.mark.parametrize("command", sorted(_FIXTURE_COMMANDS))
    def test_command_loads_no_logging(self, data_dir, tmp_path, command):
        argv, _ = _fixture(command, data_dir, tmp_path / "out")
        assert not _loaded_by_cli_import("logging", argv=argv)

    def test_build_graph_names_an_unlinked_qa_entity_on_stderr(self, data_dir, tmp_path):
        # Of water, magma and rock, no node of the fixture corpus mentions
        # rock: its question node is left unconnected, and exactly this line
        # says so.
        argv, _ = _fixture("build-graph --qa-entity", data_dir, tmp_path / "graphs.json")
        result = subprocess.run([sys.executable, "-m", "statetrack.cli", *argv],
                                env=_env(), capture_output=True, timeout=60)
        assert result.returncode == 0
        assert result.stderr == (
            b"entity 'rock' has no node in the graph; question node left unconnected\n"
        )

    def test_benchmark_setup_loads_no_dataclass_machinery(self):
        # The set-up probe of bench/run.py (SETUP_CODE): the CLI import plus
        # the three default configuration files.
        code = (
            "from statetrack.abstraction import default_role_synonyms\n"
            "from statetrack.parses import default_class_map, default_ontology\n"
            "default_ontology(); default_class_map(); default_role_synonyms()\n"
        )
        assert not _loaded_by_cli_import("dataclasses", "inspect", code=code)

    def test_gat_check(self, capsys):
        assert main(["gat-check", "--seed", "1", "--rounds", "5"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_gat_check_failed_invariant_is_exit_1(self, capsys, monkeypatch):
        from statetrack import gat

        monkeypatch.setattr(gat, "check_invariants", lambda seed, rounds: ["round 0: broken"])
        assert main(["gat-check", "--rounds", "1"]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL round 0: broken"
        ]


def _copy_inputs(data_dir, tmp_path):
    """A writable copy of the predict corpus and the parse directory."""
    corpus = tmp_path / "corpus.json"
    corpus.write_bytes((data_dir / "corpus_predict.json").read_bytes())
    parses = tmp_path / "parses"
    parses.mkdir()
    for src in (data_dir / "parses").iterdir():
        (parses / src.name).write_bytes(src.read_bytes())
    return corpus, parses


def _break_corpus(edit):
    def apply(corpus, parses):
        procedures = json.loads(corpus.read_text())
        edit(procedures[-1])
        corpus.write_text(json.dumps(procedures))
        return corpus
    return apply


def _break_parse(name, edit):
    def apply(corpus, parses):
        path = parses / name
        sentences = json.loads(path.read_text())
        edit(sentences[-1])
        path.write_text(json.dumps(sentences))
        return path
    return apply


def _set_first_node_id(value):
    """Give the first node a new id, in its edges and the root too."""
    def edit(sentence):
        old = sentence["nodes"][0]["id"]
        sentence["nodes"][0]["id"] = value
        for edge in sentence["edges"]:
            for end in ("src", "dst"):
                if edge[end] == old:
                    edge[end] = value
        if sentence.get("root") == old:
            sentence["root"] = value
    return edit


def _six_procedures(data_dir, tmp_path):
    """The predict corpus three times over, each copy renamed, with its
    parses: six procedures, so --jobs 2 and 3 give the parent and each child
    a slice of two or three."""
    procedures = json.loads((data_dir / "corpus_predict.json").read_text())
    parses = tmp_path / "parses"
    parses.mkdir()
    corpus = []
    for k in range(3):
        for proc in procedures:
            renamed = dict(proc, id=f"{proc['id']}-{k}")
            corpus.append(renamed)
            (parses / f"{renamed['id']}.trips.json").write_bytes(
                (data_dir / "parses" / f"{proc['id']}.trips.json").read_bytes())
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    return path, parses, [proc["id"] for proc in corpus]


_BREAK_PARSE = {
    "missing": lambda path: path.unlink(),
    "malformed": lambda path: path.write_text("{not json"),
}


@pytest.mark.parametrize("first, second", [("missing", "malformed"), ("malformed", "missing")])
def test_jobs_report_the_first_failing_procedure(data_dir, tmp_path, cli_fails, first, second):
    # Procedure 3 fails in the child's slice under --jobs 2 and 3, and
    # procedure 5, later in input order, fails another way: every --jobs
    # gives the error of procedure 3, as --jobs 1 does, and no output.
    corpus, parses, ids = _six_procedures(data_dir, tmp_path)
    _BREAK_PARSE[first](parses / f"{ids[3]}.trips.json")
    _BREAK_PARSE[second](parses / f"{ids[5]}.trips.json")
    messages = [
        cli_fails(["predict", "--corpus", corpus, "--parses", parses, "--jobs", jobs,
                   "--output", tmp_path / "pred.tsv"], {"missing": 3, "malformed": 4}[first])
        for jobs in ("1", "2", "3")
    ]
    assert ids[3] in messages[0]
    assert messages[1] == messages[2] == messages[0]


@pytest.mark.parametrize("missing", ["book-1", "erosion-1"])
@pytest.mark.parametrize("reverse", [False, True], ids=["corpus-order", "reversed"])
def test_evaluate_reports_the_first_failing_procedure_in_corpus_order(
    data_dir, tmp_path, cli_fails, missing, reverse
):
    """One procedure's parse file is missing (exit 3) and the other's has a
    node span outside its sentence (exit 4): the decision tier reads one
    procedure's parses at a time, in corpus order, so it reports the first
    of the two in corpus order, with predict's exit code and message."""
    corpus, parses = _copy_inputs(data_dir, tmp_path)
    procedures = json.loads(corpus.read_text())[:: -1 if reverse else 1]
    corpus.write_text(json.dumps(procedures))
    ids = [proc["id"] for proc in procedures]
    (parses / f"{missing}.trips.json").unlink()
    path = parses / f"{next(pid for pid in ids if pid != missing)}.trips.json"
    sentences = json.loads(path.read_text())
    sentences[0]["nodes"][0]["span"] = [0, 99]
    path.write_text(json.dumps(sentences))
    messages = [
        cli_fails([*command, "--corpus", corpus, "--parses", parses, "--output", tmp_path / "out"],
                  3 if ids[0] == missing else 4)
        for command in (["predict"],
                        ["evaluate", "--pred", data_dir / "golden" / "predictions.tsv"])
    ]
    assert ids[0] in messages[0]
    assert messages[1] == messages[0]


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_failure_in_the_parents_slice_leaves_no_child(data_dir, tmp_path, cli_fails, jobs):
    corpus, parses, ids = _six_procedures(data_dir, tmp_path)
    _BREAK_PARSE["malformed"](parses / f"{ids[0]}.trips.json")
    argv = ["predict", "--corpus", corpus, "--parses", parses, "--jobs", jobs,
            "--output", tmp_path / "pred.tsv"]
    assert ids[0] in cli_fails(argv, 4)


@pytest.mark.parametrize("target", ["corpus", "coref", "trips"])
def test_deeply_nested_json_is_exit_4(data_dir, tmp_path, cli_fails, target):
    # json.loads raises RecursionError, not ValueError, past its depth.
    corpus, parses = _copy_inputs(data_dir, tmp_path)
    coref = tmp_path / "coref.json"
    coref.write_text("[]")
    path = {"corpus": corpus, "coref": coref, "trips": parses / "book-1.trips.json"}[target]
    path.write_text("[" * 200_000 + "]" * 200_000)
    argv = ["build-graph", "--corpus", corpus, "--coref", coref, "--parses", parses,
            "--output", tmp_path / "graphs.json"]
    assert f"{path}: invalid JSON: " in cli_fails(argv, 4)


class TestBuildGraphSchemaErrors:
    """Malformed input ends in exit 4 naming the file, and no output file."""

    @pytest.mark.parametrize(
        "parser, breaker",
        [
            ("trips", _break_corpus(lambda p: p["steps"][0].pop("index"))),
            ("trips", _break_corpus(lambda p: p["steps"][0].update(index="x"))),
            ("trips", _break_corpus(lambda p: p["steps"][0].update(text=7))),
            ("trips", _break_corpus(lambda p: p.update(entities=5))),
            ("trips", _break_corpus(lambda p: p["gold_grid"].update(water=3))),
            ("trips", _break_corpus(lambda p: p["entities"][0].update(aliases=[3]))),
            ("trips", _break_parse("erosion-1.trips.json", lambda s: s.update(nodes=5))),
            ("trips", _break_parse("erosion-1.trips.json", lambda s: s.pop("sentence_index"))),
            ("trips", _break_parse("erosion-1.trips.json", lambda s: s["edges"][0].pop("dst"))),
            ("trips", _break_parse("erosion-1.trips.json",
                                   lambda s: s["nodes"][0].update(span=[3]))),
            ("trips", _break_parse("erosion-1.trips.json",
                                   lambda s: s["nodes"][0].update(span=[0, "1"]))),
            ("srl", _break_parse("erosion-1.srl.json", lambda s: s.pop("sentence_index"))),
            ("srl", _break_parse("erosion-1.srl.json",
                                 lambda s: s["frames"][0]["args"][0].update(span=[0, 1, 2]))),
            ("trips", _break_parse("erosion-1.trips.json",
                                   lambda s: s["nodes"][0].update(word=None))),
            ("trips", _break_parse("erosion-1.trips.json",
                                   lambda s: s["nodes"][0].update(type=None))),
            ("trips", _break_parse("erosion-1.trips.json",
                                   lambda s: s["nodes"][0].update(indicator=3))),
            ("srl", _break_parse("erosion-1.srl.json",
                                 lambda s: s["frames"][0]["args"][0].update(role=None))),
            ("srl", _break_parse("erosion-1.srl.json",
                                 lambda s: s["frames"][0]["args"][0].update(text=None))),
            ("srl", _break_parse("erosion-1.srl.json",
                                 lambda s: s["frames"][0]["predicate"].update(text=None))),
            ("trips", _break_parse("erosion-1.trips.json", _set_first_node_id(None))),
            ("trips", _break_parse("erosion-1.trips.json", _set_first_node_id(True))),
            ("trips", _break_parse("erosion-1.trips.json", _set_first_node_id(1.5))),
            ("trips", _break_parse("erosion-1.trips.json",
                                   lambda s: s["edges"][0].update(label=None))),
            ("trips", _break_parse("erosion-1.trips.json",
                                   lambda s: s["edges"][0].update(label=7))),
            ("trips", _break_parse("erosion-1.trips.json",
                                   lambda s: s.update(sentence_index=s["sentence_index"] + 0.5))),
            ("trips", _break_parse("book-1.trips.json", lambda s: s.update(sentence_index=True))),
            ("srl", _break_parse("erosion-1.srl.json",
                                 lambda s: s.update(sentence_index=s["sentence_index"] + 0.5))),
            ("srl", _break_parse("book-1.srl.json", lambda s: s.update(sentence_index=True))),
        ],
        ids=[
            "step-without-index", "non-integer-step-index", "non-string-step-text",
            "entities-not-a-list", "grid-cells-not-a-list", "alias-not-a-string",
            "nodes-not-a-list", "parse-without-sentence-index",
            "edge-without-dst", "span-of-one-integer", "span-with-a-string",
            "srl-without-sentence-index", "srl-span-of-three-integers",
            "null-word", "null-type", "integer-indicator",
            "srl-null-role", "srl-null-argument-text", "srl-null-predicate-text",
            "null-node-id", "boolean-node-id", "float-node-id",
            "null-edge-label", "integer-edge-label", "float-sentence-index",
            "boolean-sentence-index", "srl-float-sentence-index", "srl-boolean-sentence-index",
        ],
    )
    def test_malformed_input_is_exit_4(self, data_dir, tmp_path, cli_fails, parser, breaker):
        corpus, parses = _copy_inputs(data_dir, tmp_path)
        broken = breaker(corpus, parses)
        argv = ["build-graph", "--corpus", corpus, "--parses", parses, "--parser", parser,
                "--output", tmp_path / "graphs.json"]
        assert str(broken) in cli_fails(argv, 4)

    def test_abstract_rejects_a_null_word(self, data_dir, tmp_path, cli_fails):
        corpus, parses = _copy_inputs(data_dir, tmp_path)
        broken = _break_parse("erosion-1.trips.json",
                              lambda s: s["nodes"][0].update(word=None))(corpus, parses)
        argv = ["abstract", "--corpus", corpus, "--parses", parses,
                "--output", tmp_path / "frames.json"]
        assert f"{broken}: sentence 3: node V1: word: expected a string, got None" in (
            cli_fails(argv, 4)
        )

    def test_error_in_last_procedure_leaves_no_output(self, data_dir, tmp_path, cli_fails):
        """The loader accepts the span; building the last graph rejects it,
        after the first procedure's record has been rendered, and the error
        names the procedure."""
        self._check_span_error(data_dir, tmp_path, cli_fails, "trips",
                               lambda s: s["nodes"][0].update(span=[0, 99]),
                               "node V1 span (0, 99)")

    def test_srl_error_in_last_procedure_leaves_no_output(self, data_dir, tmp_path, cli_fails):
        self._check_span_error(data_dir, tmp_path, cli_fails, "srl",
                               lambda s: s["frames"][0]["predicate"].update(span=[50, 51]),
                               "predicate span (50, 51)")

    @staticmethod
    def _check_span_error(data_dir, tmp_path, cli_fails, parser, edit, message):
        corpus, parses = _copy_inputs(data_dir, tmp_path)
        _break_parse(f"erosion-1.{parser}.json", edit)(corpus, parses)
        assert [p["id"] for p in json.loads(corpus.read_text())][-1] == "erosion-1"
        argv = ["build-graph", "--corpus", corpus, "--parses", parses, "--parser", parser,
                "--output", tmp_path / "graphs.json"]
        assert cli_fails(argv, 4) == (
            f"procedure erosion-1: step 3: {message} outside sentence of 8 tokens"
        )


PROPARA_BOOK = (
    "book-1\t1\tMove the book in the shelf to the library .\n",
    "book-1\t1\tbook\tMOVE\tshelf\tlibrary\n",
)


def _probe(data_dir, tmp_path, target):
    """Valid copies of every text input, and the command line that reads
    ``target`` (a flag, or a file of a propara-tsv corpus) from them."""
    config = SRC / "statetrack" / "data"
    files = {
        "--pred": tmp_path / "pred.tsv",
        "--rules-off": tmp_path / "off.txt",
        "--ontology": tmp_path / "ontology.tsv",
        "--classes": tmp_path / "action_classes.tsv",
        "--roles": tmp_path / "role_synonyms.tsv",
        "paragraphs.tsv": tmp_path / "propara" / "paragraphs.tsv",
        "grids.tsv": tmp_path / "propara" / "grids.tsv",
    }
    files["--pred"].write_bytes((data_dir / "golden" / "predictions.tsv").read_bytes())
    files["--rules-off"].write_text("destroy_affected\n")
    for flag in ("--ontology", "--classes", "--roles"):
        files[flag].write_bytes((config / files[flag].name).read_bytes())
    files["paragraphs.tsv"].parent.mkdir()
    files["paragraphs.tsv"].write_text(PROPARA_BOOK[0])
    files["grids.tsv"].write_text(PROPARA_BOOK[1])
    out = str(tmp_path / "out")
    if target == "--pred":
        argv = ["evaluate", "--pred", str(files["--pred"]),
                "--corpus", str(data_dir / "corpus_predict.json"), "--tier", "sentence",
                "--output", out]
    elif target.startswith("--"):
        argv = [*_predict_args(data_dir, out), target, str(files[target])]
    else:
        argv = _predict_args(data_dir, out)
        argv[2:3] = [str(files["paragraphs.tsv"].parent), "--corpus-format", "propara-tsv"]
    return files[target], argv


PROBED_INPUTS = ["--pred", "--rules-off", "--ontology", "--classes", "--roles",
                 "paragraphs.tsv", "grids.tsv"]


class TestUnreadableFiles:
    """Every input is read, and every output written, as UTF-8 through one
    reader and one writer: an input that is a directory exits 3, one that
    is not UTF-8 exits 4, and an output that cannot be written exits 3.
    Each names the file, prints no traceback and leaves no output file."""

    @pytest.mark.parametrize("target", PROBED_INPUTS)
    def test_directory_input_is_exit_3(self, data_dir, tmp_path, cli_fails, target):
        path, argv = _probe(data_dir, tmp_path, target)
        path.unlink()
        path.mkdir()
        assert f"{path}: Is a directory" in cli_fails(argv, 3)

    @pytest.mark.parametrize("target", PROBED_INPUTS)
    def test_non_utf8_input_is_exit_4(self, data_dir, tmp_path, cli_fails, target):
        path, argv = _probe(data_dir, tmp_path, target)
        path.write_bytes(b"caf\xe9\n" + path.read_bytes())
        assert cli_fails(argv, 4).startswith(f"{path}: not UTF-8: ")

    @pytest.mark.parametrize("command", ["predict", "abstract", "build-graph", "evaluate"])
    def test_directory_output_is_exit_3(self, data_dir, tmp_path, cli_fails, command):
        out = tmp_path / "out"
        out.mkdir()
        if command == "evaluate":
            argv = ["evaluate", "--pred", str(data_dir / "golden" / "predictions.tsv"),
                    "--corpus", str(data_dir / "corpus_predict.json"), "--tier", "sentence",
                    "--output", str(out)]
        else:
            argv = [command, *_predict_args(data_dir, out)[1:]]
        assert cli_fails(argv, 3) == f"cannot write {out}: Is a directory"
        assert not any(out.iterdir())

    def test_unpaired_surrogate_in_an_output_is_exit_4(self, data_dir, tmp_path, cli_fails):
        """A JSON ``\\ud800`` escape decodes to text that UTF-8 cannot encode."""
        corpus, parses = _copy_inputs(data_dir, tmp_path)
        book = parses / "book-1.trips.json"
        book.write_text(book.read_text().replace('"word": "library"', '"word": "\\ud800"'))
        out = tmp_path / "pred.tsv"
        message = cli_fails(["predict", "--corpus", corpus, "--parses", parses, "--output", out], 4)
        assert message.startswith(f"cannot write {out}: ") and "surrogates" in message


def test_files_are_utf8_whatever_the_locale(data_dir, tmp_path):
    """Under an ASCII locale, predict and evaluate read and write UTF-8 and
    give the bytes of a UTF-8-mode run, on parses whose locations are not
    ASCII."""
    corpus, parses = _copy_inputs(data_dir, tmp_path)
    for path in (corpus, parses / "book-1.trips.json"):
        path.write_text(path.read_text().replace("library", "café"), encoding="utf-8")
    outputs = {}
    for mode, locale in (("utf8=0", {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}),
                         ("utf8=1", {})):
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "LC_ALL")}
        env.update(locale, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])))
        work = tmp_path / mode
        work.mkdir()
        pred, report = work / "pred.tsv", work / "report.json"
        for argv in (
            ["predict", "--corpus", str(corpus), "--parses", str(parses), "--output", str(pred)],
            ["evaluate", "--pred", str(pred), "--corpus", str(corpus), "--parses", str(parses),
             "--output", str(report)],
        ):
            result = subprocess.run([sys.executable, "-X", mode, "-m", "statetrack.cli", *argv],
                                    env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert "Traceback" not in result.stderr
        outputs[mode] = pred.read_bytes(), report.read_bytes()
    assert outputs["utf8=0"] == outputs["utf8=1"]
    assert "book-1\t1\tbook\tMOVE\tshelf\tcafé\n".encode() in outputs["utf8=0"][0]


@pytest.mark.parametrize("command", ["predict", "build-graph"])
def test_repeated_procedure_id_is_exit_4(data_dir, tmp_path, cli_fails, command):
    corpus, parses = _copy_inputs(data_dir, tmp_path)
    procedures = json.loads(corpus.read_text())
    corpus.write_text(json.dumps(procedures + procedures[:1]))
    argv = [command, "--corpus", corpus, "--parses", parses, "--output", tmp_path / "out"]
    assert cli_fails(argv, 4) == f"{corpus}: duplicate procedure id 'book-1'"


@pytest.mark.parametrize("pid", ["a\tb", "a\nb", "a\rb", "a\u2028b", "ab\x85"])
def test_procedure_id_an_action_file_cannot_hold_is_exit_4(data_dir, tmp_path, cli_fails, pid):
    # predict wrote such an id into its action file, which evaluate then
    # rejected: a tab adds a column, and a line break splits the line.
    corpus, parses = _copy_inputs(data_dir, tmp_path)
    procedures = json.loads(corpus.read_text())
    (parses / f"{procedures[0]['id']}.trips.json").rename(parses / f"{pid}.trips.json")
    procedures[0]["id"] = pid
    corpus.write_text(json.dumps(procedures))
    argv = ["predict", "--corpus", corpus, "--parses", parses, "--output", tmp_path / "out.tsv"]
    assert cli_fails(argv, 4) == f"{corpus}: procedure id {pid!r} holds a tab or line break"


@pytest.mark.parametrize("command", ["predict", "build-graph"])
def test_gold_rows_that_normalize_alike_are_exit_4(tmp_path, cli_fails, command):
    # Both rows key the one entity "water"; the last used to win silently.
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{
        "id": "w1", "steps": [{"index": 1, "text": "Water rises."}], "entities": ["water"],
        "gold_grid": {"water": ["lake", "sky"], "The Water": ["soil", "-"]},
    }]))
    argv = [command, "--corpus", corpus, "--parses", tmp_path, "--output", tmp_path / "out"]
    assert cli_fails(argv, 4) == (
        f"{corpus}: procedure w1: entities 'water' and 'The Water' both normalize to 'water'"
    )


def test_entities_that_share_an_alias_are_exit_4(tmp_path, cli_fails):
    # A mention of "water" used to count for both entities.
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{
        "id": "w1", "steps": [{"index": 1, "text": "Water rises."}],
        "entities": ["water", {"name": "vapor", "aliases": ["steam", "Water"]}],
        "gold_grid": {"water": ["lake", "sky"], "vapor": ["-", "sky"]},
    }]))
    argv = ["predict", "--corpus", corpus, "--parses", tmp_path, "--output", tmp_path / "out"]
    assert cli_fails(argv, 4) == (
        f"{corpus}: procedure w1: entities 'water' and 'vapor' share the alias 'water'"
    )


def test_tsv_entities_that_share_an_alias_are_exit_4(tmp_path, cli_fails):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "paragraphs.tsv").write_text("7\t1\tRain falls .\n")
    (corpus / "grids.tsv").write_text(
        "7\t1\train;water\tMOVE\tsky\tsoil\n7\t1\tsea;Water\tNONE\tbay\tbay\n"
    )
    pred = tmp_path / "pred.tsv"
    pred.write_text("7\t1\train\tMOVE\tsky\tsoil\n7\t1\tsea\tNONE\tbay\tbay\n")
    argv = ["evaluate", "--pred", pred, "--corpus", corpus, "--corpus-format", "propara-tsv",
            "--tier", "sentence"]
    assert cli_fails(argv, 4) == (
        f"{corpus / 'grids.tsv'}: paragraph 7: entities 'rain' and 'sea' share the alias 'water'"
    )


class TestCorefSidecar:
    @staticmethod
    def _run(data_dir, tmp_path, cli_fails, mention, command="predict"):
        """The message of ``command`` on the small corpus with a sidecar of
        one mention in procedure p2."""
        sidecar = tmp_path / "coref.json"
        sidecar.write_text(json.dumps([{"procedure_id": "p2", "mentions": [mention]}]))
        return cli_fails([command, "--corpus", data_dir / "corpus_small.json", "--coref", sidecar,
                          "--parses", data_dir / "parses", "--output", tmp_path / "out"], 4)

    @pytest.mark.parametrize("entity", [None, 5, "magmaa"])
    def test_mention_of_no_entity_is_exit_4(self, data_dir, tmp_path, cli_fails, entity):
        message = self._run(data_dir, tmp_path, cli_fails,
                            {"entity": entity, "step": 2, "span": [0, 1]})
        assert f"{tmp_path / 'coref.json'}: procedure p2: " in message
        assert repr(entity) in message

    @pytest.mark.parametrize("command", ["predict", "build-graph"])
    def test_span_starting_before_the_sentence_is_exit_4(
        self, data_dir, tmp_path, cli_fails, command
    ):
        message = self._run(data_dir, tmp_path, cli_fails,
                            {"entity": "magma", "step": 2, "span": [-3, 1]}, command)
        assert f"{tmp_path / 'coref.json'}: procedure p2: " in message and "(-3, 1)" in message

    @pytest.mark.parametrize("step, span, message", [
        (9, [0, 1], "coref step 9 out of range"),
        pytest.param(2, [0, 99],
                     "step 2: coref mention 'magma' span (0, 99) outside sentence of 6 tokens",
                     id="2-span-outside-sentence"),
    ])
    def test_mention_outside_its_sentence_names_the_procedure(
        self, data_dir, tmp_path, cli_fails, step, span, message
    ):
        assert self._run(data_dir, tmp_path, cli_fails,
                         {"entity": "magma", "step": step, "span": span}) == (
            f"{tmp_path / 'coref.json'}: procedure p2: {message}"
        )


class TestValuesThatSelectNothing:
    """A flag value that would make the command do nothing is a usage error
    (exit 2) naming the value, and no output file is written."""

    def test_unknown_rule_in_rules_off(self, data_dir, tmp_path, cli_fails):
        override = tmp_path / "off.txt"
        override.write_text("move_affected\nmove_afected\n")
        argv = _predict_args(data_dir, tmp_path / "pred.tsv", ["--rules-off", str(override)])
        assert "'move_afected'" in cli_fails(argv, 2)

    def test_qa_entity_that_no_procedure_has(self, data_dir, tmp_path, cli_fails):
        argv = ["build-graph", "--corpus", data_dir / "corpus_predict.json",
                "--parses", data_dir / "parses", "--qa-entity", "book", "--qa-entity", "unicorn",
                "--output", tmp_path / "qa.json"]
        assert "'unicorn'" in cli_fails(argv, 2)

    @pytest.mark.parametrize("rounds", ["0", "-5"])
    def test_gat_check_rounds_below_one(self, cli_fails, rounds):
        assert f"--rounds: must be at least 1, got {rounds}" in (
            cli_fails(["gat-check", "--rounds", rounds], 2)
        )


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["track"], "argument command: invalid choice: 'track'"),
    (["predict", "--corpus", "c.json", "--output", "o.tsv"],
     "the following arguments are required: --parses"),
    (["predict", "--corpus", "c.json", "--parses", "p", "--output", "o.tsv", "--shard", "1"],
     "unrecognized arguments: --shard 1"),
    (["evaluate", "--pred", "p.tsv", "--corpus", "c.json", "--tier", "cell"],
     "argument --tier: invalid choice: 'cell'"),
    (["predict", "--corpus", "c.json", "--parses", "p", "--output", "o.tsv", "--jobs", "0"],
     "argument --jobs: must be at least 1, got 0"),
    (["gat-check", "--rounds", "0"], "argument --rounds: must be at least 1, got 0"),
], ids=["no-command", "unknown-command", "missing-option", "unknown-option", "bad-choice",
        "jobs-0", "rounds-0"])
def test_rejected_command_line_is_one_error_line(cli_fails, argv, message):
    # main returns argparse's rejection as exit 2 with one "error:" line,
    # as it returns every other failure; it raises no SystemExit.
    assert message in cli_fails(argv, 2)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: statetrack predict ")


def test_integer_node_ids_give_the_bytes_of_their_decimal_text(data_dir, tmp_path):
    """Node ids (and edge ends and roots) given as JSON integers load as
    their decimal text: every command writes what the string ids give."""
    outputs = {}
    for form in (int, str):
        work = tmp_path / form.__name__
        work.mkdir()
        corpus, parses = _copy_inputs(data_dir, work)
        for path in parses.glob("*.trips.json"):
            sentences = json.loads(path.read_text())
            for s in sentences:
                ids = {n["id"]: form(k) for k, n in enumerate(s["nodes"], start=1)}
                for n in s["nodes"]:
                    n["id"] = ids[n["id"]]
                for e in s["edges"]:
                    e["src"], e["dst"] = ids[e["src"]], ids[e["dst"]]
                if s.get("root") is not None:
                    s["root"] = ids[s["root"]]
            path.write_text(json.dumps(sentences))
        for command in ("predict", "build-graph", "abstract"):
            out = work / command
            code = main([command, "--corpus", str(corpus), "--parses", str(parses),
                         "--output", str(out)])
            assert code == 0
            outputs[form, command] = out.read_bytes()
    assert '"id": 1,' in (tmp_path / "int" / "parses" / "book-1.trips.json").read_text()
    for command in ("predict", "build-graph", "abstract"):
        assert outputs[int, command] == outputs[str, command]
    assert b'"s1.1"' in outputs[int, "build-graph"]


def _drop_step_2(sentences):
    return [s for s in sentences if s["sentence_index"] != 2]


def _add_sentence_99(sentences):
    return sentences + [dict(sentences[0], sentence_index=99)]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_step_2, "no parse for step(s) [2]"),
        (_add_sentence_99, "no step for parsed sentence(s) [99]"),
    ],
    ids=["missing-step", "sentence-of-no-step"],
)
@pytest.mark.parametrize(
    "kind, command",
    [
        ("trips", ["predict"]),
        ("trips", ["abstract"]),
        ("trips", ["build-graph"]),
        ("srl", ["build-graph", "--parser", "srl"]),
        ("trips", ["evaluate", "--tier", "decision", "--pred", "PRED"]),
    ],
    ids=["predict", "abstract", "build-graph", "build-graph-srl", "evaluate-decision"],
)
def test_parses_must_cover_exactly_the_steps(data_dir, tmp_path, cli_fails, kind, command, edit,
                                             message):
    """Every parse consumer names a step without a parse, and a parsed
    sentence that is not a step, in one wording (exit 4, no output)."""
    corpus, parses = _copy_inputs(data_dir, tmp_path)
    path = parses / f"erosion-1.{kind}.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    argv = [data_dir / "golden" / "predictions.tsv" if a == "PRED" else a for a in command]
    argv += ["--corpus", corpus, "--parses", parses, "--output", tmp_path / "out"]
    assert cli_fails(argv, 4) == f"procedure erosion-1: {message}"


# Sentence 1 of erosion-1 has 9 tokens.  Each span lies outside it: past its
# end, empty, reversed, before its start.
_BAD_SPANS = [[0, 99], [3, 3], [5, 2], [-1, 1]]


def _bad_node(index, **fields):
    def edit(sentence, span):
        sentence["nodes"][index].update(fields, span=span)
        return span
    return edit


# The loader rejects an argument span that overlaps its predicate's before
# any span meets its sentence: the predicate case drops the frame's
# arguments, and the argument case's past-the-end span starts after the
# predicate (1, 2).  Each edit returns the span it wrote.
def _bad_predicate(sentence, span):
    sentence["frames"][0].update(args=[], predicate={"span": span, "text": "flows"})
    return span


def _bad_argument(sentence, span):
    if span == [0, 99]:
        span = [5, 99]
    sentence["frames"][0]["args"][2]["span"] = span
    return span


_SPAN_TARGETS = {
    "node": ("trips", _bad_node(0), "node V1"),
    "wordless-node": ("trips", _bad_node(3, word=""), "node N3"),
    "predicate": ("srl", _bad_predicate, "predicate"),
    "argument": ("srl", _bad_argument, "noun_phrase"),
}


@pytest.mark.parametrize("span", _BAD_SPANS, ids=lambda span: "{}-{}".format(*span))
@pytest.mark.parametrize("target", list(_SPAN_TARGETS))
def test_span_outside_its_sentence_is_one_error_for_every_command(
    data_dir, tmp_path, cli_fails, target, span
):
    """A parse span outside its sentence (a node's, on a node build-graph
    keeps or on one it drops for having no word, or a frame predicate's or
    argument's) is exit 4 with one stderr line and no output from every
    command that reads the parse file."""
    kind, edit, what = _SPAN_TARGETS[target]
    corpus, parses = _copy_inputs(data_dir, tmp_path)
    path = parses / f"erosion-1.{kind}.json"
    sentences = json.loads(path.read_text())
    written = tuple(edit(sentences[0], span))
    path.write_text(json.dumps(sentences))
    if kind == "trips":
        commands = [
            ["predict", "--jobs", "1"], ["predict", "--jobs", "2"], ["abstract"],
            ["evaluate", "--tier", "decision", "--pred",
             str(data_dir / "golden" / "predictions.tsv")],
            ["build-graph"], ["build-graph", "--qa-entity", "rock"],
        ]
    else:
        commands = [["build-graph", "--parser", "srl"]]
    expected = f"procedure erosion-1: step 1: {what} span {written} outside sentence of 9 tokens"
    for command in commands:
        argv = [*command, "--corpus", corpus, "--parses", parses, "--output", tmp_path / "out"]
        assert cli_fails(argv, 4) == expected, command
