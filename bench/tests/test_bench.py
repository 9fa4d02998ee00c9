"""Tests of the benchmark itself: the generator, its self-checks and the
output checks.  Run with ``python3 -m pytest bench/tests``."""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

import check
import run
from gen import WORKLOADS, generate
from layers import STAGES, NullTracer, Tracer, run_pass
from statetrack import corpus, reasoning
from statetrack.parses import load_srl, load_trips

SMALL = {
    "propara_scale": replace(WORKLOADS["propara_scale"], procedures=10),
    "dense_parses": replace(WORKLOADS["dense_parses"], procedures=1),
    "long_grids": replace(WORKLOADS["long_grids"], procedures=1),
}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(tmp_path, name):
    shape = SMALL[name]
    generate(shape, 7, tmp_path / "a", name)
    generate(shape, 7, tmp_path / "b", name)
    generate(shape, 8, tmp_path / "c", name)
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


@pytest.mark.parametrize("name", ["propara_scale", "long_grids"])
def test_seed_changes_the_words_not_the_work(tmp_path, name):
    counts = []
    for seed in (1, 2):
        gen = generate(SMALL[name], seed, tmp_path / str(seed), name)
        found = run_pass(gen, NullTracer(), tmp_path / str(seed))[1]
        del found["semgraph.output_bytes"]  # words differ in length
        counts.append(found)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_files_load_with_the_repo_loaders(tmp_path, name):
    gen = generate(WORKLOADS[name], 3, tmp_path, name)
    procedures = [p for p, _ in corpus.load_procedures(gen.corpus)]
    assert len(procedures) == WORKLOADS[name].procedures
    if gen.coref is not None:
        procedures = corpus.load_coref(gen.coref, procedures)
        assert any(e.coref_mentions for p in procedures for e in p.entities)
    for proc in procedures:
        assert len(load_trips(gen.parses / f"{proc.id}.trips.json")) == proc.num_steps
        assert len(load_srl(gen.parses / f"{proc.id}.srl.json")) == proc.num_steps
        names = [e.canonical_name for e in proc.entities]
        assert gen.qa_entities[0] in names


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_rule_fires_and_predictions_differ_from_gold(tmp_path, name):
    gen = generate(SMALL[name], 5, tmp_path, name)
    _, counts = run_pass(gen, NullTracer(), tmp_path)
    assert run.self_check(counts) == []


def test_traced_predict_times_the_library_stages(tmp_path, monkeypatch):
    calls = []
    library_predict = reasoning.predict
    monkeypatch.setattr(reasoning, "predict", lambda *a, **k: calls.append(1) or
                        library_predict(*a, **k))
    originals = {name: getattr(reasoning, name) for name in STAGES}
    gen = generate(SMALL["long_grids"], 5, tmp_path, "long_grids")
    tracer = Tracer()
    run_pass(gen, tracer, tmp_path)
    assert len(calls) == SMALL["long_grids"].procedures
    assert {name: getattr(reasoning, name) for name in STAGES} == originals
    parents = {
        name: {tracer.spans[p][0] for n, _, _, p in tracer.spans if n == name and p is not None}
        for name in ("reasoning.fix_actions", "reasoning.resolve_locations", "rules.apply_rules")
    }
    assert all(found == {"reasoning.predict"} for found in parents.values()), parents


@pytest.fixture
def predicted(tmp_path):
    """A small corpus whose predict output has been produced by the CLI."""
    gen = generate(SMALL["propara_scale"], 1, tmp_path, "propara_scale")
    checker = run.Checker(gen, "unrecorded", 1)
    argv = run.commands(gen)["predict"]
    assert run.run_cli(tmp_path, checker, "predict", argv).returncode == 0
    checker.validate(tmp_path)
    assert (checker.attempted, checker.failed) == (1, 0), checker.problems
    return gen, checker, tmp_path / "predict.tsv"


def test_corrupted_output_is_a_failure(predicted):
    gen, checker, path = predicted
    rows = path.read_text().split("\n")
    fields = rows[0].split("\t")
    fields[3] = "MOVE" if fields[3] == "NONE" else "NONE"
    rows[0] = "\t".join(fields)
    path.write_text("\n".join(rows))
    checker.validate(path.parent)
    assert checker.failed == 1
    assert "action disagrees" in checker.problems[0]


def test_changed_digest_is_a_failure(predicted):
    gen, checker, path = predicted
    checker.outcome("predict_jobs2", None, check.sha256(path.read_bytes() + b"\n"))
    assert checker.failed == 1
    assert "digest" in checker.problems[0]


@pytest.mark.parametrize("command", ["abstract", "evaluate", "build_graph", "build_graph_qa"])
def test_truncated_json_output_is_a_failure(command):
    assert check.validate(command, b'[{"procedure": "p0000"', [], ("water",))


def test_missing_program_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "dense_parses", "--seconds", "1"]) == 2
