"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints
one PASS line (run with -s to see them).  The external-dataset statistics
check is skipped, with a message, when the dataset is not present.
"""

import ast
import copy
import json
import math
import os
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from genutil import random_timeline
from statetrack.cli import main
from statetrack.corpus import (
    Action,
    StepAction,
    grids_from_action_tsv,
    load_coref,
    load_procedures,
)
from statetrack.gat import (
    DenseLayerParams,
    FeatureGraph,
    attention_coefficients,
    check_invariants,
    layer_forward,
)
from statetrack.metrics import (
    categorize_decisions,
    eval_decision_level,
    eval_document_level,
    eval_sentence_level,
)
from statetrack.parses import default_class_map, default_ontology, load_trips
from statetrack.reasoning import EntityTimeline, fix_actions, resolve_locations
from statetrack.rules import RULE_NAMES, LocalDecision
from test_reasoning import (
    ENTITY,
    _acts,
    _assert_sequence_invariants,
    _exported_actions,
    _timeline,
)

PROPARA_ENV = "STATETRACK_PROPARA_DIR"


def _ok(name, extra=""):
    print(f"ACCEPTANCE PASS: {name}{f' ({extra})' if extra else ''}")


def test_global_reasoning_rule_suite():
    """Every rewrite rule of the two forward passes, forced unit cases."""
    start = time.perf_counter()

    def fixed(pairs, **kw):
        slots = {
            t: [LocalDecision(ENTITY, a, "t", f"V{t}")] for t, a in pairs.items()
        }
        return fix_actions(EntityTimeline(max(pairs), slots, []), **kw)

    create = lambda loc: StepAction(Action.CREATE, to_loc=loc)
    destroy = lambda loc: StepAction(Action.DESTROY, from_loc=loc)

    out = fixed({1: create("pond"), 2: create("pond")})
    assert [a.action for a in out] == [Action.CREATE, Action.NONE]
    out = fixed({1: create("pond"), 2: create("lake")})
    assert [a.action for a in out] == [Action.CREATE, Action.MOVE]
    assert out[1].to_loc == "lake"
    out = fixed({1: destroy("soil"), 2: destroy("mud")})
    assert [a.action for a in out] == [Action.DESTROY, Action.MOVE]
    assert out[1].to_loc == "mud"
    out = fixed({1: destroy("soil"), 2: destroy("soil")})
    assert [a.action for a in out] == [Action.DESTROY, Action.NONE]
    out = fixed({1: destroy("soil"), 2: destroy("mud")}, strict_destroy=True)
    assert [a.action for a in out] == [Action.DESTROY, Action.NONE]

    row = resolve_locations(
        _acts((Action.NONE, None, None), (Action.MOVE, None, None),
              (Action.DESTROY, "riverbed", None)),
        _timeline({}, m=3),
    )
    assert row[2] == "riverbed"
    row = resolve_locations(
        _acts((Action.NONE, None, None), (Action.DESTROY, "magma chamber", None)),
        _timeline({}, m=2),
    )
    assert row[0] == "magma chamber"
    row = resolve_locations(_acts((Action.MOVE, None, None)), _timeline({}, m=1))
    assert row == ["?", "?"]
    assert _exported_actions(row) == ["NONE"]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok("global-reasoning rule suite", f"{elapsed:.3f}s")


def test_consistency_property_1000_timelines():
    """Fixed output invariants on 1,000 random local-decision timelines."""
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(1000):
        timeline = random_timeline(rng, max_steps=10)
        fixed = fix_actions(timeline)

        refix_slots = {
            t: [LocalDecision(ENTITY, a, "re", f"V{t}")]
            for t, a in enumerate(fixed, start=1)
            if a.action is not Action.NONE
        }
        refixed = fix_actions(EntityTimeline(timeline.num_steps, refix_slots, []))
        assert refixed == fixed, "fix_actions not idempotent"

        row = resolve_locations(fixed, timeline)
        assert len(row) == timeline.num_steps + 1
        _assert_sequence_invariants(row, _exported_actions(row))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok("consistency property on 1000 random timelines", f"{elapsed:.2f}s")


def test_metric_oracle_equivalence(data_dir):
    """All three tiers reproduce the hand-computed sheets; perfect input
    scores exactly 100 everywhere."""
    sheet = json.loads((data_dir / "hand_sheet.json").read_text())
    pairs = load_procedures(data_dir / "corpus_small.json")
    procedures = load_coref(data_dir / "coref_small.json", [p for p, _ in pairs])
    gold = {g.procedure_id: g for _, g in pairs}
    pred = grids_from_action_tsv(data_dir / "pred_seeded.tsv")
    parses = {
        pid: load_trips(data_dir / "parses" / f"{pid}.trips.json")
        for pid in ("p1", "p2", "p3")
    }
    ontology, class_map = default_ontology(), default_class_map()

    sent = eval_sentence_level(pred, gold)
    assert {k: list(v) for k, v in sent.counts.items()} == sheet["sentence"]["counts"]
    for key in ("cat1", "cat2", "cat3", "macro_avg", "micro_avg"):
        assert getattr(sent, key) == pytest.approx(sheet["sentence"][key], abs=1e-9)

    doc = eval_document_level(pred, gold)
    for name, want in sheet["document"]["criteria"].items():
        got = doc.criteria[name]
        assert (got.predicted, got.gold, got.matched) == (
            want["predicted"], want["gold"], want["matched"],
        )
        for field in ("precision", "recall", "f1"):
            assert getattr(got, field) == pytest.approx(want[field], abs=1e-9)
    assert doc.avg_f1 == pytest.approx(sheet["document"]["avg_f1"], abs=1e-9)

    categories = categorize_decisions(gold, procedures, parses, ontology, class_map)
    dec = eval_decision_level(pred, gold, categories)
    for name, want in sheet["decision"]["categories"].items():
        got = dec.categories[name]
        assert got.action_support == want["action_support"]
        assert got.location_support == want["location_support"]
        for field in ("action_acc", "location_acc", "both_acc"):
            if want[field] is None:
                assert getattr(got, field) is None
            else:
                assert getattr(got, field) == pytest.approx(want[field], abs=1e-9)
    assert dec.ambiguous_support == sheet["decision"]["ambiguous_support"]
    assert dec.ambiguous_action_acc == pytest.approx(
        sheet["decision"]["ambiguous_action_acc"], abs=1e-9
    )

    perfect = eval_sentence_level(copy.deepcopy(gold), gold)
    assert (perfect.cat1, perfect.cat2, perfect.cat3) == (100.0, 100.0, 100.0)
    assert (perfect.macro_avg, perfect.micro_avg) == (100.0, 100.0)
    perfect_doc = eval_document_level(copy.deepcopy(gold), gold)
    assert perfect_doc.avg_f1 == 100.0
    perfect_dec = eval_decision_level(copy.deepcopy(gold), gold, categories)
    for cat in perfect_dec.categories.values():
        assert cat.action_acc in (None, 100.0)
        assert cat.location_acc in (None, 100.0)
    _ok("metric oracle equivalence on the seeded fixture")


def test_gat_reference_suite():
    """Attention rows sum to 1 within 1e-12; structural properties hold on
    100 random graphs; the two hand-computed cases match within 1e-9."""
    start = time.perf_counter()
    assert check_invariants(seed=7, rounds=100) == []

    scalar = DenseLayerParams(w1=[[1.0]], w2=[[1.0]], w3=[[1.0]], w4=[[1.0]], w6=[[0.0]], d=1)
    graph = FeatureGraph(
        np.array([[1.0], [0.0], [math.log(3.0)]]),
        [[1, 2], [], []],
        {(0, 1): np.array([0.0]), (0, 2): np.array([0.0])},
    )
    alpha = attention_coefficients(graph, scalar, 0)
    assert abs(alpha[0] - 0.25) <= 1e-9 and abs(alpha[1] - 0.75) <= 1e-9

    path_graph = FeatureGraph(
        np.array([[1.0], [2.0]]),
        [[1], [0]],
        {(0, 1): np.array([0.0]), (1, 0): np.array([0.0])},
    )
    out = layer_forward(path_graph, scalar)
    assert abs(out[0, 0] - 3.0) <= 1e-9 and abs(out[1, 0] - 3.0) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok("attention-layer reference", f"{elapsed:.2f}s")


def test_decision_category_statistics_external():
    """Category supports on the external test split, within 10% each.

    Needs STATETRACK_PROPARA_DIR pointing at a directory with corpus.json,
    optional coref.json, and parses/<id>.trips.json files; waived otherwise.
    """
    root = os.environ.get(PROPARA_ENV)
    if not root:
        pytest.skip(
            f"external dataset not available ({PROPARA_ENV} unset); criterion waived"
        )
    root = Path(root)
    pairs = load_procedures(root / "corpus.json")
    procedures = [p for p, _ in pairs]
    if (root / "coref.json").exists():
        procedures = load_coref(root / "coref.json", procedures)
    gold = {g.procedure_id: g for _, g in pairs}
    parses = {
        p.id: load_trips(root / "parses" / f"{p.id}.trips.json") for p in procedures
    }
    categories = categorize_decisions(
        gold, procedures, parses, default_ontology(), default_class_map()
    )
    dec = eval_decision_level(copy.deepcopy(gold), gold, categories)
    expected = {
        ("local", "action_support"): 105,
        ("global_loc", "action_support"): 61,
        ("global_ent", "action_support"): 98,
        ("global_ent", "location_support"): 71,
        ("global_loc_and_ent", "action_support"): 18,
    }
    for (name, field), want in expected.items():
        got = getattr(dec.categories[name], field)
        assert abs(got - want) <= 0.10 * want, f"{name}.{field}: {got} vs {want}"
    assert abs(dec.ambiguous_support - 110) <= 11
    _ok("decision-category statistics on the external split")


def _defined_tests(path: Path) -> set[str]:
    """The test functions of a module, as ``test_x`` or ``TestY::test_x``."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            found.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name.startswith("test"))
    return found


def test_rule_coverage_documented():
    """Each local rule and each rewrite rule maps to a named unit test in
    the README coverage table, and every test the README names exists: by
    full id (``tests/test_x.py::TestY::test_z``) in that module, by class
    and name alone (``TestY::test_z``) in exactly one test module."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    defined = {p.name: _defined_tests(p) for p in Path(__file__).parent.glob("test_*.py")}
    full = re.findall(r"`tests/(test_\w+\.py)::((?:Test\w+::)?test_\w+)`", readme)
    bare = re.findall(r"`(Test\w+::test_\w+)`", readme)
    assert len(full) >= 14 and len(bare) >= 3, (full, bare)
    for module, test in full:
        assert test in defined.get(module, ()), f"README names tests/{module}::{test}"
    for test in bare:
        homes = [module for module, tests in defined.items() if test in tests]
        assert len(homes) == 1, f"README names {test}, defined in {homes}"
    for rule in RULE_NAMES:
        assert rule in readme, f"rule {rule} missing from README coverage table"
    for test_name in (
        "test_repeated_create_same_location",
        "test_repeated_create_new_location_becomes_move",
        "test_repeated_destroy_new_location_becomes_move",
        "test_repeated_destroy_same_location_becomes_none",
        "test_targetless_move_takes_next_from_loc",
        "test_initial_location_from_first_from_loc",
        "test_move_without_any_evidence_targets_unknown",
    ):
        assert test_name in readme, f"{test_name} missing from README coverage table"
    _ok("rule-coverage mapping documented")


def test_determinism_of_predict_and_evaluate(data_dir, tmp_path):
    """Two consecutive predict + evaluate runs are byte-identical."""
    blobs = []
    for run in ("first", "second"):
        pred = tmp_path / f"{run}.tsv"
        report = tmp_path / f"{run}.json"
        assert main([
            "predict",
            "--corpus", str(data_dir / "corpus_predict.json"),
            "--parses", str(data_dir / "parses"),
            "--output", str(pred),
        ]) == 0
        assert main([
            "evaluate",
            "--pred", str(pred),
            "--corpus", str(data_dir / "corpus_predict.json"),
            "--parses", str(data_dir / "parses"),
            "--tier", "all",
            "--output", str(report),
        ]) == 0
        blobs.append(pred.read_bytes() + report.read_bytes())
    assert blobs[0] == blobs[1]
    _ok("deterministic predict + evaluate")
