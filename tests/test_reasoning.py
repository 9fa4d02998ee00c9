import json
import random
from collections import Counter

import pytest

from genutil import random_timeline
from statetrack.abstraction import abstract_events, default_role_synonyms
from statetrack.corpus import (
    UNKNOWN,
    Action,
    Entity,
    Procedure,
    StateGrid,
    Step,
    StepAction,
    grids_from_action_tsv,
    load_procedures,
    transition,
    write_action_tsv,
)
from statetrack.errors import SchemaError
from statetrack.metrics import (
    categorize_decisions,
    eval_decision_level,
    eval_document_level,
    eval_sentence_level,
)
from statetrack.parses import (
    LfEdge,
    LfNode,
    LogicalFormGraph,
    default_class_map,
    default_ontology,
    load_trips,
)
from statetrack.reasoning import (
    EntityTimeline,
    fix_actions,
    grid_to_action_rows,
    predict,
    resolve_locations,
)
from statetrack.rules import LocalDecision, apply_rules, match_argument

ENTITY = Entity("thing", ("thing",))


def _timeline(decisions_by_step, m=None, passive=()):
    slots = {}
    for t, action in decisions_by_step.items():
        slots[t] = [LocalDecision(entity=ENTITY, action=action, rule="t", frame_node=f"V{t}")]
    m = m if m is not None else (max(slots) if slots else 1)
    return EntityTimeline(num_steps=m, slots=slots, passive=list(passive))


def _acts(*pairs):
    return [StepAction(a, from_loc=f, to_loc=t) for a, f, t in pairs]


def _exported(row):
    """The action rows that commands export for one entity's location row."""
    return grid_to_action_rows(StateGrid("p", {ENTITY.canonical_name: row}))


def _exported_actions(row):
    return [action for _, _, _, action, _, _ in _exported(row)]


class TestFixActions:
    def test_repeated_create_same_location(self):
        timeline = _timeline({
            1: StepAction(Action.CREATE, to_loc="pond"),
            2: StepAction(Action.CREATE, to_loc="pond"),
        })
        fixed = fix_actions(timeline)
        assert [a.action for a in fixed] == [Action.CREATE, Action.NONE]
        assert fixed[0].to_loc == "pond"

    def test_repeated_create_new_location_becomes_move(self):
        timeline = _timeline({
            1: StepAction(Action.CREATE, to_loc="pond"),
            2: StepAction(Action.CREATE, to_loc="lake"),
        })
        fixed = fix_actions(timeline)
        assert [a.action for a in fixed] == [Action.CREATE, Action.MOVE]
        assert fixed[1].to_loc == "lake"

    def test_repeated_destroy_new_location_becomes_move(self):
        timeline = _timeline({
            1: StepAction(Action.DESTROY, from_loc="soil"),
            2: StepAction(Action.DESTROY, from_loc="mud"),
        })
        fixed = fix_actions(timeline)
        assert [a.action for a in fixed] == [Action.DESTROY, Action.MOVE]
        assert fixed[1].to_loc == "mud"

    def test_repeated_destroy_same_location_becomes_none(self):
        timeline = _timeline({
            1: StepAction(Action.DESTROY, from_loc="soil"),
            2: StepAction(Action.DESTROY, from_loc="soil"),
        })
        fixed = fix_actions(timeline)
        assert [a.action for a in fixed] == [Action.DESTROY, Action.NONE]

    def test_strict_destroy_mode_drops_instead_of_moving(self):
        timeline = _timeline({
            1: StepAction(Action.DESTROY, from_loc="soil"),
            2: StepAction(Action.DESTROY, from_loc="mud"),
        })
        fixed = fix_actions(timeline, strict_destroy=True)
        assert [a.action for a in fixed] == [Action.DESTROY, Action.NONE]

    def test_conflicting_decisions_keep_first(self):
        slots = {
            1: [
                LocalDecision(ENTITY, StepAction(Action.CREATE, to_loc="pond"), "a", "V1"),
                LocalDecision(ENTITY, StepAction(Action.DESTROY, from_loc="mud"), "b", "V2"),
            ]
        }
        timeline = EntityTimeline(1, slots, [])
        fixed = fix_actions(timeline)
        assert fixed[0].action is Action.CREATE

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(200):
            timeline = random_timeline(rng)
            fixed = fix_actions(timeline)
            refixed = fix_actions(_refix_timeline(fixed, timeline.num_steps))
            assert refixed == fixed


def _refix_timeline(actions, m):
    slots = {}
    for t, action in enumerate(actions, start=1):
        if action.action is not Action.NONE:
            slots[t] = [LocalDecision(ENTITY, action, "refix", f"V{t}")]
    return EntityTimeline(m, slots, [])


class TestResolveLocations:
    def test_targetless_move_takes_next_from_loc(self):
        actions = _acts(
            (Action.NONE, None, None),
            (Action.MOVE, None, None),
            (Action.DESTROY, "riverbed", None),
        )
        row = resolve_locations(actions, _timeline({}, m=3))
        assert row[2] == "riverbed"

    def test_initial_location_from_first_from_loc(self):
        actions = _acts(
            (Action.NONE, None, None),
            (Action.DESTROY, "magma chamber", None),
        )
        row = resolve_locations(actions, _timeline({}, m=2))
        assert row[0] == "magma chamber"

    def test_move_without_any_evidence_targets_unknown(self):
        actions = _acts((Action.MOVE, None, None))
        row = resolve_locations(actions, _timeline({}, m=1))
        assert row == ["?", "?"]
        # The grid cannot show a move between two unknown cells, so the
        # exported action is NONE.
        assert _exported_actions(row) == ["NONE"]

    def test_created_entity_starts_nonexistent(self):
        actions = _acts((Action.CREATE, None, "pond"))
        row = resolve_locations(actions, _timeline({}, m=1))
        assert row == ["-", "pond"]

    def test_from_loc_after_first_move_not_used_as_initial(self):
        # A later from-location describes a post-move position; the start
        # stays unknown.
        actions = _acts(
            (Action.MOVE, None, None),
            (Action.NONE, None, None),
            (Action.DESTROY, "valley", None),
        )
        row = resolve_locations(actions, _timeline({}, m=3))
        assert row[0] == "?"
        assert row[1] == "valley"

    def test_known_target_never_overwritten(self):
        actions = _acts(
            (Action.MOVE, None, "lake"),
            (Action.DESTROY, "swamp", None),
        )
        row = resolve_locations(actions, _timeline({}, m=2))
        assert row[1] == "lake"

    def test_idle_passive_fact_fills_backwards(self):
        # "the book on the shelf" stated at step 2 with no action: the book
        # was sitting there over the whole idle stretch, including step 0.
        from statetrack.abstraction import ArgRef, PassiveLocationFact

        fact = PassiveLocationFact(2, ArgRef("thing", None, "N1"), ArgRef("shelf", None, "N2"))
        timeline = _timeline({}, m=3, passive=[fact])
        row = resolve_locations(_acts(
            (Action.NONE, None, None),
            (Action.NONE, None, None),
            (Action.NONE, None, None),
        ), timeline)
        assert row == ["shelf", "shelf", "shelf", "shelf"]
        assert _exported_actions(row) == ["NONE", "NONE", "NONE"]

    def test_idle_passive_fill_stops_at_actions(self):
        from statetrack.abstraction import ArgRef, PassiveLocationFact

        fact = PassiveLocationFact(3, ArgRef("thing", None, "N1"), ArgRef("mud", None, "N2"))
        timeline = _timeline({}, m=3, passive=[fact])
        row = resolve_locations(_acts(
            (Action.MOVE, None, None),
            (Action.NONE, None, None),
            (Action.NONE, None, None),
        ), timeline)
        # the passive fact becomes the target of the earlier targetless move
        assert row == ["?", "mud", "mud", "mud"]
        assert _exported(row)[0] == ("p", 1, "thing", "MOVE", "?", "mud")

    def test_idle_passive_fill_absorbed_by_unlocated_create(self):
        from statetrack.abstraction import ArgRef, PassiveLocationFact

        fact = PassiveLocationFact(2, ArgRef("thing", None, "N1"), ArgRef("nest", None, "N2"))
        timeline = _timeline({}, m=2, passive=[fact])
        row = resolve_locations(_acts(
            (Action.CREATE, None, None),
            (Action.NONE, None, None),
        ), timeline)
        assert row == ["-", "nest", "nest"]
        assert _exported_actions(row) == ["CREATE", "NONE"]


@pytest.fixture(scope="module")
def cfg():
    return default_ontology(), default_class_map(), default_role_synonyms()


class TestPredict:
    def test_book_moves_from_shelf_to_library(self, data_dir, cfg):
        pairs = load_procedures(data_dir / "corpus_predict.json")
        proc = next(p for p, _ in pairs if p.id == "book-1")
        graphs = load_trips(data_dir / "parses" / "book-1.trips.json")
        grid = predict(proc, graphs, *cfg)
        assert grid.rows["book"] == ["shelf", "library"]

    def test_erosion_pipeline(self, data_dir, cfg):
        pairs = load_procedures(data_dir / "corpus_predict.json")
        proc = next(p for p, _ in pairs if p.id == "erosion-1")
        graphs = load_trips(data_dir / "parses" / "erosion-1.trips.json")
        grid = predict(proc, graphs, *cfg)
        assert grid.rows["water"] == ["hills", "riverbed", "riverbed", "riverbed"]
        assert grid.rows["rock"] == ["?", "?", "valley", "-"]

    def test_unmentioned_entity_all_unknown(self, data_dir, cfg, tmp_path):
        obj = json.loads((data_dir / "corpus_predict.json").read_text())
        erosion = next(o for o in obj if o["id"] == "erosion-1")
        erosion["entities"].append({"name": "ghost"})
        erosion["gold_grid"]["ghost"] = ["?", "?", "?", "?"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps([erosion]))
        proc, _ = load_procedures(path)[0]
        graphs = load_trips(data_dir / "parses" / "erosion-1.trips.json")
        grid = predict(proc, graphs, *cfg)
        assert grid.rows["ghost"] == ["?", "?", "?", "?"]

    def test_change_sentence_splits_entities(self, tmp_path, cfg):
        corpus = [
            {
                "id": "c1",
                "steps": [{"index": 1, "text": "Magma cools to form lava ."}],
                "entities": [{"name": "magma"}, {"name": "lava"}],
                "gold_grid": {"magma": ["?", "-"], "lava": ["-", "?"]},
            }
        ]
        parse = [
            {
                "sentence_index": 1,
                "root": "V1",
                "nodes": [
                    {"id": "V1", "indicator": "F", "type": "BECOME", "word": "cools", "span": [1, 2]},
                    {"id": "N1", "indicator": "BARE", "type": "MAGMA", "word": "magma", "span": [0, 1]},
                    {"id": "N2", "indicator": "BARE", "type": "LAVA", "word": "lava", "span": [4, 5]},
                ],
                "edges": [
                    {"src": "V1", "label": "AFFECTED", "dst": "N1"},
                    {"src": "V1", "label": "RES", "dst": "N2"},
                ],
            }
        ]
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(corpus))
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps(parse))
        proc, _ = load_procedures(cpath)[0]
        grid = predict(proc, load_trips(ppath), *cfg)
        assert grid.rows["magma"] == ["?", "-"]
        assert grid.rows["lava"] == ["-", "?"]

    def test_missing_parse_raises(self, data_dir, cfg):
        pairs = load_procedures(data_dir / "corpus_predict.json")
        proc = next(p for p, _ in pairs if p.id == "erosion-1")
        graphs = load_trips(data_dir / "parses" / "erosion-1.trips.json")[:2]
        with pytest.raises(SchemaError, match=r"step\(s\) \[3\]"):
            predict(proc, graphs, *cfg)


def _reference_predict(procedure, lf_graphs, ontology, class_map, synonyms):
    """``predict`` as it grouped decisions before the one-pass rewrite:
    per-step frame, fact and decision dicts, then for every entity an
    equality filter over every step's decisions and a scan of every passive
    fact."""
    by_index = {g.sentence_index: g for g in lf_graphs}
    frames_by_step = {}
    facts_by_step = {}
    for step in procedure.steps:
        frames, facts = abstract_events(by_index[step.index], ontology, class_map, synonyms)
        frames_by_step[step.index] = frames
        facts_by_step[step.index] = facts
    decisions_by_step = {
        step.index: apply_rules(frames_by_step[step.index], list(procedure.entities), step)
        for step in procedure.steps
    }
    m = procedure.num_steps
    rows = {}
    for entity in procedure.entities:
        slots = {}
        for t, decisions in decisions_by_step.items():
            mine = [d for d in decisions if d.entity == entity]
            if mine:
                slots[t] = mine
        passive = [
            f
            for t, facts in facts_by_step.items()
            for f in facts
            if match_argument(f.holder, entity, t)
        ]
        if not slots and not passive:
            rows[entity.canonical_name] = [UNKNOWN] * (m + 1)
            continue
        timeline = EntityTimeline(num_steps=m, slots=slots, passive=passive)
        rows[entity.canonical_name] = resolve_locations(fix_actions(timeline), timeline)
    return StateGrid(procedure_id=procedure.id, rows=rows)


# Entities drawn for random procedures; "liquid" and "water" are shared
# aliases, so one phrase can name two entities.
_ENTITY_POOL = [
    ("water", "liquid"),
    ("rain", "liquid"),
    ("steam", "vapor", "water"),
    ("rock",),
    ("sand", "grain"),
    ("magma",),
    ("lava",),
]
_PLACES = ["pond", "lake", "soil", "air", "valley"]
_PREDICATE_TYPES = ["MOTION", "FALL", "CREATE", "FORM", "DESTROY", "TRANSFORMATION", "SAY"]
_ROLE_LABELS = ["AFFECTED", "AFFECTED", "AGENT", "RES", "RESULT", "AFFECTED-RESULT"]
_LOCATION_LABELS = ["GOAL", "INTO", "SOURCE", "FROM", "LOC", "AT"]


def _random_procedure(rng, pid):
    """A procedure with one random logical-form parse per step: several
    predicates per sentence (so decisions can conflict), change frames,
    noun phrases naming entities by alias or head noun, coreference
    mentions, and locatives off non-predicate nodes (passive facts)."""
    chosen = rng.sample(_ENTITY_POOL, rng.randint(2, 5))
    nouns = [alias for names in chosen for alias in names] + _PLACES + ["it", "cloud"]
    steps, graphs, coref = [], [], {names[0]: [] for names in chosen}
    for t in range(1, rng.randint(1, 7) + 1):
        tokens, nodes, edges = [], [], []
        predicates, phrases = [], []
        for k in range(rng.randint(2, 4)):
            tokens.append(f"verb{k}")
            nid = f"V{k}"
            nodes.append(LfNode(nid, "F", rng.choice(_PREDICATE_TYPES), f"verb{k}",
                                (len(tokens) - 1, len(tokens))))
            predicates.append(nid)
        for k in range(rng.randint(2, 6)):
            word = rng.choice(nouns)
            if rng.random() < 0.2:
                word = f"big {word}"
            start = len(tokens)
            tokens.extend(word.split(" "))
            nid = f"N{k}"
            if rng.random() < 0.2:
                word = f"the {word}"
            nodes.append(LfNode(nid, "THE", "THING", word, (start, len(tokens))))
            phrases.append(nid)
            if rng.random() < 0.25:
                coref[rng.choice(chosen)[0]].append((t, (start, start + 1)))
        for pred in predicates:
            for _ in range(rng.randint(0, 3)):
                label = rng.choice(_ROLE_LABELS + _LOCATION_LABELS)
                edges.append(LfEdge(pred, label, rng.choice(phrases)))
        for _ in range(rng.randint(0, 3)):
            holder, place = rng.sample(phrases, 2)
            edges.append(LfEdge(holder, rng.choice(["LOC", "IN", "AT", "ON"]), place))
        steps.append(Step(t, " ".join(tokens), tuple(tokens)))
        graphs.append(LogicalFormGraph(t, tuple(nodes), tuple(edges), None))
    entities = tuple(
        Entity(names[0], names, tuple(sorted(set(coref[names[0]])))) for names in chosen
    )
    return Procedure(pid, tuple(steps), entities), graphs


def test_predict_matches_the_per_entity_grouping(data_dir, small_corpus, cfg):
    fixtures = [p for p, _ in load_procedures(data_dir / "corpus_predict.json")]
    fixtures += small_corpus[0]
    cases = [(p, load_trips(data_dir / "parses" / f"{p.id}.trips.json")) for p in fixtures]
    rng = random.Random(5)
    cases += [_random_procedure(rng, f"r{k}") for k in range(300)]

    seen = {"conflict": 0, "change": 0, "shared": 0, "coref": 0, "passive": 0, "untracked": 0}
    for proc, graphs in cases:
        assert predict(proc, graphs, *cfg).rows == _reference_predict(proc, graphs, *cfg).rows
        tracked = set()  # entities with a decision or a passive fact
        for step, graph in zip(proc.steps, graphs):
            frames, facts = abstract_events(graph, *cfg)
            decisions = apply_rules(frames, list(proc.entities), step)
            per_entity = [d.entity.canonical_name for d in decisions]
            tracked.update(per_entity)
            seen["conflict"] += len(per_entity) > len(set(per_entity))
            seen["change"] += any(d.rule == "change_affected_res" for d in decisions)
            frame_of = {f.node_id: f for f in frames}
            for d in decisions:
                # matched through a coreference mention, not an alias: no
                # role matches once its span is dropped
                roles = frame_of[d.frame_node].roles.values()
                seen["coref"] += not any(
                    match_argument(a._replace(span=None), d.entity, step.index) for a in roles
                )
            for fact in facts:
                holders = [e for e in proc.entities if match_argument(fact.holder, e, step.index)]
                seen["passive"] += bool(holders)
                seen["shared"] += len(holders) > 1
                tracked.update(e.canonical_name for e in holders)
        seen["untracked"] += sum(e.canonical_name not in tracked for e in proc.entities)
    assert all(count > 0 for count in seen.values()), seen


def test_exported_actions_and_grids_agree_end_to_end(cfg, tmp_path):
    """Random procedures through predict and the action TSV: the file reads
    back as the predicted grids, every exported action is the transition of
    its two cells, and the predictions score 100 against themselves."""
    rng = random.Random(17)
    procedures, parses, grids, rows = [], {}, {}, []
    for k in range(200):
        proc, graphs = _random_procedure(rng, f"r{k}")
        grid = predict(proc, graphs, *cfg)
        procedures.append(proc)
        parses[proc.id] = graphs
        grids[proc.id] = grid
        rows += grid_to_action_rows(grid, [e.canonical_name for e in proc.entities])
    path = tmp_path / "pred.tsv"
    write_action_tsv(path, rows)

    assert grids_from_action_tsv(path) == grids
    actions = Counter()
    for line in path.read_text().splitlines():
        _, _, _, action, before, after = line.split("\t")
        assert action == transition(before, after).value, line
        actions[action] += 1
    assert all(actions[a.value] > 0 for a in Action), actions

    sentence = eval_sentence_level(grids, grids)
    assert (sentence.cat1, sentence.cat2, sentence.cat3) == (100.0, 100.0, 100.0)
    assert sentence.macro_avg == sentence.micro_avg == 100.0
    document = eval_document_level(grids, grids)
    assert all(c.f1 == 100.0 for c in document.criteria.values())
    assert document.avg_f1 == 100.0
    categories = categorize_decisions(grids, procedures, parses, cfg[0], cfg[1])
    decision = eval_decision_level(grids, grids, categories)
    for score in decision.categories.values():
        assert {score.action_acc, score.location_acc, score.both_acc} <= {None, 100.0}
    assert decision.ambiguous_action_acc in (None, 100.0)


class TestConsistency:
    def test_fixed_output_matches_replayed_grid(self):
        rng = random.Random(99)
        for _ in range(300):
            timeline = random_timeline(rng)
            fixed = fix_actions(timeline)
            row = resolve_locations(fixed, timeline)
            assert len(row) == timeline.num_steps + 1
            _assert_sequence_invariants(row, _exported_actions(row))

    def test_reconciliation_rewrites_inexpressible_move(self):
        # A lone move with no evidence cannot show up in the grid: its row
        # is unknown on both sides, so the exported action is NONE.
        actions = _acts((Action.MOVE, None, None))
        row = resolve_locations(actions, _timeline({}, m=1))
        assert row == ["?", "?"]
        assert _exported_actions(row) == ["NONE"]


def _assert_sequence_invariants(row, actions):
    destroyed_since_create = False
    for t, act in enumerate(actions, start=1):
        if act == "CREATE":
            assert row[t - 1] == "-", "create while existing"
            destroyed_since_create = False
        elif act == "DESTROY":
            assert row[t - 1] != "-", "destroy while nonexistent"
            assert not destroyed_since_create, "second destroy without a create"
            destroyed_since_create = True
