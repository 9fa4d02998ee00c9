import copy
import random
from collections import Counter

import pytest

from statetrack.abstraction import frame_nodes
from statetrack.corpus import (
    NONEXISTENT,
    UNKNOWN,
    Action,
    Entity,
    Procedure,
    StateGrid,
    Step,
    exists,
    find_all_mentions,
    grids_from_action_tsv,
    normalize,
    transition,
)
from statetrack.errors import SchemaError
from statetrack.metrics import (
    CATEGORY_NAMES,
    EVENT_KINDS,
    CategoryScore,
    DecisionCategory,
    DecisionScores,
    DocumentScores,
    MetricReport,
    SentenceScores,
    _event_locations,
    _prf,
    categorize_decisions,
    eval_decision_level,
    eval_document_level,
    eval_sentence_level,
)
from statetrack.parses import (
    LfNode, LogicalFormGraph, default_class_map, default_ontology, parses_by_step,
)


def _grids(spec):
    return {
        pid: StateGrid(pid, {ent: list(row) for ent, row in rows.items()})
        for pid, rows in spec.items()
    }


@pytest.fixture(scope="module")
def seeded_pred(data_dir):
    return grids_from_action_tsv(data_dir / "pred_seeded.tsv")


@pytest.fixture(scope="module")
def categories(small_corpus, small_parses):
    procedures, gold = small_corpus
    return categorize_decisions(
        gold, procedures, small_parses, default_ontology(), default_class_map()
    )


class TestSentenceLevel:
    def test_perfect_prediction_scores_100(self, small_corpus):
        _, gold = small_corpus
        scores = eval_sentence_level(copy.deepcopy(gold), gold)
        assert (scores.cat1, scores.cat2, scores.cat3) == (100.0, 100.0, 100.0)
        assert scores.macro_avg == 100.0
        assert scores.micro_avg == 100.0

    def test_right_event_wrong_step(self):
        gold = _grids({"p": {"e": ["-", "-", "x", "x"]}})  # created at 2
        pred = _grids({"p": {"e": ["-", "-", "-", "x"]}})  # created at 3
        scores = eval_sentence_level(pred, gold)
        assert scores.counts["cat1"] == (3, 3)  # created yes, others no
        assert scores.counts["cat2"] == (0, 1)

    def test_seeded_fixture_matches_hand_sheet(self, seeded_pred, small_corpus, hand_sheet):
        _, gold = small_corpus
        scores = eval_sentence_level(seeded_pred, gold)
        sheet = hand_sheet["sentence"]
        assert {k: list(v) for k, v in scores.counts.items()} == sheet["counts"]
        for key in ("cat1", "cat2", "cat3", "macro_avg", "micro_avg"):
            assert getattr(scores, key) == pytest.approx(sheet[key], abs=1e-9)

    def test_mismatched_entities_listed(self, small_corpus):
        _, gold = small_corpus
        pred = copy.deepcopy(gold)
        pred["p1"].rows["lost"] = pred["p1"].rows.pop("water")
        with pytest.raises(SchemaError, match="lost"):
            eval_sentence_level(pred, gold)

    def test_procedure_with_no_entities_needs_no_predictions(self):
        gold = _grids({"p": {"e": ["-", "x"]}, "empty": {}})
        pred = _grids({"p": {"e": ["-", "x"]}})
        assert eval_sentence_level(pred, gold) == eval_sentence_level(pred, {"p": gold["p"]})
        # Predictions that do name it must still match its (empty) entity set.
        pred["empty"] = StateGrid("empty", {"e": ["-", "x"]})
        with pytest.raises(SchemaError, match=r"procedure empty: entity sets differ"):
            eval_sentence_level(pred, gold)


class TestDocumentLevel:
    def test_perfect_prediction(self, small_corpus):
        _, gold = small_corpus
        scores = eval_document_level(copy.deepcopy(gold), gold)
        assert scores.avg_f1 == 100.0
        assert all(c.f1 == 100.0 for c in scores.criteria.values())

    def test_missing_only_move_zeroes_moves_f1(self):
        gold = _grids({"p": {"e": ["a", "b"], "f": ["-", "f1"]}})
        pred = _grids({"p": {"e": ["a", "a"], "f": ["-", "f1"]}})
        scores = eval_document_level(pred, gold)
        assert scores.criteria["moves"].f1 == 0.0
        assert scores.criteria["outputs"].f1 == 100.0
        assert scores.criteria["inputs"].f1 == 100.0  # both sides empty

    def test_relabeling_procedures_is_score_neutral(self, seeded_pred, small_corpus):
        _, gold = small_corpus
        base = eval_document_level(seeded_pred, gold)
        renamed_pred = {f"x-{pid}": g for pid, g in seeded_pred.items()}
        renamed_gold = {f"x-{pid}": g for pid, g in gold.items()}
        renamed = eval_document_level(renamed_pred, renamed_gold)
        assert renamed == base

    def test_seeded_fixture_matches_hand_sheet(self, seeded_pred, small_corpus, hand_sheet):
        _, gold = small_corpus
        scores = eval_document_level(seeded_pred, gold)
        sheet = hand_sheet["document"]
        for name, expected in sheet["criteria"].items():
            got = scores.criteria[name]
            assert got.predicted == expected["predicted"]
            assert got.gold == expected["gold"]
            assert got.matched == expected["matched"]
            assert got.precision == pytest.approx(expected["precision"], abs=1e-9)
            assert got.recall == pytest.approx(expected["recall"], abs=1e-9)
            assert got.f1 == pytest.approx(expected["f1"], abs=1e-9)
        assert scores.avg_precision == pytest.approx(sheet["avg_precision"], abs=1e-9)
        assert scores.avg_recall == pytest.approx(sheet["avg_recall"], abs=1e-9)
        assert scores.avg_f1 == pytest.approx(sheet["avg_f1"], abs=1e-9)


class TestCategorize:
    def test_every_gold_decision_categorized_once(self, categories, small_corpus):
        _, gold = small_corpus
        assert len(categories) == 8
        # spot checks from the hand sheet derivation
        assert categories[("p1", "water", 1)].name == "local"
        assert categories[("p1", "water", 3)].name == "global_ent"
        assert categories[("p2", "lava", 2)].name == "global_loc"
        assert categories[("p2", "magma", 2)].name == "uncategorized"
        assert categories[("p3", "rock", 2)].name == "global_loc_and_ent"

    def test_ambiguity_flags(self, categories):
        flagged = {key for key, cat in categories.items() if cat.ambiguous}
        assert flagged == {("p1", "vapor", 3), ("p2", "magma", 2), ("p2", "lava", 2)}

    def test_missing_parse_rejected(self, small_corpus, small_parses):
        procedures, gold = small_corpus
        parses = dict(small_parses)
        parses["p2"] = parses["p2"][:1]
        with pytest.raises(SchemaError, match=r"step\(s\) \[2\]"):
            categorize_decisions(
                gold, procedures, parses, default_ontology(), default_class_map()
            )

    def test_ontology_cycle_at_a_step_without_an_event_is_rejected(self):
        steps = (Step(1, "", ("ice",)), Step(2, "", ("ice",)))
        procedure = Procedure("c", steps, (Entity("ice", ("ice",)),))
        gold = {"c": StateGrid("c", {"ice": ["pond", "lake", "lake"]})}
        parses = {"c": [
            LogicalFormGraph(1, (), (), None),
            LogicalFormGraph(2, (LfNode("v", "F", "LOOP", "melt", None),), (), None),
        ]}
        ontology = {**default_ontology(), "LOOP": "LOOP2", "LOOP2": "LOOP"}
        with pytest.raises(SchemaError, match="cycle"):
            categorize_decisions(gold, [procedure], parses, ontology, default_class_map())


class TestDecisionLevel:
    def test_perfect_prediction(self, small_corpus, categories):
        _, gold = small_corpus
        scores = eval_decision_level(copy.deepcopy(gold), gold, categories)
        for cat in scores.categories.values():
            if cat.action_support:
                assert cat.action_acc == 100.0
            if cat.location_support:
                assert cat.location_acc == 100.0
                assert cat.both_acc == 100.0
        assert scores.ambiguous_action_acc == 100.0
        supports = {
            name: cat.action_support for name, cat in scores.categories.items()
        }
        counted = Counter(c.name for c in categories.values())
        assert supports == {name: counted.get(name, 0) for name in supports}

    def test_right_action_wrong_location_split(self):
        gold = _grids({"p": {"e": ["-", "x", "y"]}})
        pred = _grids({"p": {"e": ["-", "x", "z"]}})
        categories = {
            ("p", "e", 1): DecisionCategory("local", False),
            ("p", "e", 2): DecisionCategory("local", False),
        }
        scores = eval_decision_level(pred, gold, categories)
        local = scores.categories["local"]
        assert local.action_acc == 100.0
        assert local.location_acc == 50.0
        assert local.both_acc == 50.0

    def test_seeded_fixture_matches_hand_sheet(
        self, seeded_pred, small_corpus, categories, hand_sheet
    ):
        _, gold = small_corpus
        scores = eval_decision_level(seeded_pred, gold, categories)
        sheet = hand_sheet["decision"]
        for name, expected in sheet["categories"].items():
            got = scores.categories[name]
            assert got.action_support == expected["action_support"]
            assert got.location_support == expected["location_support"]
            for field in ("action_acc", "location_acc", "both_acc"):
                want = expected[field]
                if want is None:
                    assert getattr(got, field) is None
                else:
                    assert getattr(got, field) == pytest.approx(want, abs=1e-9)
        assert scores.ambiguous_support == sheet["ambiguous_support"]
        assert scores.ambiguous_action_acc == pytest.approx(
            sheet["ambiguous_action_acc"], abs=1e-9
        )


class TestReport:
    def test_table_rendering_covers_all_tiers(self, seeded_pred, small_corpus, categories):
        _, gold = small_corpus
        report = MetricReport(
            sentence=eval_sentence_level(seeded_pred, gold),
            document=eval_document_level(seeded_pred, gold),
            decision=eval_decision_level(seeded_pred, gold, categories),
        )
        table = report.render_table()
        assert "sentence-level" in table
        assert "document-level" in table
        assert "decision-level" in table
        assert "global_loc_and_ent" in table
        data = report.to_dict()
        assert data["decision"]["categories"]["global_ent"]["location_acc"] is None


# ---------------------------------------------------------------------------
# Reference: the tiers as they were written before they shared
# corpus.transition, with per-kind scans, per-criterion set extractors and
# an entity x entity conversion loop.  The decision-tier reference takes
# each cell's action from corpus.transition, as the exported actions do.

def _ref_event_steps(row, kind):
    steps = []
    for t in range(1, len(row)):
        before, after = row[t - 1], row[t]
        if kind == "created" and not exists(before) and exists(after):
            steps.append(t)
        elif kind == "destroyed" and exists(before) and not exists(after):
            steps.append(t)
        elif kind == "moved" and exists(before) and exists(after) and before != after:
            steps.append(t)
    return steps


def _ref_sentence(pred, gold):
    credits = {"cat1": 0, "cat2": 0, "cat3": 0}
    totals = {"cat1": 0, "cat2": 0, "cat3": 0}
    for pid in sorted(gold):
        for ent in sorted(gold[pid].rows):
            gold_row = gold[pid].rows[ent]
            pred_row = pred[pid].rows[ent]
            for kind in EVENT_KINDS:
                gold_steps = _ref_event_steps(gold_row, kind)
                pred_steps = _ref_event_steps(pred_row, kind)
                totals["cat1"] += 1
                credits["cat1"] += int(bool(gold_steps) == bool(pred_steps))
                if not gold_steps:
                    continue
                totals["cat2"] += 1
                credits["cat2"] += int(pred_steps == gold_steps)
                totals["cat3"] += 1
                credits["cat3"] += int(
                    _event_locations(pred_row, gold_steps, kind)
                    == _event_locations(gold_row, gold_steps, kind)
                )
    scores = {
        cat: (100.0 * credits[cat] / totals[cat]) if totals[cat] else 100.0
        for cat in ("cat1", "cat2", "cat3")
    }
    all_credits = sum(credits.values())
    all_totals = sum(totals.values())
    return SentenceScores(
        cat1=scores["cat1"],
        cat2=scores["cat2"],
        cat3=scores["cat3"],
        macro_avg=(scores["cat1"] + scores["cat2"] + scores["cat3"]) / 3,
        micro_avg=(100.0 * all_credits / all_totals) if all_totals else 100.0,
        counts={cat: (credits[cat], totals[cat]) for cat in ("cat1", "cat2", "cat3")},
    )


def _ref_input_set(grids):
    out = set()
    for pid, grid in grids.items():
        for ent, row in grid.rows.items():
            if (
                exists(row[0])
                and _ref_event_steps(row, "destroyed")
                and not _ref_event_steps(row, "created")
            ):
                out.add((pid, ent))
    return out


def _ref_output_set(grids):
    out = set()
    for pid, grid in grids.items():
        for ent, row in grid.rows.items():
            if _ref_event_steps(row, "created") and exists(row[-1]):
                out.add((pid, ent))
    return out


def _ref_conversion_set(grids):
    out = set()
    for pid, grid in grids.items():
        for old_ent, old_row in grid.rows.items():
            for t in _ref_event_steps(old_row, "destroyed"):
                for new_ent, new_row in grid.rows.items():
                    if new_ent == old_ent:
                        continue
                    if t in _ref_event_steps(new_row, "created") and old_row[t - 1] == new_row[t]:
                        out.add((pid, t, old_ent, new_ent))
    return out


def _ref_move_set(grids):
    out = set()
    for pid, grid in grids.items():
        for ent, row in grid.rows.items():
            for t in _ref_event_steps(row, "moved"):
                out.add((pid, ent, t, row[t - 1], row[t]))
    return out


def _ref_document(pred, gold):
    criteria = {}
    for name, extract in (
        ("inputs", _ref_input_set),
        ("outputs", _ref_output_set),
        ("conversions", _ref_conversion_set),
        ("moves", _ref_move_set),
    ):
        criteria[name] = _prf(extract(pred), extract(gold))
    k = len(criteria)
    return DocumentScores(
        criteria=criteria,
        avg_precision=sum(c.precision for c in criteria.values()) / k,
        avg_recall=sum(c.recall for c in criteria.values()) / k,
        avg_f1=sum(c.f1 for c in criteria.values()) / k,
    )


def _ref_location_mentioned(location, step):
    """Whether the location's words occur in order among the step's
    lower-cased tokens, by a scan of every start: the rule entities follow,
    so a token holding whitespace ("the Pond") mentions no location."""
    if location in (NONEXISTENT, UNKNOWN):
        return False
    tokens = [t.lower() for t in step.tokens]
    loc_tokens = location.split(" ")
    n = len(loc_tokens)
    return any(tokens[i : i + n] == loc_tokens for i in range(0, len(tokens) - n + 1))


def _ref_entity(proc, name):
    """The entity with this canonical name, by a scan of the procedure's."""
    for ent in proc.entities:
        if ent.canonical_name == name:
            return ent
    raise KeyError(name)


def _ref_mentions(entity, step):
    """The mention spans of one entity in a step, found for it alone."""
    return find_all_mentions((entity,), step)[0]


def _ref_verb_counts(proc, lf_graphs, ontology, class_map):
    """Per step, the number of parse nodes that make an event frame."""
    by_index = parses_by_step(proc, lf_graphs or [])
    return {
        step.index: sum(1 for _ in frame_nodes(by_index[step.index], ontology, class_map))
        for step in proc.steps
    }


def _ref_categorize(gold, procedures, parses, ontology, class_map):
    by_id = {p.id: p for p in procedures}
    out = {}
    for pid in sorted(gold):
        proc = by_id[pid]
        verbs_per_step = _ref_verb_counts(proc, parses.get(pid), ontology, class_map)
        for ent_name in sorted(gold[pid].rows):
            row = gold[pid].rows[ent_name]
            entity = _ref_entity(proc, ent_name)
            for t in range(1, len(row)):
                tag = transition(row[t - 1], row[t])
                if tag is Action.NONE:
                    continue
                step = proc.step(t)
                entity_mentioned = bool(_ref_mentions(entity, step))
                location = NONEXISTENT if tag is Action.DESTROY else row[t]
                location_mentioned = _ref_location_mentioned(location, step)
                if tag in (Action.MOVE, Action.CREATE):
                    if entity_mentioned and location_mentioned:
                        name = "local"
                    elif entity_mentioned:
                        name = "global_loc"
                    elif location_mentioned:
                        name = "global_ent"
                    else:
                        name = "global_loc_and_ent"
                else:
                    name = "global_ent" if not entity_mentioned else "uncategorized"
                ambiguous = entity_mentioned and verbs_per_step[t] >= 2
                out[(pid, ent_name, t)] = DecisionCategory(name=name, ambiguous=ambiguous)
    return out


def _ref_decision(pred, gold, categories):
    tally = {
        name: {"a": 0, "a_ok": 0, "l": 0, "l_ok": 0, "b_ok": 0} for name in CATEGORY_NAMES
    }
    amb_total = amb_ok = 0
    for (pid, ent, t), category in sorted(categories.items()):
        gold_row = gold[pid].rows[ent]
        pred_row = pred[pid].rows[ent]
        gold_action = transition(gold_row[t - 1], gold_row[t])
        pred_action = transition(pred_row[t - 1], pred_row[t])
        action_ok = pred_action is gold_action
        bucket = tally[category.name]
        bucket["a"] += 1
        bucket["a_ok"] += int(action_ok)
        if gold_action is not Action.DESTROY:
            location_ok = pred_row[t] == gold_row[t]
            bucket["l"] += 1
            bucket["l_ok"] += int(location_ok)
            bucket["b_ok"] += int(action_ok and location_ok)
        if category.ambiguous:
            amb_total += 1
            amb_ok += int(action_ok)
    scores = {}
    for name in CATEGORY_NAMES:
        bucket = tally[name]
        scores[name] = CategoryScore(
            action_acc=(100.0 * bucket["a_ok"] / bucket["a"]) if bucket["a"] else None,
            location_acc=(100.0 * bucket["l_ok"] / bucket["l"]) if bucket["l"] else None,
            both_acc=(100.0 * bucket["b_ok"] / bucket["l"]) if bucket["l"] else None,
            action_support=bucket["a"],
            location_support=bucket["l"],
        )
    return DecisionScores(
        categories=scores,
        ambiguous_action_acc=(100.0 * amb_ok / amb_total) if amb_total else None,
        ambiguous_support=amb_total,
    )


_CELLS = ["-", "-", "?", "pond", "lake", "big rock"]
_WORDS = ["The", "a", "ice", "water", "vapor", "pond", "Lake", "big", "rock", ".", "the Pond",
          "?", "-"]
_VERB_TYPES = ["MOVE", "FORM", "CONSUME", "COOLING", "SLEEP"]
_NAMES = ["ice", "water", "vapor", "big rock", "pond"]
_EXTRA_ALIASES = ["lake", "rock", "big", "big lake", "water vapor", "ice pond"]


def _random_case(rng):
    """Random procedures with gold and predicted grids, and their parses.
    Entities may have extra aliases, one- or two-word, none shared within a
    procedure, and coreference mentions.  A procedure may have no entities,
    and then the predictions may leave it out, as an action file does."""
    procedures, gold, pred, parses = [], {}, {}, {}
    for p in range(rng.randint(1, 2)):
        pid = f"r{p}"
        m = rng.randint(1, 8)
        steps = tuple(
            Step(t, "", tuple(rng.choice(_WORDS) for _ in range(rng.randint(0, 7))))
            for t in range(1, m + 1)
        )
        names = rng.sample(_NAMES, rng.randint(0, 5))
        extra = rng.sample(_EXTRA_ALIASES, len(_EXTRA_ALIASES))
        entities = []
        for name in names:
            aliases = (name, *(extra.pop() for _ in range(rng.randint(0, min(2, len(extra))))))
            coref = []
            for _ in range(rng.choice([0, 0, 1, 2])):
                step = rng.choice(steps)
                if step.tokens:
                    start = rng.randrange(len(step.tokens))
                    coref.append((step.index, (start, rng.randint(start + 1, len(step.tokens)))))
            entities.append(Entity(name, aliases, tuple(sorted(coref))))
        entities = tuple(entities)
        procedures.append(Procedure(pid, steps, entities))
        gold[pid] = StateGrid(pid, {n: [rng.choice(_CELLS) for _ in range(m + 1)] for n in names})
        if names or rng.random() < 0.5:
            pred[pid] = StateGrid(pid, {n: [rng.choice(_CELLS) for _ in range(m + 1)] for n in names})
        parses[pid] = [
            LogicalFormGraph(
                t,
                tuple(
                    LfNode(f"v{i}", "F", rng.choice(_VERB_TYPES), "verb", None)
                    for i in range(rng.randint(0, 3))
                ),
                (),
                None,
            )
            for t in range(1, m + 1)
        ]
    return procedures, gold, pred, parses


def test_tiers_match_the_pre_transition_reference():
    ontology, class_map = default_ontology(), default_class_map()
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(200):
        procedures, gold, pred, parses = _random_case(rng)
        by_id = {p.id: p for p in procedures}
        assert eval_sentence_level(pred, gold) == _ref_sentence(pred, gold)
        assert eval_document_level(pred, gold) == _ref_document(pred, gold)
        categories = categorize_decisions(gold, procedures, parses, ontology, class_map)
        assert categories == _ref_categorize(gold, procedures, parses, ontology, class_map)
        assert eval_decision_level(pred, gold, categories) == _ref_decision(pred, gold, categories)
        seen.update(_mention_kinds(procedures, categories))
        seen["conversions"] += len(_ref_conversion_set(gold))
        seen["ambiguous"] += sum(c.ambiguous for c in categories.values())
        seen["left_out"] += sum(pid not in pred for pid in gold)
        # Decisions at a step where another entity has no event: there the
        # decision tier looks up the mentions of only some of the entities.
        seen["other_entity_quiet"] += sum(
            any(row[t - 1] == row[t] for name, row in gold[pid].rows.items() if name != ent)
            for pid, ent, t in categories
        )
        seen.update(c.name for c in categories.values())
        # Decisions whose location only a token holding whitespace names, by
        # its normalized text: such a token mentions no location, as it
        # mentions no entity.
        for pid, ent, t in categories:
            step, cell = by_id[pid].step(t), gold[pid].rows[ent][t]
            seen["whitespace_token"] += (cell in {normalize(w) for w in step.tokens if " " in w}
                                         and not _ref_location_mentioned(cell, step))
            seen["reserved_token"] += cell in (NONEXISTENT, UNKNOWN) and cell in step.tokens
        for grid in gold.values():
            for row in grid.rows.values():
                seen["recreated"] += len(_ref_event_steps(row, "created")) > 1
                seen["unknown_moves"] += any(
                    row[t - 1] != row[t] and UNKNOWN in (row[t - 1], row[t])
                    for t in _ref_event_steps(row, "moved")
                )
    # The random cases reach every branch the rewrite touched, procedures
    # with no entities that the predictions leave out, decisions at steps
    # where another entity has no event, and decisions whose entity is
    # mentioned only through an extra alias, only through a coreference
    # span, or through a two-word span, decisions whose location only a
    # token holding whitespace would name, and decisions whose cell, "-" or
    # "?", is a token of their step.
    for key in ("conversions", "recreated", "unknown_moves", "ambiguous", *CATEGORY_NAMES,
                "left_out", "other_entity_quiet", "extra_alias_only", "coref_only",
                "multiword", "whitespace_token", "reserved_token"):
        assert seen[key] > 0, key


def _mention_kinds(procedures, categories):
    """How each categorized decision's entity is mentioned in its step."""
    by_id = {p.id: p for p in procedures}
    kinds = Counter()
    for pid, ent_name, t in categories:
        entity = _ref_entity(by_id[pid], ent_name)
        step = by_id[pid].step(t)
        spans = _ref_mentions(entity, step)
        by_name = _ref_mentions(Entity(entity.canonical_name, (entity.canonical_name,)), step)
        by_aliases = _ref_mentions(entity._replace(coref_mentions=()), step)
        kinds["extra_alias_only"] += bool(by_aliases) and not by_name
        kinds["coref_only"] += bool(spans) and not by_aliases
        kinds["multiword"] += any(end - start > 1 for start, end in spans)
    return kinds


def test_categories_do_not_depend_on_entity_order():
    ontology, class_map = default_ontology(), default_class_map()
    rng = random.Random(7)
    for _ in range(200):
        procedures, gold, _, parses = _random_case(rng)
        shuffled = [p._replace(entities=tuple(rng.sample(p.entities, len(p.entities))))
                    for p in procedures]
        assert categorize_decisions(gold, shuffled, parses, ontology, class_map) == (
            categorize_decisions(gold, procedures, parses, ontology, class_map)
        )
