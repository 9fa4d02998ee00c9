"""The three evaluation tiers over location grids.

Sentence tier: per entity and event kind (created / destroyed / moved),
whether the event happens (cat1), at which steps (cat2, asked only where
the gold says it happens), and where (cat3, same scope).

Document tier: precision / recall / F1 on the sets of process inputs,
outputs, conversions, and moves, averaged into one F1.

Decision tier: every gold non-NONE decision is bucketed by whether the
entity and its location are mentioned in the step, then scored for action
and location correctness per bucket.

Every tier classifies a pair of adjacent cells with ``corpus.transition``
and nothing else, and calls it only where the two cells differ: equal
cells are no event.  Cost: one pass per row per tier, so each tier is
linear in the number of grid cells; the document tier finds conversions
through a per-step index of created entities instead of comparing entity
pairs.  The decision tier counts the event verbs of every step's parse
(so an ontology cycle at any step is an error), files each gold row's
events by step, and reads a step's text only where a gold event is, with
one ``find_all_mentions`` call: the rule ``build-graph`` uses, which
compares lower-cased tokens only where an alias's first word occurs.  It
finds the mentions of the entities with an event there and of their
locations, each location looked up as an entity whose one alias it is.
No tier keeps a cache for another.
"""

from __future__ import annotations

from collections import namedtuple

from .abstraction import frame_nodes
from .corpus import (
    NONEXISTENT,
    UNKNOWN,
    Action,
    Entity,
    Procedure,
    StateGrid,
    exists,
    find_all_mentions,
    transition,
)
from .errors import SchemaError
from .parses import parses_by_step

EVENT_KINDS = ("created", "destroyed", "moved")

_EVENT_ACTION = {"created": Action.CREATE, "destroyed": Action.DESTROY, "moved": Action.MOVE}

CATEGORY_NAMES = (
    "local",
    "global_loc",
    "global_ent",
    "global_loc_and_ent",
    "uncategorized",
)


def _row_events(row: list[str]) -> dict[Action, list[int]]:
    """Steps at which the row shows each event (create, destroy, move)
    happening, in one pass.  Two equal adjacent cells are no event, so
    ``transition`` is called only where the cell changes."""
    events: dict[Action, list[int]] = {action: [] for action in _EVENT_ACTION.values()}
    for t, (before, after) in enumerate(zip(row, row[1:]), start=1):
        if before != after:
            events[transition(before, after)].append(t)
    return events


def _validate_alignment(pred: dict[str, StateGrid], gold: dict[str, StateGrid]) -> None:
    # A gold procedure with no entities has no rows to predict, so an action
    # file holds none of it; it needs no prediction procedure.
    needed = {pid for pid, grid in gold.items() if grid.rows}
    if not needed <= set(pred) <= set(gold):
        only_pred = sorted(set(pred) - set(gold))
        only_gold = sorted(needed - set(pred))
        raise SchemaError(
            f"procedure sets differ: only in predictions {only_pred}, only in gold {only_gold}"
        )
    for pid in sorted(pred):
        p_ents, g_ents = set(pred[pid].rows), set(gold[pid].rows)
        if p_ents != g_ents:
            raise SchemaError(
                f"procedure {pid}: entity sets differ: only in predictions "
                f"{sorted(p_ents - g_ents)}, only in gold {sorted(g_ents - p_ents)}"
            )
        for ent in sorted(g_ents):
            if len(pred[pid].rows[ent]) != len(gold[pid].rows[ent]):
                raise SchemaError(f"procedure {pid}: entity {ent!r}: row lengths differ")


# ---------------------------------------------------------------------------
# Sentence tier

# Score records are tuples with named fields (see ``corpus``); the report,
# whose tiers are filled in one by one, is a plain class.

class SentenceScores(namedtuple("SentenceScores", "cat1 cat2 cat3 macro_avg micro_avg counts")):
    """Percentages per category and averaged; ``counts`` maps a category to
    its (credits, questions)."""

    __slots__ = ()


def eval_sentence_level(pred: dict[str, StateGrid], gold: dict[str, StateGrid]) -> SentenceScores:
    _validate_alignment(pred, gold)
    credits = {"cat1": 0, "cat2": 0, "cat3": 0}
    totals = {"cat1": 0, "cat2": 0, "cat3": 0}
    for pid in sorted(gold):
        for ent in sorted(gold[pid].rows):
            gold_row = gold[pid].rows[ent]
            pred_row = pred[pid].rows[ent]
            gold_events = _row_events(gold_row)
            pred_events = _row_events(pred_row)
            for kind in EVENT_KINDS:
                gold_steps = gold_events[_EVENT_ACTION[kind]]
                pred_steps = pred_events[_EVENT_ACTION[kind]]
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


def _event_locations(row: list[str], steps: list[int], kind: str):
    # Where the event happened: the new cell for creations and moves (plus
    # the old cell for moves), the last cell the entity held for destructions.
    if kind == "created":
        return [row[t] for t in steps]
    if kind == "destroyed":
        return [row[t - 1] for t in steps]
    return [(row[t - 1], row[t]) for t in steps]


# ---------------------------------------------------------------------------
# Document tier

class CriterionScore(namedtuple("CriterionScore", "precision recall f1 predicted gold matched")):
    __slots__ = ()


class DocumentScores(namedtuple("DocumentScores", "criteria avg_precision avg_recall avg_f1")):
    __slots__ = ()


def eval_document_level(pred: dict[str, StateGrid], gold: dict[str, StateGrid]) -> DocumentScores:
    _validate_alignment(pred, gold)
    pred_sets = _document_sets(pred)
    gold_sets = _document_sets(gold)
    criteria = {name: _prf(pred_sets[name], gold_sets[name]) for name in gold_sets}
    k = len(criteria)
    return DocumentScores(
        criteria=criteria,
        avg_precision=sum(c.precision for c in criteria.values()) / k,
        avg_recall=sum(c.recall for c in criteria.values()) / k,
        avg_f1=sum(c.f1 for c in criteria.values()) / k,
    )


def _prf(pred_set: set, gold_set: set) -> CriterionScore:
    matched = len(pred_set & gold_set)
    precision = (100.0 * matched / len(pred_set)) if pred_set else 100.0
    recall = (100.0 * matched / len(gold_set)) if gold_set else 100.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return CriterionScore(precision, recall, f1, len(pred_set), len(gold_set), matched)


def _document_sets(grids: dict[str, StateGrid]) -> dict[str, set]:
    """The four criteria's sets, from one pass over every row."""
    inputs, outputs, conversions, moves = set(), set(), set(), set()
    for pid, grid in grids.items():
        created_at: dict[int, list[str]] = {}
        destroyed: list[tuple[str, int]] = []
        for ent, row in grid.rows.items():
            events = _row_events(row)
            # Inputs existed before the process, were destroyed during it
            # and never (re)created.
            if exists(row[0]) and events[Action.DESTROY] and not events[Action.CREATE]:
                inputs.add((pid, ent))
            if events[Action.CREATE] and exists(row[-1]):
                outputs.add((pid, ent))
            for t in events[Action.MOVE]:
                moves.add((pid, ent, t, row[t - 1], row[t]))
            for t in events[Action.CREATE]:
                created_at.setdefault(t, []).append(ent)
            destroyed.extend((ent, t) for t in events[Action.DESTROY])
        # A destroy and a create at the same step whose location evidence
        # agrees (including both unknown) reads as one entity becoming
        # another.  No entity is both destroyed and created at one step.
        for old_ent, t in destroyed:
            for new_ent in created_at.get(t, ()):
                if grid.rows[old_ent][t - 1] == grid.rows[new_ent][t]:
                    conversions.add((pid, t, old_ent, new_ent))
    return {"inputs": inputs, "outputs": outputs, "conversions": conversions, "moves": moves}


# ---------------------------------------------------------------------------
# Decision tier

class DecisionCategory(namedtuple("DecisionCategory", "name ambiguous")):
    __slots__ = ()


def categorize_decisions(
    gold: dict[str, StateGrid],
    procedures: list[Procedure],
    parses: dict[str, list],
    ontology,
    class_map,
) -> dict[tuple[str, str, int], DecisionCategory]:
    """Bucket every gold non-NONE decision.

    Moves and creations split on entity/location mention presence; a
    destruction counts as a global-entity decision when the entity is not
    mentioned and is otherwise left uncategorized.  The ambiguity flag
    marks mentioned entities in steps whose parse holds two or more
    action-class verbs.
    """
    by_id = {p.id: p for p in procedures}
    missing = sorted(set(gold) - set(by_id))
    if missing:
        raise SchemaError(f"no procedure loaded for gold grid(s) {missing}")
    out: dict[tuple[str, str, int], DecisionCategory] = {}
    for pid in sorted(gold):
        proc = by_id[pid]
        rows = gold[pid].rows
        by_index = parses_by_step(proc, parses.get(pid) or [])
        # Every step's parse is read, so an ontology cycle in any parse is an
        # error, whether or not a gold event falls at its step.
        verbs = {t: sum(1 for _ in frame_nodes(parse, ontology, class_map))
                 for t, parse in by_index.items()}
        events: dict[int, list[tuple[str, Action]]] = {}  # step -> (entity, gold action)
        for ent_name, row in rows.items():
            for tag, steps in _row_events(row).items():
                for t in steps:
                    events.setdefault(t, []).append((ent_name, tag))
        entities = {e.canonical_name: e for e in proc.entities}
        for t, at_step in events.items():
            # Only the entities with an event at this step are looked up, and
            # after them each one's new cell as a one-alias entity; "-" and
            # "?" have no alias, so are never mentioned.
            cells = [rows[ent][t] for ent, _ in at_step]
            places = [Entity(c, () if c in (NONEXISTENT, UNKNOWN) else (c,)) for c in cells]
            mentions = find_all_mentions(
                [entities[ent] for ent, _ in at_step] + places, proc.step(t)
            )
            for (ent_name, tag), spans, loc_spans in zip(at_step, mentions, mentions[len(at_step):]):
                entity_mentioned = bool(spans)
                location_mentioned = bool(loc_spans)
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
                ambiguous = entity_mentioned and verbs[t] >= 2
                out[(pid, ent_name, t)] = DecisionCategory(name=name, ambiguous=ambiguous)
    return out


class CategoryScore(namedtuple(
    "CategoryScore", "action_acc location_acc both_acc action_support location_support"
)):
    __slots__ = ()


class DecisionScores(namedtuple(
    "DecisionScores", "categories ambiguous_action_acc ambiguous_support"
)):
    __slots__ = ()


def eval_decision_level(
    pred: dict[str, StateGrid],
    gold: dict[str, StateGrid],
    categories: dict[tuple[str, str, int], DecisionCategory],
) -> DecisionScores:
    """Per-category accuracy of the predicted actions and after-locations.

    Destructions carry no location, so they are excluded from location and
    both denominators; the ambiguous overlay reports action accuracy only.
    """
    _validate_alignment(pred, gold)
    tally = {
        name: {"a": 0, "a_ok": 0, "l": 0, "l_ok": 0, "b_ok": 0} for name in CATEGORY_NAMES
    }
    amb_total = amb_ok = 0
    for (pid, ent, t), category in categories.items():
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


# ---------------------------------------------------------------------------
# Report assembly

class MetricReport:
    """The scores of the tiers that were run; a tier not run is None."""

    __slots__ = ("sentence", "document", "decision")

    def __init__(self, sentence: SentenceScores | None = None,
                 document: DocumentScores | None = None,
                 decision: DecisionScores | None = None):
        self.sentence = sentence
        self.document = document
        self.decision = decision

    def to_dict(self) -> dict:
        """Each tier's fields in order, with its nested records as dicts."""
        s, d, c = self.sentence, self.document, self.decision
        return {
            "sentence": None if s is None else {**s._asdict(), "counts": dict(s.counts)},
            "document": None if d is None else {
                **d._asdict(), "criteria": {k: v._asdict() for k, v in d.criteria.items()}
            },
            "decision": None if c is None else {
                **c._asdict(), "categories": {k: v._asdict() for k, v in c.categories.items()}
            },
        }

    def render_table(self) -> str:
        lines = []
        if self.sentence:
            s = self.sentence
            lines.append("sentence-level")
            header = f"{'cat1':>8} {'cat2':>8} {'cat3':>8} {'macro':>8} {'micro':>8}"
            values = (
                f"{s.cat1:8.2f} {s.cat2:8.2f} {s.cat3:8.2f} "
                f"{s.macro_avg:8.2f} {s.micro_avg:8.2f}"
            )
            lines.extend([header, values, ""])
        if self.document:
            lines.append("document-level")
            lines.append(f"{'criterion':<14} {'P':>8} {'R':>8} {'F1':>8}")
            for name, c in self.document.criteria.items():
                lines.append(f"{name:<14} {c.precision:8.2f} {c.recall:8.2f} {c.f1:8.2f}")
            d = self.document
            lines.append(
                f"{'average':<14} {d.avg_precision:8.2f} {d.avg_recall:8.2f} {d.avg_f1:8.2f}"
            )
            lines.append("")
        if self.decision:
            lines.append("decision-level")
            lines.append(f"{'category':<20} {'A':>8} {'L':>8} {'Both':>8} {'nA':>5} {'nL':>5}")
            for name in CATEGORY_NAMES:
                c = self.decision.categories[name]
                lines.append(
                    f"{name:<20} {_fmt(c.action_acc)} {_fmt(c.location_acc)} "
                    f"{_fmt(c.both_acc)} {c.action_support:5d} {c.location_support:5d}"
                )
            lines.append(
                f"{'ambiguous':<20} {_fmt(self.decision.ambiguous_action_acc)} "
                f"{'':>8} {'':>8} {self.decision.ambiguous_support:5d}"
            )
            lines.append("")
        return "\n".join(lines)


def _fmt(value: float | None) -> str:
    return f"{value:8.2f}" if value is not None else f"{'-':>8}"

