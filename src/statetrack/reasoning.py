"""Global reasoning: turn per-step local decisions into one consistent
action sequence and location row per entity.

``predict`` passes over a procedure's steps once, filing every local
decision and passive location fact under the entity it concerns as it is
made; each entity's timeline is then settled on its own.  Two forward
passes (action fixing, then location resolution) follow the local
decisions in step order; a final reconciliation derives the action
sequence back from the replayed location row so that the exported actions
and the exported grid can never disagree.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .abstraction import PassiveLocationFact, abstract_events
from .corpus import (
    NONEXISTENT,
    UNKNOWN,
    Action,
    Entity,
    Procedure,
    StateGrid,
    StepAction,
    derive_actions,
)
from .parses import parses_by_step
from .rules import LocalDecision, apply_rules, match_argument

logger = logging.getLogger(__name__)


@dataclass
class EntityTimeline:
    entity: Entity
    num_steps: int
    slots: dict[int, list[LocalDecision]]
    passive: list[PassiveLocationFact]

    def passive_locations(self, step_index: int) -> list[str]:
        return [f.location.norm for f in self.passive if f.step_index == step_index]


@dataclass
class FixedSequence:
    """A fixed action sequence, the inferred pre-process location and the
    resolved location row (initial location first)."""

    actions: list[StepAction]
    initial_location: str
    row: list[str]

    def reconciled(self) -> tuple[list[str], list[StepAction]]:
        """The location row and the action sequence the row itself implies.

        Actions that cannot be expressed in the location grid (a move whose
        two ends read identically, or an action stranded by an inconsistent
        earlier state) are rewritten here; this is the exported form.
        """
        return self.row, derive_actions(self.row)


def fix_actions(timeline: EntityTimeline, strict_destroy: bool = False) -> list[StepAction]:
    """Forward pass making local actions sequence-consistent.

    Tracks the last observed action and location.  After a create or move,
    another create at the same location becomes NONE, at a new location it
    becomes MOVE.  After a destroy, another destroy at a new location
    becomes MOVE (or NONE under ``strict_destroy``), at the same location
    NONE.  Anything else is kept and updates the tracked state.
    """
    fixed: list[StepAction] = []
    last_action: Action | None = None
    last_loc: str | None = None
    for t in range(1, timeline.num_steps + 1):
        decisions = timeline.slots.get(t, [])
        if len(decisions) > 1:
            logger.info(
                "entity %r step %d: %d conflicting local decisions, keeping the first",
                timeline.entity.canonical_name, t, len(decisions),
            )
        if not decisions:
            fixed.append(StepAction(Action.NONE))
            continue
        current = decisions[0].action
        cur_loc = _action_location(current)
        if last_action in (Action.CREATE, Action.MOVE) and current.action is Action.CREATE:
            if _same_loc(cur_loc, last_loc):
                fixed.append(StepAction(Action.NONE))
                continue
            current = StepAction(Action.MOVE, from_loc=last_loc, to_loc=current.to_loc)
        elif last_action is Action.DESTROY and current.action is Action.DESTROY:
            if _same_loc(cur_loc, last_loc):
                fixed.append(StepAction(Action.NONE))
                continue
            if strict_destroy:
                fixed.append(StepAction(Action.NONE))
                continue
            current = StepAction(Action.MOVE, from_loc=last_loc, to_loc=cur_loc)
        fixed.append(current)
        last_action = current.action
        new_loc = _action_location(current)
        if new_loc is not None:
            last_loc = new_loc
    return fixed


def _action_location(action: StepAction) -> str | None:
    # The location an action is observed at: targets for create/move, the
    # from side for destroy.
    if action.action in (Action.CREATE, Action.MOVE):
        return action.to_loc
    if action.action is Action.DESTROY:
        return action.from_loc
    return None


def _same_loc(a: str | None, b: str | None) -> bool:
    return (a or UNKNOWN) == (b or UNKNOWN)


def resolve_locations(actions: list[StepAction], timeline: EntityTimeline) -> FixedSequence:
    """Fill in locations for a fixed action sequence.

    Passive facts at a step where the entity acts supply a missing from
    side; a never-created entity starts at the first from location seen no
    later than its first move, otherwise unknown; a created entity starts
    nonexistent.  Targetless moves take the first subsequent from location
    before the next move, else "?".  At no-action steps the previous
    location carries over, with passive facts filling in unknowns.
    """
    m = timeline.num_steps
    acts = list(actions)

    # Promote same-step passive facts into missing from-locations.
    for t in range(1, m + 1):
        a = acts[t - 1]
        if a.action is not Action.NONE and a.from_loc is None:
            passive = timeline.passive_locations(t)
            if passive:
                acts[t - 1] = replace(a, from_loc=passive[0])

    # Pre-process location.
    if any(a.action is Action.CREATE for a in acts):
        initial = NONEXISTENT
    else:
        initial = UNKNOWN
        first_move = next(
            (t for t in range(1, m + 1) if acts[t - 1].action is Action.MOVE), None
        )
        for t in range(1, m + 1):
            if first_move is not None and t > first_move:
                break
            if acts[t - 1].from_loc is not None:
                initial = acts[t - 1].from_loc
                break

    # Targets for moves that lack one: first later from-location (or a
    # passive fact at an idle step) before the next move.
    for t in range(1, m + 1):
        a = acts[t - 1]
        if a.action is not Action.MOVE or a.to_loc is not None:
            continue
        target = None
        for u in range(t + 1, m + 1):
            nxt = acts[u - 1]
            if nxt.action is Action.MOVE:
                break
            if nxt.from_loc is not None:
                target = nxt.from_loc
                break
            if nxt.action is Action.NONE:
                passive = timeline.passive_locations(u)
                if passive:
                    target = passive[0]
                    break
        acts[t - 1] = replace(a, to_loc=target if target is not None else UNKNOWN)

    # Remaining moves/creates with no target become "?" so every action is
    # fully located before replay.
    for t in range(1, m + 1):
        a = acts[t - 1]
        if a.action in (Action.MOVE, Action.CREATE) and a.to_loc is None:
            acts[t - 1] = replace(a, to_loc=UNKNOWN)

    # Passive facts at idle steps fill carried unknowns while replaying.
    # Nothing happened over the idle stretch, so the fill extends backwards
    # through the contiguous unknown cells it was carried from; an
    # unknown-target create or move at the head of the stretch absorbs the
    # fill as its target.
    row = [initial]
    for t in range(1, m + 1):
        a = acts[t - 1]
        if a.action is Action.CREATE:
            row.append(a.to_loc)
        elif a.action is Action.DESTROY:
            row.append(NONEXISTENT)
        elif a.action is Action.MOVE:
            row.append(a.to_loc)
        else:
            cur = row[-1]
            if cur == UNKNOWN:
                passive = timeline.passive_locations(t)
                if passive:
                    cur = passive[0]
                    i = t - 1
                    while i >= 0 and row[i] == UNKNOWN:
                        row[i] = cur
                        if i == 0:
                            break
                        entering = acts[i - 1]
                        if entering.action is not Action.NONE:
                            acts[i - 1] = replace(entering, to_loc=cur)
                            break
                        i -= 1
            row.append(cur)
    return FixedSequence(actions=acts, initial_location=row[0], row=row)


def predict(
    procedure: Procedure,
    lf_graphs,
    ontology,
    class_map,
    synonyms,
    disabled_rules: frozenset[str] = frozenset(),
    strict_destroy: bool = False,
) -> StateGrid:
    """Run the whole pipeline for one procedure and assemble the grid.

    One pass over the steps abstracts each step's parse, applies the rule
    table, and files each decision under its entity and step and each
    passive fact under every entity its holder matches.  Each entity's
    timeline then goes through the two forward passes.  Entities that never
    receive a decision or a passive fact are untracked and get "?" in every
    cell.
    """
    by_index = parses_by_step(procedure, lf_graphs)
    entities = list(procedure.entities)
    slots: dict[str, dict[int, list[LocalDecision]]] = {e.canonical_name: {} for e in entities}
    passive: dict[str, list[PassiveLocationFact]] = {e.canonical_name: [] for e in entities}
    for step in procedure.steps:
        frames, facts = abstract_events(by_index[step.index], ontology, class_map, synonyms)
        for d in apply_rules(frames, entities, step, disabled_rules):
            slots[d.entity.canonical_name].setdefault(step.index, []).append(d)
        for fact in facts:
            for entity in entities:
                if match_argument(fact.holder, entity, step.index):
                    passive[entity.canonical_name].append(fact)

    m = procedure.num_steps
    rows: dict[str, list[str]] = {}
    for entity in entities:
        name = entity.canonical_name
        if not slots[name] and not passive[name]:
            rows[name] = [UNKNOWN] * (m + 1)
            continue
        timeline = EntityTimeline(
            entity=entity, num_steps=m, slots=slots[name], passive=passive[name]
        )
        fixed = fix_actions(timeline, strict_destroy=strict_destroy)
        rows[name] = resolve_locations(fixed, timeline).row
    return StateGrid(procedure_id=procedure.id, rows=rows)


def grid_to_action_rows(grid: StateGrid, entity_order: list[str] | None = None):
    """Flatten a grid into six-column action rows, one per (entity, step)."""
    names = entity_order if entity_order is not None else list(grid.rows)
    out = []
    for name in names:
        row = grid.rows[name]
        actions = derive_actions(row)
        for t in range(1, len(row)):
            out.append(
                (grid.procedure_id, t, name, actions[t - 1].action.value, row[t - 1], row[t])
            )
    return out
