"""Global reasoning: turn per-step local decisions into one location row
per entity.

``predict`` passes over a procedure's steps once, filing every local
decision and passive location fact under the entity it concerns as it is
made; each entity's timeline is then settled on its own by two forward
passes in step order.  ``fix_actions`` keeps the first decision of a step
and rewrites repeated creates and destroys.  ``resolve_locations`` then
locates every cell from these sources, in this order: the frame arguments
the decisions carry; a same-step passive fact for a missing from side; the
first from-location no later than the first move as the initial cell; the
next from-location, or an idle step's passive fact, as a missing move
target; "?" for any target still missing; and, while the row is replayed,
an idle step's passive fact for a carried "?".  The row is all it returns:
the exported actions are the transitions of the row
(``grid_to_action_rows``), so actions and grid cannot disagree.
"""

from __future__ import annotations

from collections import namedtuple

from .abstraction import PassiveLocationFact, abstract_events
from .corpus import (
    NONEXISTENT,
    UNKNOWN,
    Action,
    Procedure,
    StateGrid,
    StepAction,
    normalize,
    transition,
)
from .parses import parses_by_step
from .rules import LocalDecision, apply_rules, match_argument


class EntityTimeline(namedtuple("EntityTimeline", "num_steps slots passive")):
    """One entity's local decisions per step (a dict keyed by step) and its
    passive facts (a list)."""

    __slots__ = ()


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
        decisions = timeline.slots.get(t)
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
            if strict_destroy or _same_loc(cur_loc, last_loc):
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


def resolve_locations(actions: list[StepAction], timeline: EntityTimeline) -> list[str]:
    """The location row of a fixed action sequence, initial cell first.

    The sources, in the order they are applied (a location an action
    already carries from its frame argument is never overwritten):

    1. A step's first passive fact supplies the from side of an action at
       that step that has none.
    2. The initial location is nonexistent if the entity is ever created;
       otherwise it is the first from-location seen no later than the first
       move, or "?" when the scan meets that move (or the end) first.
    3. A targetless move takes the next from-location, or a passive fact at
       an idle step, before the next move; otherwise "?".  A targetless
       create gets "?".
    4. While the row is replayed, an idle step carries the previous cell; a
       carried "?" takes that step's first passive fact, which also fills
       the "?" cells it was carried from, back to the cell an action
       entered or the initial cell that started the stretch.
    """
    m = timeline.num_steps
    passive: dict[int, str] = {}
    for fact in timeline.passive:
        passive.setdefault(fact.step_index, normalize(fact.location.text))

    kinds = [a.action for a in actions[:m]]
    origins = [
        passive.get(t) if a.from_loc is None and a.action is not Action.NONE else a.from_loc
        for t, a in enumerate(actions[:m], start=1)
    ]

    initial = UNKNOWN
    if any(a.action is Action.CREATE for a in actions):
        initial = NONEXISTENT
    else:
        for kind, origin in zip(kinds, origins):
            if origin is not None:
                initial = origin
                break
            if kind is Action.MOVE:
                break

    row = [initial]
    for t in range(1, m + 1):
        kind = kinds[t - 1]
        if kind is Action.DESTROY:
            row.append(NONEXISTENT)
        elif kind is not Action.NONE:
            target = actions[t - 1].to_loc
            if target is None and kind is Action.MOVE:
                for u in range(t + 1, m + 1):
                    if kinds[u - 1] is Action.MOVE:
                        break
                    if origins[u - 1] is not None:
                        target = origins[u - 1]
                        break
                    if kinds[u - 1] is Action.NONE and u in passive:
                        target = passive[u]
                        break
            row.append(UNKNOWN if target is None else target)
        elif row[-1] == UNKNOWN and t in passive:
            # Nothing happened over the idle stretch, so the entity was
            # already where the fact places it.
            fill = passive[t]
            i = t - 1
            while row[i] == UNKNOWN:
                row[i] = fill
                if i == 0 or kinds[i - 1] is not Action.NONE:
                    break
                i -= 1
            row.append(fill)
        else:
            row.append(row[-1])
    return row


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
    passive fact under every entity its holder matches.  Every entity's
    timeline then goes through the two forward passes, in the procedure's
    entity order; one that never receives a decision or a passive fact comes
    out as "?" in every cell.
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

    rows: dict[str, list[str]] = {}
    for name in slots:
        timeline = EntityTimeline(procedure.num_steps, slots[name], passive[name])
        fixed = fix_actions(timeline, strict_destroy=strict_destroy)
        rows[name] = resolve_locations(fixed, timeline)
    return StateGrid(procedure_id=procedure.id, rows=rows)


def grid_to_action_rows(grid: StateGrid, entity_order: list[str] | None = None):
    """Flatten a grid into six-column action rows, one per (entity, step)."""
    names = entity_order if entity_order is not None else list(grid.rows)
    out = []
    for name in names:
        row = grid.rows[name]
        for t in range(1, len(row)):
            before, after = row[t - 1], row[t]
            out.append((grid.procedure_id, t, name, transition(before, after).value, before, after))
    return out
