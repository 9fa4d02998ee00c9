"""Turn event frames into local per-entity decisions.

``RULE_TABLE`` maps each frame class to groups of (rule, role, action).
Every group of a frame is tried; in a group the first rule whose role the
frame has fires, and a disabled rule fires nothing (the next rule of its
group is not tried).  So a change frame destroys its AFFECTED and creates
its RES (or RESULT), or does the half whose role it has.  The action picks
the frame locations: a create takes the target, a destroy any location of
the frame, a move both ends.

Conflicting decisions for one entity at one step are all kept, in frame
order; global reasoning resolves them later.
"""

from __future__ import annotations

from collections import namedtuple

from .abstraction import ArgRef, EventFrame
from .corpus import Action, Entity, Step, StepAction, normalize, spans_overlap
from .parses import ActionClass

RULE_TABLE: dict[ActionClass, tuple[tuple[tuple[str, str, Action], ...], ...]] = {
    ActionClass.MOVE: (
        (("move_affected", "AFFECTED", Action.MOVE),
         ("move_agent", "AGENT", Action.MOVE)),
    ),
    ActionClass.DESTROY: (
        (("destroy_affected", "AFFECTED", Action.DESTROY),),
    ),
    ActionClass.CREATE: (
        (("create_affected_result", "AFFECTED_RESULT", Action.CREATE),
         ("create_affected", "AFFECTED", Action.CREATE)),
    ),
    ActionClass.CHANGE: (
        (("change_affected_res", "AFFECTED", Action.DESTROY),),
        (("change_affected_res", "RES", Action.CREATE),
         ("change_affected_res", "RESULT", Action.CREATE)),
    ),
}

RULE_NAMES = tuple(dict.fromkeys(
    rule for groups in RULE_TABLE.values() for group in groups for rule, _, _ in group
))


class LocalDecision(namedtuple("LocalDecision", "entity action rule frame_node")):
    """One rule's decision for one entity at one step; ``frame_node`` is
    its provenance, the id of the frame node that fired."""

    __slots__ = ()


def match_argument(arg: ArgRef, entity: Entity, step_index: int) -> bool:
    """True when the argument refers to the entity.

    Matches the normalized phrase or its head noun (last token) against any
    alias, or the argument span against a coreference mention of the step.
    """
    norm = normalize(arg.text)
    head = norm.split(" ")[-1] if norm else ""
    if norm in entity.aliases or head in entity.aliases:
        return True
    if arg.span is not None:
        for span in entity.coref_spans(step_index):
            if spans_overlap(arg.span, span):
                return True
    return False


def _loc(ref: ArgRef | None) -> str | None:
    return (normalize(ref.text) or None) if ref is not None else None


def apply_rules(
    frames: list[EventFrame],
    entities: list[Entity],
    step: Step,
    disabled: frozenset[str] = frozenset(),
) -> list[LocalDecision]:
    """Apply the rule table to every frame of one step.

    A rule that fires decides for the first tracked entity its role filler
    matches, at most once per (frame, entity).  Unknown rule names in
    ``disabled`` are ignored.
    """
    decisions: list[LocalDecision] = []
    decided: set[tuple[str, str]] = set()  # (frame node, entity name) pairs
    for frame in frames:
        if frame.step_index != step.index:
            raise ValueError(
                f"frame at step {frame.step_index} passed with step {step.index}"
            )
        roles = frame.roles
        for group in RULE_TABLE.get(frame.action_class, ()):
            fired = next(((rule, roles[role], action) for rule, role, action in group
                          if role in roles), None)
            if fired is None or fired[0] in disabled:
                continue
            rule, arg, action = fired
            for entity in entities:
                key = (frame.node_id, entity.canonical_name)
                if key not in decided and match_argument(arg, entity, step.index):
                    decided.add(key)
                    decisions.append(LocalDecision(
                        entity=entity,
                        action=_step_action(action, frame),
                        rule=rule,
                        frame_node=frame.node_id,
                    ))
                    break
    return decisions


def _step_action(action: Action, frame: EventFrame) -> StepAction:
    if action is Action.CREATE:
        return StepAction(action, to_loc=_loc(frame.to_loc))
    if action is Action.DESTROY:
        return StepAction(action, from_loc=_frame_any_location(frame))
    return StepAction(action, from_loc=_loc(frame.from_loc), to_loc=_loc(frame.to_loc))


def _frame_any_location(frame: EventFrame) -> str | None:
    # On a destruction, any location attached to the frame is where it
    # happened, so it counts as the from side.
    for ref in (frame.from_loc, frame.to_loc, frame.roles.get("LOCATION")):
        loc = _loc(ref)
        if loc is not None:
            return loc
    return None
