"""Turn event frames into local per-entity decisions.

The rule table, applied in order, first match per frame and role:

    rule name              frame class  roles required   decision
    ---------------------  -----------  ---------------  --------------------------
    move_affected          MOVE         AFFECTED         AFFECTED moves
    move_agent             MOVE         AGENT only       AGENT moves
    destroy_affected       DESTROY      AFFECTED         AFFECTED destroyed
    create_affected_result CREATE       AFFECTED_RESULT  AFFECTED_RESULT created
    create_affected        CREATE       AFFECTED         AFFECTED created
    change_affected_res    CHANGE       AFFECTED, RES    AFFECTED destroyed, RES created

A change frame missing one of its two roles degrades to the half it has.
Conflicting decisions for one entity at one step are all kept, in frame
order; global reasoning resolves them later.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import ArgRef, EventFrame
from .corpus import Action, Entity, Step, StepAction, spans_overlap
from .parses import ActionClass

RULE_NAMES = (
    "move_affected",
    "move_agent",
    "destroy_affected",
    "create_affected_result",
    "create_affected",
    "change_affected_res",
)


@dataclass(frozen=True)
class LocalDecision:
    step_index: int
    entity: Entity
    action: StepAction
    rule: str
    frame_node: str  # provenance: id of the frame node that fired


def match_argument(arg: ArgRef, entity: Entity, step_index: int | None = None) -> bool:
    """True when the argument refers to the entity.

    Matches the normalized phrase or its head noun (last token) against any
    alias, or the argument span against a registered coreference mention.
    """
    norm = arg.norm
    head = norm.split(" ")[-1] if norm else ""
    if norm in entity.aliases or head in entity.aliases:
        return True
    if step_index is not None and arg.span is not None:
        for span in entity.coref_spans(step_index):
            if spans_overlap(arg.span, span):
                return True
    return False


def _loc(ref: ArgRef | None) -> str | None:
    if ref is None:
        return None
    norm = ref.norm
    return norm if norm else None


def apply_rules(
    frames: list[EventFrame],
    entities: list[Entity],
    step: Step,
    disabled: frozenset[str] = frozenset(),
) -> list[LocalDecision]:
    """Apply the rule table to every frame of one step.

    A decision is only emitted when the chosen role filler matches one of
    the tracked entities.  Unknown rule names in ``disabled`` are ignored.
    """
    decisions: list[LocalDecision] = []
    decided: set[tuple[str, str]] = set()  # (frame node, entity name) pairs

    def emit(rule: str, frame: EventFrame, arg: ArgRef, action: Action,
             from_loc: str | None = None, to_loc: str | None = None) -> None:
        if rule in disabled:
            return
        for entity in entities:
            # at most one decision per (entity, frame)
            key = (frame.node_id, entity.canonical_name)
            if key in decided:
                continue
            if match_argument(arg, entity, step.index):
                decided.add(key)
                decisions.append(
                    LocalDecision(
                        step_index=step.index,
                        entity=entity,
                        action=StepAction(action, from_loc=from_loc, to_loc=to_loc),
                        rule=rule,
                        frame_node=frame.node_id,
                    )
                )
                return  # one decision per (frame, role)

    for frame in frames:
        if frame.step_index != step.index:
            raise ValueError(
                f"frame at step {frame.step_index} passed with step {step.index}"
            )
        roles = frame.roles
        if frame.action_class is ActionClass.MOVE:
            if "AFFECTED" in roles:
                emit("move_affected", frame, roles["AFFECTED"], Action.MOVE,
                     from_loc=_loc(frame.from_loc), to_loc=_loc(frame.to_loc))
            elif "AGENT" in roles:
                emit("move_agent", frame, roles["AGENT"], Action.MOVE,
                     from_loc=_loc(frame.from_loc), to_loc=_loc(frame.to_loc))
        elif frame.action_class is ActionClass.DESTROY:
            if "AFFECTED" in roles:
                emit("destroy_affected", frame, roles["AFFECTED"], Action.DESTROY,
                     from_loc=_frame_any_location(frame))
        elif frame.action_class is ActionClass.CREATE:
            if "AFFECTED_RESULT" in roles:
                emit("create_affected_result", frame, roles["AFFECTED_RESULT"],
                     Action.CREATE, to_loc=_loc(frame.to_loc))
            elif "AFFECTED" in roles:
                emit("create_affected", frame, roles["AFFECTED"], Action.CREATE,
                     to_loc=_loc(frame.to_loc))
        elif frame.action_class is ActionClass.CHANGE:
            if "AFFECTED" in roles:
                emit("change_affected_res", frame, roles["AFFECTED"], Action.DESTROY,
                     from_loc=_frame_any_location(frame))
            res = roles.get("RES") or roles.get("RESULT")
            if res is not None:
                emit("change_affected_res", frame, res, Action.CREATE,
                     to_loc=_loc(frame.to_loc))
    return decisions


def _frame_any_location(frame: EventFrame) -> str | None:
    # On a destruction, any location attached to the frame is where it
    # happened, so it counts as the from side.
    for ref in (frame.from_loc, frame.to_loc, frame.roles.get("LOCATION")):
        loc = _loc(ref)
        if loc is not None:
            return loc
    return None
