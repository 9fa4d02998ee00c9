"""``apply_rules`` walks ``RULE_TABLE``; it must decide exactly as the
hand-written rule branches it replaced, kept here as the reference."""

import random

from statetrack.abstraction import ArgRef, EventFrame
from statetrack.corpus import Action, Entity, Step, StepAction, normalize, tokenize
from statetrack.parses import ActionClass
from statetrack.rules import RULE_NAMES, LocalDecision, apply_rules, match_argument


def _reference_loc(ref):
    if ref is None:
        return None
    norm = normalize(ref.text)
    return norm if norm else None


def _reference_any_location(frame):
    for ref in (frame.from_loc, frame.to_loc, frame.roles.get("LOCATION")):
        loc = _reference_loc(ref)
        if loc is not None:
            return loc
    return None


def reference_apply_rules(frames, entities, step, disabled=frozenset()):
    """The rule table as six hand-written branches."""
    decisions = []
    decided = set()

    def emit(rule, frame, arg, action, from_loc=None, to_loc=None):
        if rule in disabled:
            return
        for entity in entities:
            key = (frame.node_id, entity.canonical_name)
            if key in decided:
                continue
            if match_argument(arg, entity, step.index):
                decided.add(key)
                decisions.append(
                    LocalDecision(
                        entity=entity,
                        action=StepAction(action, from_loc=from_loc, to_loc=to_loc),
                        rule=rule,
                        frame_node=frame.node_id,
                    )
                )
                return

    for frame in frames:
        if frame.step_index != step.index:
            raise ValueError(
                f"frame at step {frame.step_index} passed with step {step.index}"
            )
        roles = frame.roles
        if frame.action_class is ActionClass.MOVE:
            if "AFFECTED" in roles:
                emit("move_affected", frame, roles["AFFECTED"], Action.MOVE,
                     from_loc=_reference_loc(frame.from_loc), to_loc=_reference_loc(frame.to_loc))
            elif "AGENT" in roles:
                emit("move_agent", frame, roles["AGENT"], Action.MOVE,
                     from_loc=_reference_loc(frame.from_loc), to_loc=_reference_loc(frame.to_loc))
        elif frame.action_class is ActionClass.DESTROY:
            if "AFFECTED" in roles:
                emit("destroy_affected", frame, roles["AFFECTED"], Action.DESTROY,
                     from_loc=_reference_any_location(frame))
        elif frame.action_class is ActionClass.CREATE:
            if "AFFECTED_RESULT" in roles:
                emit("create_affected_result", frame, roles["AFFECTED_RESULT"],
                     Action.CREATE, to_loc=_reference_loc(frame.to_loc))
            elif "AFFECTED" in roles:
                emit("create_affected", frame, roles["AFFECTED"], Action.CREATE,
                     to_loc=_reference_loc(frame.to_loc))
        elif frame.action_class is ActionClass.CHANGE:
            if "AFFECTED" in roles:
                emit("change_affected_res", frame, roles["AFFECTED"], Action.DESTROY,
                     from_loc=_reference_any_location(frame))
            res = roles.get("RES") or roles.get("RESULT")
            if res is not None:
                emit("change_affected_res", frame, res, Action.CREATE,
                     to_loc=_reference_loc(frame.to_loc))
    return decisions


# Entities share aliases ("water" names two of them), and some phrases
# match only by head noun, only by coreference span, or not at all.
_ENTITIES = (
    Entity("water", ("water",)),
    Entity("steam", ("steam", "water", "vapor")),
    Entity("magma", ("magma",)),
    Entity("lava", ("lava", "magma")),
    Entity("rocks", ("rocks", "rock")),
    Entity("carbon dioxide", ("carbon dioxide",)),
)
_PHRASES = ("water", "the water", "steam", "molten magma", "lava", "rocks", "the rock",
            "carbon dioxide", "it", "them", "the sand", "")
_PLACES = ("shelf", "the library", "air", "", "the", None)
_ROLES = ("AFFECTED", "AGENT", "AFFECTED_RESULT", "RES", "RESULT", "LOCATION", "INSTRUMENT")
_TEXT = "It rises while the water and the rocks sink into the sea ."


def _span(rng):
    if rng.random() < 0.4:
        return None
    start = rng.randrange(6)
    return (start, start + rng.randrange(1, 3))


def _arg(rng, text, node_id):
    return ArgRef(text, _span(rng), node_id)


def _place(rng, node_id):
    text = rng.choice(_PLACES)
    return None if text is None else _arg(rng, text, node_id)


def _random_case(rng):
    index = rng.randrange(1, 4)
    step = Step(index, _TEXT, tuple(tokenize(_TEXT)))
    entities = []
    for entity in rng.sample(_ENTITIES, rng.randrange(1, len(_ENTITIES) + 1)):
        mentions = tuple(
            (rng.randrange(1, 4), (start, start + rng.randrange(1, 3)))
            for start in rng.sample(range(6), rng.randrange(3))
        )
        entities.append(entity.with_coref(mentions))
    frames = []
    for f in range(rng.randrange(1, 5)):
        roles = {
            role: _arg(rng, rng.choice(_PHRASES), f"N{f}-{role}")
            for role in _ROLES
            if rng.random() < 0.45
        }
        frames.append(EventFrame(
            step_index=index,
            predicate_word="verb",
            onto_type="X",
            action_class=rng.choice(list(ActionClass)),
            roles=roles,
            to_loc=_place(rng, f"N{f}-TO"),
            from_loc=_place(rng, f"N{f}-FROM"),
            # a repeated node id shares the at-most-once (node, entity) guard
            node_id=f"V{rng.randrange(3)}",
        ))
    disabled = frozenset(r for r in (*RULE_NAMES, "no_such_rule") if rng.random() < 0.2)
    return frames, entities, step, disabled


# Groups with a second rule: (first rule, its role, the second rule's role).
_FALLBACKS = {
    ActionClass.MOVE: ("move_affected", "AFFECTED", "AGENT"),
    ActionClass.CREATE: ("create_affected_result", "AFFECTED_RESULT", "AFFECTED"),
    ActionClass.CHANGE: ("change_affected_res", "RES", "RESULT"),
}


def test_rule_table_decides_as_the_rule_branches():
    rng = random.Random(20261018)
    fired = dict.fromkeys(RULE_NAMES, 0)
    both_roles = first_disabled = 0  # frames where the order within a group matters
    for _ in range(4000):
        frames, entities, step, disabled = _random_case(rng)
        expected = reference_apply_rules(frames, entities, step, disabled)
        assert apply_rules(frames, entities, step, disabled) == expected
        for d in expected:
            fired[d.rule] += 1
        for frame in frames:
            rule, first, second = _FALLBACKS.get(frame.action_class, (None, None, None))
            if rule is not None and {first, second} <= frame.roles.keys():
                both_roles += 1
                first_disabled += rule in disabled
    assert all(fired.values()), fired
    assert both_roles > 500 and first_disabled > 100, (both_roles, first_disabled)
