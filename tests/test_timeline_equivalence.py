"""The forward passes and argument matching against a frozen copy of the
code they replaced.

``_Reference`` below is the earlier ``fix_actions``, ``resolve_locations``
(with ``EntityTimeline.passive_locations``) and ``match_argument``, kept
verbatim in logic.  The reference ``resolve_locations`` also counts which
location source filled a cell, so the test can require that every source
was exercised; it returns its rewritten action list and its row, of which
only the row is compared, as the current ``resolve_locations`` returns the
row alone.  On seeded random timelines, whose location alphabet holds ""
and the reserved "?" and "-", the current code must give equal output for
raw and fixed sequences, with ``strict_destroy`` off and on.
"""

import random
from collections import Counter

from genutil import random_timeline
from statetrack.abstraction import ArgRef, PassiveLocationFact
from statetrack.corpus import (
    NONEXISTENT,
    UNKNOWN,
    Action,
    Entity,
    StepAction,
    normalize,
    spans_overlap,
)
from statetrack.reasoning import fix_actions, resolve_locations
from statetrack.rules import match_argument

ALPHABET = ["pond", "lake", "", "?", "-", None]
PLACES = [loc for loc in ALPHABET if loc is not None]


class _Reference:
    @staticmethod
    def passive_locations(timeline, step_index):
        return [normalize(f.location.text) for f in timeline.passive if f.step_index == step_index]

    @staticmethod
    def fix_actions(timeline, strict_destroy=False):
        fixed = []
        last_action = None
        last_loc = None
        for t in range(1, timeline.num_steps + 1):
            decisions = timeline.slots.get(t, [])
            if not decisions:
                fixed.append(StepAction(Action.NONE))
                continue
            current = decisions[0].action
            cur_loc = _Reference.action_location(current)
            if last_action in (Action.CREATE, Action.MOVE) and current.action is Action.CREATE:
                if _Reference.same_loc(cur_loc, last_loc):
                    fixed.append(StepAction(Action.NONE))
                    continue
                current = StepAction(Action.MOVE, from_loc=last_loc, to_loc=current.to_loc)
            elif last_action is Action.DESTROY and current.action is Action.DESTROY:
                if _Reference.same_loc(cur_loc, last_loc):
                    fixed.append(StepAction(Action.NONE))
                    continue
                if strict_destroy:
                    fixed.append(StepAction(Action.NONE))
                    continue
                current = StepAction(Action.MOVE, from_loc=last_loc, to_loc=cur_loc)
            fixed.append(current)
            last_action = current.action
            new_loc = _Reference.action_location(current)
            if new_loc is not None:
                last_loc = new_loc
        return fixed

    @staticmethod
    def action_location(action):
        if action.action in (Action.CREATE, Action.MOVE):
            return action.to_loc
        if action.action is Action.DESTROY:
            return action.from_loc
        return None

    @staticmethod
    def same_loc(a, b):
        return (a or UNKNOWN) == (b or UNKNOWN)

    @staticmethod
    def resolve_locations(actions, timeline, seen):
        m = timeline.num_steps
        acts = list(actions)

        for t in range(1, m + 1):
            a = acts[t - 1]
            if a.action is not Action.NONE and a.from_loc is None:
                passive = _Reference.passive_locations(timeline, t)
                if passive:
                    acts[t - 1] = StepAction(a.action, from_loc=passive[0], to_loc=a.to_loc)

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
                    seen["initial_from_first_move"] += t == first_move
                    break

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
                    seen["next_from_location"] += 1
                    break
                if nxt.action is Action.NONE:
                    passive = _Reference.passive_locations(timeline, u)
                    if passive:
                        target = passive[0]
                        seen["idle_passive_target"] += 1
                        break
            seen["unknown_target"] += target is None
            acts[t - 1] = StepAction(
                a.action, from_loc=a.from_loc, to_loc=target if target is not None else UNKNOWN
            )

        for t in range(1, m + 1):
            a = acts[t - 1]
            if a.action in (Action.MOVE, Action.CREATE) and a.to_loc is None:
                acts[t - 1] = StepAction(a.action, from_loc=a.from_loc, to_loc=UNKNOWN)

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
                    passive = _Reference.passive_locations(timeline, t)
                    if passive:
                        cur = passive[0]
                        i = t - 1
                        while i >= 0 and row[i] == UNKNOWN:
                            row[i] = cur
                            if i == 0:
                                break
                            entering = acts[i - 1]
                            if entering.action is not Action.NONE:
                                acts[i - 1] = StepAction(
                                    entering.action, from_loc=entering.from_loc, to_loc=cur
                                )
                                seen["backward_fill_rewrites_action"] += 1
                                break
                            i -= 1
                row.append(cur)
        return acts, row

    @staticmethod
    def match_argument(arg, entity, step_index=None):
        norm = normalize(arg.text)
        head = norm.split(" ")[-1] if norm else ""
        for alias in entity.aliases:
            if norm == alias or head == alias:
                return True
        if step_index is not None and arg.span is not None:
            for span in entity.coref_spans(step_index):
                if spans_overlap(arg.span, span):
                    return True
        return False


def test_forward_passes_match_the_reference():
    rng = random.Random(2027)
    seen = Counter()
    for max_steps in (3, 10, 25):
        for _ in range(800):
            timeline = random_timeline(rng, max_steps, ALPHABET)
            # A second fact at some steps, and the facts out of step order,
            # so that which fact of a step comes first in the list matters.
            timeline.passive.extend([
                PassiveLocationFact(f.step_index, f.holder, ArgRef(rng.choice(PLACES), None, "N2"))
                for f in timeline.passive
                if rng.random() < 0.5
            ])
            rng.shuffle(timeline.passive)
            steps = [f.step_index for f in timeline.passive]
            seen["facts_sharing_a_step"] += len(steps) > len(set(steps))
            # The first decision per step, unfixed, reaches resolve_locations
            # with sequences fix_actions never emits.
            raw = [
                timeline.slots[t][0].action if t in timeline.slots else StepAction(Action.NONE)
                for t in range(1, timeline.num_steps + 1)
            ]
            _, row = _Reference.resolve_locations(raw, timeline, Counter())
            assert resolve_locations(raw, timeline) == row
            for strict in (False, True):
                fixed = fix_actions(timeline, strict_destroy=strict)
                assert fixed == _Reference.fix_actions(timeline, strict_destroy=strict)
                _, row = _Reference.resolve_locations(fixed, timeline, seen)
                assert resolve_locations(fixed, timeline) == row
                seen["strict_drop"] += strict and fixed != _Reference.fix_actions(timeline)
    sources = (
        "next_from_location",
        "idle_passive_target",
        "unknown_target",
        "backward_fill_rewrites_action",
        "initial_from_first_move",
        "strict_drop",
        "facts_sharing_a_step",
    )
    assert all(seen[name] > 0 for name in sources), seen


_NOUNS = ["water", "the water", "liquid", "big rock", "rock", "A  Rock", "the", "", "?", "-"]
_ALIASES = [("water", "liquid"), ("rock",), ("steam", "water"), ("-",), ("?",)]


def test_match_argument_matches_the_reference():
    rng = random.Random(7)
    seen = Counter()
    for _ in range(5000):
        start = rng.randint(0, 4)
        arg = ArgRef(
            rng.choice(_NOUNS), rng.choice([None, (start, start + rng.randint(1, 2))]), "N1"
        )
        mentions = tuple(
            (rng.randint(1, 2), (s, s + 1)) for s in rng.sample(range(6), rng.randint(0, 2))
        )
        entity = Entity("e", rng.choice(_ALIASES), mentions)
        # mentions sit at steps 1 and 2, so step 3 matches by alias only
        step_index = rng.choice([1, 2, 3])
        expected = _Reference.match_argument(arg, entity, step_index)
        assert match_argument(arg, entity, step_index) is expected
        # the cached norm gives the same answer on a second call
        assert match_argument(arg, entity, step_index) is expected
        by_alias = _Reference.match_argument(arg, entity)
        seen["alias"] += by_alias
        seen["coref"] += expected and not by_alias
        seen["miss"] += not expected
    assert all(seen[name] > 0 for name in ("alias", "coref", "miss")), seen
