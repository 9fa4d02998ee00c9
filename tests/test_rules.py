import random

from statetrack.abstraction import ArgRef, EventFrame
from statetrack.corpus import Action, Entity, Step, tokenize
from statetrack.parses import ActionClass
from statetrack.rules import RULE_NAMES, apply_rules, match_argument


def _step(index=1, text="Something happens ."):
    return Step(index, text, tuple(tokenize(text)))


def _frame(cls, roles, step=1, node="V1", to_loc=None, from_loc=None):
    return EventFrame(
        step_index=step,
        predicate_word="verb",
        onto_type="X",
        action_class=cls,
        roles={k: ArgRef(v, None, f"N-{k}") for k, v in roles.items()},
        to_loc=ArgRef(to_loc, None, "N-TO") if to_loc else None,
        from_loc=ArgRef(from_loc, None, "N-FROM") if from_loc else None,
        node_id=node,
    )


def _ent(name):
    return Entity(name, (name,))


class TestRuleTable:
    def test_rule_names_in_table_order(self):
        # --rules-off names these, and the benchmark counts firings by them
        assert RULE_NAMES == (
            "move_affected",
            "move_agent",
            "destroy_affected",
            "create_affected_result",
            "create_affected",
            "change_affected_res",
        )

    def test_move_affected_over_agent(self):
        frame = _frame(ActionClass.MOVE, {"AGENT": "water", "AFFECTED": "rocks"})
        decisions = apply_rules([frame], [_ent("rocks"), _ent("water")], _step())
        assert len(decisions) == 1
        d = decisions[0]
        assert d.entity.canonical_name == "rocks"
        assert d.action.action is Action.MOVE
        assert d.rule == "move_affected"

    def test_move_agent_only(self):
        frame = _frame(ActionClass.MOVE, {"AGENT": "water"})
        decisions = apply_rules([frame], [_ent("water")], _step())
        assert [d.entity.canonical_name for d in decisions] == ["water"]
        assert decisions[0].rule == "move_agent"

    def test_change_destroys_affected_creates_res(self):
        frame = _frame(ActionClass.CHANGE, {"AFFECTED": "magma", "RES": "lava"})
        decisions = apply_rules([frame], [_ent("magma"), _ent("lava")], _step())
        by_entity = {d.entity.canonical_name: d.action.action for d in decisions}
        assert by_entity == {"magma": Action.DESTROY, "lava": Action.CREATE}

    def test_destroy_frame_location_is_from_loc(self):
        frame = _frame(ActionClass.DESTROY, {"AFFECTED": "oxygen"}, from_loc="air")
        (d,) = apply_rules([frame], [_ent("oxygen")], _step())
        assert d.action.action is Action.DESTROY
        assert d.action.from_loc == "air"

    def test_one_decision_per_entity_and_frame(self):
        # Both roles name "water"; the first entity takes the destroy, so
        # the create goes to the next entity the result matches.
        frame = _frame(ActionClass.CHANGE, {"AFFECTED": "water", "RES": "water"})
        entities = [_ent("water"), Entity("steam", ("steam", "water"))]
        decisions = apply_rules([frame], entities, _step())
        assert [(d.entity.canonical_name, d.action.action) for d in decisions] == [
            ("water", Action.DESTROY),
            ("steam", Action.CREATE),
        ]

    def test_create_affected_result_priority(self):
        frame = _frame(ActionClass.CREATE, {"AFFECTED_RESULT": "vapor", "AFFECTED": "water"})
        decisions = apply_rules([frame], [_ent("water"), _ent("vapor")], _step())
        assert [(d.entity.canonical_name, d.rule) for d in decisions] == [
            ("vapor", "create_affected_result")
        ]

    def test_change_with_only_affected_degrades_to_destroy(self):
        frame = _frame(ActionClass.CHANGE, {"AFFECTED": "magma"})
        decisions = apply_rules([frame], [_ent("magma"), _ent("lava")], _step())
        assert [(d.entity.canonical_name, d.action.action) for d in decisions] == [
            ("magma", Action.DESTROY)
        ]

    def test_change_with_only_res_degrades_to_create(self):
        frame = _frame(ActionClass.CHANGE, {"RES": "lava"})
        decisions = apply_rules([frame], [_ent("magma"), _ent("lava")], _step())
        assert [(d.entity.canonical_name, d.action.action) for d in decisions] == [
            ("lava", Action.CREATE)
        ]

    def test_multi_verb_sentence_keeps_both_decisions(self):
        # "The oxygen is consumed in the process of forming carbon dioxide."
        destroy = _frame(ActionClass.DESTROY, {"AFFECTED": "oxygen"}, node="V1")
        create = _frame(ActionClass.CREATE, {"AFFECTED_RESULT": "carbon dioxide"}, node="V2")
        decisions = apply_rules([destroy, create], [_ent("oxygen"), _ent("carbon dioxide")], _step())
        assert {(d.entity.canonical_name, d.action.action) for d in decisions} == {
            ("oxygen", Action.DESTROY),
            ("carbon dioxide", Action.CREATE),
        }

    def test_actions_limited_to_create_move_destroy(self):
        frames = [
            _frame(ActionClass.CHANGE, {"AFFECTED": "a", "RES": "b"}, node="V1"),
            _frame(ActionClass.MOVE, {"AFFECTED": "a"}, node="V2"),
        ]
        for d in apply_rules(frames, [_ent("a"), _ent("b")], _step()):
            assert d.action.action in (Action.CREATE, Action.MOVE, Action.DESTROY)

    def test_disabled_rule(self):
        frame = _frame(ActionClass.MOVE, {"AFFECTED": "rocks"})
        assert apply_rules([frame], [_ent("rocks")], _step(), frozenset(["move_affected"])) == []

    def test_frame_order_permutation_preserves_multiset(self):
        rng = random.Random(5)
        frames = [
            _frame(ActionClass.MOVE, {"AFFECTED": "a"}, node="V1", to_loc="x"),
            _frame(ActionClass.DESTROY, {"AFFECTED": "b"}, node="V2"),
            _frame(ActionClass.CREATE, {"AFFECTED": "c"}, node="V3"),
        ]
        entities = [_ent("a"), _ent("b"), _ent("c")]
        base = apply_rules(frames, entities, _step())
        key = lambda d: (d.entity.canonical_name, d.action)
        for _ in range(10):
            shuffled = frames[:]
            rng.shuffle(shuffled)
            permuted = apply_rules(shuffled, entities, _step())
            assert sorted(map(key, permuted)) == sorted(map(key, base))


class TestMatchArgument:
    def test_article_stripped(self):
        assert match_argument(ArgRef("the oxygen", None, "N1"), _ent("oxygen"), 1)

    def test_different_noun(self):
        assert not match_argument(ArgRef("carbon dioxide", None, "N1"), _ent("oxygen"), 1)

    def test_coref_overlap(self):
        entity = Entity("bones", ("bones",), coref_mentions=((3, (4, 5)),))
        assert match_argument(ArgRef("them", (4, 5), "N1"), entity, step_index=3)
        assert not match_argument(ArgRef("them", (4, 5), "N1"), entity, step_index=2)

    def test_head_noun(self):
        assert match_argument(ArgRef("the molten magma", None, "N1"), _ent("magma"), 1)
