"""The public records keep the value semantics the pipeline relies on.

Records are named tuples: equal fields give equal objects with equal
hashes, a pickle round-trip gives an equal object of the same class, and a
set of graph edges removes duplicates.  ``StepAction`` and
``SemanticGraph`` keep their checks, and a pickle round-trip goes through
them.
"""

import pickle

import pytest

from statetrack.abstraction import ArgRef, EventFrame, PassiveLocationFact
from statetrack.corpus import Action, Entity, Procedure, StateGrid, Step, StepAction
from statetrack.metrics import (
    CategoryScore,
    CriterionScore,
    DecisionCategory,
    DecisionScores,
    DocumentScores,
    SentenceScores,
)
from statetrack.parses import ActionClass, LfEdge, LfNode, LogicalFormGraph, SrlArg, SrlDoc, SrlFrame
from statetrack.reasoning import EntityTimeline
from statetrack.rules import LocalDecision
from statetrack.semgraph import GEdge, GNode, SemanticGraph


def _entity():
    return Entity("water", ("water", "liquid"), ((1, (0, 1)),))


def _procedure():
    return Procedure("p1", (Step(1, "Water flows .", ("Water", "flows", ".")),), (_entity(),))


def _arg():
    return ArgRef("the water", (0, 2), "N1")


def _criterion():
    return CriterionScore(50.0, 100.0, 66.7, 2, 1, 1)


def _category():
    return CategoryScore(100.0, None, None, 1, 0)


# name -> a function making a fresh record with the same fields every call
RECORDS = {
    "StepAction": lambda: StepAction(Action.MOVE, from_loc="lake", to_loc="sky"),
    "Step": lambda: Step(1, "Water flows .", ("Water", "flows", ".")),
    "Entity": _entity,
    "Procedure": _procedure,
    "LfNode": lambda: LfNode("N1", "F", "MOVE", "flows", (1, 2)),
    "LfEdge": lambda: LfEdge("N1", "AFFECTED", "N2"),
    "SrlArg": lambda: SrlArg("A1", (0, 1), "Water"),
    "SrlFrame": lambda: SrlFrame((1, 2), "flows", (SrlArg("A1", (0, 1), "Water"),)),
    "SrlDoc": lambda: SrlDoc(1, (SrlFrame((1, 2), "flows", ()),)),
    "ArgRef": _arg,
    "LogicalFormGraph": lambda: LogicalFormGraph(
        1, (LfNode("N1", "F", "MOVE", "flows", (1, 2)), LfNode("N2", "", "", "water", (0, 1))),
        (LfEdge("N1", "AFFECTED", "N2"),), "N1",
    ),
    "EventFrame": lambda: EventFrame(
        1, "flows", "MOVE", ActionClass.MOVE, {"AFFECTED": _arg()}, ArgRef("sea", None, "N3"),
        None, "V1",
    ),
    "PassiveLocationFact": lambda: PassiveLocationFact(1, _arg(), ArgRef("lake", None, "N2")),
    "LocalDecision": lambda: LocalDecision(
        _entity(), StepAction(Action.CREATE, to_loc="?"), "create_affected", "V1"
    ),
    "EntityTimeline": lambda: EntityTimeline(
        2,
        {1: [LocalDecision(_entity(), StepAction(Action.MOVE, to_loc="sea"), "move_affected",
                           "V1")]},
        [PassiveLocationFact(2, _arg(), ArgRef("lake", None, "N2"))],
    ),
    "GNode": lambda: GNode("s1.N1", "predicate", 1, (1, 2), "flows"),
    "GEdge": lambda: GEdge("s1.N1", "s1.N2", "AFFECTED"),
    "SemanticGraph": lambda: SemanticGraph(
        [GNode("s1.N1", "predicate", 1, (1, 2), "flows"),
         GNode("s1.N2", "entity_mention", 1, (0, 1), "Water")],
        [GEdge("s1.N1", "s1.N2", "AFFECTED")],
    ),
    "DecisionCategory": lambda: DecisionCategory("local", True),
    "SentenceScores": lambda: SentenceScores(
        100.0, 50.0, 50.0, 66.7, 75.0, {"cat1": (3, 3), "cat2": (1, 2), "cat3": (1, 2)}
    ),
    "CriterionScore": _criterion,
    "DocumentScores": lambda: DocumentScores({"moves": _criterion()}, 50.0, 100.0, 66.7),
    "CategoryScore": _category,
    "DecisionScores": lambda: DecisionScores({"local": _category()}, None, 0),
}
# These hold a dict or a list, so they have no hash.
UNHASHABLE = {"SentenceScores", "DocumentScores", "DecisionScores", "EventFrame",
              "EntityTimeline", "SemanticGraph"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b
    assert type(a).__name__ == name
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_round_trip(name):
    record = RECORDS[name]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_records_are_immutable():
    action = StepAction(Action.MOVE, from_loc="lake", to_loc="sky")
    with pytest.raises(AttributeError):
        action.to_loc = "sea"


def test_edge_set_removes_duplicates():
    edges = [GEdge("a", "b", "X"), GEdge("a", "b", "X"), GEdge("b", "a", "X"),
             GEdge("a", "b", "Y")]
    assert set(edges) == {edges[0], edges[2], edges[3]}
    assert len(set(edges)) == 3


@pytest.mark.parametrize("args, kwargs", [
    ((), {"to_loc": "x"}),
    ((), {"from_loc": "x"}),
    (("x",), {}),
    ((None, "x"), {}),
])
def test_none_action_carries_no_location(args, kwargs):
    with pytest.raises(ValueError, match="NONE carries no locations"):
        StepAction(Action.NONE, *args, **kwargs)


@pytest.mark.parametrize("make", [
    lambda: StateGrid("p1", {"water": ["lake", "sky"]}),
    lambda: LogicalFormGraph(
        1, (LfNode("N1", "F", "MOVE", "flows", (1, 2)), LfNode("N2", "", "", "water", (0, 1))),
        (LfEdge("N1", "AFFECTED", "N2"),), "N1",
    ),
])
def test_grid_and_parse_graph_compare_by_fields(make):
    a, b = make(), make()
    assert a == b
    assert pickle.loads(pickle.dumps(a)) == a


def test_grids_differ_by_rows():
    grid = StateGrid("p1", {"water": ["lake", "sky"]})
    assert grid != StateGrid("p1", {"water": ["lake", "sea"]})
    assert grid != StateGrid("p2", {"water": ["lake", "sky"]})
