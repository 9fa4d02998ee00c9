"""Reduce a logical-form graph to the event frames that matter for entity
tracking: which predicate happened, in which action class, with which role
fillers and locations.

Noun-attached locative modifiers ("the book on the shelf") do not describe
an event; they come out separately as passive location facts.
"""

from __future__ import annotations

from collections import namedtuple

from .corpus import normalize
from .parses import (
    ActionClass,
    LogicalFormGraph,
    default_role_synonyms,  # noqa: F401 - re-exported: callers import it from here
    ontology_class,
)

TO_LOC = "TO_LOC"
FROM_LOC = "FROM_LOC"
LOCATION = "LOCATION"

_LOCATION_CATEGORIES = (TO_LOC, FROM_LOC, LOCATION)


class ArgRef(namedtuple("ArgRef", "text span node_id norm")):
    """A role filler: its surface text, token span, and source node, plus
    ``norm``, the text normalized once when the filler is made, because rule
    matching reads it once per tracked entity."""

    __slots__ = ()

    def __new__(cls, text: str, span: tuple[int, int] | None, node_id: str):
        return tuple.__new__(cls, (text, span, node_id, normalize(text)))

    def __getnewargs__(self):
        return self[:3]


class EventFrame:
    """One event: its predicate, action class, role fillers and the
    locations it names."""

    __slots__ = ("step_index", "predicate_word", "onto_type", "action_class", "roles",
                 "to_loc", "from_loc", "node_id")

    def __init__(self, step_index: int, predicate_word: str, onto_type: str,
                 action_class: ActionClass, roles: dict[str, ArgRef] | None = None,
                 to_loc: ArgRef | None = None, from_loc: ArgRef | None = None,
                 node_id: str = ""):
        self.step_index = step_index
        self.predicate_word = predicate_word
        self.onto_type = onto_type
        self.action_class = action_class
        self.roles = {} if roles is None else roles
        self.to_loc = to_loc
        self.from_loc = from_loc
        self.node_id = node_id

    def to_dict(self) -> dict:
        return {
            "step": self.step_index,
            "predicate": self.predicate_word,
            "type": self.onto_type,
            "class": self.action_class.value,
            "roles": {k: v.text for k, v in sorted(self.roles.items())},
            "to_loc": self.to_loc.text if self.to_loc else None,
            "from_loc": self.from_loc.text if self.from_loc else None,
        }


class PassiveLocationFact(namedtuple("PassiveLocationFact", "step_index holder location")):
    """An entity sitting somewhere, stated without an action."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"step": self.step_index, "holder": self.holder.text, "location": self.location.text}


def frame_nodes(graph: LogicalFormGraph, ontology: dict[str, str],
                class_map: dict[str, ActionClass]):
    """Yield (node, action class) for every node that makes an event frame:
    a predicate node whose type resolves to a class other than OTHER."""
    for node in graph.nodes:
        if node.is_predicate:
            cls = ontology_class(node.onto_type, ontology, class_map)
            if cls is not ActionClass.OTHER:
                yield node, cls


def abstract_events(
    graph: LogicalFormGraph,
    ontology: dict[str, str],
    class_map: dict[str, ActionClass],
    synonyms: dict[str, str],
) -> tuple[list[EventFrame], list[PassiveLocationFact]]:
    """Extract event frames and passive location facts from one parse.

    One frame is produced per node that ``frame_nodes`` yields; predicate
    nodes resolving to OTHER are skipped.  Location-category edges on a
    frame go to to_loc/from_loc (on destroy frames every attached location
    counts as the from side); all other edges land in the role map under
    their canonical label.  Locative edges hanging off non-predicate nodes
    become passive facts.
    """
    frames: list[EventFrame] = []
    for node, cls in frame_nodes(graph, ontology, class_map):
        frame = EventFrame(
            step_index=graph.sentence_index,
            predicate_word=node.word,
            onto_type=node.onto_type,
            action_class=cls,
            node_id=node.id,
        )
        for edge in graph.out_edges(node.id):
            target = graph.node(edge.dst)
            arg = ArgRef(text=target.word, span=target.span, node_id=target.id)
            category = synonyms.get(edge.label, edge.label)
            if cls is ActionClass.DESTROY and category in _LOCATION_CATEGORIES:
                if frame.from_loc is None:
                    frame.from_loc = arg
            elif category == TO_LOC:
                if frame.to_loc is None:
                    frame.to_loc = arg
            elif category == FROM_LOC:
                if frame.from_loc is None:
                    frame.from_loc = arg
            else:
                frame.roles.setdefault(category, arg)
        frames.append(frame)
    facts: list[PassiveLocationFact] = []
    for node in graph.nodes:
        if node.is_predicate:
            continue
        for edge in graph.out_edges(node.id):
            if synonyms.get(edge.label, edge.label) != LOCATION:
                continue
            target = graph.node(edge.dst)
            if target.is_predicate or not target.word:
                continue
            holder = ArgRef(text=node.word, span=node.span, node_id=node.id)
            location = ArgRef(text=target.word, span=target.span, node_id=target.id)
            if holder.norm == location.norm:
                continue
            facts.append(
                PassiveLocationFact(
                    step_index=graph.sentence_index, holder=holder, location=location
                )
            )
    return frames, facts
