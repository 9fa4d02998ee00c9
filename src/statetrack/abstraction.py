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
    LfEdge,
    LogicalFormGraph,
    default_role_synonyms,  # noqa: F401 - re-exported: callers import it from here
    ontology_class,
)

TO_LOC = "TO_LOC"
FROM_LOC = "FROM_LOC"
LOCATION = "LOCATION"

_LOCATION_CATEGORIES = (TO_LOC, FROM_LOC, LOCATION)


class ArgRef(namedtuple("ArgRef", "text span node_id")):
    """A role filler: its surface text, token span, and source node."""

    __slots__ = ()


class EventFrame(namedtuple("EventFrame", "step_index predicate_word onto_type action_class "
                                          "roles to_loc from_loc node_id")):
    """One event: its predicate, action class, role fillers (a dict keyed by
    canonical role) and the locations it names."""

    __slots__ = ()

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
    their canonical label; of two edges filling one slot, the first in file
    order wins.  Locative edges hanging off non-predicate nodes become
    passive facts, in node order and then edge order.  Nodes and out-edges
    are indexed here, once per call: no other reader needs the index.
    """
    by_id = {node.id: node for node in graph.nodes}
    out: dict[str, list[LfEdge]] = {}
    for edge in graph.edges:
        out.setdefault(edge.src, []).append(edge)
    frames: list[EventFrame] = []
    for node, cls in frame_nodes(graph, ontology, class_map):
        roles: dict[str, ArgRef] = {}
        to_loc = from_loc = None
        for edge in out.get(node.id, ()):
            target = by_id[edge.dst]
            arg = ArgRef(text=target.word, span=target.span, node_id=target.id)
            category = synonyms.get(edge.label, edge.label)
            if cls is ActionClass.DESTROY and category in _LOCATION_CATEGORIES:
                if from_loc is None:
                    from_loc = arg
            elif category == TO_LOC:
                if to_loc is None:
                    to_loc = arg
            elif category == FROM_LOC:
                if from_loc is None:
                    from_loc = arg
            else:
                roles.setdefault(category, arg)
        frames.append(EventFrame(graph.sentence_index, node.word, node.onto_type, cls,
                                 roles, to_loc, from_loc, node.id))
    facts: list[PassiveLocationFact] = []
    for node in graph.nodes:
        if node.is_predicate:
            continue
        for edge in out.get(node.id, ()):
            if synonyms.get(edge.label, edge.label) != LOCATION:
                continue
            target = by_id[edge.dst]
            if target.is_predicate or not target.word:
                continue
            holder = ArgRef(text=node.word, span=node.span, node_id=node.id)
            location = ArgRef(text=target.word, span=target.span, node_id=target.id)
            if normalize(holder.text) == normalize(location.text):
                continue
            facts.append(
                PassiveLocationFact(
                    step_index=graph.sentence_index, holder=holder, location=location
                )
            )
    return frames, facts
