"""Symbolic entity state and location tracking over procedural text."""

__version__ = "0.1.0"

from .corpus import (
    Action,
    Entity,
    Procedure,
    StateGrid,
    Step,
    StepAction,
    derive_actions,
    find_mentions,
    load_procedures,
    normalize,
)
from .parses import ActionClass, Ontology, ActionClassMap, load_srl, load_trips, ontology_class
from .abstraction import EventFrame, PassiveLocationFact, abstract_events
from .rules import LocalDecision, apply_rules, match_argument
from .reasoning import EntityTimeline, FixedSequence, fix_actions, predict, resolve_locations
from .semgraph import SemanticGraph, build_srl_graph, build_trips_graph, extend_qa_graph
from .metrics import (
    MetricReport,
    categorize_decisions,
    eval_decision_level,
    eval_document_level,
    eval_sentence_level,
)
