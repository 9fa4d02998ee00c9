"""Symbolic entity state and location tracking over procedural text.

The public names below are resolved on first access, so importing the
package, or one of its modules, loads only the modules that are used.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "corpus": ("Action", "Entity", "Procedure", "StateGrid", "Step", "StepAction",
               "load_procedures", "normalize"),
    "parses": ("ActionClass", "load_srl", "load_trips", "ontology_class"),
    "abstraction": ("EventFrame", "PassiveLocationFact", "abstract_events"),
    "rules": ("LocalDecision", "apply_rules", "match_argument"),
    "reasoning": ("EntityTimeline", "fix_actions", "predict", "resolve_locations"),
    "semgraph": ("SemanticGraph", "build_srl_graph", "build_trips_graph", "extend_qa_graph"),
    "metrics": ("MetricReport", "categorize_decisions", "eval_decision_level",
                "eval_document_level", "eval_sentence_level"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "errors")

__all__ = [*_MODULE_OF, *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
