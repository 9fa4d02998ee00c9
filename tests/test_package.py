"""The package's public names, resolved on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import statetrack

SRC = Path(__file__).resolve().parents[1] / "src"

# What ``from statetrack import *`` gave when the package imported every
# module eagerly: the names it re-exported and the modules it loaded, less
# ``FixedSequence``, which ``resolve_locations`` no longer returns,
# ``Ontology`` and ``ActionClassMap``: the configuration tables are plain dicts,
# ``find_mentions``: ``corpus.find_all_mentions`` is the one mention finder,
# and ``derive_actions``: ``reasoning.grid_to_action_rows`` is the one
# derivation of exported actions.
EXPORTED = [
    "Action", "ActionClass", "Entity", "EntityTimeline", "EventFrame",
    "LocalDecision", "MetricReport", "PassiveLocationFact",
    "Procedure", "SemanticGraph", "StateGrid", "Step", "StepAction", "abstract_events",
    "abstraction", "apply_rules", "build_srl_graph", "build_trips_graph",
    "categorize_decisions", "corpus", "errors", "eval_decision_level",
    "eval_document_level", "eval_sentence_level", "extend_qa_graph",
    "fix_actions", "load_procedures", "load_srl", "load_trips", "match_argument", "metrics",
    "normalize", "ontology_class", "parses", "predict", "reasoning", "resolve_locations",
    "rules", "semgraph",
]


def _fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", EXPORTED)
def test_every_exported_name_resolves(name):
    assert getattr(statetrack, name) is not None
    assert name in dir(statetrack)


def test_star_import_gives_the_exported_names():
    namespace: dict = {}
    exec("from statetrack import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTED


def test_names_are_their_modules_objects():
    from statetrack import metrics, reasoning

    assert statetrack.predict is reasoning.predict
    assert statetrack.MetricReport is metrics.MetricReport


def test_submodule_by_attribute_in_a_fresh_interpreter():
    out = _fresh("import sys, statetrack\n"
                 "print('statetrack.metrics' in sys.modules)\n"
                 "print(statetrack.metrics.__name__)\n")
    assert out.split() == ["False", "statetrack.metrics"]


def test_package_import_loads_no_module():
    out = _fresh("import sys, statetrack\n"
                 "print(sorted(m for m in sys.modules if m.startswith('statetrack.')))\n")
    assert out.strip() == "[]"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        statetrack.no_such_name
    with pytest.raises(ImportError):
        exec("from statetrack import no_such_name", {})
