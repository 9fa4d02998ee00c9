"""The traced in-process run: the library calls each CLI command makes, in
the same order, with a span around every call into a layer.

``run_pass`` reassembles every command's output bytes, so a caller can check
them against the CLI's digests: the per-layer numbers then describe the
same program the end-to-end numbers time.  Spans live in memory (name,
start, end, parent) and are written out once, when the run ends.  The
stages inside ``reasoning.predict`` are timed by swapping the names it calls
in its module for timing wrappers while the pass runs; nothing under
``src/`` is changed.  With a ``NullTracer`` the pass makes the same calls
without spans; the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from statetrack import corpus as corpus_mod
from statetrack import metrics, reasoning, semgraph
from statetrack.abstraction import abstract_events, default_role_synonyms
from statetrack.parses import default_class_map, default_ontology, load_srl, load_trips
from statetrack.rules import RULE_NAMES

# Layer timings reported from the spans: metric "<span name>_s".
TIMED_SPANS = (
    "parses.config_load", "parses.load_trips", "parses.load_srl",
    "corpus.load_procedures", "corpus.write_action_tsv", "corpus.grids_from_action_tsv",
    "abstraction.abstract_events", "rules.apply_rules",
    "reasoning.predict", "reasoning.fix_actions", "reasoning.resolve_locations",
    "reasoning.grid_to_action_rows",
    "semgraph.build_trips_graph", "semgraph.build_srl_graph", "semgraph.extend_qa_graph",
    "semgraph.to_dict", "semgraph.json_encode",
    "metrics.eval_sentence_level", "metrics.eval_document_level",
    "metrics.categorize_decisions", "metrics.eval_decision_level",
)
COUNTS = (
    "parses.lf_nodes", "parses.lf_edges", "corpus.action_rows",
    "abstraction.frames", "abstraction.passive_facts", "rules.decisions",
    *(f"rules.fired.{rule}" for rule in RULE_NAMES),
    "reasoning.timelines", "reasoning.conflict_slots",
    "semgraph.nodes", "semgraph.edges_role", "semgraph.edges_path", "semgraph.edges_same",
    "semgraph.edges_coref", "semgraph.edges_qa", "semgraph.intra_pairs",
    "semgraph.cross_pairs", "semgraph.output_bytes",
    "metrics.categorized_decisions", "metrics.gold_events", "metrics.disagreeing_cells",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name, plus ``<name>#self``: the duration
        minus the time its child spans cover."""
        out: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
            out[name + "#self"] = out.get(name + "#self", 0.0) + (end - start)
            if parent is not None:
                pname = self.spans[parent][0] + "#self"
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(records, separators=(",", ":")) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), None, parent])
        tracer._open.append(self.index)

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._open.pop()
        return False


class NullTracer:
    _null = nullcontext()

    def span(self, name: str):
        return self._null


def run_pass(gen, tracer, work: Path) -> tuple[dict[str, bytes], dict[str, float]]:
    """Run every command's library calls on a generated corpus.

    Returns each command's output bytes (keyed like ``check.OUTPUTS``) and
    the per-layer counts.
    """
    counts = dict.fromkeys(COUNTS, 0)
    outputs: dict[str, bytes] = {}
    pred_path = work / "trace_predict.tsv"
    with tracer.span("command.predict"):
        outputs["predict"] = _predict(gen, tracer, counts, pred_path)
    outputs["predict_jobs2"] = outputs["predict"]
    with tracer.span("command.abstract"):
        outputs["abstract"] = _abstract(gen, tracer)
    with tracer.span("command.evaluate"):
        outputs["evaluate"] = _evaluate(gen, tracer, counts, pred_path)
    with tracer.span("command.build_graph"):
        outputs["build_graph"] = _graphs(gen, tracer, counts, "trips", ())
    with tracer.span("command.build_graph_srl"):
        outputs["build_graph_srl"] = _graphs(gen, tracer, counts, "srl", ())
    with tracer.span("command.build_graph_qa"):
        outputs["build_graph_qa"] = _graphs(gen, tracer, counts, "trips", gen.qa_entities)
    counts["semgraph.output_bytes"] = sum(
        len(outputs[k]) for k in ("build_graph", "build_graph_srl", "build_graph_qa")
    )
    return outputs, counts


def _load(gen, tracer, configs: bool = True):
    with tracer.span("corpus.load_procedures"):
        pairs = corpus_mod.load_procedures(gen.corpus)
    procedures = [p for p, _ in pairs]
    if gen.coref is not None:
        with tracer.span("corpus.load_coref"):
            procedures = corpus_mod.load_coref(gen.coref, procedures)
    gold = {g.procedure_id: g for _, g in pairs}
    cfg = None
    if configs:
        with tracer.span("parses.config_load"):
            cfg = (default_ontology(), default_class_map(), default_role_synonyms())
    return procedures, gold, cfg


def _trips(gen, tracer, pid: str):
    with tracer.span("parses.load_trips"):
        return load_trips(gen.parses / f"{pid}.trips.json")


def _encode(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def _predict(gen, tracer, counts, pred_path: Path) -> bytes:
    procedures, _, (ontology, class_map, synonyms) = _load(gen, tracer)
    rows = []
    for proc in procedures:
        graphs = _trips(gen, tracer, proc.id)
        counts["parses.lf_nodes"] += sum(len(g.nodes) for g in graphs)
        counts["parses.lf_edges"] += sum(len(g.edges) for g in graphs)
        results: list = []
        with _staged(tracer, results), tracer.span("reasoning.predict"):
            grid = reasoning.predict(proc, graphs, ontology, class_map, synonyms)
        _count_stages(results, counts)
        with tracer.span("reasoning.grid_to_action_rows"):
            rows.extend(reasoning.grid_to_action_rows(
                grid, [e.canonical_name for e in proc.entities]))
    counts["corpus.action_rows"] = len(rows)
    with tracer.span("corpus.write_action_tsv"):
        corpus_mod.write_action_tsv(pred_path, rows)
    return pred_path.read_bytes()


# The stage functions reasoning.predict calls through its module namespace,
# with the span each is timed under.  What is left of the reasoning.predict
# span after these is its per-entity filtering over all steps.
STAGES = {
    "abstract_events": "abstraction.abstract_events",
    "apply_rules": "rules.apply_rules",
    "fix_actions": "reasoning.fix_actions",
    "resolve_locations": "reasoning.resolve_locations",
}


@contextmanager
def _staged(tracer, results: list):
    """Swap predict's stage functions for wrappers that time each call and
    append (stage, argument, result) to ``results``; counting from them is
    left until predict has returned, so it is not timed as predict's."""
    originals = {name: getattr(reasoning, name) for name in STAGES}

    def wrap(name, func):
        span = STAGES[name]

        def staged(*args, **kwargs):
            with tracer.span(span):
                out = func(*args, **kwargs)
            results.append((name, args[0], out))
            return out
        return staged

    for name, func in originals.items():
        setattr(reasoning, name, wrap(name, func))
    try:
        yield
    finally:
        for name, func in originals.items():
            setattr(reasoning, name, func)


def _count_stages(results: list, counts: dict) -> None:
    for name, arg, out in results:
        if name == "abstract_events":
            frames, facts = out
            counts["abstraction.frames"] += len(frames)
            counts["abstraction.passive_facts"] += len(facts)
        elif name == "apply_rules":
            counts["rules.decisions"] += len(out)
            for d in out:
                counts[f"rules.fired.{d.rule}"] += 1
        elif name == "fix_actions":
            counts["reasoning.timelines"] += 1
            counts["reasoning.conflict_slots"] += sum(1 for s in arg.slots.values() if len(s) > 1)


def _abstract(gen, tracer) -> bytes:
    procedures, _, (ontology, class_map, synonyms) = _load(gen, tracer)
    out = []
    for proc in procedures:
        for graph in _trips(gen, tracer, proc.id):
            with tracer.span("abstraction.abstract_events"):
                frames, facts = abstract_events(graph, ontology, class_map, synonyms)
            out.append({
                "procedure": proc.id,
                "step": graph.sentence_index,
                "frames": [f.to_dict() for f in frames],
                "passive": [f.to_dict() for f in facts],
            })
    return _encode(out)


def _evaluate(gen, tracer, counts, pred_path: Path) -> bytes:
    procedures, gold, _ = _load(gen, tracer, configs=False)
    with tracer.span("corpus.grids_from_action_tsv"):
        pred = corpus_mod.grids_from_action_tsv(pred_path)
    report = metrics.MetricReport()
    with tracer.span("metrics.eval_sentence_level"):
        report.sentence = metrics.eval_sentence_level(pred, gold)
    with tracer.span("metrics.eval_document_level"):
        report.document = metrics.eval_document_level(pred, gold)
    with tracer.span("parses.config_load"):
        ontology, class_map = default_ontology(), default_class_map()
    parses = {proc.id: _trips(gen, tracer, proc.id) for proc in procedures}
    with tracer.span("metrics.categorize_decisions"):
        categories = metrics.categorize_decisions(gold, procedures, parses, ontology, class_map)
    with tracer.span("metrics.eval_decision_level"):
        report.decision = metrics.eval_decision_level(pred, gold, categories)
    counts["metrics.categorized_decisions"] = len(categories)
    counts["metrics.gold_events"] = sum(c.gold for c in report.document.criteria.values())
    counts["metrics.disagreeing_cells"] = sum(
        a != b
        for pid, grid in gold.items()
        for name, row in grid.rows.items()
        for a, b in zip(row, pred[pid].rows[name])
    )
    return _encode(report.to_dict())


def _graphs(gen, tracer, counts, parser: str, qa_names) -> bytes:
    procedures, _, _ = _load(gen, tracer, configs=False)
    out = []
    for proc in procedures:
        if parser == "trips":
            graphs = _trips(gen, tracer, proc.id)
            with tracer.span("semgraph.build_trips_graph"):
                graph = semgraph.build_trips_graph(proc, graphs)
            if not qa_names:
                _count_graph(graph, counts)
        else:
            with tracer.span("parses.load_srl"):
                docs = load_srl(gen.parses / f"{proc.id}.srl.json")
            with tracer.span("semgraph.build_srl_graph"):
                graph = semgraph.build_srl_graph(proc, docs)
        if not qa_names:
            with tracer.span("semgraph.to_dict"):
                out.append({"procedure": proc.id, "entity": None, "graph": graph.to_dict()})
            continue
        for name in qa_names:
            key = corpus_mod.normalize(name)
            matches = [e for e in proc.entities if key in e.aliases]
            if not matches:
                continue
            with tracer.span("semgraph.extend_qa_graph"):
                extended = semgraph.extend_qa_graph(graph, matches[0], proc)
            counts["semgraph.edges_qa"] += sum(
                1 for e in extended.edges
                if e.type_label in (semgraph.QUESTION_EDGE, semgraph.STEP_EDGE)
            )
            with tracer.span("semgraph.to_dict"):
                out.append({"procedure": proc.id, "entity": matches[0].canonical_name,
                            "graph": extended.to_dict()})
    with tracer.span("semgraph.json_encode"):
        return _encode(out)


def _count_graph(graph, counts) -> None:
    counts["semgraph.nodes"] += len(graph.nodes)
    for edge in graph.edges:
        label = edge.type_label
        if label == semgraph.SAME:
            counts["semgraph.edges_same"] += 1
        elif label == semgraph.COREF:
            counts["semgraph.edges_coref"] += 1
        elif "|" in label:
            counts["semgraph.edges_path"] += 1
        else:
            counts["semgraph.edges_role"] += 1
    per_step: dict[int, int] = {}
    phrases: dict[int, int] = {}
    for node in graph.nodes:
        per_step[node.step_index] = per_step.get(node.step_index, 0) + 1
        if node.kind in ("entity_mention", "noun_phrase"):
            phrases[node.step_index] = phrases.get(node.step_index, 0) + 1
    counts["semgraph.intra_pairs"] += sum(n * (n - 1) // 2 for n in per_step.values())
    total = sum(phrases.values())
    counts["semgraph.cross_pairs"] += (total * total - sum(p * p for p in phrases.values())) // 2
