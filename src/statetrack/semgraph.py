"""Build exportable semantic graphs over a procedure's parses.

Nodes are predicates, entity mentions, and noun phrases, one graph per
procedure.  Frame-based parses contribute untyped predicate-argument and
argument-argument edges.  Logical-form parses contribute a role-typed edge
per parse edge between surviving nodes (those with a word and a span), and
one synthesized edge, labelled with the shortest undirected path's labels
joined by "|", for every other pair of surviving nodes the parse connects,
even through surviving nodes ("rock sits on sand" gives rock->sand
"AGENT|LOC").  Mentions of the same phrase or the same entity are linked
across sentences ("SAME" / "COREF").

A question-answering extension adds one question node tied to the queried
entity's nodes and one node per step tied to that step's nodes.

Cost: a graph is two lists and indexes nothing.  A builder keeps its edges
in a dict used as an insertion-ordered set, so adding an edge is O(1) and
the first insertion fixes its position; the graph checks its node ids once,
when it is made.  Entity mentions are found once per step for all entities
(``find_all_mentions``), into one index per step from token position to
the names of the entities mentioned there; a node's kind and its
cross-sentence links read that index, O(span length) per node.  Path
synthesis runs one breadth-first search per surviving node of a sentence,
O(n * (n + e)) for n nodes and e edges of that sentence's parse.  Links
come only from within a group of equal normalized text (SAME) or of one
entity (COREF), so the output, whose pairs grow quadratically with the
repeats of a phrase, bounds the total.  ``render_graph_record`` writes
that output in one pass with fixed templates, rather than through the
pure-Python encoder ``json.dumps`` uses whenever ``indent`` is set.

Nodes and edges are named tuples: making one is a tuple allocation, and
the builders' edge dicts hash and compare edges in C rather than through
generated Python methods.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii as _json_str

from .corpus import (
    Entity,
    Procedure,
    find_all_mentions,
    normalize,
    spans_overlap,
    write_output,
)
from .parses import LogicalFormGraph, SrlDoc, parses_by_step

SAME = "SAME"
COREF = "COREF"
QUESTION_EDGE = "QUESTION"
STEP_EDGE = "STEP"


class GNode(namedtuple("GNode", "id kind step_index span text")):
    """A node; ``kind`` is predicate, entity_mention, noun_phrase, question
    or step."""

    __slots__ = ()


class GEdge(namedtuple("GEdge", "src dst type_label")):
    __slots__ = ()


class SemanticGraph(namedtuple("SemanticGraph", "nodes edges")):
    """Node and edge lists, in the order they are written out.  Node ids
    are unique; the check runs whenever the class is called, so make a
    changed copy with ``SemanticGraph(...)`` rather than ``_replace``, which
    bypasses it."""

    __slots__ = ()

    def __new__(cls, nodes: list[GNode], edges: list[GEdge]):
        ids = set()
        for node in nodes:
            if node.id in ids:
                raise ValueError(f"duplicate node id {node.id!r}")
            ids.add(node.id)
        return tuple.__new__(cls, (nodes, edges))

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": n.id,
                    "kind": n.kind,
                    "step": n.step_index,
                    "span": list(n.span) if n.span is not None else None,
                    "text": n.text,
                }
                for n in self.nodes
            ],
            "edges": [{"src": e.src, "dst": e.dst, "type": e.type_label} for e in self.edges],
        }


# ---------------------------------------------------------------------------
# graphs.json: a list of {"procedure", "entity", "graph"} records, laid out
# exactly as json.dumps(records, indent=2) + "\n" lays out the records'
# ``to_dict`` form.  Strings go through the escaper json itself uses with
# ensure_ascii, integers through int.__repr__ as json does.

_ITEM_SEP = ",\n"


def _span_json(span: tuple[int, int] | None) -> str:
    if span is None:
        return "null"
    start, end = int.__repr__(span[0]), int.__repr__(span[1])
    return f"[\n            {start},\n            {end}\n          ]"


def _list_json(items: list[str]) -> str:
    return f"[\n{_ITEM_SEP.join(items)}\n      ]" if items else "[]"


def render_graph_record(procedure_id: str, entity: str | None, graph: SemanticGraph) -> str:
    """One graphs.json record, as it appears inside the top-level list."""
    nodes = [
        "        {\n"
        f'          "id": {_json_str(n.id)},\n'
        f'          "kind": {_json_str(n.kind)},\n'
        f'          "step": {"null" if n.step_index is None else int.__repr__(n.step_index)},\n'
        f'          "span": {_span_json(n.span)},\n'
        f'          "text": {_json_str(n.text)}\n'
        "        }"
        for n in graph.nodes
    ]
    edges = [
        "        {\n"
        f'          "src": {_json_str(e.src)},\n'
        f'          "dst": {_json_str(e.dst)},\n'
        f'          "type": {_json_str(e.type_label)}\n'
        "        }"
        for e in graph.edges
    ]
    return (
        "  {\n"
        f'    "procedure": {_json_str(procedure_id)},\n'
        f'    "entity": {"null" if entity is None else _json_str(entity)},\n'
        '    "graph": {\n'
        f'      "nodes": {_list_json(nodes)},\n'
        f'      "edges": {_list_json(edges)}\n'
        "    }\n"
        "  }"
    )


def write_graph_records(path, records: list[str]) -> None:
    """Write rendered records as graphs.json, one write per record: the
    records are interleaved with their separators, never joined."""
    seps = ["[\n"] + [_ITEM_SEP] * (len(records) - 1)
    parts = [part for pair in zip(seps, records) for part in pair]
    write_output(path, parts + ["\n]\n"] if records else ["[]\n"])


def _index_mentions(procedure: Procedure):
    """Per step index: the step's entity mention spans, sorted and each
    once, and a map from token position to the names of the entities
    mentioned there."""
    spans_by_step, covered_by_step = {}, {}
    for step in procedure.steps:
        spans, at = set(), {}
        covered_by_step[step.index] = at
        for entity, found in zip(procedure.entities, find_all_mentions(procedure.entities, step)):
            spans.update(found)
            for start, end in found:
                for position in range(start, end):
                    at.setdefault(position, set()).add(entity.canonical_name)
        spans_by_step[step.index] = sorted(spans)
    return spans_by_step, covered_by_step


def _phrase_kind(span: tuple[int, int], at: dict[int, set[str]]) -> str:
    """A non-predicate node's kind: entity_mention when a token is mentioned."""
    return "noun_phrase" if at.keys().isdisjoint(range(*span)) else "entity_mention"


def build_srl_graph(procedure: Procedure, srl_docs: list[SrlDoc]) -> SemanticGraph:
    """Graph over frame parses: untyped edges inside each verb frame, plus
    cross-sentence mention links."""
    by_index = parses_by_step(procedure, srl_docs)
    spans_by_step, covered_by_step = _index_mentions(procedure)
    nodes: list[GNode] = []
    edges: dict[GEdge, None] = {}  # an insertion-ordered set
    for step in procedure.steps:
        doc = by_index[step.index]
        at = covered_by_step[step.index]
        span_to_id: dict[tuple[int, int], str] = {}

        def ensure(span: tuple[int, int], text: str, predicate: bool = False) -> str:
            if span in span_to_id:
                return span_to_id[span]
            node_id = f"s{step.index}.{span[0]}.{span[1]}"
            kind = "predicate" if predicate else _phrase_kind(span, at)
            nodes.append(GNode(node_id, kind, step.index, span, text))
            span_to_id[span] = node_id
            return node_id

        for frame in doc.frames:
            pred_id = ensure(frame.predicate_span, frame.predicate_text, predicate=True)
            arg_ids = [ensure(arg.span, arg.text) for arg in frame.args]
            for arg_id in arg_ids:
                edges[GEdge(pred_id, arg_id, "")] = None
            for i, a in enumerate(arg_ids):
                for b in arg_ids[i + 1 :]:
                    if a != b:  # two args of one span
                        edges[GEdge(a, b, "")] = None
        for span in spans_by_step[step.index]:
            if not any(spans_overlap(span, s) for s in span_to_id):
                ensure(span, " ".join(step.tokens[span[0] : span[1]]))
    _link_across_sentences(nodes, edges, covered_by_step)
    return SemanticGraph(nodes, list(edges))


def build_trips_graph(procedure: Procedure, lf_graphs: list[LogicalFormGraph]) -> SemanticGraph:
    """Graph over logical-form parses, keeping role labels on the edges."""
    by_index = parses_by_step(procedure, lf_graphs)
    covered_by_step = _index_mentions(procedure)[1]
    nodes: list[GNode] = []
    edges: dict[GEdge, None] = {}  # an insertion-ordered set
    for step in procedure.steps:
        lf = by_index[step.index]
        at = covered_by_step[step.index]
        included: dict[str, str] = {}  # lf node id -> graph node id
        for node in lf.nodes:
            if not node.word or node.span is None:
                continue
            kind = "predicate" if node.is_predicate else _phrase_kind(node.span, at)
            gid = f"s{step.index}.{node.id}"
            nodes.append(GNode(gid, kind, step.index, node.span, node.word))
            included[node.id] = gid

        adjacency: dict[str, list[tuple[str, str]]] = {n.id: [] for n in lf.nodes}
        for edge in lf.edges:
            adjacency[edge.src].append((edge.dst, edge.label))
            adjacency[edge.dst].append((edge.src, edge.label))
            if edge.src != edge.dst and edge.src in included and edge.dst in included:
                edges[GEdge(included[edge.src], included[edge.dst], edge.label)] = None

        # Pairs (a, b) with a before b in parse order, in that order; a path
        # of one label is a parse edge, emitted above.
        order = list(included)
        for k, a in enumerate(order):
            labels = _shortest_labels(adjacency, a)
            for b in order[k + 1 :]:
                if len(labels.get(b, ())) > 1:
                    edges[GEdge(included[a], included[b], "|".join(labels[b]))] = None
    _link_across_sentences(nodes, edges, covered_by_step)
    return SemanticGraph(nodes, list(edges))


def _shortest_labels(adjacency, start: str) -> dict[str, tuple[str, ...]]:
    """For every node reachable from start: the labels along the shortest
    undirected path, smallest label sequence among equally short paths.

    A node's sequence is fixed in the layer that first reaches it, from the
    sequences of the layer before, so it does not depend on which node a
    caller is looking for."""
    assigned: dict[str, tuple[str, ...]] = {start: ()}
    layer = [start]
    while layer:
        candidates: dict[str, tuple[str, ...]] = {}
        for node in layer:
            for neighbor, label in adjacency.get(node, []):
                if neighbor in assigned:
                    continue
                cand = assigned[node] + (label,)
                if neighbor not in candidates or cand < candidates[neighbor]:
                    candidates[neighbor] = cand
        assigned.update(candidates)
        layer = list(candidates)
    return assigned


def _link_across_sentences(
    nodes: list[GNode], edges: dict[GEdge, None], covered_by_step: dict[int, dict[int, set[str]]]
) -> None:
    """SAME edges for equal phrases, COREF edges for same-entity mentions.

    A pair of phrase nodes from different steps is linked SAME when their
    normalized texts are equal, else COREF when both overlap a mention of
    one entity.  Edges come out in the order of the pair's (first, second)
    positions among the phrase nodes."""
    phrase_nodes = [n for n in nodes if n.kind in ("entity_mention", "noun_phrase")]
    by_text: dict[str, list[int]] = {}
    by_entity: dict[str, list[int]] = {}
    for k, node in enumerate(phrase_nodes):
        by_text.setdefault(normalize(node.text), []).append(k)
        at = covered_by_step[node.step_index]
        for name in {name for p in range(*node.span) for name in at.get(p, ())}:
            by_entity.setdefault(name, []).append(k)

    links: dict[tuple[int, int], str] = {}
    for label, groups in ((SAME, by_text), (COREF, by_entity)):
        for group in groups.values():
            for x, i in enumerate(group):
                for j in group[x + 1 :]:
                    if phrase_nodes[i].step_index != phrase_nodes[j].step_index:
                        links.setdefault((i, j), label)
    for (i, j), label in sorted(links.items()):
        edges[GEdge(phrase_nodes[i].id, phrase_nodes[j].id, label)] = None


def extend_qa_graph(graph: SemanticGraph, entity: Entity, procedure: Procedure) -> SemanticGraph:
    """Add a question node for the entity and one node per step.

    The question node connects to every node that mentions the entity; each
    step node connects to every node of its step.  Always adds exactly
    (number of steps + 1) nodes; an entity that no node mentions gets a
    question node with no edge.  The input graph is left unchanged, so one
    graph serves every queried entity.
    """
    nodes, edges = list(graph.nodes), list(graph.edges)
    by_step: dict[int | None, list[GNode]] = {}
    for node in graph.nodes:
        by_step.setdefault(node.step_index, []).append(node)
    question_id = "question"
    nodes.append(GNode(question_id, "question", None, None, f"where is {entity.canonical_name}"))
    for step in procedure.steps:
        spans = find_all_mentions((entity,), step)[0]
        for node in by_step.get(step.index, []):
            if node.span is None or node.kind == "predicate":
                continue
            if (
                any(spans_overlap(node.span, s) for s in spans)
                or normalize(node.text) in entity.aliases
            ):
                edges.append(GEdge(question_id, node.id, QUESTION_EDGE))
    for step in procedure.steps:
        step_id = f"step.{step.index}"
        nodes.append(GNode(step_id, "step", step.index, None, step.text))
        edges.extend(GEdge(step_id, node.id, STEP_EDGE) for node in by_step.get(step.index, []))
    return SemanticGraph(nodes, edges)
