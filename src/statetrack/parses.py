"""Ingest semantic parses from files: logical-form graphs with typed nodes
and role-labeled edges, plus shallow predicate-argument frames.

The parsers themselves are external systems; this module only loads and
validates their output.  It also loads the three configuration tables
(ontology, action classes, role synonyms) and resolves ontology types to
action classes by walking the type hierarchy upward until a mapped ancestor
is found.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from pathlib import Path

from .corpus import (
    as_id, as_int, as_list, as_span, as_str, read_json_records, read_tsv, require_key,
    spans_overlap,
)
from .errors import SchemaError


class ActionClass(str, Enum):
    CREATE = "CREATE"
    MOVE = "MOVE"
    DESTROY = "DESTROY"
    CHANGE = "CHANGE"
    OTHER = "OTHER"


# ---------------------------------------------------------------------------
# Logical-form graphs

# Records are tuples with named fields (see ``corpus``).

class LfNode(namedtuple("LfNode", "id indicator onto_type word span")):
    """A node: id, term indicator ("F" marks predicate/function nodes),
    ontology type, word, and token span (start, end) or None."""

    __slots__ = ()

    @property
    def is_predicate(self) -> bool:
        return self.indicator.upper() == "F"


class LfEdge(namedtuple("LfEdge", "src label dst")):
    """A role-labeled edge between two node ids."""

    __slots__ = ()


class LogicalFormGraph(namedtuple("LogicalFormGraph", "sentence_index nodes edges root")):
    """One sentence's parse: its nodes and edges in file order, and its root
    node id or None."""

    __slots__ = ()


def load_trips(path) -> list[LogicalFormGraph]:
    """Load logical-form graphs, one per sentence, sorted by sentence index."""
    return _load_sentences(path, _parse_lf_obj)


def _parse_lf_obj(obj: dict, idx: int) -> LogicalFormGraph:
    # Each field is tested inline with an exact-type check; only a field that
    # fails it goes through its checked accessor, which raises that field's
    # message or reads an integer id as its decimal text.
    nodes = []
    ids = set()
    for n in as_list(obj.get("nodes", []), "nodes"):
        nid = n.get("id") if type(n) is dict else None
        if type(nid) is not str:
            nid = as_id(require_key(n, "id", "node"), "node id")
        if nid in ids:
            raise SchemaError(f"duplicate node id {nid!r}")
        ids.add(nid)
        indicator, onto_type, word = n.get("indicator", ""), n.get("type", ""), n.get("word", "")
        span = n.get("span")
        try:
            if type(indicator) is not str:
                indicator = as_str(indicator, "indicator")
            if type(onto_type) is not str:
                onto_type = as_str(onto_type, "type")
            if type(word) is not str:
                word = as_str(word, "word")
            if span is not None:
                span = as_span(span, "span")
        except SchemaError as exc:
            raise SchemaError(f"node {nid}: {exc}") from None
        nodes.append(LfNode(nid, indicator, onto_type.upper(), word, span))
    edges = []
    for e in as_list(obj.get("edges", []), "edges"):
        src = e.get("src") if type(e) is dict else None
        if type(src) is not str:
            src = as_id(require_key(e, "src", "edge"), "edge src")
        label = e.get("label")
        if type(label) is not str:
            label = as_str(require_key(e, "label", "edge"), "edge label")
        dst = e.get("dst")
        if type(dst) is not str:
            dst = as_id(require_key(e, "dst", "edge"), "edge dst")
        if src not in ids or dst not in ids:
            raise SchemaError(f"edge references unknown node {dst if src in ids else src!r}")
        edges.append(LfEdge(src, label.upper(), dst))
    root = obj.get("root")
    if root is not None:
        root = as_id(root, "root")
        if root not in ids:
            raise SchemaError(f"root {root!r} is not a node")
    return LogicalFormGraph(sentence_index=idx, nodes=tuple(nodes), edges=tuple(edges), root=root)


# ---------------------------------------------------------------------------
# Role-labeled frames

class SrlArg(namedtuple("SrlArg", "role span text")):
    __slots__ = ()


class SrlFrame(namedtuple("SrlFrame", "predicate_span predicate_text args")):
    __slots__ = ()


class SrlDoc(namedtuple("SrlDoc", "sentence_index frames")):
    __slots__ = ()


def load_srl(path) -> list[SrlDoc]:
    """Load predicate-argument frame documents, sorted by sentence index."""
    return _load_sentences(path, _parse_srl_obj)


def _parse_srl_obj(obj: dict, idx: int) -> SrlDoc:
    frames = []
    for f in as_list(obj.get("frames", []), "frames"):
        pred = require_key(f, "predicate", "frame")
        pspan = as_span(require_key(pred, "span", "predicate"), "predicate span")
        args = []
        for a in as_list(f.get("args", []), "args"):
            aspan = as_span(require_key(a, "span", "argument"), "argument span")
            if spans_overlap(aspan, pspan):
                raise SchemaError(f"argument span {aspan} overlaps predicate {pspan}")
            role = as_str(require_key(a, "role", "argument"), "argument role").upper()
            text = as_str(require_key(a, "text", "argument"), "argument text")
            args.append(SrlArg(role=role, span=aspan, text=text))
        ptext = as_str(require_key(pred, "text", "predicate"), "predicate text")
        frames.append(SrlFrame(predicate_span=pspan, predicate_text=ptext, args=tuple(args)))
    return SrlDoc(sentence_index=idx, frames=tuple(frames))


def _load_sentences(path, parse_obj) -> list:
    """``parse_obj(record, sentence_index)`` of every record of a parse file,
    sorted by sentence index.  A repeated index is rejected, and an error
    names the file and, once its index is read, the sentence."""
    source = str(path)
    parses = []
    seen: set[int] = set()
    for obj in read_json_records(path, "parse file"):
        idx = None
        try:
            idx = as_int(require_key(obj, "sentence_index", "sentence"), "sentence_index")
            parses.append(parse_obj(obj, idx))
        except SchemaError as exc:
            where = source if idx is None else f"{source}: sentence {idx}"
            raise SchemaError(f"{where}: {exc}") from None
        if idx in seen:
            raise SchemaError(f"{source}: duplicate sentence_index {idx}")
        seen.add(idx)
    parses.sort(key=lambda p: p.sentence_index)
    return parses


def parses_by_step(procedure, parses) -> dict:
    """A procedure's parses keyed by sentence index: every step must have one,
    every parse be of a step, and every span pass its step's ``check_span``."""
    by_index = {p.sentence_index: p for p in parses}
    steps = {s.index for s in procedure.steps}
    try:
        if missing := sorted(steps - by_index.keys()):
            raise SchemaError(f"no parse for step(s) {missing}")
        if extra := sorted(by_index.keys() - steps):
            raise SchemaError(f"no step for parsed sentence(s) {extra}")
        for step in procedure.steps:
            parse = by_index[step.index]
            if type(parse) is SrlDoc:
                for frame in parse.frames:
                    step.check_span(frame.predicate_span, "predicate")
                    for arg in frame.args:
                        step.check_span(arg.span, "noun_phrase")
            else:
                for node in parse.nodes:
                    if node.span is not None:
                        step.check_span(node.span, "node", node.id)
    except SchemaError as exc:
        raise SchemaError(f"procedure {procedure.id}: {exc}") from None
    return by_index


# ---------------------------------------------------------------------------
# Action-class resolution and the configuration tables

def ontology_class(onto_type: str, ontology: dict[str, str],
                   class_map: dict[str, ActionClass]) -> ActionClass:
    """Resolve a type to its action class via the nearest mapped ancestor.

    A direct entry wins; otherwise the walk goes strictly upward through the
    parent chain; a type with no mapped ancestor is OTHER.  A walk that
    comes back to a type it has passed is an ontology cycle (SchemaError).
    """
    seen = set()
    current = onto_type.upper()
    while current not in class_map:
        seen.add(current)
        current = ontology.get(current)
        if current is None:
            return ActionClass.OTHER
        if current in seen:
            raise SchemaError(f"ontology cycle detected at {current!r}")
    return class_map[current]


def default_ontology(path=None) -> dict[str, str]:
    """Each type's parent type."""
    return _read_config("ontology.tsv", path, "ontology file", ("child", "parent"))


def default_class_map(path=None) -> dict[str, ActionClass]:
    """Each mapped type's action class: CREATE, MOVE, DESTROY or CHANGE."""
    names = _read_config("action_classes.tsv", path, "action-class map", ("type", "class"),
                         allowed=("CREATE", "MOVE", "DESTROY", "CHANGE"))
    return {onto_type: ActionClass(name) for onto_type, name in names.items()}


def default_role_synonyms(path=None) -> dict[str, str]:
    """Each raw edge label's canonical role or location category."""
    return _read_config("role_synonyms.tsv", path, "role-synonym file", ("raw_label", "target"))


def _read_config(name: str, path, what: str, columns: tuple[str, str],
                 allowed: tuple[str, ...] | None = None) -> dict[str, str]:
    """The key -> value table of a two-column config TSV: ``path``, else the
    shipped file ``name``.  Both columns are upper-cased here, once (the
    parse loader upper-cases node types and edge labels, so lookups fold no
    case).  Blank and "#" lines are skipped.  A repeated key is rejected,
    not left to override the earlier line, and so is a value outside
    ``allowed``."""
    path = Path(__file__).parent / "data" / name if path is None else Path(path)
    table: dict[str, str] = {}
    for lineno, fields in read_tsv(path, what, columns, comments=True):
        key, value = (f.strip().upper() for f in fields)
        if key in table:
            raise SchemaError(f"{path}:{lineno}: duplicate {columns[0]} {key!r}")
        if allowed is not None and value not in allowed:
            raise SchemaError(f"{path}:{lineno}: unknown {columns[1]} {value!r}")
        table[key] = value
    return table
