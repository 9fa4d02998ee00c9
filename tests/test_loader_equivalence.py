"""The corpus and parse loaders against a frozen copy of the loaders they
replaced.

``_Reference`` below is the earlier code of the four JSON loaders (corpus,
coreference sidecar, logical-form parses, frame parses) and of the
propara-tsv corpus loader, kept verbatim in logic.  On every fixture and on
seeded random valid files the current loaders must return equal objects.
On seeded mutations of those files both must fail with the same error
class, or both succeed with equal objects, except for the inputs the
current loaders reject on purpose: the JSON ones of ``_newly_rejected``, and
a grids.tsv line whose action is not the one its locations give
(``_action_disagrees``).
"""

import copy
import json
import operator
import random
from functools import reduce
from pathlib import Path

import pytest

from genutil import write_paragraphs_tsv
from statetrack.corpus import (
    Action,
    Entity,
    Procedure,
    StateGrid,
    Step,
    as_int,
    load_coref,
    load_procedures,
    make_entity,
    normalize,
    read_tsv,
    spans_overlap,
    tokenize,
    transition,
)
from statetrack.errors import InputFileError, SchemaError
from statetrack.parses import (
    LfEdge,
    LfNode,
    LogicalFormGraph,
    SrlArg,
    SrlDoc,
    SrlFrame,
    load_srl,
    load_trips,
)

SEEDS = range(200)


class _Reference:
    """The earlier loaders, with the accessors they used."""

    @staticmethod
    def require_key(obj, key, where):
        if type(obj) is not dict:
            raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
        try:
            return obj[key]
        except KeyError:
            raise SchemaError(f"{where}: missing key {key!r}") from None

    @staticmethod
    def as_list(value, where):
        if type(value) is not list:
            raise SchemaError(f"{where}: expected a list, got {type(value).__name__}")
        return value

    @staticmethod
    def as_str(value, where):
        if type(value) is not str:
            raise SchemaError(f"{where}: expected a string, got {value!r}")
        return value

    @staticmethod
    def as_int(value, where):
        try:
            return int(value)
        except (TypeError, ValueError):
            raise SchemaError(f"{where}: expected an integer, got {value!r}") from None

    @staticmethod
    def as_span(value, where):
        if type(value) is list and len(value) == 2:
            start, end = value
            if type(start) is int and type(end) is int:
                return (start, end)
        raise SchemaError(f"{where}: span must be two integers, got {value!r}")

    @classmethod
    def read_json(cls, path):
        path = Path(path)
        if not path.exists():
            raise InputFileError(f"file not found: {path}")
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc

    # -- corpus -------------------------------------------------------------

    @classmethod
    def load_procedures(cls, path):
        data = cls.read_json(path)
        if isinstance(data, dict):
            data = [data]
        return [cls.parse_procedure_obj(obj, str(path)) for obj in data]

    @classmethod
    def parse_procedure_obj(cls, obj, source):
        try:
            pid = str(obj["id"])
            raw_steps = obj["steps"]
            raw_entities = obj["entities"]
            raw_grid = obj["gold_grid"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"{source}: procedure object missing key {exc}") from exc
        cls.as_list(raw_steps, f"{source}: procedure {pid}: steps")
        cls.as_list(raw_entities, f"{source}: procedure {pid}: entities")
        if not isinstance(raw_grid, dict):
            raise SchemaError(f"{source}: procedure {pid}: gold_grid must be an object")
        if not raw_steps:
            raise SchemaError(f"{source}: procedure {pid}: needs at least one step")
        steps = []
        for i, s in enumerate(raw_steps, start=1):
            where = f"{source}: procedure {pid}: step {i}"
            idx = cls.as_int(cls.require_key(s, "index", where), where)
            if idx != i:
                raise SchemaError(f"{where}: step indices must be contiguous")
            text = cls.require_key(s, "text", where)
            if not isinstance(text, str):
                raise SchemaError(f"{where}: text must be a string")
            tokens = s["tokens"] if "tokens" in s else tokenize(text)
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise SchemaError(f"{where}: tokens must be a list of strings")
            steps.append(Step(index=idx, text=text, tokens=tuple(tokens)))
        m = len(steps)
        entities = []
        seen_names = set()
        for e in raw_entities:
            where = f"{source}: procedure {pid}: entity"
            raw_name = cls.require_key(e, "name", where) if isinstance(e, dict) else e
            if not isinstance(raw_name, str):
                raise SchemaError(f"{where}: name must be a string, got {raw_name!r}")
            ent = make_entity(raw_name)
            if isinstance(e, dict) and e.get("aliases"):
                aliases = cls.as_list(e["aliases"], where)
                if not all(isinstance(a, str) for a in aliases):
                    raise SchemaError(f"{where}: aliases must be strings, got {aliases!r}")
                extra = tuple(normalize(a) for a in aliases)
                ent = Entity(ent.canonical_name, tuple(dict.fromkeys(ent.aliases + extra)))
            if ent.canonical_name in seen_names:
                raise SchemaError(f"{source}: procedure {pid}: duplicate entity")
            seen_names.add(ent.canonical_name)
            entities.append(ent)
        rows = {}
        for raw_name, cells in raw_grid.items():
            key = make_entity(raw_name).canonical_name
            if key not in seen_names:
                raise SchemaError(f"{source}: procedure {pid}: grid row for unknown entity")
            if not isinstance(cells, list) or not all(isinstance(c, str) for c in cells):
                raise SchemaError(f"{source}: procedure {pid}: cells must be a list of strings")
            if len(cells) != m + 1:
                raise SchemaError(f"{source}: procedure {pid}: wrong number of cells")
            rows[key] = [normalize(c) for c in cells]
        for ent in entities:
            if ent.canonical_name not in rows:
                raise SchemaError(f"{source}: procedure {pid}: no grid row for entity")
        proc = Procedure(id=pid, steps=tuple(steps), entities=tuple(entities))
        grid = StateGrid(procedure_id=pid, rows={e.canonical_name: rows[e.canonical_name] for e in entities})
        return proc, grid

    # -- propara-tsv corpus --------------------------------------------------
    # (``as_int`` here is the module's import from statetrack.corpus, which
    # this loader used, not the earlier JSON accessor above.)

    @classmethod
    def load_propara_tsv(cls, path):
        para_file = path / "paragraphs.tsv"
        grid_file = path / "grids.tsv"
        sentences = {}
        for lineno, (pid, idx, text) in read_tsv(
            para_file, "paragraph file", ("id", "sentence index", "sentence")
        ):
            t = as_int(idx, f"{para_file}:{lineno}")
            sent_map = sentences.setdefault(pid, {})
            if t in sent_map:
                raise SchemaError(f"{para_file}:{lineno}: duplicate sentence {t} of paragraph {pid}")
            sent_map[t] = text

        raw = cls.read_action_tsv(grid_file)
        out = []
        for pid, sent_map in sentences.items():
            m = max(sent_map)
            if sorted(sent_map) != list(range(1, m + 1)):
                raise SchemaError(f"{para_file}: paragraph {pid}: sentence indices not contiguous")
            steps = tuple(
                Step(index=i, text=sent_map[i], tokens=tuple(tokenize(sent_map[i])))
                for i in range(1, m + 1)
            )
            if pid not in raw:
                raise SchemaError(f"{grid_file}: no grid rows for paragraph {pid}")
            entities = []
            rows = {}
            for raw_name, per_step in raw[pid].items():
                ent = make_entity(raw_name)
                if ent.canonical_name in rows:
                    raise SchemaError(
                        f"{grid_file}: paragraph {pid}: duplicate entity {ent.canonical_name!r}"
                    )
                entities.append(ent)
                where = f"{grid_file}: paragraph {pid}, entity {raw_name!r}"
                rows[ent.canonical_name] = cls.assemble_row(per_step, m, where)
            proc = Procedure(id=pid, steps=steps, entities=tuple(entities))
            out.append((proc, StateGrid(procedure_id=pid, rows=rows)))
        extra = set(raw) - set(sentences)
        if extra:
            raise SchemaError(f"{grid_file}: grid rows for unknown paragraph(s) {sorted(extra)}")
        return out

    @staticmethod
    def assemble_row(per_step, m, where):
        if sorted(per_step) != list(range(1, m + 1)):
            raise SchemaError(f"{where}: expected {m + 1} cells, steps 1..{m} present, got {sorted(per_step)}")
        row = [per_step[1][0]]
        for t in range(1, m + 1):
            before, after = per_step[t]
            if t > 1 and before != row[-1]:
                raise SchemaError(f"{where}: step {t} before-location {before!r} != prior after-location {row[-1]!r}")
            row.append(after)
        return row

    @staticmethod
    def read_action_tsv(path):
        out = {}
        for lineno, (pid, step, entity, action, before, after) in read_tsv(
            path, "action file", ("id", "step", "entity", "action", "before", "after")
        ):
            if action not in Action.__members__:
                raise SchemaError(f"{path}:{lineno}: unknown action {action!r}")
            t = as_int(step, f"{path}:{lineno}")
            per_step = out.setdefault(pid, {}).setdefault(entity, {})
            if t in per_step:
                raise SchemaError(f"{path}:{lineno}: duplicate row for ({pid}, {entity}, step {t})")
            per_step[t] = (normalize(before), normalize(after))
        return out

    # -- coreference sidecar -------------------------------------------------

    @classmethod
    def load_coref(cls, path, procedures):
        data = cls.read_json(path)
        if isinstance(data, dict):
            data = [data]
        by_id = {p.id: p for p in procedures}
        mentions = {}
        for obj in data:
            pid = str(cls.require_key(obj, "procedure_id", str(path)))
            if pid not in by_id:
                raise SchemaError(f"{path}: coref for unknown procedure {pid!r}")
            for men in cls.as_list(obj.get("mentions", []), str(path)):
                where = f"{path}: procedure {pid}: mention"
                ent_name = normalize(str(cls.require_key(men, "entity", where)))
                step = cls.as_int(cls.require_key(men, "step", where), where)
                span = cls.as_span(cls.require_key(men, "span", where), where)
                if span[0] >= span[1]:
                    raise SchemaError(f"{path}: bad span {span} for {ent_name!r}")
                mentions.setdefault(pid, {}).setdefault(ent_name, []).append((step, span))
        out = []
        for proc in procedures:
            per_entity = mentions.get(proc.id, {})
            if not per_entity:
                out.append(proc)
                continue
            new_entities = []
            for ent in proc.entities:
                extra = [m for alias in ent.aliases for m in per_entity.get(alias, [])]
                for step, span in extra:
                    if not 1 <= step <= proc.num_steps:
                        raise SchemaError(f"{path}: coref step {step} out of range")
                    if span[1] > len(proc.step(step).tokens):
                        raise SchemaError(f"{path}: coref span {span} exceeds step tokens")
                new_entities.append(ent.with_coref(sorted(set(list(ent.coref_mentions) + extra))))
            out.append(Procedure(proc.id, proc.steps, tuple(new_entities)))
        return out

    # -- parses --------------------------------------------------------------

    @staticmethod
    def reject_duplicate_indices(parses, path):
        seen = set()
        for parse in parses:
            if parse.sentence_index in seen:
                raise SchemaError(f"{path}: duplicate sentence_index {parse.sentence_index}")
            seen.add(parse.sentence_index)

    @classmethod
    def load_trips(cls, path):
        data = cls.read_json(path)
        if isinstance(data, dict):
            data = [data]
        graphs = [cls.parse_lf_obj(obj, str(path)) for obj in data]
        cls.reject_duplicate_indices(graphs, path)
        graphs.sort(key=lambda g: g.sentence_index)
        return graphs

    @classmethod
    def parse_lf_obj(cls, obj, source):
        idx = cls.as_int(cls.require_key(obj, "sentence_index", source), source)
        where = f"{source}: sentence {idx}"
        nodes = []
        ids = set()
        for n in cls.as_list(obj.get("nodes", []), where):
            nid = str(cls.require_key(n, "id", f"{where}: node"))
            if nid in ids:
                raise SchemaError(f"{where}: duplicate node id {nid!r}")
            ids.add(nid)
            span = n.get("span")
            this = f"{where}: node {nid}"
            nodes.append(
                LfNode(
                    id=nid,
                    indicator=cls.as_str(n.get("indicator", ""), f"{this}: indicator"),
                    onto_type=cls.as_str(n.get("type", ""), f"{this}: type").upper(),
                    word=cls.as_str(n.get("word", ""), f"{this}: word"),
                    span=cls.as_span(span, this) if span is not None else None,
                )
            )
        edges = []
        for e in cls.as_list(obj.get("edges", []), where):
            src = str(cls.require_key(e, "src", f"{where}: edge"))
            label = str(cls.require_key(e, "label", f"{where}: edge"))
            dst = str(cls.require_key(e, "dst", f"{where}: edge"))
            for endpoint in (src, dst):
                if endpoint not in ids:
                    raise SchemaError(f"{where}: edge references unknown node {endpoint!r}")
            edges.append(LfEdge(src=src, label=label.upper(), dst=dst))
        root = obj.get("root")
        if root is not None and str(root) not in ids:
            raise SchemaError(f"{where}: root {root!r} is not a node")
        return LogicalFormGraph(
            sentence_index=idx,
            nodes=tuple(nodes),
            edges=tuple(edges),
            root=str(root) if root is not None else None,
        )

    @classmethod
    def load_srl(cls, path):
        data = cls.read_json(path)
        if isinstance(data, dict):
            data = [data]
        docs = []
        for obj in data:
            idx = cls.as_int(cls.require_key(obj, "sentence_index", str(path)), str(path))
            where = f"{path}: sentence {idx}"
            pred_where, arg_where = f"{where}: predicate", f"{where}: argument"
            frames = []
            for f in cls.as_list(obj.get("frames", []), where):
                pred = cls.require_key(f, "predicate", f"{where}: frame")
                pspan = cls.as_span(cls.require_key(pred, "span", pred_where), pred_where)
                args = []
                for a in cls.as_list(f.get("args", []), where):
                    aspan = cls.as_span(cls.require_key(a, "span", arg_where), arg_where)
                    if spans_overlap(aspan, pspan):
                        raise SchemaError(f"{where}: argument span overlaps predicate")
                    role = cls.as_str(cls.require_key(a, "role", arg_where), arg_where).upper()
                    text = cls.as_str(cls.require_key(a, "text", arg_where), arg_where)
                    args.append(SrlArg(role=role, span=aspan, text=text))
                ptext = cls.as_str(cls.require_key(pred, "text", pred_where), pred_where)
                frames.append(SrlFrame(predicate_span=pspan, predicate_text=ptext, args=tuple(args)))
            docs.append(SrlDoc(sentence_index=idx, frames=tuple(frames)))
        cls.reject_duplicate_indices(docs, path)
        docs.sort(key=lambda d: d.sentence_index)
        return docs


# ---------------------------------------------------------------------------
# Seeded random valid files

WORDS = "water rock sand magma ash seed ice river soil cloud leaf stem".split()
ALIASES = "liquid stone grit lava cinder kernel frost stream dirt vapor".split()
LOCATIONS = ["-", "?", "soil", "The Lake", "river bed", "air"]


def _index(rng, i):
    """An integer field as the earlier and the current loaders both read it."""
    return str(i) if rng.random() < 0.2 else i


def _random_corpus(rng):
    procedures = []
    for k in range(rng.randint(1, 3)):
        m = rng.randint(1, 4)
        steps = []
        for i in range(1, m + 1):
            words = rng.sample(WORDS, rng.randint(1, 5))
            step = {"index": _index(rng, i), "text": " ".join(words) + " ."}
            if rng.random() < 0.5:
                step["tokens"] = words + ["."]
            steps.append(step)
        entities, grid = [], {}
        unused = rng.sample(ALIASES, len(ALIASES))  # no two entities share an alias
        for name in rng.sample(WORDS, rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.3:
                entities.append(name)
            elif roll < 0.6:
                entities.append({"name": f"{name};{unused.pop()}"})
            else:
                entities.append({"name": name,
                                 "aliases": [unused.pop() for _ in range(rng.randint(0, 2))]})
            grid[name.upper() if rng.random() < 0.2 else name] = [
                rng.choice(LOCATIONS) for _ in range(m + 1)
            ]
        pid = 100 + k if rng.random() < 0.3 else f"proc-{k}"
        procedures.append({"id": pid, "steps": steps, "entities": entities, "gold_grid": grid})
    if len(procedures) == 1 and rng.random() < 0.3:
        return procedures[0]
    return procedures


def _random_coref(rng, procedures):
    records = []
    for proc in procedures:
        if rng.random() < 0.3:
            continue
        mentions = []
        for _ in range(rng.randint(0, 3)):
            ent = rng.choice(proc.entities)
            step = rng.randint(1, proc.num_steps)
            n = len(proc.step(step).tokens)
            start = rng.randrange(n)
            mentions.append({
                "entity": rng.choice(ent.aliases).title() if rng.random() < 0.3 else rng.choice(ent.aliases),
                "step": _index(rng, step),
                "span": [start, rng.randint(start + 1, n)],
            })
        pid = int(proc.id) if proc.id.isdigit() else proc.id
        records.append({"procedure_id": pid, "mentions": mentions})
    return records


def _random_trips(rng):
    sentences = []
    for idx in rng.sample(range(1, 8), rng.randint(1, 4)):
        ids = [k if rng.random() < 0.3 else f"N{k}" for k in rng.sample(range(1, 20), rng.randint(0, 6))]
        nodes = []
        for nid in ids:
            node = {"id": nid}
            for key, choices in (("indicator", ["F", "the", "BARE", ""]),
                                 ("type", ["move", "WATER", "FLUIDIC-MOTION", ""]),
                                 ("word", WORDS + [""])):
                if rng.random() < 0.8:
                    node[key] = rng.choice(choices)
            if rng.random() < 0.8:
                start = rng.randrange(10)
                node["span"] = [start, start + rng.randint(1, 3)]
            elif rng.random() < 0.5:
                node["span"] = None
            nodes.append(node)
        edges = [
            {"src": rng.choice(ids), "label": rng.choice(["affected", "TO-LOC", "agent", "of"]),
             "dst": rng.choice(ids)}
            for _ in range(rng.randint(0, 6) if ids else 0)
        ]
        sentence = {"sentence_index": _index(rng, idx), "nodes": nodes, "edges": edges}
        if ids and rng.random() < 0.7:
            sentence["root"] = rng.choice(ids)
        elif rng.random() < 0.5:
            sentence["root"] = None
        sentences.append(sentence)
    if len(sentences) == 1 and rng.random() < 0.3:
        return sentences[0]
    return sentences


def _random_srl(rng):
    sentences = []
    for idx in rng.sample(range(1, 8), rng.randint(1, 4)):
        frames = []
        for _ in range(rng.randint(0, 3)):
            p = rng.randrange(5, 8)
            args = []
            for _ in range(rng.randint(0, 3)):
                start = rng.choice([rng.randrange(0, 4), rng.randrange(8, 12)])
                end = start + 1 if start == 4 or start >= 8 else rng.randint(start + 1, min(start + 3, 5))
                args.append({"role": rng.choice(["arg0", "ARG1", "ARGM-LOC"]),
                             "span": [start, end], "text": rng.choice(WORDS)})
            frame = {"predicate": {"span": [p, p + 1], "text": rng.choice(WORDS)}, "args": args}
            if not args and rng.random() < 0.5:
                del frame["args"]
            frames.append(frame)
        sentences.append({"sentence_index": _index(rng, idx), "frames": frames})
    return sentences


# ---------------------------------------------------------------------------
# Mutations

SWAPS = [None, True, False, 1.5, 0, 7, "x", "", [], {}, [1, 2]]
ID_KEYS = {"id", "src", "dst", "root", "procedure_id"}
INTEGER_KEYS = {"sentence_index", "index", "step"}


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _paths(value, path + (k,))


def _mutate(rng, doc):
    """A mutated deep copy of ``doc``: one value swapped for another type,
    one key deleted, or one list item repeated.  Returns (copy, key, value)
    with the key or index touched (None for the whole document) and the
    value put there (None for a deletion or repetition)."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    if not path:
        return rng.choice(SWAPS[:7]), None, None
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    roll = rng.random()
    if roll < 0.2 and isinstance(parent, dict):
        del parent[key]
        return doc, key, "<deleted>"
    if roll < 0.3 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
        return doc, key, "<repeated>"
    value = rng.choice(SWAPS)
    parent[key] = copy.deepcopy(value)
    return doc, key, value


def _newly_rejected(key, value, doc) -> bool:
    """The inputs the current loaders reject and the earlier ones read:
    an id that is neither a string nor an integer, an edge label that is not
    a string, a float or boolean integer field, a coreference mention whose
    entity is not a string or names no entity, a corpus procedure repeated
    (a duplicate procedure id), an entity alias or a gold grid cell emptied
    (the random corpora have none of their own), and a top-level value that
    is neither an array nor an object (the earlier loaders ended in a
    TypeError there)."""
    if key is None:
        return True
    if value == "" and type(key) is int:
        return any((path[-2:-1] == ("aliases",) or path[-3:-2] == ("gold_grid",))
                   and reduce(operator.getitem, path, doc) == "" for path in _paths(doc))
    if value == "<repeated>":
        return (type(doc) is list and key + 1 < len(doc) and type(doc[key]) is dict
                and "steps" in doc[key] and doc[key] == doc[key + 1])
    if key in ID_KEYS:
        return not (type(value) is str or type(value) is int)
    if key == "label":
        return type(value) is not str
    if key in INTEGER_KEYS:
        return type(value) in (float, bool)
    return key == "entity"


def _outcome(load, path):
    try:
        return "ok", load(path)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return "error", type(exc)


def _compare(tmp_path, doc, new_load, old_load, mutation=None):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    new, old = _outcome(new_load, path), _outcome(old_load, path)
    if new == old:
        return
    assert mutation is not None, (doc, new, old)
    key, value = mutation
    assert new == ("error", SchemaError) and _newly_rejected(key, value, doc), (doc, key, value, new, old)


KINDS = {
    "corpus": (_random_corpus, load_procedures, _Reference.load_procedures),
    "trips": (_random_trips, load_trips, _Reference.load_trips),
    "srl": (_random_srl, load_srl, _Reference.load_srl),
}


def _corpus_for_coref(rng, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(_random_corpus(rng)))
    return [p for p, _ in load_procedures(path)]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_valid_files_load_alike(tmp_path, kind):
    generate, new_load, old_load = KINDS[kind]
    for seed in SEEDS:
        doc = generate(random.Random(seed))
        _compare(tmp_path, doc, new_load, old_load)
        assert _outcome(new_load, tmp_path / "input.json")[0] == "ok", doc


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_mutated_files_fail_alike(tmp_path, kind):
    generate, new_load, old_load = KINDS[kind]
    for seed in SEEDS:
        rng = random.Random(seed)
        doc = generate(rng)
        for _ in range(3):
            mutated, key, value = _mutate(rng, doc)
            _compare(tmp_path, mutated, new_load, old_load, (key, value))


def test_random_coref_sidecars_load_alike(tmp_path):
    for seed in SEEDS:
        rng = random.Random(seed)
        procedures = _corpus_for_coref(rng, tmp_path)
        doc = _random_coref(rng, procedures)
        _compare(tmp_path, doc, lambda p: load_coref(p, procedures),
                 lambda p: _Reference.load_coref(p, procedures))
        assert _outcome(lambda p: load_coref(p, procedures), tmp_path / "input.json")[0] == "ok"


def test_mutated_coref_sidecars_fail_alike(tmp_path):
    for seed in SEEDS:
        rng = random.Random(seed)
        procedures = _corpus_for_coref(rng, tmp_path)
        doc = _random_coref(rng, procedures)
        for _ in range(3):
            mutated, key, value = _mutate(rng, doc)
            _compare(tmp_path, mutated, lambda p: load_coref(p, procedures),
                     lambda p: _Reference.load_coref(p, procedures), (key, value))


def test_fixtures_load_alike(data_dir):
    for path in sorted(data_dir.glob("corpus_*.json")):
        assert load_procedures(path) == _Reference.load_procedures(path)
    procedures = [p for p, _ in load_procedures(data_dir / "corpus_small.json")]
    sidecar = data_dir / "coref_small.json"
    assert load_coref(sidecar, procedures) == _Reference.load_coref(sidecar, procedures)
    for path in sorted((data_dir / "parses").glob("*.trips.json")):
        assert load_trips(path) == _Reference.load_trips(path)
    for path in sorted((data_dir / "parses").glob("*.srl.json")):
        assert load_srl(path) == _Reference.load_srl(path)


# ---------------------------------------------------------------------------
# propara-tsv corpora: the same random procedures written as a directory of
# paragraphs.tsv and grids.tsv, and mutated line by line

PARAGRAPHS, GRIDS = "paragraphs.tsv", "grids.tsv"
BAD_INDICES = ["x", "1.5", "", "one", "0", "-1"]


def _random_propara(rng):
    """Corpus-JSON procedures whose entities are the raw grids.tsv names, the
    same procedures as paragraphs.tsv writes them, and the grids.tsv lines
    of their grids.  Sentences and grid lines are shuffled now and then:
    the TSV loaders order steps by index and entities by first appearance."""
    procedures, paragraphs, lines = [], [], []
    for k in rng.sample(range(20), rng.randint(1, 3)):
        m = rng.randint(1, 4)
        steps = [{"index": i, "text": " ".join(rng.sample(WORDS, rng.randint(1, 5))) + " ."}
                 for i in range(1, m + 1)]
        pid = str(k) if rng.random() < 0.3 else f"proc-{k}"
        grid = {}
        unused = rng.sample(ALIASES, len(ALIASES))  # no two entities share an alias
        for name in rng.sample(WORDS, rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.2:
                name = name.title()
            elif roll < 0.4:
                name = f"{name};{unused.pop()}"
            grid[name] = [rng.choice(LOCATIONS) for _ in range(m + 1)]
        rows = [(name, f"{pid}\t{t}\t{name}\t{_action(cells[t - 1], cells[t])}"
                       f"\t{cells[t - 1]}\t{cells[t]}\n")
                for name, cells in grid.items() for t in range(1, m + 1)]
        if rng.random() < 0.3:
            rng.shuffle(rows)
        lines += [line for _, line in rows]
        entities = list(dict.fromkeys(name for name, _ in rows))
        procedures.append({"id": pid, "steps": steps, "entities": entities, "gold_grid": grid})
        paragraphs.append({"id": pid, "steps": rng.sample(steps, m) if rng.random() < 0.3 else steps})
    return procedures, paragraphs, lines


def _action(before, after) -> str:
    """The action a grids.tsv line must name for its two locations."""
    return transition(normalize(before), normalize(after)).value


def _action_disagrees(path) -> bool:
    """True when a line of ``path`` names a known action that is not the one
    its two locations give: the current loader rejects such a line, the
    reference never compared the two."""
    rows = (line.split("\t") for line in path.read_text().splitlines())
    return any(len(f) == 6 and f[3] in Action.__members__ and f[3] != _action(f[4], f[5])
               for f in rows)


def _write_propara(directory, paragraphs, grid_lines):
    directory.mkdir(exist_ok=True)
    write_paragraphs_tsv(directory / PARAGRAPHS, paragraphs)
    (directory / GRIDS).write_text("".join(grid_lines))


def _mutate_lines(rng, directory):
    """Mutate one line of paragraphs.tsv or grids.tsv in place: delete it,
    repeat it, swap two of its fields, break the before/after chain,
    change the case of its entity name (and, half the time, also add all
    rows of that entity under the new name), or make its index no
    integer or one below 1."""
    mutation = rng.choice(["delete", "duplicate", "field swap", "chain", "entity case", "index"])
    name = GRIDS if mutation in ("chain", "entity case") else rng.choice([PARAGRAPHS, GRIDS])
    path = directory / name
    lines = path.read_text().splitlines(keepends=True)
    k = rng.randrange(len(lines))
    fields = lines[k].rstrip("\n").split("\t")
    if mutation == "delete":
        del lines[k]
    elif mutation == "duplicate":
        lines.insert(k, lines[k])
    else:
        if mutation == "field swap":
            i, j = rng.sample(range(len(fields)), 2)
            fields[i], fields[j] = fields[j], fields[i]
        elif mutation == "chain":
            side = rng.choice([4, 5])
            fields[side] = rng.choice([loc for loc in LOCATIONS if normalize(loc) != normalize(fields[side])])
        elif mutation == "entity case":
            variant = rng.choice([fields[2].upper(), fields[2].title(), fields[2].swapcase()])
            if rng.random() < 0.5:  # a second entity that normalizes alike
                lines += [line.replace(f"\t{fields[2]}\t", f"\t{variant}\t") for line in lines
                          if line.split("\t")[:3:2] == [fields[0], fields[2]]]
            else:
                fields[2] = variant
        else:
            fields[1] = rng.choice(BAD_INDICES)
        lines[k] = "\t".join(fields) + "\n"
    path.write_text("".join(lines))
    return mutation, name


def _load_propara(directory):
    return load_procedures(directory, "propara-tsv")


def test_random_propara_corpora_load_alike(tmp_path):
    """Equal results from both loaders, and the same procedures and grids
    as the corpus JSON that holds them."""
    for seed in SEEDS:
        procedures, paragraphs, grid_lines = _random_propara(random.Random(seed))
        _write_propara(tmp_path / "propara", paragraphs, grid_lines)
        new = _load_propara(tmp_path / "propara")
        assert new == _Reference.load_propara_tsv(tmp_path / "propara"), seed
        (tmp_path / "corpus.json").write_text(json.dumps(procedures))
        assert new == load_procedures(tmp_path / "corpus.json"), seed


def test_mutated_propara_corpora_fail_alike(tmp_path):
    outcomes = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        _, paragraphs, grid_lines = _random_propara(rng)
        for _ in range(3):
            _write_propara(tmp_path / "propara", paragraphs, grid_lines)
            mutation = _mutate_lines(rng, tmp_path / "propara")
            new = _outcome(_load_propara, tmp_path / "propara")
            old = _outcome(_Reference.load_propara_tsv, tmp_path / "propara")
            assert new == old or (new == ("error", SchemaError) and old[0] == "ok"
                                  and _action_disagrees(tmp_path / "propara" / GRIDS)), (
                seed, mutation, new, old)
            outcomes.add((mutation[0], new[0]))
    # Every mutation was drawn, and some of each kind of outcome were seen.
    assert {m for m, _ in outcomes} == {"delete", "duplicate", "field swap", "chain",
                                        "entity case", "index"}
    assert {o for _, o in outcomes} == {"ok", "error"}
