"""Deterministic synthetic corpora with logical-form and frame parses.

``generate(shape, seed, out_dir)`` simulates a small world per procedure
(entities created, moved, destroyed and converted step by step), writes the
gold grids it went through, and realises every step as a sentence with a
logical-form parse and a frame parse.  The realisation is imperfect on
purpose: some events are stated with a verb outside the ontology, some
omit the entity or the target location, some carry a second conflicting
predicate, and some sentences state where a bystander sits.  So the
pipeline's predictions disagree with the gold on a share of cells, and
every rule, rewrite and evaluation branch runs.

The same (shape, seed) always gives the same bytes.  The seed chooses the
words: a relabelling of the entity, alias, location and modifier word
lists.  The structure (how many steps, entities, events and nodes, which
events happen and how each is stated) comes from a random stream seeded by
the workload's name alone.  Words stand in a one-to-one relation to their
positions in the lists, so every seed gives the same structure with other
words: other output bytes for the same work, and run-to-run timings vary
with the host, not with the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ENTITY_NOUNS = (
    "water vapor ice rock sand seed sprout sugar oxygen carbon magma ash salt "
    "mineral nutrient pollen egg larva pupa moth spore fungus algae bacteria "
    "protein starch acid gas smoke sediment pebble fossil shell bone blood cell "
    "plasma nectar honey wax resin sap fiber pulp ink dye paint glue"
).split()
ALIAS_WORDS = (
    "liquid steam frost stone grit kernel shoot glucose breath soot melt cinder "
    "brine ore food dust"
).split()
LOCATIONS = (
    "soil sky cloud river lake ocean pond valley hill mountain cave stem leaf "
    "flower trunk branch nest hive lung heart stomach intestine kidney liver vein "
    "surface ground crust mantle shore beach field"
).split()
ADJECTIVES = (
    "big small red blue green dark pale warm cold wet dry old young thin thick "
    "soft hard bright dull heavy tiny huge round flat smooth rough sharp deep "
    "shallow fresh stale rich"
).split()

# (ontology type, surface word) per event kind; "other" verbs resolve to no
# action class, so the event they state is invisible to the pipeline.
VERBS = {
    "move_affected": (("MOVE", "moves"), ("FLUIDIC-MOTION", "flows"), ("PUSH", "pushes"),
                      ("PULL", "pulls"), ("TRANSPORT", "carries"), ("CAUSE-MOVE", "shifts")),
    "move_agent": (("DEPART", "leaves"), ("ARRIVE", "arrives"), ("RISE", "rises"),
                   ("FALL", "falls")),
    "destroy_affected": (("DISAPPEAR", "vanishes"), ("DECAY", "decays"),
                         ("CONSUME", "consumed"), ("BREAK-OBJECT", "breaks")),
    "create_affected_result": (("FORM", "forms"), ("APPEAR", "appears"), ("GROW", "grows")),
    "create_affected": (("CREATE", "made"), ("FORM", "shaped"), ("GROW", "develops")),
    "change_affected_res": (("BECOME", "becomes"), ("COOLING", "cools"),
                            ("HEATING", "heats"), ("CHANGE-STATE", "turns")),
    "other": (("TRAVEL", "travels"), ("SEE", "seen"), ("HAVE", "has"), ("CONTAIN", "holds")),
}
TO_LABELS = ("TO", "INTO", "GOAL", "ONTO", "TO-LOC")
FROM_LABELS = ("FROM", "SOURCE", "FROM-LOC", "OUT-OF")
AT_LABELS = ("IN", "AT", "ON", "LOC")
RULE_KINDS = tuple(k for k in VERBS if k != "other")


@dataclass(frozen=True)
class Shape:
    """Sizes of one synthetic corpus; each range is (low, high) inclusive."""

    procedures: int
    steps: tuple[int, int]
    entities: tuple[int, int]
    events: tuple[int, int]          # action clauses per sentence
    width: tuple[int, int] | None    # word-bearing parse nodes per sentence; None: no filler
    locations: int                   # distinct locations per procedure
    aliases: bool = False            # ";"-separated alias names, used in sentences
    coref: bool = False              # pronoun mentions resolved by a coref sidecar


# The benchmark's workloads.  Counts are scaled down from the shapes they
# stand for (about 500 procedures; 10 x 8 x 5 with 30-45 nodes; 20 x 60 x 20)
# so that every CLI command runs several times within one measured run.
WORKLOADS = {
    # Many small procedures with aliases and a coref sidecar, like the
    # paragraphs the paper evaluates on: file loading, per-procedure overhead,
    # --jobs pickling and TSV write/read dominate; per-sentence graphs are small.
    "propara_scale": Shape(procedures=32, steps=(6, 10), entities=(3, 6), events=(1, 2),
                           width=(6, 12), locations=8, aliases=True, coref=True),
    # Wide, deep parses: quadratic path synthesis and edge de-duplication in
    # semgraph dominate; predict, abstract and evaluate are light.  Runnable,
    # but not one of BENCHMARK.json's gated workloads (see README.md).
    "dense_parses": Shape(procedures=2, steps=(2, 2), entities=(5, 5), events=(3, 3),
                          width=(30, 45), locations=8),
    # Long grids with several events per narrow sentence: per-cell action
    # derivation in the evaluation tiers and per-entity scans in predict.
    # 20 steps rather than 60 keep build-graph, cubic in steps, short
    # enough for about seven rounds of every command in a 60 s run.
    "long_grids": Shape(procedures=16, steps=(20, 20), entities=(20, 20), events=(2, 4),
                        width=None, locations=30),
}


@dataclass(frozen=True)
class Vocab:
    """The word lists of one seed: each list in a seeded order."""

    nouns: tuple[str, ...]
    alias: dict[str, str]           # noun -> its alias word
    locations: tuple[str, ...]
    adjectives: tuple[str, ...]


def vocab(seed: int, label: str) -> Vocab:
    """Shuffle every word list.  The nouns with an alias word keep it and
    stay in the first ``len(ALIAS_WORDS)`` positions, so whether the entity
    at a position has an alias does not depend on the seed."""
    rng = random.Random(f"{label}/{seed}")
    paired = list(zip(ENTITY_NOUNS, ALIAS_WORDS))
    rest = list(ENTITY_NOUNS[len(ALIAS_WORDS):])
    locations, adjectives = list(LOCATIONS), list(ADJECTIVES)
    for words in (paired, rest, locations, adjectives):
        rng.shuffle(words)
    return Vocab(tuple(n for n, _ in paired) + tuple(rest), dict(paired),
                 tuple(locations), tuple(adjectives))


@dataclass(frozen=True)
class Generated:
    """Paths of one generated corpus plus the flags the CLI needs for it."""

    corpus: Path
    parses: Path
    coref: Path | None
    qa_entities: tuple[str, ...]


def spread(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers spread evenly over [lo, hi], in shuffled order."""
    if n <= 0:
        return []
    if n == 1:
        return [(lo + hi) // 2]
    values = [lo + round((hi - lo) * i / (n - 1)) for i in range(n)]
    rng.shuffle(values)
    return values


def generate(shape: Shape, seed: int, out_dir, label: str = "corpus") -> Generated:
    """Write corpus.json, parses/ and (when the shape has coref) coref.json."""
    out = Path(out_dir)
    parses = out / "parses"
    parses.mkdir(parents=True, exist_ok=True)
    words = vocab(seed, label)
    rng = random.Random(label)
    qa = tuple(rng.sample(words.nouns, 2))
    steps = spread(rng, *shape.steps, shape.procedures)
    ents = spread(rng, *shape.entities, shape.procedures)
    procedures, corefs = [], []
    for i in range(shape.procedures):
        pid = f"p{i:04d}"
        prng = random.Random(f"{label}/{pid}")
        proc, trips, srl, mentions = _procedure(prng, words, shape, pid, steps[i], ents[i],
                                                qa, i)
        procedures.append(proc)
        _dump(parses / f"{pid}.trips.json", trips)
        _dump(parses / f"{pid}.srl.json", srl)
        if mentions:
            corefs.append({"procedure_id": pid, "mentions": mentions})
    corpus = out / "corpus.json"
    _dump(corpus, procedures)
    coref = None
    if shape.coref:
        coref = out / "coref.json"
        _dump(coref, corefs)
    return Generated(corpus, parses, coref, qa)


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# World simulation

def _procedure(rng, words: Vocab, shape: Shape, pid: str, m: int, n_ent: int, qa,
               index: int):
    names = [qa[0]] + ([qa[1]] if index % 4 == 0 else [])
    pool = [w for w in words.nouns if w not in qa]
    names += rng.sample(pool, n_ent - len(names))
    rng.shuffle(names)
    aliases = {}
    if shape.aliases:
        for name in names:
            if name in words.alias and rng.random() < 0.5:
                aliases[name] = words.alias[name]
    locs = rng.sample(words.locations, shape.locations)

    # About a third of the entities start absent (at least two, so both
    # create rules and the change rule can fire early), a tenth unknown.
    n_absent = max(2, round(0.35 * n_ent))
    n_unknown = round(0.1 * n_ent)
    state = {}
    for k, name in enumerate(names):
        state[name] = "-" if k < n_absent else ("?" if k < n_absent + n_unknown
                                                else rng.choice(locs))
    rows = {name: [state[name]] for name in names}
    counts = spread(rng, *shape.events, m)
    widths = spread(rng, *shape.width, m) if shape.width else [0] * m
    # One of each of these per procedure, so every rule, conflict and
    # passive-fact path runs even on the smallest corpora.
    forced_conflict = rng.randint(1, m)
    forced_passive = rng.randint(1, m)
    unused_kinds = list(RULE_KINDS)

    steps, trips, srl, mentions = [], [], [], []
    for t in range(1, m + 1):
        sent = _Sentence()
        busy: set[str] = set()
        for _ in range(counts[t - 1]):
            event = _pick_event(rng, state, names, busy, locs, unused_kinds)
            if event is None:
                break
            kind = event[0]
            explicit = kind in unused_kinds
            if explicit:
                unused_kinds.remove(kind)
            conflict = t == forced_conflict or rng.random() < 0.08
            forced_conflict = -1 if conflict else forced_conflict
            if sent.tokens:
                sent.word(rng.choice(("and", ";", ",")))
            _realise(rng, sent, event, state, shape, aliases, explicit, conflict)
        if t == forced_passive or rng.random() < 0.25:
            _passive_clause(rng, sent, state, names, busy, locs, aliases)
        if shape.width:
            _fill(rng, sent, widths[t - 1], words.adjectives)
        sent.word(".")
        for name in names:
            rows[name].append(state[name])
        for ref in sent.coref:
            mentions.append({"entity": ref[0], "step": t, "span": list(ref[1])})
        steps.append({"index": t, "text": " ".join(sent.tokens), "tokens": sent.tokens})
        trips.append(sent.trips(t))
        srl.append(sent.srl(t))
    entities = [
        {"name": f"{n}; {aliases[n]}" if n in aliases else n} for n in names
    ]
    proc = {"id": pid, "steps": steps, "entities": entities, "gold_grid": rows}
    return proc, trips, srl, mentions


def _pick_event(rng, state, names, busy, locs, unused_kinds):
    """Choose one entity not yet used in this step and an event it can undergo.

    Kinds not yet seen in the procedure are preferred, so all six rules
    appear.  Returns (kind, entity, partner, target_location) or None.
    """
    free = [n for n in names if n not in busy]
    if not free:
        return None
    rng.shuffle(free)
    absent = [n for n in free if state[n] == "-"]
    present = [n for n in free if state[n] != "-"]
    options = []
    if present:
        options += ["move_affected"] * 4 + ["move_agent"] * 2 + ["destroy_affected"] * 2
        if absent:
            options += ["change_affected_res"] * 2
    if absent:
        options += ["create_affected_result"] * 2 + ["create_affected"] * 2
    wanted = [k for k in unused_kinds if k in options]
    kind = wanted[0] if wanted else rng.choice(options)
    partner = None
    if kind.startswith("create"):
        entity = absent[0]
        target = rng.choice(locs)
    elif kind == "change_affected_res":
        entity, partner = present[0], absent[0]
        target = state[entity]
    else:
        entity = present[0]
        target = rng.choice([loc for loc in locs if loc != state[entity]])
    busy.add(entity)
    if partner:
        busy.add(partner)
    return kind, entity, partner, target


# ---------------------------------------------------------------------------
# Sentence realisation

class _Sentence:
    """Tokens plus the logical-form nodes/edges and frames built over them."""

    def __init__(self):
        self.tokens: list[str] = []
        self.nodes: list[dict] = []
        self.edges: list[dict] = []
        self.frames: list[tuple[str, list]] = []  # (predicate node id, [(role, node id)])
        self.coref: list[tuple[str, tuple[int, int]]] = []
        self.nouns: list[str] = []    # word-bearing non-predicate node ids
        self._next = 0

    def word(self, w: str) -> tuple[int, int]:
        self.tokens.append(w)
        return (len(self.tokens) - 1, len(self.tokens))

    def node(self, word: str | None, onto_type: str, predicate: bool = False,
             first: bool = False) -> str:
        self._next += 1
        nid = f"{'V' if predicate else 'N'}{self._next}"
        span = list(self.word(word)) if word else None
        obj = {"id": nid, "indicator": "F" if predicate else ("THE" if word else "IMPRO"),
               "type": onto_type, "word": word or "", "span": span}
        if first:
            self.nodes.insert(0, obj)
        else:
            self.nodes.append(obj)
        if word and not predicate:
            self.nouns.append(nid)
        return nid

    def edge(self, src: str, label: str, dst: str) -> None:
        self.edges.append({"src": src, "label": label, "dst": dst})

    def lookup(self, nid: str):
        return next(n for n in self.nodes if n["id"] == nid)

    def trips(self, t: int) -> dict:
        preds = [n["id"] for n in self.nodes if n["indicator"] == "F"]
        return {"sentence_index": t, "root": preds[0] if preds else None,
                "nodes": self.nodes, "edges": self.edges}

    def srl(self, t: int) -> dict:
        frames = []
        for pred_id, args in self.frames:
            pred = self.lookup(pred_id)
            out_args = []
            for role, nid in args:
                node = self.lookup(nid)
                out_args.append({"role": role, "span": node["span"], "text": node["word"]})
            frames.append({"predicate": {"span": pred["span"], "text": pred["word"]},
                           "args": out_args})
        return {"sentence_index": t, "frames": frames}


_SRL_ROLE = {"AFFECTED": "ARG1", "AGENT": "ARG0", "AFFECTED-RESULT": "ARG1", "RES": "ARG2"}


def _srl_role(label: str) -> str:
    if label in _SRL_ROLE:
        return _SRL_ROLE[label]
    if label in TO_LABELS:
        return "ARG2"
    if label in FROM_LABELS:
        return "ARGM-DIR"
    return "ARGM-LOC"


def _entity_ref(rng, sent: _Sentence, name: str, aliases, explicit: bool,
                coref: bool) -> str | None:
    """A node referring to the entity: its name, an alias, a pronoun with a
    coref mention, or (rarely) nothing at all."""
    r = 1.0 if explicit else rng.random()
    if r < 0.05:
        return None
    if r < 0.17 and coref and not sent.coref:
        nid = sent.node("it", "REFERENTIAL-SEM")
        sent.coref.append((name, tuple(sent.lookup(nid)["span"])))
        return nid
    sent.word("the")
    word = aliases[name] if r < 0.32 and name in aliases else name
    return sent.node(word, name.upper())


def _place(sent: _Sentence, loc: str) -> str:
    sent.word("the")
    return sent.node(loc, loc.upper())


def _realise(rng, sent: _Sentence, event, state, shape: Shape, aliases,
             explicit: bool, conflict: bool) -> None:
    """Append one clause stating the event, and apply it to the world state."""
    kind, entity, partner, target = event
    before = state[entity]
    verb_kind = kind if explicit or rng.random() > 0.07 else "other"
    onto_type, verb_word = rng.choice(VERBS[verb_kind])
    ent_id = _entity_ref(rng, sent, entity, aliases, explicit, shape.coref)
    verb = sent.node(verb_word, onto_type, predicate=True)
    args = []

    def attach(label: str, nid: str) -> None:
        sent.edge(verb, label, nid)
        args.append((_srl_role(label), nid))

    if ent_id is not None:
        role = {"move_agent": "AGENT", "create_affected_result": "AFFECTED-RESULT"}.get(
            kind, "AFFECTED")
        attach(role, ent_id)
    if kind in ("move_affected", "move_agent"):
        if before not in ("?", "-") and rng.random() < 0.5:
            sent.word("from")
            loc = _place(sent, before)
            if ent_id is not None and rng.random() < 0.3:
                sent.edge(ent_id, rng.choice(AT_LABELS), loc)  # "the water in the soil"
            else:
                attach(rng.choice(FROM_LABELS), loc)
        if explicit or rng.random() > 0.18:
            sent.word("to")
            attach(rng.choice(TO_LABELS), _place(sent, target))
        state[entity] = target
    elif kind == "destroy_affected":
        if before not in ("?", "-") and rng.random() < 0.6:
            sent.word("in")
            attach(rng.choice(AT_LABELS), _place(sent, before))
        state[entity] = "-"
    elif kind.startswith("create"):
        if explicit or rng.random() > 0.15:
            sent.word("in")
            label = rng.choice(TO_LABELS) if rng.random() < 0.8 else rng.choice(AT_LABELS)
            attach(label, _place(sent, target))
        state[entity] = target
    else:  # change_affected_res: entity becomes partner where it was
        sent.word("into")
        sent.word("the")
        attach("RES", sent.node(partner, partner.upper()))
        if before not in ("?", "-") and rng.random() < 0.4:
            sent.word("at")
            attach(rng.choice(AT_LABELS), _place(sent, before))
        state[entity] = "-"
        state[partner] = before
    sent.frames.append((verb, args))
    if conflict and ent_id is not None:
        # A second predicate on the same entity, placed before or after the
        # first, gives the entity two local decisions at this step.
        other = rng.choice([k for k in RULE_KINDS if k != kind and not k.startswith("create")])
        onto2, word2 = rng.choice(VERBS[other])
        sent.word("and")
        verb2 = sent.node(word2, onto2, predicate=True, first=rng.random() < 0.5)
        label = "AGENT" if other == "move_agent" else "AFFECTED"
        sent.edge(verb2, label, ent_id)
        sent.frames.append((verb2, [(_srl_role(label), ent_id)]))


def _passive_clause(rng, sent: _Sentence, state, names, busy, locs, aliases) -> None:
    """'there is the ENT in the LOC', preferably for an entity that does not
    act this step."""
    present = [n for n in names if state[n] != "-"]
    idle = [n for n in present if n not in busy] or present
    if not idle:
        return
    name = rng.choice(idle)
    loc = state[name] if state[name] != "?" and rng.random() < 0.8 else rng.choice(locs)
    if sent.tokens:
        sent.word(";")
    sent.word("there")
    sent.word("is")
    sent.word("the")
    holder = sent.node(aliases.get(name, name) if rng.random() < 0.3 else name, name.upper())
    sent.word("in")
    sent.edge(holder, rng.choice(AT_LABELS), _place(sent, loc))


def _fill(rng, sent: _Sentence, width: int, adjectives) -> None:
    """Hang modifier chains off the sentence's nouns until it has ``width``
    word-bearing nodes, then join its clauses under one word-less root.

    Every fifth modifier link goes through a word-less node too, so some
    node pairs are connected only through nodes the graph drops.  With the
    root, every pair of nodes in the sentence is connected, so the number of
    edges build_trips_graph makes depends on the width alone.
    """
    have = sum(1 for n in sent.nodes if n["word"])
    if sent.nouns and have < width:
        sent.word("with")
        frame_of = {nid: args for _, args in sent.frames for _, nid in args}
        last = None
        for k in range(width - have):
            parent = last if last is not None and rng.random() < 0.5 else rng.choice(sent.nouns)
            if k % 5 == 4:
                hidden = sent.node(None, "REFERENTIAL-SEM")
                sent.edge(parent, "MOD", hidden)
                parent = hidden
            adj = sent.node(rng.choice(adjectives), "PROPERTY-VAL")
            sent.edge(parent, "MOD", adj)
            if parent in frame_of and rng.random() < 0.5:
                frame_of[parent].append(("ARGM-MNR", adj))
                frame_of[adj] = frame_of[parent]
            last = adj
    targets = {e["dst"] for e in sent.edges}
    roots = [n["id"] for n in sent.nodes if n["id"] not in targets]
    if len(roots) > 1:
        hub = sent.node(None, "SPEECHACT")
        for root in roots:
            sent.edge(hub, "CONTENT", root)
