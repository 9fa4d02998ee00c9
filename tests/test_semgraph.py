import json
import random

import pytest

from statetrack.corpus import (
    Entity,
    Procedure,
    Step,
    find_all_mentions,
    normalize,
    spans_overlap,
    tokenize,
)
from statetrack.parses import (
    LfEdge,
    LfNode,
    LogicalFormGraph,
    SrlArg,
    SrlDoc,
    SrlFrame,
)
from statetrack.semgraph import (
    COREF,
    SAME,
    GEdge,
    GNode,
    SemanticGraph,
    _shortest_labels,
    build_srl_graph,
    build_trips_graph,
    extend_qa_graph,
    render_graph_record,
    write_graph_records,
)


def _proc(texts, entities):
    steps = tuple(
        Step(i, text, tuple(tokenize(text))) for i, text in enumerate(texts, start=1)
    )
    ents = tuple(Entity(e, (e,)) for e in entities)
    return Procedure("g1", steps, ents)


def _node(nid, word, span, indicator="THE", onto="X"):
    return LfNode(nid, indicator, onto, word, span)


def _pairwise_shortest_labels(adjacency, start, goal):
    """Reference: one search per (start, goal) pair, stopping at the goal."""
    if start == goal:
        return []
    assigned = {start: ()}
    layer = [start]
    while layer:
        candidates = {}
        for node in layer:
            for neighbor, label in adjacency.get(node, []):
                if neighbor in assigned:
                    continue
                cand = assigned[node] + (label,)
                if neighbor not in candidates or cand < candidates[neighbor]:
                    candidates[neighbor] = cand
        for node, seq in candidates.items():
            assigned[node] = seq
        if goal in assigned:
            return list(assigned[goal])
        layer = list(candidates)
    return None


def _all_pairs_links(graph, procedure):
    """Reference: SAME/COREF edges from a scan of every cross-sentence pair."""
    phrase = [n for n in graph.nodes if n.kind in ("entity_mention", "noun_phrase")]
    entity_of = {}
    for entity in procedure.entities:
        for step in procedure.steps:
            spans = find_all_mentions((entity,), step)[0]
            for node in phrase:
                if node.step_index == step.index and any(
                    spans_overlap(node.span, s) for s in spans
                ):
                    entity_of.setdefault(node.id, set()).add(entity.canonical_name)
    out = []
    for i, a in enumerate(phrase):
        for b in phrase[i + 1 :]:
            if a.step_index == b.step_index:
                continue
            if normalize(a.text) == normalize(b.text):
                out.append((a.id, b.id, SAME))
            elif entity_of.get(a.id, set()) & entity_of.get(b.id, set()):
                out.append((a.id, b.id, COREF))
    return out


def _phrase_kind(procedure, step, span):
    """Reference: a phrase node is an entity mention when its span overlaps
    a mention of any entity in its step."""
    mentions = [m for e in procedure.entities for m in find_all_mentions((e,), step)[0]]
    return "entity_mention" if any(spans_overlap(span, m) for m in mentions) else "noun_phrase"


VOCAB = ["the", "water", "rock", "salt", "it", "sea", "a"]
NAMES = ["water", "rock", "salt", "salt water", "sea"]


def _random_step(rng, index):
    tokens = tuple(rng.choice(VOCAB) for _ in range(rng.randint(2, 7)))
    return Step(index, " ".join(tokens), tokens)


def _random_entities(rng, steps):
    """One to three of NAMES, overlapping one another's mentions, each with
    one-token coreference mentions in about a third of the steps."""
    entities = []
    for name in rng.sample(NAMES, rng.randint(1, 3)):
        coref = []
        for step in steps:
            if rng.random() < 0.3:
                a = rng.randrange(len(step.tokens))
                coref.append((step.index, (a, a + 1)))
        entities.append(Entity(name, (name,), tuple(coref)))
    return tuple(entities)


class TestSemanticGraph:
    def test_duplicate_node_rejected(self):
        nodes = [GNode("a", "noun_phrase", 1, (0, 1), "a")]
        with pytest.raises(ValueError, match="duplicate node id"):
            SemanticGraph(nodes=nodes * 2, edges=[])


class TestShortestLabels:
    def test_single_source_matches_pairwise_search(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 9)
            ids = [f"N{i}" for i in range(n)]
            adjacency = {i: [] for i in ids}
            # Few labels and parallel edges give ties between equally short
            # paths; a low edge rate leaves disconnected parts.
            for _ in range(rng.randint(0, 2 * n)):
                a, b = rng.choice(ids), rng.choice(ids)
                if a == b:
                    continue
                label = rng.choice("ABC")
                adjacency[a].append((b, label))
                adjacency[b].append((a, label))
            for start in ids:
                labels = _shortest_labels(adjacency, start)
                for goal in ids:
                    want = _pairwise_shortest_labels(adjacency, start, goal)
                    got = list(labels[goal]) if goal in labels else None
                    assert got == want, (adjacency, start, goal)


class TestSrlGraph:
    def test_single_frame_triangle(self):
        proc = _proc(["Move the book to the library ."], ["book"])
        doc = SrlDoc(
            1,
            (
                SrlFrame(
                    (0, 1),
                    "Move",
                    (
                        SrlArg("ARG1", (1, 3), "the book"),
                        SrlArg("ARG2", (4, 6), "the library"),
                    ),
                ),
            ),
        )
        graph = build_srl_graph(proc, [doc])
        assert len(graph.nodes) == 3
        kinds = {n.text: n.kind for n in graph.nodes}
        assert kinds["Move"] == "predicate"
        assert kinds["the book"] == "entity_mention"
        assert kinds["the library"] == "noun_phrase"
        text = {n.id: n.text for n in graph.nodes}
        pairs = {(text[e.src], text[e.dst]) for e in graph.edges}
        assert pairs == {
            ("Move", "the book"),
            ("Move", "the library"),
            ("the book", "the library"),
        }
        assert all(e.type_label == "" for e in graph.edges)

    def test_no_frames_gives_mention_nodes_without_edges(self):
        proc = _proc(["Water sits ."], ["water"])
        graph = build_srl_graph(proc, [SrlDoc(1, ())])
        assert [n.kind for n in graph.nodes] == ["entity_mention"]
        assert graph.edges == []

    def test_cross_sentence_same_edge(self):
        proc = _proc(["Water falls .", "Nothing here .", "Water rises ."], ["water"])
        docs = [SrlDoc(1, ()), SrlDoc(2, ()), SrlDoc(3, ())]
        graph = build_srl_graph(proc, docs)
        same = [e for e in graph.edges if e.type_label == "SAME"]
        assert len(same) == 1

    def test_same_wins_over_coref(self):
        proc = _proc(["The water falls .", "The water rises ."], ["water"])
        graph = build_srl_graph(proc, [SrlDoc(1, ()), SrlDoc(2, ())])
        assert [(e.src, e.dst, e.type_label) for e in graph.edges] == [
            ("s1.1.2", "s2.1.2", SAME)
        ]

    def test_node_over_two_entities_links_to_both(self):
        proc = _proc(
            ["the salt water flows .", "The salt stays .", "The water boils ."],
            ["salt", "water"],
        )
        lfs = [
            LogicalFormGraph(1, (_node("N1", "salt water", (1, 3)),), (), None),
            LogicalFormGraph(2, (_node("N1", "salt", (1, 2)),), (), None),
            LogicalFormGraph(3, (_node("N1", "water", (1, 2)),), (), None),
        ]
        graph = build_trips_graph(proc, lfs)
        assert [(e.src, e.dst, e.type_label) for e in graph.edges] == [
            ("s1.N1", "s2.N1", COREF),
            ("s1.N1", "s3.N1", COREF),
        ]

    def test_node_over_the_tail_of_a_mention_links(self):
        proc = _proc(["the salt water flows .", "The salt water boils ."], ["salt water"])
        lfs = [
            LogicalFormGraph(1, (_node("N1", "water", (2, 3)),), (), None),
            LogicalFormGraph(2, (_node("N1", "salt water", (1, 3)),), (), None),
        ]
        graph = build_trips_graph(proc, lfs)
        assert [(e.src, e.dst, e.type_label) for e in graph.edges] == [
            ("s1.N1", "s2.N1", COREF)
        ]

    def test_links_match_all_pairs_scan(self):
        # Also pins each node's kind, and the mention-only nodes: mention
        # spans, in order, that overlap no frame span and no earlier one.
        rng = random.Random(23)
        for _ in range(60):
            steps, docs = [], []
            for index in range(1, rng.randint(2, 5)):
                step = _random_step(rng, index)
                tokens = step.tokens
                steps.append(step)
                frames = []
                for _ in range(rng.randint(0, 2)):
                    p = rng.randrange(len(tokens))
                    args = []
                    for _ in range(rng.randint(0, 3)):
                        a = rng.randrange(len(tokens))
                        b = rng.randint(a + 1, min(a + 3, len(tokens)))
                        if spans_overlap((a, b), (p, p + 1)):
                            continue
                        args.append(SrlArg("ARG1", (a, b), " ".join(tokens[a:b])))
                    frames.append(SrlFrame((p, p + 1), tokens[p], tuple(args)))
                docs.append(SrlDoc(index, tuple(frames)))
            proc = Procedure("r", tuple(steps), _random_entities(rng, steps))
            graph = build_srl_graph(proc, docs)
            links = [
                (e.src, e.dst, e.type_label)
                for e in graph.edges
                if e.type_label in (SAME, COREF)
            ]
            assert links == _all_pairs_links(graph, proc)

            for step, doc in zip(steps, docs):
                first = {}  # frame span -> whether its first role is predicate
                for frame in doc.frames:
                    first.setdefault(frame.predicate_span, True)
                    for arg in frame.args:
                        first.setdefault(arg.span, False)
                want = {
                    span: "predicate" if predicate else _phrase_kind(proc, step, span)
                    for span, predicate in first.items()
                }
                mentions = {m for e in proc.entities for m in find_all_mentions((e,), step)[0]}
                for m in sorted(mentions):
                    if not any(spans_overlap(m, s) for s in want):
                        want[m] = "entity_mention"
                got = {n.span: n.kind for n in graph.nodes if n.step_index == step.index}
                assert got == want

    def test_coref_edge(self):
        proc = Procedure(
            "g2",
            (
                Step(1, "The bones sink .", tuple(tokenize("The bones sink ."))),
                Step(2, "Mud piles over them .", tuple(tokenize("Mud piles over them ."))),
            ),
            (Entity("bones", ("bones",), coref_mentions=((2, (3, 4)),)),),
        )
        graph = build_srl_graph(proc, [SrlDoc(1, ()), SrlDoc(2, ())])
        coref = [e for e in graph.edges if e.type_label == "COREF"]
        assert len(coref) == 1

    def test_adjunct_pair_toggle(self):
        proc = _proc(["It falls down there ."], [])
        doc = SrlDoc(
            1,
            (
                SrlFrame(
                    (1, 2),
                    "falls",
                    (
                        SrlArg("ARG1", (0, 1), "It"),
                        SrlArg("ARGM-DIR", (2, 3), "down"),
                    ),
                ),
            ),
        )
        # predicate-argument edges plus the argument pair, adjunct included
        assert len(build_srl_graph(proc, [doc]).edges) == 3

    def test_two_args_of_one_span_give_no_self_loop(self):
        proc = _proc(["Move the book ."], ["book"])
        args = (SrlArg("ARG1", (1, 3), "the book"), SrlArg("ARG2", (1, 3), "the book"))
        graph = build_srl_graph(proc, [SrlDoc(1, (SrlFrame((0, 1), "Move", args),))])
        assert [(e.src, e.dst, e.type_label) for e in graph.edges] == [
            ("s1.0.1", "s1.1.3", "")
        ]

    def test_arg_pair_shared_by_two_frames_linked_once(self):
        proc = _proc(["Move and push the book to the library ."], ["book"])
        args = (SrlArg("ARG1", (3, 5), "the book"), SrlArg("ARG2", (6, 8), "the library"))
        doc = SrlDoc(1, (SrlFrame((0, 1), "Move", args), SrlFrame((2, 3), "push", args)))
        graph = build_srl_graph(proc, [doc])
        assert [(e.src, e.dst) for e in graph.edges] == [
            ("s1.0.1", "s1.3.5"),
            ("s1.0.1", "s1.6.8"),
            ("s1.3.5", "s1.6.8"),
            ("s1.2.3", "s1.3.5"),
            ("s1.2.3", "s1.6.8"),
        ]


class TestTripsGraph:
    def _lf(self, nodes, edges):
        return LogicalFormGraph(1, tuple(nodes), tuple(edges), None)

    def test_direct_edge_type_preserved(self):
        proc = _proc(["move the book ."], ["book"])
        lf = self._lf(
            [
                _node("V1", "move", (0, 1), indicator="F"),
                _node("N1", "book", (2, 3)),
            ],
            [LfEdge("V1", "AFFECTED", "N1")],
        )
        graph = build_trips_graph(proc, [lf])
        assert [(e.type_label) for e in graph.edges] == ["AFFECTED"]

    def test_duplicate_lf_edges_exported_once(self):
        proc = _proc(["move the book ."], ["book"])
        lf = self._lf(
            [
                _node("V1", "move", (0, 1), indicator="F"),
                _node("N1", "book", (2, 3)),
            ],
            [LfEdge("V1", "AFFECTED", "N1"), LfEdge("V1", "AFFECTED", "N1")],
        )
        graph = build_trips_graph(proc, [lf])
        assert [(e.src, e.dst, e.type_label) for e in graph.edges] == [
            ("s1.V1", "s1.N1", "AFFECTED")
        ]

    def test_lf_self_edge_gives_no_graph_edge(self):
        proc = _proc(["move the book ."], ["book"])
        lf = self._lf(
            [
                _node("V1", "move", (0, 1), indicator="F"),
                _node("N1", "book", (2, 3)),
            ],
            [LfEdge("N1", "MOD", "N1"), LfEdge("V1", "AFFECTED", "N1")],
        )
        graph = build_trips_graph(proc, [lf])
        assert [(e.src, e.dst, e.type_label) for e in graph.edges] == [
            ("s1.V1", "s1.N1", "AFFECTED")
        ]

    def test_hidden_node_path_synthesized(self):
        proc = _proc(["a b ."], [])
        lf = self._lf(
            [
                _node("A", "a", (0, 1)),
                _node("B", "b", (1, 2)),
                _node("X", "", None, indicator="F"),  # hidden: no surface text
            ],
            [LfEdge("X", "AFFECTED", "A"), LfEdge("X", "MOD", "B")],
        )
        graph = build_trips_graph(proc, [lf])
        assert [e.type_label for e in graph.edges] == ["AFFECTED|MOD"]

    def test_equal_length_paths_pick_smallest_labels(self):
        proc = _proc(["a b ."], [])
        lf = self._lf(
            [
                _node("A", "a", (0, 1)),
                _node("B", "b", (1, 2)),
                _node("X1", "", None, indicator="F"),
                _node("X2", "", None, indicator="F"),
            ],
            [
                LfEdge("X1", "AGENT", "A"),
                LfEdge("X1", "MOD", "B"),
                LfEdge("X2", "AFFECTED", "A"),
                LfEdge("X2", "MOD", "B"),
            ],
        )
        graph = build_trips_graph(proc, [lf])
        assert [e.type_label for e in graph.edges] == ["AFFECTED|MOD"]

    def test_connectivity_lift_property(self):
        # Any two surviving phrase nodes connected in the source parse end
        # up joined by a single edge; oracle is plain BFS reachability.
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(2, 10)
            nodes = []
            for i in range(n):
                hidden = rng.random() < 0.3
                nodes.append(
                    _node(
                        f"N{i}",
                        "" if hidden else f"w{i}",
                        None if hidden else (i, i + 1),
                        indicator="F" if hidden else "THE",
                    )
                )
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.25:
                        edges.append(LfEdge(f"N{i}", f"L{(i + j) % 5}", f"N{j}"))
            text = " ".join(["w"] * n) + " ."
            proc = _proc([text], [])
            graph = build_trips_graph(proc, [self._lf(nodes, edges)])

            reach = {f"N{i}": {f"N{i}"} for i in range(n)}
            for _ in range(n):
                for e in edges:
                    for a, b in ((e.src, e.dst), (e.dst, e.src)):
                        reach[a] |= reach[b]
            visible = [nd.id for nd in nodes if nd.word]
            connected_pairs = {
                frozenset((a, b))
                for i, a in enumerate(visible)
                for b in visible[i + 1 :]
                if b in reach[a]
            }
            edge_pairs = {
                frozenset(
                    (e.src.split(".", 1)[1], e.dst.split(".", 1)[1])
                )
                for e in graph.edges
            }
            assert connected_pairs == edge_pairs

    def test_edges_match_pairwise_reference(self):
        # Role edges in parse order, then one path edge per pair of surviving
        # nodes in (first, second) parse order, labelled by a search per pair.
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(2, 10)
            nodes = []
            for i in range(n):
                hidden = rng.random() < 0.4
                nodes.append(
                    _node(
                        f"N{i}",
                        "" if hidden else f"w{i}",
                        None if hidden else (i, i + 1),
                        indicator="F" if hidden else "THE",
                    )
                )
            edges = []
            for _ in range(rng.randint(0, 2 * n)):
                a, b = rng.sample(range(n), 2)
                edges.append(LfEdge(f"N{a}", rng.choice("AB"), f"N{b}"))
            proc = _proc([" ".join(["w"] * n) + " ."], [])
            graph = build_trips_graph(proc, [self._lf(nodes, edges)])

            visible = [nd.id for nd in nodes if nd.word]
            adjacency = {nd.id: [] for nd in nodes}
            want = []
            direct = set()
            for e in edges:
                adjacency[e.src].append((e.dst, e.label))
                adjacency[e.dst].append((e.src, e.label))
                if e.src in visible and e.dst in visible:
                    want.append((f"s1.{e.src}", f"s1.{e.dst}", e.label))
                    direct.add(frozenset((e.src, e.dst)))
            for i, a in enumerate(visible):
                for b in visible[i + 1 :]:
                    if frozenset((a, b)) in direct:
                        continue
                    labels = _pairwise_shortest_labels(adjacency, a, b)
                    if labels is not None:
                        want.append((f"s1.{a}", f"s1.{b}", "|".join(labels)))
            got = [(e.src, e.dst, e.type_label) for e in graph.edges]
            assert got == list(dict.fromkeys(want))

    def test_kinds_and_links_match_references(self):
        rng = random.Random(31)
        for _ in range(60):
            steps, lfs = [], []
            for index in range(1, rng.randint(2, 5)):
                step = _random_step(rng, index)
                steps.append(step)
                nodes = []
                for i in range(rng.randint(1, 6)):
                    a = rng.randrange(len(step.tokens))
                    b = rng.randint(a + 1, min(a + 3, len(step.tokens)))
                    word = "" if rng.random() < 0.2 else " ".join(step.tokens[a:b])
                    indicator = rng.choice(["F", "THE", "A"])
                    nodes.append(_node(f"N{i}", word, (a, b), indicator=indicator))
                ids = [nd.id for nd in nodes]
                edges = [
                    LfEdge(rng.choice(ids), rng.choice("AB"), rng.choice(ids))
                    for _ in range(rng.randint(0, len(ids)))
                ]
                lfs.append(LogicalFormGraph(index, tuple(nodes), tuple(edges), None))
            proc = Procedure("r", tuple(steps), _random_entities(rng, steps))
            graph = build_trips_graph(proc, lfs)

            want = [
                (f"s{step.index}.{nd.id}",
                 "predicate" if nd.is_predicate else _phrase_kind(proc, step, nd.span))
                for step, lf in zip(steps, lfs)
                for nd in lf.nodes
                if nd.word
            ]
            assert [(n.id, n.kind) for n in graph.nodes] == want
            links = [
                (e.src, e.dst, e.type_label)
                for e in graph.edges
                if e.type_label in (SAME, COREF)
            ]
            assert links == _all_pairs_links(graph, proc)

    def test_no_self_loops_or_duplicates(self, data_dir):
        from statetrack.corpus import load_procedures
        from statetrack.parses import load_trips

        pairs = load_procedures(data_dir / "corpus_predict.json")
        proc = next(p for p, _ in pairs if p.id == "erosion-1")
        graphs = load_trips(data_dir / "parses" / "erosion-1.trips.json")
        graph = build_trips_graph(proc, graphs)
        triples = [(e.src, e.dst, e.type_label) for e in graph.edges]
        assert len(triples) == len(set(triples))
        assert all(e.src != e.dst for e in graph.edges)

    def test_deterministic_export(self, data_dir):
        from statetrack.corpus import load_procedures
        from statetrack.parses import load_trips

        pairs = load_procedures(data_dir / "corpus_predict.json")
        proc = next(p for p, _ in pairs if p.id == "erosion-1")
        graphs = load_trips(data_dir / "parses" / "erosion-1.trips.json")
        a = json.dumps(build_trips_graph(proc, graphs).to_dict())
        b = json.dumps(build_trips_graph(proc, graphs).to_dict())
        assert a == b


class TestQaExtension:
    def _base(self, entities=("book",)):
        proc = _proc(
            ["Move the book to the library .", "The book rests .", "Dust falls ."],
            entities,
        )
        lfs = [
            LogicalFormGraph(
                1,
                (
                    _node("V1", "move", (0, 1), indicator="F"),
                    _node("N1", "book", (2, 3)),
                    _node("N2", "library", (5, 6)),
                ),
                (LfEdge("V1", "AFFECTED", "N1"), LfEdge("V1", "GOAL", "N2")),
                "V1",
            ),
            LogicalFormGraph(2, (_node("N1", "book", (1, 2)),), (), None),
            LogicalFormGraph(3, (_node("N1", "dust", (0, 1)),), (), None),
        ]
        return proc, build_trips_graph(proc, lfs)

    def test_question_node_linked_to_entity_mentions(self):
        proc, graph = self._base()
        extended = extend_qa_graph(graph, proc.entities[0], proc)
        q_edges = [e for e in extended.edges if e.type_label == "QUESTION"]
        assert len(q_edges) == 2  # book in steps 1 and 2
        assert {n.id: n.text for n in extended.nodes}["question"] == "where is book"

    def test_adds_steps_plus_one_nodes(self):
        proc, graph = self._base()
        extended = extend_qa_graph(graph, proc.entities[0], proc)
        assert len(extended.nodes) == len(graph.nodes) + proc.num_steps + 1
        step_nodes = [n for n in extended.nodes if n.kind == "step"]
        assert len(step_nodes) == 3

    def test_step_nodes_cover_their_sentences(self):
        proc, graph = self._base()
        extended = extend_qa_graph(graph, proc.entities[0], proc)
        step1_edges = [e for e in extended.edges if e.src == "step.1"]
        step1_nodes = [n.id for n in graph.nodes if n.step_index == 1]
        assert sorted(e.dst for e in step1_edges) == sorted(step1_nodes)

    def test_input_graph_left_as_built(self):
        proc, graph = self._base()
        extend_qa_graph(graph, proc.entities[0], proc)
        fresh = self._base()[1]
        assert (graph.nodes, graph.edges) == (fresh.nodes, fresh.edges)

    def test_one_base_graph_serves_every_entity(self):
        proc, graph = self._base(("book", "dust"))
        reused = [extend_qa_graph(graph, e, proc) for e in proc.entities]
        fresh = [extend_qa_graph(self._base(("book", "dust"))[1], e, proc) for e in proc.entities]
        assert [(g.nodes, g.edges) for g in reused] == [(g.nodes, g.edges) for g in fresh]

    def test_absent_entity_gets_an_unconnected_question_node(self, capsys):
        # Silently: the notice is the CLI's (see test_cli.py).
        proc, graph = self._base()
        ghost = Entity("ghost", ("ghost",))
        extended = extend_qa_graph(graph, ghost, proc)
        assert capsys.readouterr() == ("", "")
        assert [e for e in extended.edges if e.type_label == "QUESTION"] == []
        assert len(extended.nodes) == len(graph.nodes) + proc.num_steps + 1


_ODD_TEXT = ["a", "Z", " ", "/", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ß",
             "\u2028", "水", "\U0001F600", "s1.N2", "|"]


def _odd_text(rng):
    return "".join(rng.choice(_ODD_TEXT) for _ in range(rng.randint(0, 6)))


def _random_graph(rng):
    nodes = []
    for k in range(rng.choice([0, 1, 2, 5, 12])):
        step = rng.choice([None, 0, 1, 7, -3, 10**12])
        span = None
        if rng.random() < 0.7:
            start = rng.randint(-2, 30)
            span = (start, start + rng.randint(0, 5))
        kind = rng.choice(["predicate", "entity_mention", "noun_phrase", "question", "step"])
        nodes.append(GNode(f"{_odd_text(rng)}#{k}", rng.choice([kind, _odd_text(rng)]), step,
                           span, _odd_text(rng)))
    edges = [
        GEdge(_odd_text(rng), _odd_text(rng), rng.choice([SAME, COREF, "", _odd_text(rng)]))
        for _ in range(rng.choice([0, 1, 3, 15]))
    ]
    return SemanticGraph(nodes=nodes, edges=edges)


def test_graph_writer_matches_json_dumps(tmp_path):
    """The fixed-layout writer gives the bytes json.dumps(indent=2) gives
    for the same records' to_dict form."""
    rng = random.Random(23)
    out = tmp_path / "graphs.json"
    for _ in range(300):
        records = []
        for _ in range(rng.choice([0, 1, 1, 2, 4])):
            entity = rng.choice([None, "water", _odd_text(rng)])
            records.append((_odd_text(rng), entity, _random_graph(rng)))
        write_graph_records(out, [render_graph_record(*r) for r in records])
        expected = json.dumps(
            [{"procedure": p, "entity": e, "graph": g.to_dict()} for p, e, g in records],
            indent=2,
        ) + "\n"
        assert out.read_bytes() == expected.encode()
