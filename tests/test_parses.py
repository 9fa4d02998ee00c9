import json
import random

import pytest

from statetrack.errors import SchemaError
from statetrack.parses import (
    ActionClass,
    default_class_map,
    default_ontology,
    default_role_synonyms,
    load_srl,
    load_trips,
    ontology_class,
)


def _lf_dict(g) -> dict:
    """A logical-form graph in the parse-file layout."""
    return {
        "sentence_index": g.sentence_index,
        "root": g.root,
        "nodes": [
            {"id": n.id, "indicator": n.indicator, "type": n.onto_type, "word": n.word,
             "span": None if n.span is None else list(n.span)}
            for n in g.nodes
        ],
        "edges": [{"src": e.src, "label": e.label, "dst": e.dst} for e in g.edges],
    }


def _srl_dict(d) -> dict:
    """A frame document in the parse-file layout."""
    return {
        "sentence_index": d.sentence_index,
        "frames": [
            {
                "predicate": {"span": list(f.predicate_span), "text": f.predicate_text},
                "args": [{"role": a.role, "span": list(a.span), "text": a.text} for a in f.args],
            }
            for f in d.frames
        ],
    }


def _node(nid="N1", **fields) -> dict:
    """A valid logical-form node record, with ``fields`` replaced."""
    return {"id": nid, "indicator": "THE", "type": "THING", "word": "w", "span": [0, 1], **fields}


def _edge(src="N1", label="A", dst="N1") -> dict:
    return {"src": src, "label": label, "dst": dst}


# (test id, record fields, message after "{path}: sentence 1: ")
_LF_DEFECTS = [
    ("missing-id", {"nodes": [{"word": "w"}]}, "node: missing key 'id'"),
    ("bool-id", {"nodes": [_node(True)]},
     "node id: expected a string or an integer, got True"),
    ("float-id", {"nodes": [_node(1.5)]},
     "node id: expected a string or an integer, got 1.5"),
    ("duplicate-id", {"nodes": [_node(), _node()]}, "duplicate node id 'N1'"),
    ("integer-id-duplicates-its-text", {"nodes": [_node(7), _node("7")]},
     "duplicate node id '7'"),
    ("int-indicator", {"nodes": [_node(indicator=3)]},
     "node N1: indicator: expected a string, got 3"),
    ("null-indicator", {"nodes": [_node(indicator=None)]},
     "node N1: indicator: expected a string, got None"),
    ("list-type", {"nodes": [_node(type=["MOVE"])]},
     "node N1: type: expected a string, got ['MOVE']"),
    ("null-word", {"nodes": [_node(word=None)]},
     "node N1: word: expected a string, got None"),
    ("integer-id-in-field-message", {"nodes": [_node(7, word=1)]},
     "node 7: word: expected a string, got 1"),
    ("span-of-one", {"nodes": [_node(span=[0])]},
     "node N1: span: expected two integers, got [0]"),
    ("span-of-three", {"nodes": [_node(span=[0, 1, 2])]},
     "node N1: span: expected two integers, got [0, 1, 2]"),
    ("bool-span", {"nodes": [_node(span=[True, 1])]},
     "node N1: span: expected two integers, got [True, 1]"),
    ("float-span", {"nodes": [_node(span=[0, 1.0])]},
     "node N1: span: expected two integers, got [0, 1.0]"),
    ("string-span", {"nodes": [_node(span="0 1")]},
     "node N1: span: expected two integers, got '0 1'"),
    ("string-node", {"nodes": ["N1"]}, "node: expected an object, got str"),
    ("null-node", {"nodes": [None]}, "node: expected an object, got NoneType"),
    ("nodes-not-a-list", {"nodes": {"N1": {}}}, "nodes: expected a list, got dict"),
    ("list-edge", {"nodes": [_node()], "edges": [["N1", "A", "N1"]]},
     "edge: expected an object, got list"),
    ("edges-not-a-list", {"nodes": [_node()], "edges": "N1"}, "edges: expected a list, got str"),
    ("edge-without-src", {"nodes": [_node()], "edges": [{"label": "A", "dst": "N1"}]},
     "edge: missing key 'src'"),
    ("edge-without-label", {"nodes": [_node()], "edges": [{"src": "N1", "dst": "N1"}]},
     "edge: missing key 'label'"),
    ("edge-without-dst", {"nodes": [_node()], "edges": [{"src": "N1", "label": "A"}]},
     "edge: missing key 'dst'"),
    ("int-edge-label", {"nodes": [_node()], "edges": [_edge(label=5)]},
     "edge label: expected a string, got 5"),
    ("bool-edge-src", {"nodes": [_node()], "edges": [_edge(src=False)]},
     "edge src: expected a string or an integer, got False"),
    ("float-edge-dst", {"nodes": [_node()], "edges": [_edge(dst=2.0)]},
     "edge dst: expected a string or an integer, got 2.0"),
    ("edge-from-unknown-node", {"nodes": [_node()], "edges": [_edge(src="N9")]},
     "edge references unknown node 'N9'"),
    ("edge-to-unknown-node", {"nodes": [_node()], "edges": [_edge(dst="N9")]},
     "edge references unknown node 'N9'"),
    ("edge-between-unknown-nodes", {"nodes": [_node()], "edges": [_edge(src="N8", dst="N9")]},
     "edge references unknown node 'N8'"),
    ("edge-to-unknown-integer-id", {"nodes": [_node()], "edges": [_edge(dst=9)]},
     "edge references unknown node '9'"),
    ("root-not-a-node", {"nodes": [_node()], "root": "N9"}, "root 'N9' is not a node"),
    ("bool-root", {"nodes": [_node()], "root": True},
     "root: expected a string or an integer, got True"),
    ("float-root", {"nodes": [_node()], "root": 1.0},
     "root: expected a string or an integer, got 1.0"),
    ("list-root", {"nodes": [_node()], "root": ["N1"]},
     "root: expected a string or an integer, got ['N1']"),
]


class TestLoadTrips:
    def test_move_frame_has_two_outgoing_edges(self, data_dir):
        graphs = load_trips(data_dir / "parses" / "book-1.trips.json")
        (g,) = graphs
        move_edges = [e for e in g.edges if e.src == "V1"]
        assert len(move_edges) == 2
        assert {e.label for e in move_edges} == {"AFFECTED", "TO-LOC"}

    def test_dangling_edge_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "sentence_index": 1,
                        "root": "V1",
                        "nodes": [{"id": "V1", "indicator": "F", "type": "MOVE", "word": "m", "span": [0, 1]}],
                        "edges": [{"src": "V1", "label": "AFFECTED", "dst": "V999"}],
                    }
                ]
            )
        )
        with pytest.raises(SchemaError, match="V999"):
            load_trips(path)

    def test_empty_graph_is_valid(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps([{"sentence_index": 1, "root": None, "nodes": [], "edges": []}]))
        (g,) = load_trips(path)
        assert g.nodes == () and g.edges == ()

    def test_missing_node_fields_read_as_empty(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"sentence_index": 1, "nodes": [{"id": "N1"}]}))
        (node,) = load_trips(path)[0].nodes
        assert (node.indicator, node.onto_type, node.word, node.span) == ("", "", "", None)

    def test_duplicate_node_id(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "sentence_index": 1,
                        "root": None,
                        "nodes": [
                            {"id": "N1", "indicator": "THE", "type": "A", "word": "a", "span": [0, 1]},
                            {"id": "N1", "indicator": "THE", "type": "B", "word": "b", "span": [1, 2]},
                        ],
                        "edges": [],
                    }
                ]
            )
        )
        with pytest.raises(SchemaError, match="duplicate node id"):
            load_trips(path)

    def test_roundtrip(self, data_dir, tmp_path):
        graphs = load_trips(data_dir / "parses" / "p1.trips.json")
        dumped = tmp_path / "again.json"
        dumped.write_text(json.dumps([_lf_dict(g) for g in graphs]))
        assert load_trips(dumped) == graphs

    def test_sorted_by_sentence_index(self, tmp_path):
        path = tmp_path / "rev.json"
        path.write_text(
            json.dumps(
                [
                    {"sentence_index": 2, "root": None, "nodes": [], "edges": []},
                    {"sentence_index": 1, "root": None, "nodes": [], "edges": []},
                ]
            )
        )
        assert [g.sentence_index for g in load_trips(path)] == [1, 2]

    def test_duplicate_sentence_index_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps(
                [
                    {"sentence_index": 1, "root": None, "nodes": [], "edges": []},
                    {"sentence_index": 2, "root": None, "nodes": [], "edges": []},
                    {"sentence_index": 1, "root": None, "nodes": [], "edges": []},
                ]
            )
        )
        with pytest.raises(SchemaError, match="duplicate sentence_index 1"):
            load_trips(path)

    @pytest.mark.parametrize("record, message", [
        pytest.param(*case, id=case_id) for case_id, *case in _LF_DEFECTS
    ])
    def test_field_defect_message(self, tmp_path, record, message):
        """The exact text of each field-level defect of a logical-form record."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"sentence_index": 1, **record}]))
        with pytest.raises(SchemaError) as exc:
            load_trips(path)
        assert str(exc.value) == f"{path}: sentence 1: {message}"

    def test_integer_ids_are_read_as_decimal_text(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps([{
            "sentence_index": 1, "root": 7,
            "nodes": [_node(7), _node("N1", span=None)],
            "edges": [{"src": 7, "label": "affected", "dst": "N1"}],
        }]))
        (g,) = load_trips(path)
        assert g.root == "7"
        assert [n.id for n in g.nodes] == ["7", "N1"]
        assert g.nodes[1].span is None
        assert [(e.src, e.label, e.dst) for e in g.edges] == [("7", "AFFECTED", "N1")]


class TestLoadSrl:
    def test_basic(self, tmp_path):
        path = tmp_path / "srl.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "sentence_index": 1,
                        "frames": [
                            {
                                "predicate": {"span": [0, 1], "text": "Move"},
                                "args": [
                                    {"role": "ARG1", "span": [1, 3], "text": "the book"},
                                    {"role": "ARGM-GOL", "span": [4, 6], "text": "the library"},
                                ],
                            }
                        ],
                    }
                ]
            )
        )
        (doc,) = load_srl(path)
        assert doc.frames[0].args[0].role == "ARG1"

    def test_arg_overlapping_predicate_rejected(self, tmp_path):
        path = tmp_path / "srl.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "sentence_index": 1,
                        "frames": [
                            {
                                "predicate": {"span": [0, 2], "text": "is moved"},
                                "args": [{"role": "ARG1", "span": [1, 3], "text": "moved it"}],
                            }
                        ],
                    }
                ]
            )
        )
        with pytest.raises(SchemaError, match="overlaps predicate"):
            load_srl(path)

    def test_roundtrip(self, tmp_path):
        src = [
            {
                "sentence_index": 1,
                "frames": [
                    {
                        "predicate": {"span": [0, 1], "text": "falls"},
                        "args": [{"role": "ARG0", "span": [1, 2], "text": "rain"}],
                    }
                ],
            }
        ]
        path = tmp_path / "srl.json"
        path.write_text(json.dumps(src))
        docs = load_srl(path)
        again = tmp_path / "again.json"
        again.write_text(json.dumps([_srl_dict(d) for d in docs]))
        assert load_srl(again) == docs

    def test_duplicate_sentence_index_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps([{"sentence_index": 3, "frames": []}, {"sentence_index": 3, "frames": []}])
        )
        with pytest.raises(SchemaError, match="duplicate sentence_index 3"):
            load_srl(path)


class TestOntologyClass:
    def test_walks_to_mapped_ancestor(self):
        ont = default_ontology()
        cmap = default_class_map()
        assert ontology_class("FLUIDIC-MOTION", ont, cmap) is ActionClass.MOVE

    def test_direct_hit_wins(self):
        ont = {"DESTROY": "EVENT"}
        cmap = {"DESTROY": ActionClass.DESTROY, "EVENT": ActionClass.CHANGE}
        assert ontology_class("DESTROY", ont, cmap) is ActionClass.DESTROY

    def test_unmapped_is_other(self):
        assert ontology_class("COGITATION", default_ontology(), default_class_map()) is ActionClass.OTHER

    def test_cycle_detected(self):
        ont = {"A": "B", "B": "A"}
        with pytest.raises(SchemaError, match="cycle"):
            ontology_class("A", ont, {})

    def test_monotonicity_property(self):
        # Every descendant with no closer mapped ancestor resolves like its
        # nearest mapped ancestor; oracle is a brute-force upward scan.
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 30)
            names = [f"T{i}" for i in range(n)]
            parents = {}
            for i in range(1, n):
                parents[names[i]] = names[rng.randrange(0, i)]  # acyclic by construction
            mapped = {
                name: rng.choice(list(ActionClass)[:4])
                for name in names
                if rng.random() < 0.3
            }
            for name in names:
                chain = []
                cur = name
                while True:
                    chain.append(cur)
                    if cur not in parents:
                        break
                    cur = parents[cur]
                expected = next(
                    (mapped[c] for c in chain if c in mapped), ActionClass.OTHER
                )
                assert ontology_class(name, parents, mapped) is expected


class TestConfigFiles:
    def test_bad_class_rejected(self, tmp_path):
        path = tmp_path / "classes.tsv"
        path.write_text("MOTION\tTELEPORT\n")
        with pytest.raises(SchemaError, match="TELEPORT"):
            default_class_map(path)

    def test_duplicate_role_label_rejected(self, tmp_path):
        path = tmp_path / "role_synonyms.tsv"
        path.write_text("# raw<TAB>target\nGOAL\tTO_LOC\n\ngoal\tFROM_LOC\n")
        with pytest.raises(SchemaError, match=r":4: duplicate raw_label 'GOAL'"):
            default_role_synonyms(path)

    def test_tables_are_dicts_upper_cased_at_load(self, tmp_path):
        (tmp_path / "ontology.tsv").write_text("fluidic-motion\tmotion\n")
        (tmp_path / "classes.tsv").write_text("motion\tmove\n")
        (tmp_path / "roles.tsv").write_text("goal\tto_loc\n")
        tables = (default_ontology(tmp_path / "ontology.tsv"),
                  default_class_map(tmp_path / "classes.tsv"),
                  default_role_synonyms(tmp_path / "roles.tsv"))
        assert [type(t) for t in tables] == [dict, dict, dict]
        assert tables == ({"FLUIDIC-MOTION": "MOTION"}, {"MOTION": ActionClass.MOVE},
                          {"GOAL": "TO_LOC"})
