import json
import random

import pytest

from statetrack.abstraction import RoleSynonyms
from statetrack.errors import SchemaError
from statetrack.parses import (
    ActionClass,
    ActionClassMap,
    Ontology,
    default_class_map,
    default_ontology,
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


class TestLoadTrips:
    def test_move_frame_has_two_outgoing_edges(self, data_dir):
        graphs = load_trips(data_dir / "parses" / "book-1.trips.json")
        (g,) = graphs
        move_edges = g.out_edges("V1")
        assert len(move_edges) == 2
        assert {e.label for e in move_edges} == {"AFFECTED", "TO-LOC"}

    def test_indexes_match_a_scan_of_the_lists(self, data_dir):
        for path in sorted((data_dir / "parses").glob("*.trips.json")):
            for g in load_trips(path):
                for n in g.nodes:
                    assert g.node(n.id) is n
                    assert g.out_edges(n.id) == tuple(e for e in g.edges if e.src == n.id)
                assert g.out_edges("no such node") == ()
                with pytest.raises(KeyError):
                    g.node("no such node")

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
        ont = Ontology({"DESTROY": "EVENT"})
        cmap = ActionClassMap({"DESTROY": ActionClass.DESTROY, "EVENT": ActionClass.CHANGE})
        assert ontology_class("DESTROY", ont, cmap) is ActionClass.DESTROY

    def test_unmapped_is_other(self):
        assert ontology_class("COGITATION", default_ontology(), default_class_map()) is ActionClass.OTHER

    def test_cycle_detected(self):
        ont = Ontology({"A": "B", "B": "A"})
        with pytest.raises(SchemaError, match="cycle"):
            ontology_class("A", ont, ActionClassMap({}))

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
            ont = Ontology(parents)
            mapped = {
                name: rng.choice(list(ActionClass)[:4])
                for name in names
                if rng.random() < 0.3
            }
            cmap = ActionClassMap(mapped)
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
                assert ontology_class(name, ont, cmap) is expected


class TestConfigFiles:
    def test_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "ontology.tsv").write_text("CHILD\tPARENT\n")
        monkeypatch.setenv("STATETRACK_CONFIG_DIR", str(tmp_path))
        ont = default_ontology()
        assert ont.parents == {"CHILD": "PARENT"}

    def test_bad_class_rejected(self, tmp_path):
        path = tmp_path / "classes.tsv"
        path.write_text("MOTION\tTELEPORT\n")
        with pytest.raises(SchemaError, match="TELEPORT"):
            ActionClassMap.from_file(path)

    def test_duplicate_role_label_rejected(self, tmp_path):
        path = tmp_path / "role_synonyms.tsv"
        path.write_text("# raw<TAB>target\nGOAL\tTO_LOC\n\ngoal\tFROM_LOC\n")
        with pytest.raises(SchemaError, match=r":4: duplicate raw_label 'GOAL'"):
            RoleSynonyms.from_file(path)
