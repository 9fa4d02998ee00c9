import json

import pytest

from statetrack.abstraction import abstract_events, default_role_synonyms
from statetrack.parses import ActionClass, default_class_map, default_ontology, load_trips


@pytest.fixture(scope="module")
def cfg():
    return default_ontology(), default_class_map(), default_role_synonyms()


def _graph(tmp_path, obj):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([obj]))
    return load_trips(path)[0]


def test_move_with_noun_attached_location(data_dir, cfg):
    # "Move the book in the shelf to the library": one move frame plus a
    # passive fact for the book sitting on the shelf.
    (g,) = load_trips(data_dir / "parses" / "book-1.trips.json")
    frames, facts = abstract_events(g, *cfg)
    assert len(frames) == 1
    frame = frames[0]
    assert frame.action_class is ActionClass.MOVE
    assert frame.roles["AFFECTED"].text == "book"
    assert frame.to_loc.text == "library"
    assert frame.from_loc is None
    assert len(facts) == 1
    assert (facts[0].holder.text, facts[0].location.text) == ("book", "shelf")


def test_other_class_frames_skipped(tmp_path, cfg):
    g = _graph(
        tmp_path,
        {
            "sentence_index": 1,
            "root": "V1",
            "nodes": [
                {"id": "V1", "indicator": "F", "type": "COGITATION", "word": "thinks", "span": [1, 2]},
                {"id": "N1", "indicator": "THE", "type": "CAT", "word": "cat", "span": [0, 1]},
                {"id": "N2", "indicator": "THE", "type": "MAT", "word": "mat", "span": [3, 4]},
            ],
            "edges": [
                {"src": "V1", "label": "AGENT", "dst": "N1"},
                {"src": "N1", "label": "ON", "dst": "N2"},
            ],
        },
    )
    frames, facts = abstract_events(g, *cfg)
    assert frames == []
    assert [(f.holder.text, f.location.text) for f in facts] == [("cat", "mat")]


def test_destroy_location_becomes_from_loc(tmp_path, cfg):
    g = _graph(
        tmp_path,
        {
            "sentence_index": 2,
            "root": "V1",
            "nodes": [
                {"id": "V1", "indicator": "F", "type": "CONSUME", "word": "consumed", "span": [2, 3]},
                {"id": "N1", "indicator": "THE", "type": "OXYGEN", "word": "oxygen", "span": [1, 2]},
                {"id": "N2", "indicator": "THE", "type": "AIR", "word": "air", "span": [5, 6]},
            ],
            "edges": [
                {"src": "V1", "label": "AFFECTED", "dst": "N1"},
                {"src": "V1", "label": "IN", "dst": "N2"},
            ],
        },
    )
    frames, _ = abstract_events(g, *cfg)
    assert frames[0].action_class is ActionClass.DESTROY
    assert frames[0].from_loc.text == "air"
    assert frames[0].to_loc is None


def test_surface_form_invariance(tmp_path, cfg):
    # Same node types and edges, different words: identical role keys.
    def build(words):
        return _graph(
            tmp_path,
            {
                "sentence_index": 1,
                "root": "V1",
                "nodes": [
                    {"id": "V1", "indicator": "F", "type": "DESTROY", "word": words[0], "span": [1, 2]},
                    {"id": "N1", "indicator": "THE", "type": "BUILDING", "word": words[1], "span": [2, 3]},
                    {"id": "N2", "indicator": "THE", "type": "MACHINE", "word": words[2], "span": [0, 1]},
                ],
                "edges": [
                    {"src": "V1", "label": "AFFECTED", "dst": "N1"},
                    {"src": "V1", "label": "AGENT", "dst": "N2"},
                ],
            },
        )

    frames_a, _ = abstract_events(build(["demolished", "building", "bulldozer"]), *cfg)
    frames_b, _ = abstract_events(build(["razed", "tower", "crane"]), *cfg)
    assert sorted(frames_a[0].roles) == sorted(frames_b[0].roles)
    assert frames_a[0].action_class is frames_b[0].action_class


def test_no_invented_roles_and_node_ids_exist(data_dir, cfg):
    for pid in ("p1", "p2", "p3", "erosion-1"):
        for g in load_trips(data_dir / "parses" / f"{pid}.trips.json"):
            node_ids = {n.id for n in g.nodes}
            edge_pairs = {(e.src, e.dst) for e in g.edges}
            frames, _ = abstract_events(g, *cfg)
            for frame in frames:
                assert frame.node_id in node_ids
                for ref in list(frame.roles.values()) + [frame.to_loc, frame.from_loc]:
                    if ref is None:
                        continue
                    assert ref.node_id in node_ids
                    assert (frame.node_id, ref.node_id) in edge_pairs


def test_role_text_matches_node_word(data_dir, cfg):
    (g,) = load_trips(data_dir / "parses" / "book-1.trips.json")
    frames, _ = abstract_events(g, *cfg)
    by_id = {n.id: n for n in g.nodes}
    for frame in frames:
        for ref in frame.roles.values():
            assert ref.text == by_id[ref.node_id].word


def test_lower_case_labels_and_types_abstract_alike(tmp_path, data_dir, cfg):
    # The parse loader is the one place that case-folds edge labels and node
    # types; the tables are looked up with the folded text as it stands.
    def abstracted(path):
        out = []
        for g in load_trips(path):
            frames, facts = abstract_events(g, *cfg)
            out.append(([f.to_dict() for f in frames], [f.to_dict() for f in facts]))
        return out

    lowered_text = set()
    for path in sorted((data_dir / "parses").glob("*.trips.json")):
        doc = json.loads(path.read_text())
        for sentence in doc:
            for node in sentence["nodes"]:
                node["type"] = node["type"].lower()
                lowered_text.add(node["type"])
            for edge in sentence["edges"]:
                edge["label"] = edge["label"].lower()
                lowered_text.add(edge["label"])
        lowered = tmp_path / path.name
        lowered.write_text(json.dumps(doc))
        expected = abstracted(path)
        assert any(frames for frames, _ in expected), path.name
        assert abstracted(lowered) == expected, path.name
    assert {"goal", "affected", "move"} <= lowered_text


def _node(nid, word, onto_type="THING", indicator="THE"):
    return {"id": nid, "indicator": indicator, "type": onto_type, "word": word}


def _sentence(nodes, edges):
    return {
        "sentence_index": 1,
        "nodes": nodes,
        "edges": [{"src": s, "label": label, "dst": d} for s, label, d in edges],
    }


class TestEdgeOrder:
    # Where two edges compete for one slot, the first in file order wins; the
    # later edges name nodes that come earlier in node order, so that node
    # order would pick the other one.

    def test_first_to_loc_wins(self, tmp_path, cfg):
        g = _graph(tmp_path, _sentence(
            [_node("V1", "flows", "MOTION", "F"), _node("N1", "sea"), _node("N2", "river"),
             _node("N3", "lake")],
            [("V1", "TO-LOC", "N3"), ("V1", "GOAL", "N2"), ("V1", "TO-LOC", "N1")],
        ))
        (frame,), _ = abstract_events(g, *cfg)
        assert frame.to_loc.text == "lake"
        assert frame.from_loc is None

    def test_first_edge_of_a_role_wins(self, tmp_path, cfg):
        # AFFECTED_RESULT is unmapped and names the role AFFECTED-RESULT maps to.
        g = _graph(tmp_path, _sentence(
            [_node("V1", "forms", "CREATE", "F"), _node("N1", "ice"), _node("N2", "snow")],
            [("V1", "AFFECTED-RESULT", "N2"), ("V1", "AFFECTED_RESULT", "N1")],
        ))
        (frame,), _ = abstract_events(g, *cfg)
        assert {k: v.text for k, v in frame.roles.items()} == {"AFFECTED_RESULT": "snow"}

    def test_destroy_takes_the_first_location_of_either_kind(self, tmp_path, cfg):
        nodes = [_node("V1", "burns", "DESTROY", "F"), _node("N1", "forest"), _node("N2", "hill")]
        g = _graph(tmp_path, _sentence(nodes, [("V1", "LOCATION", "N2"), ("V1", "FROM-LOC", "N1")]))
        (frame,), _ = abstract_events(g, *cfg)
        assert frame.from_loc.text == "hill"
        assert frame.to_loc is None and frame.roles == {}
        g = _graph(tmp_path, _sentence(nodes, [("V1", "FROM-LOC", "N1"), ("V1", "LOCATION", "N2")]))
        (frame,), _ = abstract_events(g, *cfg)
        assert frame.from_loc.text == "forest"

    def test_passive_facts_in_node_then_edge_order(self, tmp_path, cfg):
        g = _graph(tmp_path, _sentence(
            [_node("N1", "cup"), _node("V1", "sits", "COGITATION", "F"), _node("N2", "book"),
             _node("N3", "shelf"), _node("N4", "table"), _node("N5", "box")],
            [("N2", "ON", "N4"), ("N1", "IN", "N5"), ("N2", "IN", "N3"), ("V1", "AT", "N3"),
             ("N1", "AT", "N4")],
        ))
        frames, facts = abstract_events(g, *cfg)
        assert frames == []
        assert [(f.holder.text, f.location.text) for f in facts] == [
            ("cup", "box"), ("cup", "table"), ("book", "table"), ("book", "shelf"),
        ]
