import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from statetrack.corpus import (
    Action,
    Entity,
    StateGrid,
    Step,
    find_all_mentions,
    grids_from_action_tsv,
    load_coref,
    load_procedures,
    make_entity,
    normalize,
    render_json,
    spans_overlap,
    tokenize,
    transition,
)
from statetrack.errors import SchemaError


def _write_corpus(tmp_path, obj):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(obj))
    return path


TWO_STEP = {
    "id": "t1",
    "steps": [
        {"index": 1, "text": "Water falls ."},
        {"index": 2, "text": "Water rises ."},
    ],
    "entities": [{"name": "water"}],
    "gold_grid": {"water": ["sky", "soil", "?"]},
}


class TestLoading:
    def test_well_formed_two_step(self, tmp_path):
        pairs = load_procedures(_write_corpus(tmp_path, TWO_STEP))
        proc, grid = pairs[0]
        assert proc.num_steps == 2
        assert len(grid.rows["water"]) == 3
        assert proc.steps[0].tokens == ("Water", "falls", ".")

    def test_ragged_grid_rejected(self, tmp_path):
        bad = json.loads(json.dumps(TWO_STEP))
        bad["gold_grid"]["water"] = ["sky", "soil"]
        with pytest.raises(SchemaError, match="expected 3 cells"):
            load_procedures(_write_corpus(tmp_path, bad))

    def test_semicolon_aliases(self):
        ent = make_entity("plants; animals")
        assert ent.aliases == ("plants", "animals")
        assert ent.canonical_name == "plants"

    def test_locations_normalized_on_load(self, tmp_path):
        obj = json.loads(json.dumps(TWO_STEP))
        obj["gold_grid"]["water"] = ["The Sky", "soil", "?"]
        _, grid = load_procedures(_write_corpus(tmp_path, obj))[0]
        assert grid.rows["water"][0] == "sky"

    def test_noncontiguous_steps_rejected(self, tmp_path):
        bad = json.loads(json.dumps(TWO_STEP))
        bad["steps"][1]["index"] = 3
        with pytest.raises(SchemaError, match="contiguous"):
            load_procedures(_write_corpus(tmp_path, bad))

    def test_propara_tsv_roundtrip(self, tmp_path):
        (tmp_path / "paragraphs.tsv").write_text(
            "7\t1\tWater falls .\n7\t2\tWater rises .\n"
        )
        (tmp_path / "grids.tsv").write_text(
            "7\t1\twater\tMOVE\tsky\tsoil\n7\t2\twater\tMOVE\tsoil\t?\n"
        )
        proc, grid = load_procedures(tmp_path, "propara-tsv")[0]
        assert proc.id == "7"
        assert proc.num_steps == 2
        assert grid.rows["water"] == ["sky", "soil", "?"]

    def test_propara_tsv_inconsistent_chain(self, tmp_path):
        (tmp_path / "paragraphs.tsv").write_text("7\t1\tWater falls .\n7\t2\tAgain .\n")
        (tmp_path / "grids.tsv").write_text(
            "7\t1\twater\tMOVE\tsky\tsoil\n7\t2\twater\tNONE\tmud\tmud\n"
        )
        with pytest.raises(SchemaError, match="prior after-location"):
            load_procedures(tmp_path, "propara-tsv")

    def test_propara_tsv_duplicate_entity(self, tmp_path):
        (tmp_path / "paragraphs.tsv").write_text("7\t1\tWater falls .\n")
        (tmp_path / "grids.tsv").write_text(
            "7\t1\tWater\tMOVE\tsky\tsoil\n7\t1\twater\tNONE\tmud\tmud\n"
        )
        with pytest.raises(SchemaError, match=r"grids\.tsv: paragraph 7: duplicate entity 'water'"):
            load_procedures(tmp_path, "propara-tsv")

    def test_alias_repeated_within_one_entity_is_kept(self, tmp_path):
        obj = {**TWO_STEP, "entities": ["water;Water", {"name": "rain", "aliases": ["Rain"]}],
               "gold_grid": {"water": ["sky", "soil", "?"], "rain": ["-", "sky", "soil"]}}
        proc, _ = load_procedures(_write_corpus(tmp_path, obj))[0]
        assert [e.aliases for e in proc.entities] == [("water", "water"), ("rain",)]

    @pytest.mark.parametrize("alias", ["", "  "])
    def test_alias_empty_after_normalization_is_rejected(self, tmp_path, alias):
        # An empty alias matched every argument whose node has no word.
        obj = {**TWO_STEP, "entities": [{"name": "water", "aliases": ["Rain", alias]}]}
        with pytest.raises(SchemaError, match=r"procedure t1: entity 'water':"
                                              r" alias empty after normalization"):
            load_procedures(_write_corpus(tmp_path, obj))

    @pytest.mark.parametrize("action, before, after, given", [
        ("CREATE", "soil", "root", "MOVE"),
        ("NONE", "sky", "soil", "MOVE"),
        ("MOVE", "-", "soil", "CREATE"),
        ("MOVE", "soil", "-", "DESTROY"),
        ("MOVE", "The Soil", "soil", "NONE"),
        ("DESTROY", "-", "-", "NONE"),
    ])
    def test_action_tsv_action_must_be_the_transition(self, tmp_path, action, before, after,
                                                       given):
        path = tmp_path / "pred.tsv"
        path.write_text(f"7\t1\twater\t{action}\t{before}\t{after}\n")
        with pytest.raises(SchemaError, match=(
            rf"pred\.tsv:1: action {action}, but '{normalize(before)}' to"
            rf" '{normalize(after)}' is {given}$"
        )):
            grids_from_action_tsv(path)

    def test_action_tsv_action_is_read_from_normalized_locations(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text("7\t1\twater\tNONE\tThe Soil\tsoil\n7\t2\twater\tMOVE\tsoil\t?\n")
        assert grids_from_action_tsv(path) == {"7": StateGrid("7", {"water": ["soil", "soil", "?"]})}

    def test_propara_tsv_non_integer_sentence_index(self, tmp_path):
        (tmp_path / "paragraphs.tsv").write_text("7\t1\tWater falls .\n7\tx\tAgain .\n")
        (tmp_path / "grids.tsv").write_text("7\t1\twater\tMOVE\tsky\tsoil\n")
        with pytest.raises(SchemaError, match=r"paragraphs\.tsv:2: expected an integer, got 'x'"):
            load_procedures(tmp_path, "propara-tsv")


    def test_propara_tsv_repeated_sentence_index(self, tmp_path):
        (tmp_path / "paragraphs.tsv").write_text(
            "p1\t1\tWater flows into the river .\np1\t1\tRocks fall .\n"
        )
        (tmp_path / "grids.tsv").write_text("p1\t1\twater\tMOVE\tsky\triver\n")
        with pytest.raises(SchemaError, match=r"paragraphs\.tsv:2: duplicate sentence 1 of paragraph p1"):
            load_procedures(tmp_path, "propara-tsv")

    def test_repeated_procedure_id(self, tmp_path):
        path = _write_corpus(tmp_path, [TWO_STEP, {**TWO_STEP, "entities": ["water; liquid"]}])
        with pytest.raises(SchemaError, match=f"{path}: duplicate procedure id 't1'"):
            load_procedures(path)

    def test_action_tsv_field_count_names_the_columns(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text("7\t1\twater\tMOVE\tsky\tsoil\n7\t2\twater\tMOVE\tsoil\n")
        with pytest.raises(SchemaError, match=(
            r"pred\.tsv:2: expected 6 columns \(id, step, entity, action, before, after\), got 5"
        )):
            grids_from_action_tsv(path)

    def test_action_tsv_hash_line_is_a_row(self, tmp_path):
        """Only configuration files have comment lines: in an action TSV a
        line that starts with "#" is a row, not skipped."""
        path = tmp_path / "pred.tsv"
        path.write_text("#7\t1\twater\tMOVE\tsky\tsoil\n")
        assert grids_from_action_tsv(path) == {"#7": StateGrid("#7", {"water": ["sky", "soil"]})}


class TestDeriveActions:
    """The action between two adjacent cells, as every command derives it:
    ``transition``."""

    def test_create_then_destroy(self):
        row = ["-", "ocean", "ocean", "bay", "-"]
        assert [transition(a, b) for a, b in zip(row, row[1:])] == [
            Action.CREATE, Action.NONE, Action.MOVE, Action.DESTROY,
        ]

    def test_identical_unknowns(self):
        assert transition("?", "?") is Action.NONE

    def test_known_to_unknown_scores_as_move(self):
        # Oracle first: the reference scorer counts a move at step t when
        # both cells exist and differ, which covers known <-> unknown.
        def reference_move_steps(states):
            return [
                t
                for t in range(1, len(states))
                if states[t - 1] != "-" and states[t] != "-" and states[t - 1] != states[t]
            ]

        assert reference_move_steps(["soil", "?", "soil"]) == [1, 2]
        assert transition("soil", "?") is Action.MOVE
        assert transition("?", "soil") is Action.MOVE

    def test_action_fixed_by_existence_and_equality(self):
        # Each action is fixed by which of its two cells exist and whether
        # they are equal; checked on every pair of cells from the pool.
        pool = ["-", "?", "pond", "lake"]
        for before, after in itertools.product(pool, repeat=2):
            if before == after:
                expected = Action.NONE
            elif before == "-":
                expected = Action.CREATE
            elif after == "-":
                expected = Action.DESTROY
            else:
                expected = Action.MOVE
            assert transition(before, after) is expected, (before, after)


class TestNormalize:
    def test_articles_and_case(self):
        assert normalize("The Library") == "library"
        assert normalize("a  big   rock") == "big rock"
        assert normalize("-") == "-"
        assert normalize("?") == "?"

    def test_idempotent(self):
        rng = random.Random(3)
        words = ["The", "a", "an", "Ocean", "deep", "SEA", " ", "\t"]
        for _ in range(200):
            s = " ".join(rng.choice(words) for _ in range(rng.randint(0, 6)))
            assert normalize(normalize(s)) == normalize(s)


class TestMentions:
    def test_exact_match(self):
        step = Step(1, "Magma rises to the surface .", tuple(tokenize("Magma rises to the surface .")))
        entity = Entity("magma", ("magma",))
        assert find_all_mentions((entity,), step)[0] == [(0, 1)]

    def test_no_surface_match(self):
        step = Step(3, "Gradually mud piles over them", tuple(tokenize("Gradually mud piles over them")))
        entity = Entity("bones", ("bones",))
        assert find_all_mentions((entity,), step)[0] == []

    def test_coref_passthrough(self):
        step = Step(3, "Gradually mud piles over them", tuple(tokenize("Gradually mud piles over them")))
        entity = Entity("bones", ("bones",), coref_mentions=((3, (4, 5)),))
        assert find_all_mentions((entity,), step)[0] == [(4, 5)]

    def test_multiword_alias_and_no_overlap(self):
        step = Step(1, "The carbon dioxide escapes", tuple(tokenize("The carbon dioxide escapes")))
        entity = Entity("carbon dioxide", ("carbon dioxide", "dioxide"))
        spans = find_all_mentions((entity,), step)[0]
        assert spans == [(1, 3)]
        for i, a in enumerate(spans):
            for b in spans[i + 1 :]:
                assert a[1] <= b[0] or b[1] <= a[0]


def _scan_mentions(entity, step):
    """Reference: the per-entity scan used before find_all_mentions, which
    lower-cases the step for every entity and tries every alias at every
    start position."""
    tokens = [t.lower() for t in step.tokens]
    spans = []
    for alias in sorted(entity.aliases, key=len, reverse=True):
        alias_toks = alias.split(" ")
        n = len(alias_toks)
        for start in range(0, len(tokens) - n + 1):
            if tokens[start : start + n] == alias_toks:
                spans.append((start, start + n))
    spans.extend(entity.coref_spans(step.index))
    spans.sort(key=lambda s: (s[0], -(s[1] - s[0])))
    kept = []
    for span in spans:
        if not any(spans_overlap(span, k) for k in kept):
            kept.append(span)
    return sorted(kept)


def test_find_all_mentions_matches_the_per_entity_scan():
    rng = random.Random(17)
    words = ["the", "The", "big", "BIG", "rock", "Rock", "rock", "carbon", "Carbon",
             "dioxide", "water", "Water", "of", ".", "rock-salt"]
    aliases = ["rock", "big rock", "rock rock", "the big rock", "carbon dioxide", "dioxide",
               "carbon", "water", "rock of", "of water", "rock-salt", "big rock rock"]
    seen_multi = seen_overlap = seen_coref = 0
    for case in range(300):
        tokens = tuple(rng.choice(words) for _ in range(rng.randint(0, 12)))
        step = Step(rng.randint(1, 3), " ".join(tokens), tokens)
        entities = []
        for k in range(rng.randint(0, 5)):
            names = tuple(rng.choice(aliases) for _ in range(rng.randint(1, 4)))
            coref = []
            for _ in range(rng.choice([0, 0, 1, 2])):
                if len(tokens) >= 1:
                    start = rng.randrange(len(tokens))
                    end = rng.randint(start + 1, len(tokens))
                    coref.append((rng.randint(1, 3), (start, end)))
            entities.append(Entity(f"e{k}", names, tuple(coref)))
        found = find_all_mentions(entities, step)
        expected = [_scan_mentions(e, step) for e in entities]
        assert found == expected, (case, tokens, entities)
        for entity, spans in zip(entities, expected):
            assert find_all_mentions((entity,), step) == [spans]
            seen_multi += any(b - a > 1 for a, b in spans)
            seen_coref += bool(entity.coref_spans(step.index))
            all_matches = [
                (i, i + len(a.split(" ")))
                for a in entity.aliases
                for i in range(len(tokens))
                if [t.lower() for t in tokens[i : i + len(a.split(" "))]] == a.split(" ")
            ]
            seen_overlap += any(
                spans_overlap(x, y) for x in all_matches for y in all_matches if x != y
            )
    assert seen_multi and seen_overlap and seen_coref


class TestCheckSpan:
    STEP = Step(2, "a b c", ["a", "b", "c"])

    @pytest.mark.parametrize("span", [(0, 3), (2, 3), (0, 1)])
    def test_span_inside_the_sentence_passes(self, span):
        self.STEP.check_span(span, "node", "V1")

    @pytest.mark.parametrize("span", [(0, 4), (3, 3), (2, 1), (-1, 1), (3, 4)])
    def test_span_outside_the_sentence_names_step_owner_and_length(self, span):
        with pytest.raises(SchemaError) as info:
            self.STEP.check_span(span, "node", "V1")
        assert str(info.value) == f"step 2: node V1 span {span} outside sentence of 3 tokens"


class TestCoref:
    def test_sidecar_attaches(self, data_dir):
        pairs = load_procedures(data_dir / "corpus_small.json")
        procs = load_coref(data_dir / "coref_small.json", [p for p, _ in pairs])
        p2 = next(p for p in procs if p.id == "p2")
        magma = next(e for e in p2.entities if e.canonical_name == "magma")
        assert magma.coref_mentions == ((2, (0, 1)),)

    def test_bad_span_rejected(self, tmp_path, data_dir):
        pairs = load_procedures(data_dir / "corpus_small.json")
        side = tmp_path / "coref.json"
        side.write_text(
            json.dumps({"procedure_id": "p2", "mentions": [{"entity": "magma", "step": 2, "span": [0, 99]}]})
        )
        with pytest.raises(SchemaError,
                           match=r"step 2: coref mention 'magma' span \(0, 99\) outside"):
            load_coref(side, [p for p, _ in pairs])


# Any text, control characters and lone surrogates included.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | st.floats()
    | _TEXT | st.sampled_from(list(Action))
)
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, inner, max_size=4)
    ),
    max_leaves=24,
)


class TestRenderJson:
    @given(_JSON_VALUES)
    def test_equals_json_dumps_indent_2(self, value):
        assert render_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -0.0, 10**30,
                                       [], {}, [[], {}], {"a": {"b": []}}, "\ud800\x00\u00e9"])
    def test_edge_values(self, value):
        assert render_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [object(), {(1, 2): 1}, [{1, 2}]])
    def test_what_json_cannot_encode_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            render_json(value)
