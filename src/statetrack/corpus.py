"""Procedural corpus model: procedures, entities, location grids, gold actions.

A procedure is an ordered list of steps; for every entity we track one
location value per step, plus a column 0 for the state before the process
starts.  Location values are plain strings with two reserved literals:
"-" (the entity does not exist) and "?" (it exists somewhere unknown).
"""

from __future__ import annotations

import functools
import json
import re
from collections import namedtuple
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from .errors import InputFileError, SchemaError

NONEXISTENT = "-"
UNKNOWN = "?"

_ARTICLES = ("the", "a", "an")
_TOKEN_RE = re.compile(r"[A-Za-z0-9_'-]+|[^\sA-Za-z0-9_]")


@functools.cache
def normalize(text: str) -> str:
    """Normalize a location or phrase: lowercase, collapse whitespace, strip
    leading articles.  The reserved literals "-" and "?" pass through.
    Memoized: grids and action files repeat a few location strings in
    every cell."""
    if text in (NONEXISTENT, UNKNOWN):
        return text
    out = " ".join(text.lower().split())
    parts = out.split(" ")
    while len(parts) > 1 and parts[0] in _ARTICLES:
        parts = parts[1:]
    return " ".join(parts)


def exists(loc: str) -> bool:
    return loc != NONEXISTENT


def spans_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True when two half-open token spans share at least one token."""
    return a[0] < b[1] and b[0] < a[1]


def tokenize(text: str) -> list[str]:
    """Whitespace plus punctuation splitting, nothing smarter."""
    return _TOKEN_RE.findall(text)


# Checked accessors for loaded JSON and TSV fields: each raises a
# SchemaError naming ``where`` (file, and line or record) instead of letting
# a KeyError, TypeError or ValueError escape as a traceback.  The JSON
# loaders pass a constant field label and add the file and record to the
# message only when a check fails.

def require_key(obj, key: str, where: str):
    """``obj[key]`` of a JSON object."""
    if type(obj) is not dict:
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        return obj[key]
    except KeyError:
        raise SchemaError(f"{where}: missing key {key!r}") from None


def as_list(value, where: str) -> list:
    """A JSON array."""
    if type(value) is not list:
        raise SchemaError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def as_str(value, where: str) -> str:
    """A JSON string."""
    if type(value) is not str:
        raise SchemaError(f"{where}: expected a string, got {value!r}")
    return value


def as_str_list(value, where: str) -> list[str]:
    """A JSON array of strings."""
    if type(value) is not list or not all(type(v) is str for v in value):
        raise SchemaError(f"{where}: expected a list of strings, got {value!r}")
    return value


def as_id(value, where: str) -> str:
    """An identifier: a string, or an integer read as its decimal text."""
    if type(value) is str:
        return value
    if type(value) is int:  # not bool
        return str(value)
    raise SchemaError(f"{where}: expected a string or an integer, got {value!r}")


def as_int(value, *where) -> int:
    """An integer, or a string of one; floats and booleans are rejected.
    The parts of ``where`` name the value, joined by ":" only on failure, so
    a reader passing ``path, lineno`` builds no label per line."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return int(value)
        except ValueError:
            pass
    raise SchemaError(f"{':'.join(map(str, where))}: expected an integer, got {value!r}")


def as_span(value, where: str) -> tuple[int, int]:
    """A token span given as a list of exactly two integers."""
    if type(value) is list and len(value) == 2:
        start, end = value
        if type(start) is int and type(end) is int:  # not bool, not float
            return (start, end)
    raise SchemaError(f"{where}: expected two integers, got {value!r}")


class Action(str, Enum):
    NONE = "NONE"
    CREATE = "CREATE"
    DESTROY = "DESTROY"
    MOVE = "MOVE"


_ACTION_NAMES = frozenset(Action.__members__)

# Records are tuples with named fields, which cost a fraction of a
# dataclass to define and to make; they compare, hash and pickle as tuples.

class StepAction(namedtuple("StepAction", "action from_loc to_loc")):
    """One action applied to one entity at one step.

    CREATE and MOVE carry a target location (possibly "?"); DESTROY may
    carry the location it happened at; NONE carries neither.  The check
    runs whenever the class is called, so make a changed copy with
    ``StepAction(...)`` rather than ``_replace``, which bypasses it.
    """

    __slots__ = ()

    def __new__(cls, action: Action, from_loc: str | None = None, to_loc: str | None = None):
        if action is Action.NONE and (from_loc or to_loc):
            raise ValueError("NONE carries no locations")
        return tuple.__new__(cls, (action, from_loc, to_loc))


class Step(namedtuple("Step", "index text tokens")):
    """One sentence: its 1-based index, text and tokens."""

    __slots__ = ()

    def check_span(self, span: tuple[int, int], *what: str) -> None:
        """SchemaError unless 0 <= start < end <= len(tokens); ``what`` names the span."""
        if not 0 <= span[0] < span[1] <= len(self.tokens):
            raise SchemaError(f"step {self.index}: {' '.join(what)} span {span}"
                              f" outside sentence of {len(self.tokens)} tokens")


class Entity(namedtuple("Entity", "canonical_name aliases coref_mentions", defaults=((),))):
    """A tracked entity.  The canonical name is the first alias; extra
    aliases come from ";"-separated annotation names.  Coreference mentions
    are annotation input, keyed (step_index, token_span)."""

    __slots__ = ()

    def coref_spans(self, step_index: int) -> list[tuple[int, int]]:
        return [span for idx, span in self.coref_mentions if idx == step_index]

    def with_coref(self, mentions) -> "Entity":
        return Entity(self.canonical_name, self.aliases, tuple(mentions))


class Procedure(namedtuple("Procedure", "id steps entities")):
    __slots__ = ()

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def step(self, index: int) -> Step:
        return self.steps[index - 1]


class StateGrid(namedtuple("StateGrid", "procedure_id rows")):
    """Locations per (entity, step): ``rows`` maps an entity name to its
    row of num_steps + 1 cells; cell 0 is the pre-process state."""

    __slots__ = ()


def make_entity(raw_name: str) -> Entity:
    """Split a ";"-separated annotation name into canonical name + aliases."""
    aliases = tuple(normalize(part) for part in raw_name.split(";") if part.strip())
    if not aliases or any(not a for a in aliases):
        raise SchemaError(f"entity name {raw_name!r} empty after normalization")
    return Entity(canonical_name=aliases[0], aliases=aliases)


def canonical_names(rows) -> dict[str, str]:
    """Each grid row's raw entity name, keyed by the canonical name it
    normalizes to.  Two names that normalize alike are a SchemaError: one
    row would silently replace the other."""
    spelled: dict[str, str] = {}
    for name in rows:
        key = make_entity(name).canonical_name
        if key in spelled:
            raise SchemaError(f"entities {spelled[key]!r} and {name!r} both normalize to {key!r}")
        spelled[key] = name
    return spelled


# ---------------------------------------------------------------------------
# Cell transitions

def transition(before: str, after: str) -> Action:
    """The action that turns one grid cell into the next.

    Appearing from "-" is a CREATE, vanishing to "-" is a DESTROY, any other
    change of value (including known <-> unknown) is a MOVE, and identical
    values mean no action.  The exported actions
    (``reasoning.grid_to_action_rows``) and every metric tier classify cells
    through this one rule.
    """
    if before == NONEXISTENT:
        return Action.NONE if after == NONEXISTENT else Action.CREATE
    if after == NONEXISTENT:
        return Action.DESTROY
    return Action.MOVE if before != after else Action.NONE


# ---------------------------------------------------------------------------
# Mention detection

def find_all_mentions(entities, step: Step) -> list[list[tuple[int, int]]]:
    """Token spans where each entity is mentioned in a step, one sorted
    list per entity in the given order.

    Aliases match on token boundaries, case-insensitively; registered
    coreference mentions for the step are added.  Overlapping candidates
    are resolved leftmost first, longest first at one start, so no list
    contains overlapping spans.

    The step is lower-cased and indexed (token -> positions) once, and an
    alias is compared only where its first token occurs: O(tokens) for the
    step plus O(alias length) per occurrence of an alias's first token.
    """
    tokens = [t.lower() for t in step.tokens]
    positions: dict[str, list[int]] = {}
    for k, token in enumerate(tokens):
        positions.setdefault(token, []).append(k)
    out = []
    for entity in entities:
        spans: list[tuple[int, int]] = []
        for alias in entity.aliases:
            alias_toks = alias.split(" ")
            n = len(alias_toks)
            for start in positions.get(alias_toks[0], ()):
                if tokens[start : start + n] == alias_toks:
                    spans.append((start, start + n))
        spans.extend(entity.coref_spans(step.index))
        if len(spans) > 1:
            spans.sort(key=lambda s: (s[0], -(s[1] - s[0])))
            kept: list[tuple[int, int]] = []
            for span in spans:
                if not any(spans_overlap(span, k) for k in kept):
                    kept.append(span)
            spans = sorted(kept)
        out.append(spans)
    return out


# ---------------------------------------------------------------------------
# Loading

def load_procedures(path, fmt: str = "json") -> list[tuple[Procedure, StateGrid]]:
    """Load procedures with their gold grids.

    ``fmt`` is "json" for the corpus JSON model or "propara-tsv" for a
    directory holding ``paragraphs.tsv`` (id, sentence index, sentence) and
    ``grids.tsv`` in the six-column action layout (id, step, entity, action,
    before location, after location).
    """
    if fmt == "json":
        source = str(path)
        pairs = [_parse_procedure_obj(obj, source) for obj in read_json_records(path, "corpus path")]
        first: dict[str, int] = {}
        for k, (proc, _) in enumerate(pairs):
            if first.setdefault(proc.id, k) != k:
                raise SchemaError(f"{source}: duplicate procedure id {proc.id!r}")
        return pairs
    if fmt == "propara-tsv":
        return _load_propara_tsv(Path(path))
    raise ValueError(f"unknown corpus format {fmt!r}")


def read_input(path, what: str) -> str:
    """The text of an input file, decoded as UTF-8 whatever the locale.  A
    missing file is an InputFileError ``"{what} not found: {path}"`` and any
    other failure to read it (a directory, no permission) an InputFileError
    ``"{what} unreadable: ..."``; bytes that are not UTF-8 are a SchemaError
    naming the file.  Every input file is read here."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise InputFileError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise InputFileError(f"{what} unreadable: {path}: {exc.strerror}") from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8: {exc}") from None


def read_tsv(path, what: str, columns: tuple[str, ...], comments: bool = False):
    """(line number, fields) of every non-blank line of a tab-separated
    input file.  A line with another field count is a SchemaError
    ``file:line: expected N columns (names), got K``.  ``comments`` also
    skips lines that start with "#": configuration files have them, while
    in a data file such a line is a row."""
    for lineno, line in enumerate(read_input(path, what).splitlines(), start=1):
        if not line.strip() or (comments and line.startswith("#")):
            continue
        fields = line.split("\t")
        if len(fields) != len(columns):
            raise SchemaError(f"{path}:{lineno}: expected {len(columns)} columns"
                              f" ({', '.join(columns)}), got {len(fields)}")
        yield lineno, fields


def write_output(path, parts) -> None:
    """Write the strings ``parts`` to an output file, opened once, as UTF-8
    whatever the locale.  A file that cannot be opened or written is an
    InputFileError ``"cannot write {path}: ..."``; text that UTF-8 cannot
    encode (an unpaired surrogate, which a JSON ``\\ud800`` escape gives) is a
    SchemaError, and the file is removed.  Every output file is written here."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            for part in parts:
                out.write(part)
    except OSError as exc:
        raise InputFileError(f"cannot write {path}: {exc.strerror}") from None
    except UnicodeEncodeError as exc:
        Path(path).unlink()
        raise SchemaError(f"cannot write {path}: {exc}") from None


def render_json(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, built with the C string
    escaper rather than the pure-Python encoder ``json.dumps`` falls back
    to whenever ``indent`` is set.  Every JSON output but graphs.json is
    rendered here.  Unlike ``json.dumps`` it does not detect a container
    that holds itself."""
    parts: list[str] = []
    _render_json(obj, "\n", parts)
    return "".join(parts)


def _render_json(value, newline: str, parts: list) -> None:
    """Append the text of one value to ``parts``; ``newline`` starts each
    of its lines after the first.  Lists and dicts have a loop each, which
    keeps a call and a generator step per item off the hot path."""
    text = _scalar_json(value)
    if text is not None:
        parts.append(text)
        return
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            # json.dumps writes a number, boolean or None key as the string
            # of its JSON text; any other key leaves None, a TypeError here.
            head = sep + _json_str(key if isinstance(key, str) else _scalar_json(key)) + ": "
            text = _scalar_json(item)
            if text is None:
                parts.append(head)
                _render_json(item, inner, parts)
            else:
                parts.append(head + text)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            text = _scalar_json(item)
            if text is None:
                parts.append(sep)
                _render_json(item, inner, parts)
            else:
                parts.append(sep + text)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _scalar_json(value) -> str | None:
    """The JSON text of a string, number, boolean or None, as ``json.dumps``
    writes it; None for anything else."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)  # NaN and the infinities as json.dumps spells them
    return None


def read_json_records(path, what: str) -> list:
    """The records of a JSON input file (``read_input``): its top-level
    array, or a top-level object as a one-item list.  Text that is not
    JSON, or whose top level is neither, is a SchemaError."""
    try:
        data = json.loads(read_input(path, what))
    except (ValueError, RecursionError) as exc:  # not JSON, past int's digit limit, too deep
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None
    return [data] if type(data) is dict else as_list(data, str(path))


def _parse_procedure_obj(obj, source: str) -> tuple[Procedure, StateGrid]:
    pid = None
    try:
        raw_id = require_key(obj, "id", "procedure")
        raw_steps = as_list(require_key(obj, "steps", "procedure"), "steps")
        raw_entities = as_list(require_key(obj, "entities", "procedure"), "entities")
        raw_grid = require_key(obj, "gold_grid", "procedure")
        # An action file holds the id as one field of one line.
        if type(raw_id) is str and ("\t" in raw_id or len(f"{raw_id}.".splitlines()) > 1):
            raise SchemaError(f"procedure id {raw_id!r} holds a tab or line break")
        pid = as_id(raw_id, "procedure id")
        return _procedure_and_grid(pid, raw_steps, raw_entities, raw_grid)
    except SchemaError as exc:
        where = source if pid is None else f"{source}: procedure {pid}"
        raise SchemaError(f"{where}: {exc}") from None


def _procedure_and_grid(
    pid: str, raw_steps: list, raw_entities: list, raw_grid
) -> tuple[Procedure, StateGrid]:
    if type(raw_grid) is not dict:
        raise SchemaError(f"gold_grid: expected an object, got {type(raw_grid).__name__}")
    if not raw_steps:
        raise SchemaError("needs at least one step")
    steps = []
    for i, s in enumerate(raw_steps, start=1):
        raw_index, text = require_key(s, "index", "step"), require_key(s, "text", "step")
        try:
            idx = as_int(raw_index, "index")
            text = as_str(text, "text")
            tokens = as_str_list(s["tokens"], "tokens") if "tokens" in s else tokenize(text)
        except SchemaError as exc:
            raise SchemaError(f"step {i}: {exc}") from None
        if idx != i:
            raise SchemaError(f"step indices must be contiguous from 1, got {idx} at position {i}")
        steps.append(Step(index=idx, text=text, tokens=tuple(tokens)))
    m = len(steps)
    entities = []
    seen_names = set()
    owners: dict[str, str] = {}  # alias -> canonical name of the entity it names
    for e in raw_entities:
        if type(e) is dict:  # {"name": ..., "aliases": [...]}, or the bare name
            raw_name, extra = require_key(e, "name", "entity"), e.get("aliases")
        else:
            raw_name, extra = e, None
        ent = make_entity(as_str(raw_name, "entity name"))
        if extra:
            aliases = tuple(normalize(a) for a in as_str_list(extra, "entity aliases"))
            if not all(aliases):
                raise SchemaError(f"entity {ent.canonical_name!r}: alias empty after normalization")
            ent = Entity(ent.canonical_name, tuple(dict.fromkeys(ent.aliases + aliases)))
        if ent.canonical_name in seen_names:
            raise SchemaError(f"duplicate entity {ent.canonical_name!r}")
        for alias in ent.aliases:
            owner = owners.setdefault(alias, ent.canonical_name)
            if owner != ent.canonical_name:
                raise SchemaError(
                    f"entities {owner!r} and {ent.canonical_name!r} share the alias {alias!r}"
                )
        seen_names.add(ent.canonical_name)
        entities.append(ent)
    rows: dict[str, list[str]] = {}
    for key, raw_name in canonical_names(raw_grid).items():
        if key not in seen_names:
            raise SchemaError(f"grid row for unknown entity {raw_name!r}")
        cells = raw_grid[raw_name]
        if len(as_str_list(cells, "gold_grid row")) != m + 1:
            raise SchemaError(f"entity {key!r}: expected {m + 1} cells, got {len(cells)}")
        row = [normalize(c) for c in cells]
        if not all(row):
            raise SchemaError(f"entity {key!r}: cell {row.index('')} empty after normalization")
        rows[key] = row
    for ent in entities:
        if ent.canonical_name not in rows:
            raise SchemaError(f"no grid row for entity {ent.canonical_name!r}")
    proc = Procedure(id=pid, steps=tuple(steps), entities=tuple(entities))
    grid = StateGrid(procedure_id=pid, rows={e.canonical_name: rows[e.canonical_name] for e in entities})
    return proc, grid


def _load_propara_tsv(path: Path) -> list[tuple[Procedure, StateGrid]]:
    """The TSV layout only: each paragraph's sentences and its grid rows go
    through ``_procedure_and_grid``, the rules of the JSON corpus."""
    para_file = path / "paragraphs.tsv"
    grid_file = path / "grids.tsv"
    sentences: dict[str, dict[int, str]] = {}
    for lineno, (pid, idx, text) in read_tsv(
        para_file, "paragraph file", ("id", "sentence index", "sentence")
    ):
        t = as_int(idx, para_file, lineno)
        sent_map = sentences.setdefault(pid, {})
        if t in sent_map:
            raise SchemaError(f"{para_file}:{lineno}: duplicate sentence {t} of paragraph {pid}")
        sent_map[t] = text
    for pid, sent_map in sentences.items():
        if sorted(sent_map) != list(range(1, len(sent_map) + 1)):
            raise SchemaError(f"{para_file}: paragraph {pid}: sentence indices not contiguous")

    grids = grids_from_action_tsv(grid_file)
    out = []
    for pid, sent_map in sentences.items():
        if pid not in grids:
            raise SchemaError(f"{grid_file}: no grid rows for paragraph {pid}")
        steps = [{"index": t, "text": text} for t, text in sorted(sent_map.items())]
        rows = grids[pid].rows
        try:
            out.append(_procedure_and_grid(pid, steps, list(rows), rows))
        except SchemaError as exc:
            raise SchemaError(f"{grid_file}: paragraph {pid}: {exc}") from None
    extra = set(grids) - set(sentences)
    if extra:
        raise SchemaError(f"{grid_file}: grid rows for unknown paragraph(s) {sorted(extra)}")
    return out


def load_coref(path, procedures: list[Procedure]) -> list[Procedure]:
    """Attach sidecar coreference mentions to the matching procedures.  A
    mention's ``entity`` must name an alias of an entity of its procedure,
    its step a step of it, and its span pass that step's ``check_span``;
    every error names the file and, once its id is read, the procedure."""
    source = str(path)
    by_id = {p.id: p for p in procedures}
    mentions: dict[str, dict[str, list]] = {}
    for obj in read_json_records(path, "coref sidecar"):
        pid = None
        try:
            raw_id = as_id(require_key(obj, "procedure_id", "coref record"), "procedure_id")
            if raw_id not in by_id:
                raise SchemaError(f"coref for unknown procedure {raw_id!r}")
            pid, proc = raw_id, by_id[raw_id]
            aliases = {alias for ent in proc.entities for alias in ent.aliases}
            for men in as_list(obj.get("mentions", []), "mentions"):
                raw_name = as_str(require_key(men, "entity", "mention"), "mention entity")
                ent_name = normalize(raw_name)
                if ent_name not in aliases:
                    raise SchemaError(f"mention of unknown entity {raw_name!r}")
                step = as_int(require_key(men, "step", "mention"), "mention step")
                span = as_span(require_key(men, "span", "mention"), "mention span")
                if not 1 <= step <= proc.num_steps:
                    raise SchemaError(f"coref step {step} out of range")
                proc.step(step).check_span(span, "coref mention", repr(ent_name))
                mentions.setdefault(pid, {}).setdefault(ent_name, []).append((step, span))
        except SchemaError as exc:
            where = source if pid is None else f"{source}: procedure {pid}"
            raise SchemaError(f"{where}: {exc}") from None
    out = []
    for proc in procedures:
        per_entity = mentions.get(proc.id, {})
        if not per_entity:
            out.append(proc)
            continue
        new_entities = []
        for ent in proc.entities:
            extra = [m for alias in ent.aliases for m in per_entity.get(alias, [])]
            new_entities.append(ent.with_coref(sorted(set(list(ent.coref_mentions) + extra))))
        out.append(Procedure(proc.id, proc.steps, tuple(new_entities)))
    return out


# ---------------------------------------------------------------------------
# Action-file interchange (the six-column TSV shared by prediction and
# evaluation: id, step, entity, action, before location, after location)

def grids_from_action_tsv(path) -> dict[str, StateGrid]:
    """Read an action TSV into one StateGrid per procedure.  This is the one
    place where action rows become a grid row: each (procedure, entity)
    has steps 1..m once each, and every before-location equals the prior
    after-location.  Locations are normalized, and none may be empty after
    that; each row's action must be the ``transition`` of its two
    locations.  Entity names are kept as written."""
    per_entity: dict[str, dict[str, dict[int, tuple[str, str]]]] = {}
    for lineno, (pid, step, entity, action, before, after) in read_tsv(
        path, "action file", ("id", "step", "entity", "action", "before", "after")
    ):
        if action not in _ACTION_NAMES:
            raise SchemaError(f"{path}:{lineno}: unknown action {action!r}")
        t = as_int(step, path, lineno)
        per_step = per_entity.setdefault(pid, {}).setdefault(entity, {})
        if t in per_step:
            raise SchemaError(f"{path}:{lineno}: duplicate row for ({pid}, {entity}, step {t})")
        before, after = normalize(before), normalize(after)
        if not (before and after):
            raise SchemaError(f"{path}:{lineno}: location empty after normalization")
        # Most rows are NONE between equal locations, which need no transition.
        if (action != "NONE" or before != after) and transition(before, after) != action:
            raise SchemaError(f"{path}:{lineno}: action {action}, but {before!r} to {after!r}"
                              f" is {transition(before, after).value}")
        per_step[t] = (before, after)
    grids = {}
    for pid, entities in per_entity.items():
        rows = {}
        for name, per_step in entities.items():
            where, m = f"{path}: {pid}/{name}", max(per_step)
            if len(per_step) != m or min(per_step) != 1:  # distinct steps, so 1..m
                raise SchemaError(f"{where}: expected {m + 1} cells, steps 1..{m} present,"
                                  f" got {sorted(per_step)}")
            row = [per_step[1][0]]
            for t in range(1, m + 1):
                before, after = per_step[t]
                if before != row[-1]:
                    raise SchemaError(f"{where}: step {t} before-location {before!r}"
                                      f" != prior after-location {row[-1]!r}")
                row.append(after)
            rows[name] = row
        grids[pid] = StateGrid(procedure_id=pid, rows=rows)
    return grids


def write_action_tsv(path, rows: list[tuple[str, int, str, str, str, str]]) -> None:
    """One line per row; no rows give an empty file."""
    write_output(path, ["".join(f"{r[0]}\t{r[1]}\t{r[2]}\t{r[3]}\t{r[4]}\t{r[5]}\n" for r in rows)])
