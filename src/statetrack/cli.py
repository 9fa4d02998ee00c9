"""Batch command-line entry points.

Subcommands: predict (write the action TSV for a corpus), abstract (dump
event frames), build-graph (export semantic graphs, optionally extended
with question nodes), evaluate (run the scoring tiers), and gat-check
(run the attention-layer invariant suite).

Exit codes: 0 success, 1 a failed gat-check invariant, 2 usage or
configuration error (a command line that argparse rejects too), 3 missing
or unreadable input file, or an output that cannot be written, 4 schema or
validation error.  ``main`` returns each, and a failure writes the one
stderr line ``error: <message>``.  Only this module writes to stdout or
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Only the readers every command shares are imported here; each command
# imports the modules that it alone uses, so it loads no other command's.
from . import corpus as corpus_mod
from .errors import ConfigError, InputFileError, SchemaError, StateTrackError
from .parses import (
    default_class_map, default_ontology, default_role_synonyms, load_srl, load_trips,
    parses_by_step,
)

EXIT_OK = 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except StateTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # add_subparsers gives every subcommand this class
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="statetrack",
        description="Track entity locations through procedural text from semantic parses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser("predict", help="run the pipeline and write an action TSV")
    _add_corpus_args(predict)
    _add_parse_args(predict)
    predict.add_argument("--output", required=True)
    predict.add_argument("--format", choices=["tsv", "json"], default="tsv")
    predict.add_argument("--strict-destroy", action="store_true",
                         help="drop (instead of rewriting to MOVE) a repeated destroy at a new location")
    predict.add_argument("--rules-off", default=None,
                         help="file listing local rule names to disable, one per line")
    predict.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes (at least 1)")
    predict.set_defaults(func=cmd_predict)

    abstract = sub.add_parser("abstract", help="dump abstracted event frames as JSON")
    _add_corpus_args(abstract)
    _add_parse_args(abstract)
    abstract.add_argument("--output", required=True)
    abstract.set_defaults(func=cmd_abstract)

    graph = sub.add_parser("build-graph", help="export semantic graphs as JSON")
    _add_corpus_args(graph)
    graph.add_argument("--parses", required=True, help="directory of per-procedure parse files")
    graph.add_argument("--parser", choices=["trips", "srl"], default="trips")
    graph.add_argument("--output", required=True)
    graph.add_argument("--qa-entity", action="append", default=[],
                       help="extend with a question node for this entity (repeatable)")
    graph.set_defaults(func=cmd_build_graph)

    ev = sub.add_parser("evaluate", help="score a prediction TSV against gold grids")
    ev.add_argument("--pred", required=True, help="prediction action TSV")
    _add_corpus_args(ev)
    ev.add_argument("--tier", choices=["sentence", "document", "decision", "all"], default="all")
    ev.add_argument("--parses", default=None, help="parse dir (needed for the decision tier)")
    ev.add_argument("--ontology", default=None)
    ev.add_argument("--classes", default=None)
    ev.add_argument("--output", default=None, help="write the report here instead of stdout")
    ev.add_argument("--format", choices=["json", "table"], default="json")
    ev.set_defaults(func=cmd_evaluate)

    check = sub.add_parser("gat-check", help="run the attention-layer invariant suite")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--rounds", type=_positive_int, default=100)
    check.add_argument("--format", choices=["text", "json"], default="text")
    check.set_defaults(func=cmd_gat_check)
    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_corpus_args(cmd) -> None:
    cmd.add_argument("--corpus", required=True)
    cmd.add_argument("--corpus-format", choices=["json", "propara-tsv"], default="json")
    cmd.add_argument("--coref", default=None, help="coreference sidecar JSON")


def _add_parse_args(cmd) -> None:
    cmd.add_argument("--parses", required=True, help="directory of per-procedure parse files")
    cmd.add_argument("--ontology", default=None)
    cmd.add_argument("--classes", default=None)
    cmd.add_argument("--roles", default=None)


def _load_corpus(args):
    pairs = corpus_mod.load_procedures(args.corpus, args.corpus_format)
    procedures = [p for p, _ in pairs]
    if args.coref:
        procedures = corpus_mod.load_coref(args.coref, procedures)
    grids = {g.procedure_id: g for _, g in pairs}
    return procedures, grids


def _parse_file(parse_dir: str, procedure_id: str, kind: str) -> Path:
    return Path(parse_dir) / f"{procedure_id}.{kind}.json"


def _load_configs(args):
    return (default_ontology(args.ontology), default_class_map(args.classes),
            default_role_synonyms(args.roles))


def cmd_predict(args) -> int:
    from . import reasoning
    from .rules import RULE_NAMES

    procedures, _ = _load_corpus(args)
    ontology, class_map, synonyms = _load_configs(args)
    disabled = frozenset()
    if args.rules_off:
        text = corpus_mod.read_input(args.rules_off, "rule override file")
        disabled = frozenset(line.strip() for line in text.splitlines() if line.strip())
        unknown = sorted(disabled.difference(RULE_NAMES))
        if unknown:
            raise ConfigError(f"{args.rules_off}: unknown rule(s) {', '.join(map(repr, unknown))};"
                              f" known rules: {', '.join(RULE_NAMES)}")

    def rows_of(part):
        out = []
        for procedure in part:
            grid = reasoning.predict(
                procedure, load_trips(_parse_file(args.parses, procedure.id, "trips")),
                ontology, class_map, synonyms, disabled_rules=disabled,
                strict_destroy=args.strict_destroy,
            )
            out += reasoning.grid_to_action_rows(grid)
        return out

    # At most one slice per procedure; without os.fork (Windows) all run in process.
    jobs = max(1, min(args.jobs, len(procedures))) if hasattr(os, "fork") else 1
    rows = _rows_in_slices(rows_of, procedures, jobs)
    if args.format == "tsv":
        corpus_mod.write_action_tsv(args.output, rows)
    else:
        records = [
            {"procedure": r[0], "step": r[1], "entity": r[2],
             "action": r[3], "before": r[4], "after": r[5]}
            for r in rows
        ]
        _write_json(args.output, records)
    return EXIT_OK


def _rows_in_slices(rows_of, procedures, jobs):
    """``rows_of`` applied to ``procedures`` in slices, joined in input order.

    The procedures are cut into ``jobs`` contiguous slices of near-equal
    size, and ``rows_of(slice)`` gives the list of rows of one slice.  The
    parent computes the first slice; a forked child computes each other
    slice, with the closure and everything it holds inherited through the
    fork, and sends its rows, pickled, through a pipe of its own.  A
    child that fails sends nothing and exits non-zero, and the parent runs
    its slice again in process, so an error is the one ``jobs=1`` gives: that
    of the first failing procedure in input order.  Whatever the parent
    raises, it first kills and reaps every child it has not yet read.
    Forking is safe because no command starts a thread.
    """
    bounds = [len(procedures) * k // jobs for k in range(jobs + 1)]
    slices = [procedures[a:b] for a, b in zip(bounds, bounds[1:])]

    rows = []
    children = []  # (pid, read end of its pipe) of each child not yet reaped, in slice order
    try:
        if jobs > 1:
            import pickle
            import signal

            sys.stdout.flush()  # a child must not write the parent's buffered output again
            sys.stderr.flush()
            for part in slices[1:]:
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:  # the child never returns from here
                    try:
                        os.close(read)
                        data = memoryview(pickle.dumps(rows_of(part), pickle.HIGHEST_PROTOCOL))
                        while data:
                            data = data[os.write(write, data):]
                    except BaseException:
                        os._exit(1)
                    os._exit(0)
                os.close(write)
                children.append((pid, read))
        rows += rows_of(slices[0])
        for part in slices[1:]:
            pid, read = children[0]
            data = b"".join(iter(lambda: os.read(read, 1 << 20), b""))
            os.close(read)
            status = os.waitpid(pid, 0)[1]
            del children[0]
            rows += pickle.loads(data) if status == 0 else rows_of(part)
    finally:
        for pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows


def cmd_abstract(args) -> int:
    from .abstraction import abstract_events

    procedures, _ = _load_corpus(args)
    ontology, class_map, synonyms = _load_configs(args)
    out = []
    for proc in procedures:
        by_index = parses_by_step(proc, load_trips(_parse_file(args.parses, proc.id, "trips")))
        for step in proc.steps:
            frames, facts = abstract_events(by_index[step.index], ontology, class_map, synonyms)
            out.append(
                {
                    "procedure": proc.id,
                    "step": step.index,
                    "frames": [f.to_dict() for f in frames],
                    "passive": [f.to_dict() for f in facts],
                }
            )
    _write_json(args.output, out)
    return EXIT_OK


def cmd_build_graph(args) -> int:
    from . import semgraph

    procedures, _ = _load_corpus(args)
    known = {alias for proc in procedures for e in proc.entities for alias in e.aliases}
    unknown = [name for name in args.qa_entity if corpus_mod.normalize(name) not in known]
    if unknown:
        raise ConfigError(
            f"--qa-entity names no entity of any procedure: {', '.join(map(repr, unknown))}"
        )
    records = []  # rendered as soon as each graph is built; written once at the end
    for proc in procedures:
        if args.parser == "trips":
            graphs = load_trips(_parse_file(args.parses, proc.id, "trips"))
            graph = semgraph.build_trips_graph(proc, graphs)
        else:
            docs = load_srl(_parse_file(args.parses, proc.id, "srl"))
            graph = semgraph.build_srl_graph(proc, docs)
        if args.qa_entity:
            for name in args.qa_entity:
                key = corpus_mod.normalize(name)
                entity = next((e for e in proc.entities if key in e.aliases), None)
                if entity is None:
                    continue
                extended = semgraph.extend_qa_graph(graph, entity, proc)
                if not any(e.type_label == semgraph.QUESTION_EDGE for e in extended.edges):
                    print(f"entity {entity.canonical_name!r} has no node in the graph; "
                          "question node left unconnected", file=sys.stderr)
                records.append(
                    semgraph.render_graph_record(proc.id, entity.canonical_name, extended)
                )
        else:
            records.append(semgraph.render_graph_record(proc.id, None, graph))
    semgraph.write_graph_records(args.output, records)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.tier in ("decision", "all") and not args.parses:
        raise ConfigError("the decision tier needs --parses for mention and ambiguity checks")
    from . import metrics

    procedures, gold = _load_corpus(args)
    pred = corpus_mod.grids_from_action_tsv(args.pred)
    for pid, grid in pred.items():  # keyed as the gold rows are, so any spelling scores alike
        try:
            names = corpus_mod.canonical_names(grid.rows)
        except SchemaError as exc:
            raise SchemaError(f"{args.pred}: procedure {pid}: {exc}") from None
        pred[pid] = grid._replace(rows={key: grid.rows[name] for key, name in names.items()})
    report = metrics.MetricReport()
    if args.tier in ("sentence", "all"):
        report.sentence = metrics.eval_sentence_level(pred, gold)
    if args.tier in ("document", "all"):
        report.document = metrics.eval_document_level(pred, gold)
    if args.tier in ("decision", "all"):
        ontology = default_ontology(args.ontology)
        class_map = default_class_map(args.classes)
        # One procedure's parses at a time, in corpus order: memory holds one
        # procedure's parses, and the first failing procedure gives the error.
        categories = {}
        for proc in procedures:
            parses = {proc.id: load_trips(_parse_file(args.parses, proc.id, "trips"))}
            categories.update(metrics.categorize_decisions(
                {proc.id: gold[proc.id]}, [proc], parses, ontology, class_map
            ))
        report.decision = metrics.eval_decision_level(pred, gold, categories)
    if args.format == "json":
        rendered = corpus_mod.render_json(report.to_dict()) + "\n"
    else:
        rendered = report.render_table()
    if args.output:
        corpus_mod.write_output(args.output, [rendered])
    else:
        _write_stdout(rendered)
    return EXIT_OK


def cmd_gat_check(args) -> int:
    from . import gat  # numpy is needed by this command only

    failures = gat.check_invariants(seed=args.seed, rounds=args.rounds)
    if args.format == "json":
        lines = [json.dumps({"seed": args.seed, "rounds": args.rounds, "failures": failures})]
    else:
        status = "ok" if not failures else f"{len(failures)} failure(s)"
        lines = [*(f"FAIL {failure}" for failure in failures),
                 f"gat-check seed={args.seed} rounds={args.rounds}: {status}"]
    _write_stdout("".join(f"{line}\n" for line in lines))
    return EXIT_OK if not failures else 1


def _write_json(path, obj) -> None:
    corpus_mod.write_output(path, [corpus_mod.render_json(obj), "\n"])


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it.  A stdout that cannot take it
    (a pipe whose reader has gone) is an InputFileError, as an output file
    that cannot be written is; stdout's descriptor then points at
    os.devnull, so the flush at interpreter exit has nothing to fail on."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        try:
            fd = sys.stdout.fileno()
        except OSError:  # an in-process stream with no descriptor
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise InputFileError(f"cannot write stdout: {exc.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())
