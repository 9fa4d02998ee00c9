"""Output checks for the benchmark: structural validation of every CLI
output against the generated corpus, and the table of recorded digests.

Validation reads the generated files with ``json`` only, never through
statetrack, so a defect in the program's loaders cannot hide itself.

Recorded digests live in ``digests.json`` as {workload: {seed: {command:
sha256}}}.  A run whose (workload, seed) is in the table must reproduce those
bytes exactly; for other seeds the run checks that every repetition of a
command gives the same bytes.  Re-record after a change to the generator or
a deliberate change of the program's output:

    python3 bench/check.py --record 0 1 2 ...
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# CLI command -> output file name, in the order a round runs them.
OUTPUTS = {
    "predict": "predict.tsv",
    "predict_jobs2": "predict_jobs2.tsv",
    "abstract": "abstract.json",
    "evaluate": "evaluate.json",
    "build_graph": "graphs.json",
    "build_graph_srl": "graphs_srl.json",
    "build_graph_qa": "graphs_qa.json",
}
ACTIONS = ("NONE", "CREATE", "DESTROY", "MOVE")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recorded(workload: str, seed: int) -> dict[str, str]:
    """Recorded digests for (workload, seed), or {} when none were recorded."""
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed), {})


def validate(command: str, data: bytes, corpus: list, qa_entities) -> list[str]:
    """Problems found in one command's output; empty when it is well formed."""
    try:
        text = data.decode("utf-8")
        if command.startswith("predict"):
            return _check_actions(text, corpus)
        obj = json.loads(text)
        if command == "abstract":
            return _check_abstract(obj, corpus)
        if command == "evaluate":
            return _check_report(obj)
        return _check_graphs(obj, corpus, qa_entities if command == "build_graph_qa" else ())
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command}: unreadable output: {exc!r}"]


def _names(entity: dict) -> list[str]:
    return [part.strip() for part in entity["name"].split(";") if part.strip()]


def _check_actions(text: str, corpus: list) -> list[str]:
    # One row per (procedure, entity, step), in corpus order, whose action is
    # the one its before/after cells imply.
    expected = [
        (proc["id"], str(t), _names(ent)[0])
        for proc in corpus
        for ent in proc["entities"]
        for t in range(1, len(proc["steps"]) + 1)
    ]
    lines = text.split("\n")
    if lines[-1] != "":
        return ["predict: output does not end with a newline"]
    rows = [line.split("\t") for line in lines[:-1]]
    if len(rows) != len(expected):
        return [f"predict: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    prev_after = None
    for row, key in zip(rows, expected):
        if len(row) != 6 or tuple(row[:3]) != key or row[3] not in ACTIONS:
            problems.append(f"predict: bad row {row!r}, expected key {key}")
        else:
            before, after = row[4], row[5]
            if key[1] != "1" and before != prev_after:
                problems.append(f"predict: row {row!r} does not continue the previous cell")
            if _implied(before, after) != row[3]:
                problems.append(f"predict: row {row!r} action disagrees with its cells")
            prev_after = after
        if len(problems) >= 5:
            break
    return problems


def _implied(before: str, after: str) -> str:
    if before == "-" and after != "-":
        return "CREATE"
    if before != "-" and after == "-":
        return "DESTROY"
    if before != after:
        return "MOVE"
    return "NONE"


def _check_abstract(obj, corpus: list) -> list[str]:
    keys = [(p["id"], s["index"]) for p in corpus for s in p["steps"]]
    got = [(entry["procedure"], entry["step"]) for entry in obj]
    if got != keys:
        return [f"abstract: {len(got)} entries, expected one per step ({len(keys)})"]
    if not any(entry["frames"] for entry in obj):
        return ["abstract: no frames at all"]
    return []


def _check_report(obj) -> list[str]:
    problems = []
    for tier in ("sentence", "document", "decision"):
        if not isinstance(obj.get(tier), dict):
            problems.append(f"evaluate: tier {tier} missing")
    if problems:
        return problems
    scores = [obj["sentence"][k] for k in ("cat1", "cat2", "cat3", "macro_avg", "micro_avg")]
    scores += [c["f1"] for c in obj["document"]["criteria"].values()]
    for cat in obj["decision"]["categories"].values():
        scores += [cat["action_acc"], cat["location_acc"], cat["both_acc"]]
    for value in scores:
        if value is not None and not 0.0 <= value <= 100.0:
            problems.append(f"evaluate: score {value} outside [0, 100]")
    return problems


def _check_graphs(obj, corpus: list, qa_entities) -> list[str]:
    expected = []
    for proc in corpus:
        names = [_names(e) for e in proc["entities"]]
        if not qa_entities:
            expected.append((proc["id"], None, len(proc["steps"])))
            continue
        for qa in qa_entities:
            match = [n for n in names if qa in n]
            if match:
                expected.append((proc["id"], match[0][0], len(proc["steps"])))
    got = [(entry["procedure"], entry["entity"]) for entry in obj]
    if got != [e[:2] for e in expected]:
        return [f"graphs: entries {got[:3]}..., expected {[e[:2] for e in expected][:3]}..."]
    for entry, (_, entity, steps) in zip(obj, expected):
        nodes = entry["graph"]["nodes"]
        ids = {n["id"] for n in nodes}
        if len(ids) != len(nodes):
            return [f"graphs: {entry['procedure']}: duplicate node ids"]
        if any(e["src"] not in ids or e["dst"] not in ids for e in entry["graph"]["edges"]):
            return [f"graphs: {entry['procedure']}: edge to an unknown node"]
        if entity is not None:
            kinds = [n["kind"] for n in nodes]
            if kinds.count("question") != 1 or kinds.count("step") != steps:
                return [f"graphs: {entry['procedure']}: question graph lacks its extra nodes"]
    return []


def record(seeds: list[int]) -> None:
    """Run the in-process pass for each (workload, seed) and store its digests."""
    from gen import WORKLOADS, generate
    from layers import NullTracer, run_pass

    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    work = DIGESTS.parent.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=work) as tmp:
                gen = generate(WORKLOADS[name], seed, tmp, name)
                outputs, _ = run_pass(gen, NullTracer(), Path(tmp))
            digests = {cmd: sha256(outputs[cmd]) for cmd in OUTPUTS}
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="record output digests for the benchmark")
    parser.add_argument("--record", type=int, nargs="+", required=True, metavar="SEED")
    args = parser.parse_args()
    sys.path.insert(0, str(DIGESTS.parent.parent / "src"))
    record(args.record)
