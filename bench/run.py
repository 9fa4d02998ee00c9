"""statetrack benchmark: end-to-end CLI timings, or a traced per-layer run.

    python3 bench/run.py --workload propara_scale --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

Run it from the repository root; the package is imported from ``src/``.
The workload's corpus is generated from the seed under ``.bench_work/``.

``--trace 0`` repeats rounds until ``--seconds`` are used up.  A round runs
the set-up probe (twice) and each CLI command (once), every one in a fresh
interpreter, and records its wall time and the child's peak RSS; the last
round stops at the first step that would overrun.  Metrics are medians over
all samples.

``--trace 1`` reports per-layer metrics instead: the interpreter and import
floors, the pickled ``--jobs`` payload size, and the library calls of every
command timed span by span in-process (see ``layers.py``), alternating with
untraced passes to measure the tracing overhead.

Every output is checked: exit code 0, no traceback, a well-formed output
(``check.validate``), the same bytes on every repetition and under
``--jobs 2``, and the recorded digest when the seed has one.  The last line
of stdout is a JSON object {correct, attempted, failed, metrics}; the exit
code is 1 when any check failed and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
from gen import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 3
FLOOR_SAMPLES = 9          # interleaved interpreter / numpy / import probes
CHILD_TIMEOUT_S = 60.0
SETUP_CODE = (
    "import statetrack.cli\n"
    "from statetrack.abstraction import default_role_synonyms\n"
    "from statetrack.parses import default_class_map, default_ontology\n"
    "default_ontology(); default_class_map(); default_role_synonyms()\n"
)
END_TO_END = {
    "setup_s": "s", "predict_s": "s", "predict_jobs2_s": "s", "abstract_s": "s",
    "evaluate_s": "s", "build_graph_s": "s", "build_graph_srl_s": "s",
    "build_graph_qa_s": "s", "pipeline_rss_mb": "MB", "graph_rss_mb": "MB",
}
PIPELINE = ("predict", "predict_jobs2", "abstract", "evaluate")
# One round: every command once, so every median draws on as many samples;
# the set-up probe, which is short, twice.
ROUND = (
    "setup", *PIPELINE, "build_graph", "setup", "build_graph_srl", "build_graph_qa",
)


class Child:
    """One finished child process: wall time, peak RSS, exit code, stderr."""

    def __init__(self, argv: list[str], cwd: Path, err_path: Path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = err_path.read_text(errors="replace")

    def problem(self) -> str | None:
        if self.returncode != 0:
            return f"exit code {self.returncode}: {self.stderr.strip()[-300:]}"
        if "Traceback" in self.stderr:
            return f"traceback on stderr: {self.stderr.strip()[-300:]}"
        return None


class Checker:
    """Counts attempted and failed invocations and compares output digests.

    The outputs' structure is validated once, at the end of the run, so the
    benchmark process stays small while it times children: a child's peak
    RSS includes the size of the process it was spawned from.
    """

    def __init__(self, gen, workload: str, seed: int):
        self.gen = gen
        self.expected = dict(check.recorded(workload, seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def outcome(self, command: str, problem: str | None, digest: str | None = None) -> None:
        """Record one invocation, with the digest of its output if it has one."""
        self.attempted += 1
        if problem is None and digest is not None:
            # --jobs 2 must reproduce the single-process output byte for byte.
            key = "predict" if command == "predict_jobs2" else command
            want = self.expected.setdefault(key, digest)
            if digest != want:
                problem = f"output digest {digest[:12]} differs from expected {want[:12]}"
        self._fail(command, problem)

    def validate(self, work: Path) -> None:
        """Check the structure of the last output of every command."""
        corpus = json.loads(self.gen.corpus.read_text())
        for command, name in check.OUTPUTS.items():
            path = work / name
            if path.exists():
                found = check.validate(command, path.read_bytes(), corpus,
                                            self.gen.qa_entities)
                self._fail(command, "; ".join(found) if found else None)

    def _fail(self, command: str, problem: str | None) -> None:
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{command}: {problem}")

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def commands(gen) -> dict[str, list[str]]:
    """CLI arguments per command, relative to the work directory."""
    common = ["--corpus", "corpus.json", "--parses", "parses"]
    if gen.coref is not None:
        common += ["--coref", "coref.json"]
    qa = [arg for name in gen.qa_entities for arg in ("--qa-entity", name)]
    return {
        "predict": ["predict", *common, "--output", "predict.tsv"],
        "predict_jobs2": ["predict", *common, "--jobs", "2", "--output", "predict_jobs2.tsv"],
        "abstract": ["abstract", *common, "--output", "abstract.json"],
        "evaluate": ["evaluate", *common, "--pred", "predict.tsv", "--tier", "all",
                     "--output", "evaluate.json"],
        "build_graph": ["build-graph", *common, "--parser", "trips", "--output", "graphs.json"],
        "build_graph_srl": ["build-graph", *common, "--parser", "srl",
                            "--output", "graphs_srl.json"],
        "build_graph_qa": ["build-graph", *common, "--parser", "trips", *qa,
                           "--output", "graphs_qa.json"],
    }


def run_cli(work: Path, checker: Checker, command: str, argv: list[str]) -> Child:
    out = work / check.OUTPUTS[command]
    out.unlink(missing_ok=True)
    child = Child([sys.executable, "-m", "statetrack.cli", *argv], work, work / "stderr.txt")
    problem = child.problem()
    digest = None
    if problem is None and not out.exists():
        problem = "no output written"
    elif problem is None:
        with open(out, "rb") as f:
            digest = hashlib.file_digest(f, "sha256").hexdigest()
    checker.outcome(command, problem, digest)
    return child


def python_floor(work: Path, code: str, checker: Checker, name: str) -> float:
    child = Child([sys.executable, "-c", code], work, work / "stderr.txt")
    checker.outcome(name, child.problem(), None)
    return child.wall_s


def timed_run(gen, work: Path, seconds: float, checker: Checker) -> dict:
    start = time.perf_counter()
    cmds = commands(gen)
    python_floor(work, SETUP_CODE, checker, "warm-up")  # compile the .pyc files once
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    longest: dict[str, float] = {}   # the longest time each step has taken
    rounds = 0
    full = True
    while full:
        rss: dict[str, list[float]] = {"pipeline_rss_mb": [], "graph_rss_mb": []}
        for step in ROUND:
            # After MIN_ROUNDS whole rounds, run a step only if it still ends
            # in time, so the last round may stop part-way.
            if (rounds >= MIN_ROUNDS
                    and time.perf_counter() + longest.get(step, 0.0) - start > seconds):
                full = False
                break
            step_start = time.perf_counter()
            if step == "setup":
                samples["setup_s"].append(python_floor(work, SETUP_CODE, checker, "setup"))
            else:
                child = run_cli(work, checker, step, cmds[step])
                samples[f"{step}_s"].append(child.wall_s)
                rss["pipeline_rss_mb" if step in PIPELINE else "graph_rss_mb"].append(
                    child.rss_mb)
            longest[step] = max(longest.get(step, 0.0), time.perf_counter() - step_start)
        if full:
            for name, values in rss.items():
                samples[name].append(max(values))
            rounds += 1
    checker.validate(work)
    print(f"{rounds} rounds in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for name, values in samples.items():
        shown = " ".join(f"{v:.3f}" for v in values)
        print(f"  {name:18s} {shown}", file=sys.stderr)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return checker.result(metrics, END_TO_END)


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric with its unit, as BENCHMARK.json lists them."""
    from layers import COUNTS, TIMED_SPANS

    names = {"cli.interpreter_s": "s", "cli.import_s": "s", "cli.numpy_import_s": "s",
             "cli.jobs_payload_bytes": "bytes"}
    for span in TIMED_SPANS:
        names[f"{span}_s"] = "s"
        if span == "reasoning.predict":
            names["reasoning.other_s"] = "s"
    for count in COUNTS:
        names[count] = "bytes" if count.endswith("_bytes") else "count"
    names["trace.overhead_frac"] = "ratio"
    return names


def traced_run(gen, work: Path, seconds: float, checker: Checker, spans_path: Path) -> dict:
    from layers import TIMED_SPANS, NullTracer, Tracer, run_pass

    start = time.perf_counter()
    # The CLI's warnings go to its own stderr; in-process they would flood ours.
    logging.getLogger("statetrack").addHandler(logging.NullHandler())
    metrics: dict[str, float] = {}
    python_floor(work, SETUP_CODE, checker, "warm-up")
    floors = {"cli.interpreter_s": "pass", "cli.numpy_import_s": "import numpy",
              "cli.import_s": "import statetrack.cli"}
    samples: dict[str, list[float]] = {name: [] for name in floors}
    for _ in range(FLOOR_SAMPLES):
        for name, code in floors.items():
            samples[name].append(python_floor(work, code, checker, name))
    metrics.update((name, statistics.median(values)) for name, values in samples.items())
    metrics["cli.jobs_payload_bytes"] = jobs_payload_bytes(gen)
    for command, argv in commands(gen).items():
        run_cli(work, checker, command, argv)
    checker.validate(work)

    traced: list[dict[str, float]] = []
    plain: list[float] = []
    longest = 0.0
    while True:
        pair_start = time.perf_counter()
        # Alternate which pass of a pair goes first, so order does not bias
        # the overhead.
        for on in (False, True) if len(plain) % 2 == 0 else (True, False):
            tracer = Tracer() if on else NullTracer()
            begin = time.perf_counter()
            outputs, counts = run_pass(gen, tracer, work)
            elapsed = time.perf_counter() - begin
            for command in check.OUTPUTS:
                checker.outcome(command, None, check.sha256(outputs[command]))
            if on:
                totals = tracer.totals()
                totals["pass"] = elapsed
                traced.append(totals)
                last_traced = tracer
            else:
                plain.append(elapsed)
        now = time.perf_counter()
        longest = max(longest, now - pair_start)
        if now + longest - start > seconds:
            break
    last_traced.write(spans_path)
    print(f"{len(traced)} traced passes; spans in {spans_path}", file=sys.stderr)
    for span in TIMED_SPANS:
        metrics[f"{span}_s"] = statistics.median(t.get(span, 0.0) for t in traced)
    metrics["reasoning.other_s"] = statistics.median(
        t.get("reasoning.predict#self", 0.0) for t in traced)
    metrics.update(counts)
    metrics["trace.overhead_frac"] = (
        statistics.median(t["pass"] for t in traced) / statistics.median(plain) - 1.0)
    for problem in self_check(counts):
        checker.outcome("self-check", problem, None)
    return checker.result(metrics, per_layer_names())


def jobs_payload_bytes(gen) -> int:
    """Pickled size of the per-procedure payloads ``predict --jobs N`` sends."""
    from statetrack import corpus
    from statetrack.abstraction import default_role_synonyms
    from statetrack.parses import default_class_map, default_ontology

    pairs = corpus.load_procedures(gen.corpus)
    procedures = [p for p, _ in pairs]
    if gen.coref is not None:
        procedures = corpus.load_coref(gen.coref, procedures)
    ontology, class_map, synonyms = default_ontology(), default_class_map(), default_role_synonyms()
    return sum(
        len(pickle.dumps((proc, Path("parses") / f"{proc.id}.trips.json", ontology, class_map,
                          synonyms, frozenset(), False)))
        for proc in procedures
    )


def self_check(counts: dict) -> list[str]:
    """The generator's promises: every rule fires, passive facts and
    conflicting decisions occur, and predictions differ from the gold."""
    from statetrack.rules import RULE_NAMES

    problems = [f"rule {r} never fired" for r in RULE_NAMES if not counts[f"rules.fired.{r}"]]
    for key in ("abstraction.passive_facts", "reasoning.conflict_slots",
                "metrics.disagreeing_cells"):
        if not counts[key]:
            problems.append(f"{key} is 0")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        gen = generate(WORKLOADS[workload], seed, work, workload)
        print(f"{workload} seed {seed}: generated in {time.perf_counter() - t0:.2f} s",
              file=sys.stderr)
        checker = Checker(gen, workload, seed)
        if trace:
            spans = WORK / "trace" / f"{workload}-s{seed}.json"
            result = traced_run(gen, work, seconds, checker, spans)
        else:
            result = timed_run(gen, work, seconds, checker)
        for problem in checker.problems:
            print(f"FAIL {problem}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "statetrack" / "cli.py").is_file():
        print(f"error: no statetrack package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            for metric, m in res["metrics"].items():
                print(f"{name:14s} {metric:36s} {m['value']:14.6g} {m['unit']}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
