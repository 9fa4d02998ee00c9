"""Complexity sweep: how build_trips_graph, predict and the evaluation
tiers grow with procedure length, entity count and sentence width.

    python3 bench/sweep.py

Each axis varies one size over four values with the others fixed, times the
three stages in-process and fits the growth exponent k of time ~ size^k by
least squares on the log-log points.  A stage's time is the median of three
batches, each repeating the stage until the batch lasts 0.1 s.  This
is a report, not a gated workload; it takes under a minute.  The last line
of stdout is the table as JSON.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from gen import Shape, generate  # noqa: E402

BASE = Shape(procedures=1, steps=(16, 16), entities=(8, 8), events=(2, 3), width=None,
             locations=12)
AXES = {
    "steps": [replace(BASE, steps=(m, m)) for m in (10, 20, 40, 80)],
    "entities": [replace(BASE, entities=(e, e)) for e in (5, 10, 20, 40)],
    "nodes_per_sentence": [replace(BASE, steps=(6, 6), width=(w, w)) for w in (8, 16, 24, 32)],
}
BATCH_S = 0.1


def size_of(axis: str, shape: Shape) -> int:
    if axis == "steps":
        return shape.steps[0]
    if axis == "entities":
        return shape.entities[0]
    return shape.width[0]


def measure(shape: Shape, work: Path) -> dict[str, float]:
    from statetrack import corpus, metrics, reasoning, semgraph
    from statetrack.abstraction import default_role_synonyms
    from statetrack.parses import default_class_map, default_ontology, load_trips

    gen = generate(shape, 0, work, "sweep")
    pairs = corpus.load_procedures(gen.corpus)
    procedures = [p for p, _ in pairs]
    gold = {g.procedure_id: g for _, g in pairs}
    parses = {p.id: load_trips(gen.parses / f"{p.id}.trips.json") for p in procedures}
    cfg = (default_ontology(), default_class_map(), default_role_synonyms())

    def graphs():
        for p in procedures:
            semgraph.build_trips_graph(p, parses[p.id])

    def predict():
        return {p.id: reasoning.predict(p, parses[p.id], *cfg) for p in procedures}

    pred = predict()

    def evaluate():
        metrics.eval_sentence_level(pred, gold)
        metrics.eval_document_level(pred, gold)
        cats = metrics.categorize_decisions(gold, procedures, parses, cfg[0], cfg[1])
        metrics.eval_decision_level(pred, gold, cats)

    return {name: per_call(fn) for name, fn in (
        ("build_trips_graph", graphs), ("predict", predict), ("evaluate", evaluate))}


def per_call(fn) -> float:
    """Seconds per call: the median of three batches of n calls each, with n
    the smallest power of two that makes a batch last BATCH_S."""
    def batch(n: int) -> float:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - start) / n

    n, first = 1, batch(1)
    while first * n < BATCH_S:
        n *= 2
    samples = [first] if n == 1 else []
    samples += [batch(n) for _ in range(3 - len(samples))]
    return statistics.median(samples)


def exponent(sizes: list[int], times: list[float]) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    work = BENCH.parent / ".bench_work" / "sweep"
    report = {}
    try:
        for axis, shapes in AXES.items():
            sizes = [size_of(axis, s) for s in shapes]
            rows = []
            for shape in shapes:
                shutil.rmtree(work, ignore_errors=True)
                rows.append(measure(shape, work))
            report[axis] = {"sizes": sizes, "seconds": {}, "exponent": {}}
            print(f"{axis}: {sizes}")
            for stage in rows[0]:
                times = [r[stage] for r in rows]
                k = exponent(sizes, times)
                report[axis]["seconds"][stage] = times
                report[axis]["exponent"][stage] = round(k, 2)
                shown = " ".join(f"{t:9.4f}" for t in times)
                print(f"  {stage:18s} {shown}   exponent {k:5.2f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
