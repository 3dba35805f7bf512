"""Smoke test of the benchmark on a tiny graph, in a few minutes.

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

Runs every workload untraced and traced on
``contact_tracing(persons=30, positivity=0.15, seed=7)`` in one Spark
session, with one warm pass, and checks:

* every operation passes the output gate (DuckDB oracle);
* the metric names and units are exactly those listed in BENCHMARK.json;
* every span is well formed and nested inside its parent;
* within each traced operation, the phase spans add up to the operation's
  wall time within the tracing overhead measured inside it.

Exits non-zero and prints the problems if any check fails.
"""
from __future__ import annotations

import json
import math
import sys
import time

import run as runner

TOLERANCE_S = 0.002


def check_metrics(metrics: dict, units: dict, expected: list[dict], positive: bool) -> list[str]:
    problems = []
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    if units != want:
        problems.append(f"metric units differ: {sorted(set(units.items()) ^ set(want.items()))}")
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number: {value!r}")
        elif positive and value <= 0:
            problems.append(f"{name} is not positive: {value}")
    return problems


def check_spans(tr, run) -> list[str]:
    problems = []
    by_id = {s.id: s for s in tr.spans}
    for s in tr.spans:
        if not s.name or s.end is None or s.end < s.start:
            problems.append(f"span {s.id} {s.name!r} malformed")
            continue
        if s.parent is not None:
            p = by_id.get(s.parent)
            if p is None or s.start < p.start or s.end > p.end:
                problems.append(f"span {s.id} {s.name!r} not inside its parent")
            elif s.query != p.query:
                problems.append(f"span {s.id} {s.name!r} has another query than its parent")
    op_spans = [s for s in tr.spans if s.name == "op"]
    if len(op_spans) != len(run.ops):
        problems.append(f"{len(op_spans)} op spans for {len(run.ops)} operations")
    for sp, op in zip(op_spans, run.ops):
        phases = sum(c.dur for c in tr.children(sp))
        gap = op.wall_s - phases
        if not -TOLERANCE_S <= gap <= op.overhead_s + TOLERANCE_S:
            problems.append(
                f"{op.query} pass {op.pass_no}: phases {phases:.4f} s vs wall "
                f"{op.wall_s:.4f} s, tracing overhead {op.overhead_s:.4f} s"
            )
    return problems


def main() -> int:
    runner.configure_env()
    import bench
    from repro.tpg.generator import contact_tracing
    from spans import Tracer

    spec = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    problems = []
    if declared != set(bench.WORKLOADS):
        problems.append(f"workloads differ: {sorted(declared ^ set(bench.WORKLOADS))}")

    def tiny():
        return contact_tracing(persons=30, positivity=0.15, seed=7)

    spark = runner.start_spark()
    try:
        for w in bench.WORKLOADS.values():
            for traced in (False, True):
                t0 = time.perf_counter()
                tr = Tracer(traced, spark.sparkContext)
                run = bench.run(spark, w, 7, 0, tr, session_s=0.001, make_data=tiny, min_warm=1)
                bench.check(run, reference=None)
                problems += [f"{w.name}: {f}" for f in run.failures]
                if traced:
                    metrics = bench.per_layer(run, tr)
                    units = dict(bench.per_layer_metrics())
                    problems += check_metrics(metrics, units, spec["per_layer"], positive=False)
                    problems += [f"{w.name}: {p}" for p in check_spans(tr, run)]
                else:
                    metrics = bench.end_to_end(run)
                    units = dict(bench.END_TO_END)
                    problems += check_metrics(metrics, units, spec["end_to_end"], positive=True)
                print(f"{w.name} trace={int(traced)}: {len(run.ops)} ops, "
                      f"{time.perf_counter() - t0:.1f} s", flush=True)
    finally:
        runner.stop_spark(spark)
    for p in problems:
        print(f"PROBLEM {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
