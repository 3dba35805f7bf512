"""Regenerate ``reference.json``: the stored output counts of the gate.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py

For every workload and seed 0 and 1 it runs one pass of the workload's
queries, checks each output against the DuckDB oracle (``ORACLE_SQL``
distinct tables; coalesced rows derived from them for Q1–Q5) and stores
the counts. It then runs Q1–Q12 on G10 with seed 0 under Table II
accounting, checks them against the same oracle and against the counts
published in EXPERIMENTS.md, and stores them too. It refuses to write the
file if any check fails.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import run as runner

SEEDS = (0, 1)
#: EXPERIMENTS.md, Table II, "output" column (G10, seed 0).
TABLE2_G10_SEED0 = {
    "Q1": 4736, "Q2": 3900, "Q3": 101, "Q4": 740, "Q5": 8151, "Q6": 324,
    "Q7": 98, "Q8": 451, "Q9": 1493, "Q10": 1129, "Q11": 329, "Q12": 1821,
}


def one_pass(spark, bench, w, seed):
    """Set up once and run one pass; returns the checked Run."""
    from spans import Tracer

    tr = Tracer(False)
    data, itpg, tpg = bench.build_graph(spark, w, bench.graph_factory(w, seed), tr)
    run = bench.Run(w, seed, 0.0, [0.0], data=data)
    ops, _, _ = bench.run_pass(w, itpg if w.backend == "interval" else tpg, 0, tr, True)
    run.passes.append(ops)
    bench.check(run, reference=None)
    bench._drop_graph(itpg, tpg)
    return run


def main() -> int:
    runner.configure_env()
    import bench
    from repro.trpq import queries as Q

    path = Path(__file__).resolve().parent / "reference.json"
    problems = []
    outputs = {}
    spark = runner.start_spark()
    try:
        for w in bench.WORKLOADS.values():
            outputs[w.name] = {}
            for seed in SEEDS:
                run = one_pass(spark, bench, w, seed)
                problems += [f"{w.name} seed {seed}: {f}" for f in run.failures]
                outputs[w.name][str(seed)] = {op.query: op.output for op in run.ops}
                print(w.name, seed, outputs[w.name][str(seed)], flush=True)
        w = bench.Workload("table2-g10", "interval", "G10", Q.TABLE2)
        run = one_pass(spark, bench, w, 0)
        problems += [f"table2 G10: {f}" for f in run.failures]
        table2 = {op.query: op.output for op in run.ops}
        print("table2 G10 seed 0", table2, flush=True)
        if table2 != TABLE2_G10_SEED0:
            problems.append(f"G10 outputs differ from EXPERIMENTS.md: {table2}")
    finally:
        runner.stop_spark(spark)
    if problems:
        for p in problems:
            print(f"PROBLEM {p}")
        return 1
    ref = {
        "accounting": "coalesced rows for Q1-Q5 and bag count for Q6-Q12 on the interval "
        "backend; distinct binding-table rows on the point backend",
        "outputs": outputs,
        "table2_g10_seed0": table2,
    }
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
