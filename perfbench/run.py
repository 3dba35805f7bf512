"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload interval-g7 --seed 0 --seconds 24 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics. Lines before it give the environment stamp, the cold
pass time, per-query warm medians with their sample counts, and any failed
operation. Spans and
per-operation records of the run are written to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.

Everything the run writes (Spark's local and temp directories included)
stays under ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: Upper bound on Spark cores, so runs compare across machines.
MAX_CORES = 4


def configure_env() -> None:
    """Keep Spark's files inside the checkout and cap its cores; must run
    before pyspark launches the JVM."""
    tmp, local = OUT / "tmp", OUT / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    os.environ["SPARK_MASTER"] = f"local[{cores}]"
    # -XX:-UsePerfData: no hsperfdata files in the system temp directory.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--driver-java-options '-XX:-UsePerfData -Djava.io.tmpdir={tmp}' "
        f"--conf spark.local.dir={local} pyspark-shell"
    )
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src"), str(ROOT / "jobs")]


def start_spark():
    from _session import get_spark

    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def env_stamp(spark, seed: int, data) -> dict:
    import pyspark

    sc = spark.sparkContext
    jvm = sc._jvm
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "spark_master": sc.master,
        "spark_cores": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory", "default"),
        "jvm_max_heap_mb": jvm.java.lang.Runtime.getRuntime().maxMemory() // (1 << 20),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "aqe": spark.conf.get("spark.sql.adaptive.enabled"),
        "pyspark": pyspark.__version__,
        "java": jvm.java.lang.System.getProperty("java.version"),
        "git_sha": sha,
        "seed": seed,
        "graph": data.stats(),
    }


def load_reference(workload: str, seed: int):
    ref = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    return ref["outputs"].get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    configure_env()
    import bench
    from spans import Tracer

    w = bench.WORKLOADS.get(args.workload)
    if w is None:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(bench.WORKLOADS)}")
    reference = load_reference(w.name, args.seed)

    spark = start_spark()
    try:
        session_s = time.perf_counter() - T_START
        tr = Tracer(bool(args.trace), spark.sparkContext)
        run = bench.run(spark, w, args.seed, args.seconds, tr, session_s)
        env = env_stamp(spark, args.seed, run.data)
        bench.check(run, reference)
    finally:
        stop_spark(spark)

    if args.trace:
        metrics = bench.per_layer(run, tr)
        units = dict(bench.per_layer_metrics())
    else:
        metrics = bench.end_to_end(run)
        units = dict(bench.END_TO_END)
    warm = bench.per_query_warm(run)
    n_warm = len(run.passes) - 1
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": w.name,
        "trace": args.trace,
        "env": env,
        "builds_s": run.builds,
        "ops": [vars(op) for op in run.ops],
        "metrics": metrics,
        "spans": tr.to_json(),
    }
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(json.dumps({"env": env}))
    print(json.dumps({
        "cold_pass_s": bench.cold_pass_s(run),
        "warm_query_median_s": warm,
        "warm_passes": n_warm,
        "setup_builds": len(run.builds),
    }))
    for f in run.failures:
        print(f"FAILED {f}")
    attempted = len(run.ops)
    failed = sum(1 for op in run.ops if op.error)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
