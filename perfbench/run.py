"""Benchmark of the Motivo pipeline: graph → count tables → estimates.

Run from the root of the repository:

    python3 perfbench/run.py --workload build-facebook-k5 --seed 1 --seconds 10 --trace 0

One run launches a local Spark session (``local[4]``, or fewer cores if the
machine has fewer), loads the workload's dataset analog three times, warms
the JVM up with untimed builds, runs the extras (what the workload's route
leaves out), then repeats the workload's pass (see
``workloads.py``) until ``--seconds`` have passed, at least once. Every
result is checked against ``perfbench/reference.json``. Each metric is the
median of its values in the run.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` then runs one pass and the extras with spans around every
layer call, and one more untraced pass, and reports the per-layer metrics
of the traced work plus the tracing overhead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run
(configuration, every measured value, spans) is written to
``.perfbench/runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import COLORING_SEED, END_TO_END, WORKLOADS, Runner, median, peak_rss_mb
from layers import per_layer

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
DRIVER_MEMORY = "2g"


def n_cores() -> int:
    return max(1, min(4, len(os.sched_getaffinity(0))))


def start_spark(tmp: Path, cores: int):
    """Local Spark session whose scratch files all stay under ``tmp`` and
    whose Python workers import ``repro`` from this checkout's ``src``."""
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in [src, os.environ.get("PYTHONPATH", "")] if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-XX:-UsePerfData -Djava.io.tmpdir={tmp}' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.local.dir", str(tmp / "spark"))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
        # One shuffle partition per core: with the jobs' 64, a yelp AGS
        # batch costs ~14 s and a run no longer fits its time budget.
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        # Keep every job and stage of a run for the per-span accounting.
        .config("spark.ui.retainedJobs", 100_000)
        .config("spark.ui.retainedStages", 100_000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
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


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def timed_passes(runner: Runner, first: int, seconds: float) -> list[dict]:
    """Repeat the workload's pass until ``seconds`` have passed (at least one)."""
    passes, t0 = [], time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(runner.run_pass(first + len(passes)))
    return passes


def measure(spark, args, reference: dict, tmp: Path, launch_s: float, cores: int):
    from repro.core import graphlet as gl

    wl = WORKLOADS[args.workload]
    runner = Runner(spark, wl, args.seed, reference, str(tmp))
    t0 = time.perf_counter()
    tables = runner.warm_up()
    warmup_s = time.perf_counter() - t0
    runner.add("setup_s", launch_s + median(runner.load_s) + warmup_s)
    runner.extras(tables)
    passes = timed_passes(runner, 0, args.seconds)
    runner.add("sampling_rate", *runner.warm_sampling_rates())
    runner.add("driver_peak_rss_mb", peak_rss_mb())
    values = {k: list(v) for k, v in runner.values.items()}
    metrics = {k: median(values[k]) for k in END_TO_END}
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "coloring_seed": COLORING_SEED,
        "trace": args.trace,
        "git_sha": git_sha(),
        "spark_version": spark.version,
        "python": sys.version.split()[0],
        "cores": cores,
        "master": spark.sparkContext.master,
        "driver_memory": DRIVER_MEMORY,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "run_seconds": args.seconds,
        "setup": {
            "launch_s": launch_s,
            "dataset_load_s": runner.load_s,
            "warmup_builds": wl.warmup_builds,
            "warmup_build_s": runner.warmup_build_s,
            "warmup_s": warmup_s,
        },
        "passes": len(passes),
        "l1_from_reference": [p.get("naive_l1", p.get("ags_l1")) for p in passes],
        "end_to_end": {
            k: {"median": median(v), "n": len(v), "values": v} for k, v in values.items()
        },
    }

    if args.trace:
        from spans import Tracer

        # One traced pass and one traced run of the extras, then one
        # untraced pass: the overhead is taken against a pass at the same
        # stage of the JVM's and the sampler's warm-up.
        tracer = Tracer(spark)
        before = gl.canonical.cache_info()
        with tracer.patched(), tracer.span("bench.traced") as root:
            traced = runner.run_pass(len(passes), tracer)
            traced_extras = runner.extras(traced["tables"], tracer)
        after = gl.canonical.cache_info()
        untraced = runner.run_pass(len(passes) + 1)
        tracer.collect_spark(tracer.spans)
        layer = per_layer(tracer, root, [traced, traced_extras], runner, cores, before, after)
        layer["trace.overhead_s"] = traced["estimate_s"] - untraced["estimate_s"]
        record["per_layer"] = layer
        record["spans"] = tracer.to_json()
        metrics = layer

    record["attempted"] = runner.ops.attempted
    record["failed"] = runner.ops.failed
    record["problems"] = runner.ops.problems
    return metrics, record, runner.ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reference = json.loads((BENCH_DIR / "reference.json").read_text())

    work = ROOT / ".perfbench"
    tmp = work / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))
    cores = n_cores()
    t0 = time.perf_counter()
    spark = start_spark(tmp, cores)
    launch_s = time.perf_counter() - t0
    try:
        metrics, record, ops = measure(spark, args, reference, tmp, launch_s, cores)
    finally:
        stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)

    runs = work / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    out = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    for p in ops.problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(f"perfbench: record written to {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
