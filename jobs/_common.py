"""Shared harness for the table-reproduction jobs.

Every ``jobs/tableN_*.py`` is a spark-submit entrypoint that wraps a
``run(spark, quick=...) -> pandas.DataFrame`` function, prints the table
in the paper's row layout, and writes ``results/<name>.csv`` so
EXPERIMENTS.md can cite the exact numbers.
"""
from __future__ import annotations

import os
import sys

import pandas as pd

from repro.session import driver_mem

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


def get_spark(app: str):
    """SparkSession matching the conftest fixture's configuration."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_mem()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def emit(name: str, df: pd.DataFrame) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.csv")
    df.to_csv(path, index=False)
    print(f"\n== {name} ==")
    print(df.to_string(index=False))
    print(f"[saved {path}]", file=sys.stderr)


def quick_flag() -> bool:
    return "--full" not in sys.argv
