"""Spark driver settings shared by the test suite and the table jobs.

``spark.driver.memory`` is read when the driver JVM starts, not from
SparkConf, so callers put :func:`driver_mem` into ``PYSPARK_SUBMIT_ARGS``
before pyspark launches the JVM. This module imports nothing from pyspark.
"""
from __future__ import annotations

import os

_CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


def driver_mem() -> str:
    """~75% of the memory limit, for the Spark driver JVM.

    Precedence: the SPARK_DRIVER_MEM env var (explicit override) > the
    cgroup v2/v1 limit > the machine's physical memory. Records where the
    value came from in ``_SPARK_DRIVER_MEM_SRC``.

    The cgroup read is best-effort: a sandboxed kernel's sysfs emulation may
    not pass the host limit through. An unbounded value (cgroup-v1's ~9.2e18
    "unlimited" sentinel, or a missing limit) is treated as absent so the
    JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in _CGROUP_LIMITS:
        try:
            with open(p) as f:
                raw = f.read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "physical"
    gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / (1 << 30)
    return f"{max(1, int(gib * 0.75))}g"
