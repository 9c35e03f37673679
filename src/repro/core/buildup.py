"""Motivo's build-up phase as a Catalyst dataflow (paper §2.1, §3.1–3.3).

The treelet count table ``c(T_C, v)`` is computed level by level with
Eq. 1: a size-``h`` colored rooted treelet splits uniquely into its
first root-child subtree ``T''`` (size ``j``) and the rest ``T'``
(size ``h-j``). Shapes are size-unique, so each level is **one**
aggregation over the keyed union ``lower_h`` of levels ``1..h-1``:

    level_h = lower_h ⋈ merge-table(h) ⋈ edges ⋈ lower_h

joining ``l.t = tl``, ``l.v = src`` and ``(dst, tr) = (r.v, r.t)``, with
color-set disjointness as a bitwise filter, a groupBy on
``(v, tm, l.c | r.c)`` and a final division by β_T (each treelet copy is
produced once per root-child subtree isomorphic to T''). The merge table
(all of level h's ``(tl, tr, tm, β)`` rows, ≤ 115 rows for k ≤ 8) is
broadcast — this is the succinct-treelet payoff: CC's per-pair recursive
check-and-merge becomes a native hash-join lookup plus integer bit-ops,
entirely inside Catalyst/Tungsten, with no per-row Python.

Motivo keeps the graph in memory and lets every build thread read any
vertex's lower-level records (§3.3). Here the edge list and ``lower_h``
are broadcast, so a level runs as one pipeline with a single shuffle (the
groupBy), as long as each fits under :data:`BROADCAST_ROWS` (row totals
come from :class:`BuildStats`); above it the same plan shuffles instead.

Motivo specifics reproduced here:

- **128-bit counters** → ``DecimalType(38, 0)`` columns (exact integer
  arithmetic beyond int64, like Motivo's __int128; the CC baseline in
  ``baseline.py`` uses 64-bit longs and can overflow, as CC does).
- **0-rooting** (§3.2): at the final level only color-0 roots are kept,
  so every colorful k-treelet copy is stored exactly once.
- **Greedy flushing + memory-mapped reads** (§3.1, §3.3): with
  ``flush_dir`` set, each completed level is written to parquet and
  re-read lazily, so the full table never resides in executor memory;
  without it levels are persisted in memory (the CC regime).
- **Sorted tables** (§3.3): each level is sorted within partitions by
  ``(t, c, v)`` before it is flushed or persisted.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F
from pyspark.sql.types import DecimalType

from ..graphs.generators import Graph
from . import coloring, treelet as tl

#: Decimal(38,0) — the reproduction's "128-bit counter".
COUNT_TYPE = DecimalType(38, 0)

#: Most rows a join side may hold and still be broadcast, i.e. shipped whole
#: to every task the way Motivo keeps the graph and the lower levels in
#: memory. Above it the same plan runs with shuffled joins, so a large
#: graph does not exhaust driver memory.
BROADCAST_ROWS = 1_000_000


@dataclass
class BuildStats:
    """Wall-clock and size accounting for one build-up run."""

    seconds_per_level: dict[int, float] = field(default_factory=dict)
    rows_per_level: dict[int, int] = field(default_factory=dict)
    bytes_per_level: dict[int, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_per_level.values())

    @property
    def total_rows(self) -> int:
        return sum(self.rows_per_level.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_per_level.values())


@dataclass
class CountTables:
    """The abstract "urn": per-level colored-treelet count DataFrames.

    ``levels[h]`` has columns ``v`` (root vertex), ``t`` (succinct rooted
    treelet encoding), ``c`` (color-set bitmask), ``cnt`` (Decimal count
    of colorful copies of ``(t, c)`` rooted at ``v``).
    """

    spark: SparkSession
    graph: Graph
    k: int
    colors: np.ndarray
    levels: dict[int, DataFrame]
    zero_rooting: bool
    lam: float | None
    seed: int
    stats: BuildStats

    @property
    def p_colorful(self) -> float:
        return coloring.p_colorful(self.k, self.lam)

    def root_pdf(self) -> pd.DataFrame:
        """Final-level table collected to the driver for root sampling:
        columns v, t, cnt (python int). Small: one row per (color-0
        vertex, k-treelet shape) — the color set is always the full mask.
        """
        pdf = self.levels[self.k].select("v", "t", "cnt").toPandas()
        pdf["cnt"] = pdf["cnt"].map(int)
        return pdf

    def total_treelets(self) -> int:
        """t of §2.2: total number of colorful k-treelet copies in G."""
        total = int(self.root_pdf()["cnt"].sum())
        return total if self.zero_rooting else total // self.k

    def shape_totals(self) -> dict[int, int]:
        """r_j of §4: colorful copies per *unrooted* k-treelet shape."""
        um = tl.unrooted_map(self.k)
        pdf = self.root_pdf()
        totals: dict[int, int] = {u: 0 for u in tl.unrooted_shapes(self.k)}
        for t, cnt in pdf.groupby("t")["cnt"].sum().items():
            totals[um[int(t)]] += int(cnt)
        if not self.zero_rooting:
            totals = {u: c // self.k for u, c in totals.items()}
        return totals


def build_tables(
    spark: SparkSession,
    graph: Graph,
    k: int,
    *,
    seed: int = 0,
    lam: float | None = None,
    zero_rooting: bool = True,
    flush_dir: str | None = None,
) -> CountTables:
    """Run the build-up phase and return the treelet count tables."""
    colors = coloring.assign_colors(graph.n, k, seed=seed, lam=lam)
    stats = BuildStats()
    # The input graph lives in memory (§3.3): the edge view is broadcast to
    # every join that reads it while it fits under BROADCAST_ROWS.
    edges = in_memory(graph.edges_df(spark), 2 * graph.m).alias("e")

    # Level 1: the trivial treelet at every vertex, colored {c_v}.
    lvl1_pdf = pd.DataFrame(
        {"v": np.arange(graph.n), "t": np.int32(tl.SINGLETON), "c": (1 << colors).astype(np.int64)}
    )
    levels: dict[int, DataFrame] = {}
    t0 = time.monotonic()
    lvl1 = spark.createDataFrame(lvl1_pdf).withColumn("cnt", F.lit(1).cast(COUNT_TYPE))
    # One row per vertex, so its row count needs no Spark job.
    levels[1] = _materialize(spark, lvl1, 1, flush_dir, stats, rows=graph.n)
    stats.seconds_per_level[1] = time.monotonic() - t0

    color0 = None
    if zero_rooting:
        color0 = spark.createDataFrame(
            pd.DataFrame({"v": np.flatnonzero(colors == 0).astype(np.int64)})
        )

    for h in range(2, k + 1):
        t0 = time.monotonic()
        merge = F.broadcast(
            spark.createDataFrame(
                pd.DataFrame(
                    [row[2:] for row in tl.merge_table(k) if row[0] + row[1] == h],
                    columns=["tl", "tr", "tm", "beta"],
                ).astype("int32")
            )
        )
        lower = union_levels(levels, h)
        left = lower.alias("l")
        if h == k and zero_rooting:
            # 0-rooting: only count k-treelets rooted at color-0 nodes.
            left = left.join(F.broadcast(color0), on="v", how="semi").alias("l")
        lower_rows = sum(stats.rows_per_level[j] for j in range(1, h))
        right = in_memory(lower, lower_rows).alias("r")
        lvl = (
            left.join(merge, F.col("l.t") == F.col("tl"))
            .join(edges, F.col("l.v") == F.col("e.src"))
            .join(right, (F.col("e.dst") == F.col("r.v")) & (F.col("r.t") == F.col("tr")))
            .where(F.col("l.c").bitwiseAND(F.col("r.c")) == 0)
            .groupBy(
                F.col("l.v").alias("v"),
                F.col("tm").alias("t"),
                F.col("l.c").bitwiseOR(F.col("r.c")).alias("c"),
            )
            .agg(
                F.sum(F.col("l.cnt") * F.col("r.cnt")).alias("pairsum"),
                F.max("beta").alias("beta"),
            )
            # Each copy of T was produced once per root-child subtree
            # isomorphic to T'' — divide by β_T (exact: pairsum ≡ 0 mod β).
            .select(
                "v", "t", "c", (F.col("pairsum") / F.col("beta")).cast(COUNT_TYPE).alias("cnt")
            )
        )
        levels[h] = _materialize(spark, lvl, h, flush_dir, stats)
        stats.seconds_per_level[h] = time.monotonic() - t0

    return CountTables(
        spark=spark,
        graph=graph,
        k=k,
        colors=colors,
        levels=levels,
        zero_rooting=zero_rooting,
        lam=lam,
        seed=seed,
        stats=stats,
    )


def in_memory(df: DataFrame, rows: int) -> DataFrame:
    """``df`` with a broadcast hint if its ``rows`` fit under BROADCAST_ROWS."""
    return F.broadcast(df) if rows <= BROADCAST_ROWS else df


def union_levels(levels: dict[int, DataFrame], h: int) -> DataFrame:
    """Levels 1..h-1 as one DataFrame (shapes are size-unique, so ``t``
    alone says which level a row came from)."""
    return reduce(DataFrame.unionByName, (levels[j] for j in range(1, h)))


def _materialize(
    spark: SparkSession,
    df: DataFrame,
    h: int,
    flush_dir: str | None,
    stats: BuildStats,
    rows: int | None = None,
) -> DataFrame:
    """Greedy flushing (parquet + lazy re-read) or in-memory persist; records
    the level's row count (``rows`` if known, else counted) and bytes.

    Rows are sorted within partitions by ``(t, c, v)`` first: runs of equal
    shape and color set make the parquet pages compress best (smaller than
    unsorted, or than ``(v, t, c)`` on star-dominated graphs).
    """
    df = df.sortWithinPartitions("t", "c", "v")
    if flush_dir is not None:
        path = os.path.join(flush_dir, f"level_{h:02d}.parquet")
        df.write.mode("overwrite").parquet(path)
        # The schema is known: passing it skips Spark's footer-reading job.
        out = spark.read.schema(df.schema).parquet(path)
        stats.bytes_per_level[h] = _dir_bytes(path)
    else:
        out = df.persist()
    stats.rows_per_level[h] = out.count() if rows is None else rows
    return out


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total
