"""Motivo's sampling phase as a vectorized Spark dataflow (paper §2.2).

One sample = one colorful k-treelet copy drawn u.a.r. from the urn,
followed by the induced-subgraph classification of its node set. The
paper draws samples one at a time (roots via the alias method, then a
recursive unfolding that sweeps neighbor lists); we keep the alias-method
root draw on the driver and *vectorize the unfolding across all samples*
as iterated weighted joins:

1. Every pending item ``(sample, item, v, T, C)`` with ``|T| > 1`` is
   decomposed into ``(T', T'')`` (broadcast map). Candidate expansions
   join the item with the count tables and the edge list: a choice of
   neighbor ``u ~ v`` and color split ``C' ⊂ C`` weighted by
   ``c(T'_C', v) · c(T''_{C∖C'}, u)`` — exactly the distribution of the
   paper's per-sample sweep.
2. One candidate per item wins via the exponential-race trick
   (min of ``-ln(U)/w`` is a weighted draw), a single groupBy.
3. The winner spawns the two sub-items; leaves resolve to graph nodes.

``k-1`` rounds resolve every sample. As in the build-up, the count
tables and the edge list are broadcast to the joins while their row
totals fit under ``buildup.BROADCAST_ROWS``. Tree edges are recorded, and
a sample that does not resolve to ``k`` distinct nodes and ``k-1`` tree
edges raises. Classification happens distributed in ``mapInPandas`` with
broadcast sorted adjacency (the paper's O(log δ) membership query) and
the memoized canonical form standing in for Nauty; a sample left without
a class code raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession, functions as F

from ..exactcount.esu import induced_code
from ..graphs.generators import Graph
from . import buildup, graphlet as gl, treelet as tl
from .alias import AliasSampler
from .buildup import CountTables


@dataclass
class SampleBatch:
    """Result of one sampling job."""

    #: per-sample: sid -> (root treelet encoding, sorted node tuple)
    samples: pd.DataFrame  # columns: sid, t, nodes (tuple), gcode
    #: per-class hit counts
    hits: dict[int, int]
    n_samples: int


def draw_roots(
    tables: CountTables,
    n_samples: int,
    *,
    seed: int,
    restrict_shapes: set[int] | None = None,
) -> pd.DataFrame:
    """Alias-method draw of ``n_samples`` (root vertex, k-treelet shape)
    pairs ∝ c(T_C, v); optionally restricted to rooted shapes whose
    unrooted canonical form lies in ``restrict_shapes`` (AGS's
    ``sample(T)`` urn refinement, §4)."""
    pdf = tables.root_pdf()
    if restrict_shapes is not None:
        um = tl.unrooted_map(tables.k)
        pdf = pdf[pdf["t"].map(lambda t: um[int(t)]).isin(restrict_shapes)]
    pdf = pdf.reset_index(drop=True)
    if len(pdf) == 0 or pdf["cnt"].sum() == 0:
        raise ValueError("empty urn for the requested treelet shapes")
    sampler = AliasSampler(pdf["cnt"].to_numpy(dtype=np.float64))
    rng = np.random.default_rng(seed)
    rows = sampler.draw(rng, n_samples)
    out = pdf.iloc[rows][["v", "t"]].reset_index(drop=True)
    out.insert(0, "sid", np.arange(n_samples, dtype=np.int64))
    return out


def unfold_treelets(
    spark: SparkSession,
    tables: CountTables,
    roots: pd.DataFrame,
    *,
    seed: int,
) -> pd.DataFrame:
    """Expand root draws into concrete treelet copies.

    Returns one row per sample: ``sid``, ``t`` (root shape), ``nodes``
    (tuple of graph vertices), ``edges`` (tuple of tree edges).
    """
    k = tables.k
    full_mask = (1 << k) - 1
    counts = buildup.in_memory(
        buildup.union_levels(tables.levels, k),
        sum(tables.stats.rows_per_level[h] for h in range(1, k)),
    )
    edges = buildup.in_memory(tables.graph.edges_df(spark), 2 * tables.graph.m)

    decomp_rows = []
    for h in range(2, k + 1):
        for t in tl.rooted_shapes(k)[h]:
            tp, ts = tl.decomp(t)
            decomp_rows.append((t, tp, ts))
    decomp_df = F.broadcast(
        spark.createDataFrame(
            pd.DataFrame(decomp_rows, columns=["t", "tl", "tr"]).astype("int32")
        )
    )

    pending = spark.createDataFrame(
        roots.assign(iid=1, c=np.int64(full_mask))[["sid", "iid", "v", "t", "c"]]
    ).localCheckpoint(eager=True)

    node_rows: list[pd.DataFrame] = []
    edge_rows: list[pd.DataFrame] = []
    for rnd in range(k):  # at most k-1 rounds resolve everything
        leaves = pending.where(F.col("t") == tl.SINGLETON).select("sid", "v").toPandas()
        if len(leaves):
            node_rows.append(leaves)
        todo = pending.where(F.col("t") != tl.SINGLETON)
        if todo.isEmpty():
            break
        lc = counts.alias("lc")
        rc = counts.alias("rc")
        e = edges.alias("e")
        cand = (
            todo.alias("p")
            .join(decomp_df.alias("d"), F.col("p.t") == F.col("d.t"))
            .join(
                lc,
                (F.col("lc.v") == F.col("p.v"))
                & (F.col("lc.t") == F.col("d.tl"))
                & (F.col("lc.c").bitwiseAND(F.lit(full_mask).bitwiseXOR(F.col("p.c"))) == 0),
            )
            .join(e, F.col("e.src") == F.col("p.v"))
            .join(
                rc,
                (F.col("rc.v") == F.col("e.dst"))
                & (F.col("rc.t") == F.col("d.tr"))
                & (F.col("rc.c") == F.col("p.c").bitwiseXOR(F.col("lc.c"))),
            )
            .select(
                F.col("p.sid").alias("sid"),
                F.col("p.iid").alias("iid"),
                F.col("p.v").alias("v"),
                F.col("p.c").alias("c"),
                F.col("d.tl").alias("tl"),
                F.col("d.tr").alias("tr"),
                F.col("lc.c").alias("lcol"),
                F.col("e.dst").alias("u"),
                (
                    -F.log(F.greatest(F.rand(seed + 131 * rnd), F.lit(1e-300)))
                    / (F.col("lc.cnt").cast("double") * F.col("rc.cnt").cast("double"))
                ).alias("key"),
            )
        )
        winners = (
            cand.groupBy("sid", "iid", "v", "c")
            .agg(F.min_by(F.struct("tl", "tr", "lcol", "u"), F.col("key")).alias("w"))
            .select("sid", "iid", "v", "c", "w.tl", "w.tr", "w.lcol", "w.u")
            .localCheckpoint(eager=True)
        )
        edge_rows.append(winners.select("sid", "v", "u").toPandas())
        left_items = winners.select(
            "sid",
            (F.col("iid") * 2).alias("iid"),
            "v",
            F.col("tl").alias("t"),
            F.col("lcol").alias("c"),
        )
        right_items = winners.select(
            "sid",
            (F.col("iid") * 2 + 1).alias("iid"),
            F.col("u").alias("v"),
            F.col("tr").alias("t"),
            F.col("c").bitwiseXOR(F.col("lcol")).alias("c"),
        )
        pending = left_items.unionByName(right_items).localCheckpoint(eager=True)

    nodes_of: dict[int, list[int]] = {}
    for pdf in node_rows:
        for sid, v in zip(pdf["sid"], pdf["v"]):
            nodes_of.setdefault(int(sid), []).append(int(v))
    tree_of: dict[int, list[tuple[int, int]]] = {}
    for pdf in edge_rows:
        for sid, v, u in zip(pdf["sid"], pdf["v"], pdf["u"]):
            tree_of.setdefault(int(sid), []).append((int(v), int(u)))
    out = roots[["sid", "t"]].copy()
    out["nodes"] = [tuple(sorted(nodes_of.get(int(s), ()))) for s in out["sid"]]
    out["edges"] = [tuple(sorted(tree_of.get(int(s), ()))) for s in out["sid"]]
    bad = [
        sid
        for sid, nodes, tree in zip(out["sid"], out["nodes"], out["edges"])
        if len(nodes) != k or len(set(nodes)) != k or len(tree) != k - 1
    ]
    if bad:
        raise RuntimeError(
            f"{len(bad)} of {len(out)} samples did not unfold to {k} distinct nodes "
            f"and {k - 1} tree edges (sids {bad[:5]}): the count tables do not "
            "match the graph or the root draws"
        )
    return out


def classify(
    spark: SparkSession, graph: Graph, samples: pd.DataFrame, k: int
) -> pd.DataFrame:
    """Induced-subgraph classification of each sample's node set,
    distributed with broadcast adjacency; adds a ``gcode`` column."""
    badj = spark.sparkContext.broadcast(graph.adj)
    flat = samples[["sid"]].copy()
    flat["nodes"] = samples["nodes"].apply(lambda ns: list(ns))
    sdf = spark.createDataFrame(flat).repartition(
        max(8, spark.sparkContext.defaultParallelism)
    )

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        adj = badj.value
        for pdf in batches:
            codes = [
                gl.canonical(induced_code(adj, [int(x) for x in nodes]), k)
                for nodes in pdf["nodes"]
            ]
            yield pd.DataFrame({"sid": pdf["sid"], "gcode": codes})

    res = sdf.mapInPandas(run, schema="sid long, gcode long").toPandas()
    out = samples.merge(res, on="sid", how="inner")
    if len(out) != len(samples):
        missing = sorted(set(samples["sid"]) - set(res["sid"]))
        raise RuntimeError(f"classification returned no class code for sids {missing[:5]}")
    return out


def sample_graphlets(
    spark: SparkSession,
    tables: CountTables,
    n_samples: int,
    *,
    seed: int,
    restrict_shapes: set[int] | None = None,
) -> SampleBatch:
    """Full sampling job: roots → unfolding → classification → hits."""
    roots = draw_roots(tables, n_samples, seed=seed, restrict_shapes=restrict_shapes)
    unfolded = unfold_treelets(spark, tables, roots, seed=seed)
    classified = classify(spark, tables.graph, unfolded, tables.k)
    hits: dict[int, int] = (
        classified.groupby("gcode")["sid"].count().astype(int).to_dict()
    )
    return SampleBatch(samples=classified, hits={int(g): int(c) for g, c in hits.items()}, n_samples=n_samples)
