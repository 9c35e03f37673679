"""Regenerate ``perfbench/reference.json``, the data the checks compare with.

Run from the root of the repository, on the commit whose results are the
reference:

    python3 perfbench/make_reference.py

It stores, for every workload:

- ``urn``: the count-table checksum ``[rows, Σcnt]`` of every level, built
  with the benchmark's fixed coloring. A run must match it exactly.
- ``counts`` and ``kind``: the per-class counts the estimates are scored
  against. ``exact`` counts come from ``esu.esu_counts`` and depend only on
  the dataset generator's seed (see ``repro.graphs.datasets``). Where ESU
  is too slow (facebook at k=5), ``kind`` is ``estimate``: the naive
  estimates of ``REF_DRAWS`` LocalSampler draws.

and, per k, the canonical codes of the connected k-graphlet classes.
"""
from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import COLORING_SEED, WORKLOADS, urn_checksum

REF_DRAWS = 200_000


def main() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    tmp = run.ROOT / ".perfbench" / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    spark = run.start_spark(tmp, run.n_cores())
    try:
        ref = build_reference(spark, str(tmp))
    finally:
        run.stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


def build_reference(spark, tmp: str) -> dict:
    from repro.core import buildup, estimators, graphlet as gl, local_sampler
    from repro.exactcount import esu
    from repro.graphs import datasets

    out = {"coloring_seed": COLORING_SEED, "classes": {}, "workloads": {}}
    for wl in WORKLOADS.values():
        out["classes"][str(wl.k)] = gl.all_graphlets(wl.k)
        graph = datasets.load(wl.dataset)
        tables = buildup.build_tables(
            spark, graph, wl.k, seed=COLORING_SEED,
            flush_dir=f"{tmp}/tables" if wl.flush else None,
        )
        urn = urn_checksum(tables)
        if wl.k >= 5:
            ls = local_sampler.LocalSampler(tables, seed=1, buffer_threshold=100)
            hits = ls.sample_graphlets(REF_DRAWS)
            counts, kind = estimators.naive_estimates(hits, REF_DRAWS, tables), "estimate"
        else:
            counts, kind = esu.esu_counts(spark, graph, wl.k), "exact"
        spark.catalog.clearCache()
        print(f"{wl.name}: {urn}", flush=True)
        out["workloads"][wl.name] = {
            "dataset": wl.dataset,
            "k": wl.k,
            "kind": kind,
            "counts": {str(g): c for g, c in sorted(counts.items())},
            "urn": urn,
        }
    return out


if __name__ == "__main__":
    main()
