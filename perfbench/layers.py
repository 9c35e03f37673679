"""Per-layer metrics of the traced work of a run.

The layers are the repository's modules: ``datasets``, ``buildup``,
``sampler``, ``local_sampler``, ``ags``, ``estimators`` and ``graphlet``.
The traced work is one pass and one run of the extras (see
``workloads.py``), so every workload runs every layer there once: one
build, one local route and one AGS. Times come from the spans of
:mod:`spans`, Spark work from the job group of each span, and the counts
from the objects the calls returned.
"""
from __future__ import annotations

from workloads import CBAR, median

LAYERS = ("buildup", "sampler", "local_sampler", "ags", "estimators")


def _metrics(tracer, root, results: list[dict], cores: int) -> dict[str, float]:
    spans = tracer.descendants(root)
    local = next(r for r in results if "seq" in r)
    agsr = next(r for r in results if "ags" in r)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, key=None):
        return sum(s.spark[key] if key else s.seconds for s in named(name))

    m: dict[str, float] = {}
    tables = results[0]["tables"]
    stats = tables.stats
    for h in range(1, 5):
        m[f"buildup.level{h}_s"] = stats.seconds_per_level[h]
        m[f"buildup.level{h}_rows"] = stats.rows_per_level[h]
    m["buildup.final_level_s"] = stats.seconds_per_level[tables.k]
    m["buildup.final_level_rows"] = stats.rows_per_level[tables.k]
    (build,) = named("buildup.build_tables")
    m["buildup.spark_jobs"] = build.spark["jobs"]
    m["buildup.spark_tasks"] = build.spark["tasks"]
    m["buildup.shuffle_bytes"] = build.spark["shuffle_bytes"]
    m["buildup.output_bytes"] = build.spark["output_bytes"]
    m["buildup.task_busy_s"] = build.spark["task_busy_s"]
    m["buildup.core_util"] = build.spark["task_busy_s"] / (build.seconds * cores)
    m["buildup.failed_tasks"] = build.spark["failed_tasks"]

    m["sampler.draw_roots_s"] = total("sampler.draw_roots")
    m["sampler.unfold_s"] = total("sampler.unfold_treelets")
    m["sampler.unfold.spark_jobs"] = total("sampler.unfold_treelets", "jobs")
    m["sampler.unfold.shuffle_bytes"] = total("sampler.unfold_treelets", "shuffle_bytes")
    m["sampler.unfold.task_busy_s"] = total("sampler.unfold_treelets", "task_busy_s")
    m["sampler.classify_s"] = total("sampler.classify")
    m["sampler.classify.spark_jobs"] = total("sampler.classify", "jobs")
    m["sampler.failed_tasks"] = sum(
        s.spark["failed_tasks"] for s in spans if s.layer == "sampler"
    )

    seq, cc = local["seq"].stats, local["cc"].stats
    m["local_sampler.init_s"] = total("local_sampler.init")
    m["local_sampler.sweeps"] = seq.sweeps
    m["local_sampler.swept_neighbors"] = seq.swept_neighbors
    m["local_sampler.buffer_hit_ratio"] = seq.buffer_hits / (seq.sweeps + seq.buffer_hits)
    m["local_sampler.cc.swept_neighbors"] = cc.swept_neighbors

    res = agsr["ags"]
    (ags_span,) = named("ags.ags")
    under_ags = tracer.descendants(ags_span)
    m["ags.rounds"] = len(res.schedule)
    m["ags.shapes_used"] = len(res.shapes_used)
    m["ags.covered"] = len(res.covered)
    m["ags.sampler_s"] = sum(s.seconds for s in under_ags if s.name == "sampler.sample_graphlets")
    m["ags.self_s"] = tracer.self_seconds(ags_span)
    m["ags.root_pdf_calls"] = sum(1 for s in under_ags if s.name == "buildup.root_pdf")
    m["ags.useful_ratio"] = _useful_ratio(agsr["sampler_calls"], CBAR)

    m["estimators.naive_estimates_s"] = total("estimators.naive_estimates")
    m["estimators.l1_err"] = local["naive_l1"]
    m["estimators.n_within50"] = local["naive_within50"]

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(tracer.self_seconds(s) for s in spans if s.layer == layer)
    return m


def _useful_ratio(calls: list, cbar: int) -> float:
    """Share of AGS samples that hit a class not yet covered (≥ cbar hits)
    when their batch was drawn."""
    seen: dict[int, int] = {}
    useful = drawn = 0
    for _, batch in calls:
        covered = {g for g, x in seen.items() if x >= cbar}
        useful += sum(x for g, x in batch.hits.items() if g not in covered)
        drawn += batch.n_samples
        for g, x in batch.hits.items():
            seen[g] = seen.get(g, 0) + x
    return useful / drawn


def per_layer(tracer, root, results: list[dict], runner, cores: int, before, after) -> dict[str, float]:
    out = _metrics(tracer, root, results, cores)
    # Every chunk of the run counts: on a workload whose passes take the AGS
    # route, the traced extras are the only sequential draws.
    out["local_sampler.seq_sampling_rate"] = median(runner.values["seq_sampling_rate"])
    out["local_sampler.cc.seq_sampling_rate"] = median(runner.values["cc_seq_sampling_rate"])
    out["datasets.load_s"] = median(runner.load_s)
    hits, misses = after.hits - before.hits, after.misses - before.misses
    out["graphlet.canonical_hit_ratio"] = hits / (hits + misses)
    return out
