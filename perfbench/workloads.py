"""The benchmark's workloads: graph → count tables → per-class estimates.

Each workload has one *route* from graph to estimates, and every timed
pass runs it through the public entry points:

- ``"local"``: ``buildup.build_tables``, then ``LocalSampler`` in Motivo
  mode (alias roots, neighbor buffering), then
  ``estimators.naive_estimates``. The pass also draws with
  ``LocalSampler(cc_mode=True, use_alias=False)``, Table 4's baseline,
  outside ``estimate_s``.
- ``"ags"``: ``buildup.build_tables``, then ``ags.ags``, which calls
  ``sampler.sample_graphlets`` once per batch.

Every workload reports every metric, so each run also does what its route
leaves out, once, on the tables of its last warm-up build and before the
timed passes (:meth:`Runner.extras`): the AGS on a local-route workload;
on an AGS-route one, a parquet write of its in-memory tables for
``table_bytes`` and, in a traced run, the local route. Their times never
enter ``buildup_s`` or ``estimate_s``.

Every result is checked (see :class:`Runner`); a failed check counts as a
failed operation.
"""
from __future__ import annotations

import contextlib
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

BUFFER_THRESHOLD = 100  #: neighbor-buffering degree threshold (jobs/table4's)
#: The coloring is fixed; the run's seed drives the samplers. Which vertices
#: get color 0 decides where the 0-rooted k-treelets sit, so it decides how
#: often a hub's neighbor list is swept, and with it every sampler's cost.
COLORING_SEED = 0
L1_GATE = 0.05  #: max ℓ1 distance of AGS frequencies from exact ones (§5.2)
#: Classes whose AGS estimate must be within CLASS_GATE of the exact count
#: (relative error) and covered: 7 is the 4-star, 13 the 4-path.
GATED_CLASSES = (7, 13)
CLASS_GATE = 0.2
CBAR = 1000  #: AGS covering threshold, the paper's experimental setting
CHUNKS = 4  #: calls each sequential sampler's draws are split into


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    k: int
    flush: bool  #: greedy parquet flushing (Motivo) or in-memory levels
    route: str  #: "local" or "ags": what each pass runs and estimate_s times
    warmup_builds: int  #: untimed builds before anything is timed
    n_seq: int  #: Motivo-mode LocalSampler draws per local route
    n_cc: int  #: CC-mode LocalSampler draws per local route
    ags_batch: int
    ags_rounds: int


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "build-facebook-k5", "facebook", 5, flush=True, route="local",
            # One cold build (~20 s); the AGS of the extras that follows
            # warms the JVM further before the timed build.
            warmup_builds=1,
            n_seq=4_000, n_cc=200,
            # One cold sampler call (~11 s); a warm one would cost another
            # ~7 s per run, which the time budget of all runs cannot hold.
            ags_batch=100, ags_rounds=1,
        ),
        Workload(
            "ags-yelp-k4", "yelp", 4, flush=False, route="ags",
            # Yelp builds take ~14 s cold, then settle within 10% of steady
            # from the second build on.
            warmup_builds=1,
            n_seq=8_000, n_cc=800,
            # A batch just above cbar: the star class is covered after the
            # first batch, so AGS samples the path shape in the second.
            ags_batch=1100, ags_rounds=2,
        ),
    ]
}


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def freq_l1(est: dict[int, float], ref: dict[int, float]) -> float:
    te, tr = sum(est.values()), sum(ref.values())
    keys = set(est) | set(ref)
    return sum(abs(est.get(g, 0.0) / te - ref.get(g, 0.0) / tr) for g in keys)


@contextlib.contextmanager
def capture_sampler_calls(log: list):
    """Time every ``sampler.sample_graphlets`` call (AGS makes them) and
    keep its batch for the checks. Two clock reads per call, no spans."""
    from repro.core import sampler

    orig = sampler.sample_graphlets

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        batch = orig(*args, **kwargs)
        log.append((time.perf_counter() - t0, batch))
        return batch

    sampler.sample_graphlets = timed
    try:
        yield
    finally:
        sampler.sample_graphlets = orig


class Ops:
    """Counts operations attempted and failed; keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def check_hits(hits: dict[int, int], n: int, classes: set[int]) -> list[str]:
    out = []
    if sum(hits.values()) != n:
        out.append(f"hits sum to {sum(hits.values())}, expected {n}")
    bad = [g for g in hits if g not in classes]
    if bad:
        out.append(f"codes that are not connected k-graphlet classes: {bad[:5]}")
    return out


def check_batch(batch, n: int, classes: set[int]) -> list[str]:
    out = check_hits(batch.hits, n, classes)
    if batch.n_samples != n or len(batch.samples) != n:
        out.append(f"batch holds {len(batch.samples)} samples, expected {n}")
    codes = batch.samples["gcode"]
    if codes.isna().any():
        out.append(f"{int(codes.isna().sum())} samples without a class code")
    elif not set(int(c) for c in codes) <= classes:
        out.append("sample codes outside the connected k-graphlet classes")
    return out


def check_estimates(est: dict[int, float], classes: set[int]) -> list[str]:
    if not est:
        return ["no estimates"]
    out = []
    if not all(math.isfinite(x) and x > 0 for x in est.values()):
        out.append("estimates that are not finite and positive")
    if not set(est) <= classes:
        out.append("estimates for codes outside the connected classes")
    return out


def check_exact(res, exact: dict[int, float]) -> list[str]:
    """AGS against exact counts: ℓ1 of the frequency vectors, and coverage
    and relative error of the ``GATED_CLASSES``."""
    out = []
    l1 = freq_l1(res.estimates, exact)
    if l1 > L1_GATE:
        out.append(f"frequency l1 {l1:.4f} > {L1_GATE} from exact counts")
    for g in GATED_CLASSES:
        rel = abs(res.estimates.get(g, 0.0) - exact[g]) / exact[g]
        if g not in res.covered:
            out.append(f"class {g} not covered ({res.hits.get(g, 0)} hits < cbar)")
        if rel > CLASS_GATE:
            out.append(f"class {g} estimate off by {rel:.1%} > {CLASS_GATE:.0%}")
    return out


def urn_checksum(tables) -> list[list]:
    """``[rows, str(Σcnt)]`` of every level, from one Spark job."""
    from functools import reduce

    from pyspark.sql import functions as F

    per_level = [df.select(F.lit(h).alias("h"), "cnt") for h, df in tables.levels.items()]
    rows = (
        reduce(lambda a, b: a.unionByName(b), per_level)
        .groupBy("h")
        .agg(F.count("*").alias("n"), F.sum("cnt").alias("s"))
        .collect()
    )
    by_level = {r["h"]: [r["n"], str(int(r["s"]))] for r in rows}
    return [by_level[h] for h in sorted(by_level)]


class Runner:
    """Set-up state and the timed work of one benchmark run.

    Every step appends what it measured to ``self.values`` (metric name →
    list of values) and returns its results for the per-layer metrics.
    """

    def __init__(self, spark, wl: Workload, seed: int, reference: dict, work_dir: str):
        from repro.graphs import datasets

        self.spark = spark
        self.wl = wl
        self.seed = seed
        ref = reference["workloads"][wl.name]
        self.urn_ref = ref["urn"]
        self.ref_counts = {int(g): float(c) for g, c in ref["counts"].items()}
        self.exact = ref["kind"] == "exact"
        self.classes = set(reference["classes"][str(wl.k)])
        self.work_dir = work_dir
        self.flush_dir = f"{work_dir}/tables" if wl.flush else None
        self.ops = Ops()
        self.values: dict[str, list[float]] = {}
        self.sampler_rates: list[float] = []  #: samples/s of every Spark sampler call
        load_s = []
        for _ in range(3):
            t0 = time.perf_counter()
            graph = datasets.load(wl.dataset)
            graph.adj  # the driver-side adjacency is part of the dataset
            load_s.append(time.perf_counter() - t0)
        self.graph = graph
        self.load_s = load_s
        self.warmup_build_s: list[float] = []

    def add(self, metric: str, *values: float) -> None:
        self.values.setdefault(metric, []).extend(values)

    def _span(self, tracer, name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def warm_up(self):
        """Untimed builds (JVM class loading, JIT, Spark code generation);
        returns the last build's tables."""
        for _ in range(self.wl.warmup_builds):
            tables, seconds = self.build()
            self.warmup_build_s.append(seconds)
        return tables

    # -- steps --------------------------------------------------------------

    def build(self, tracer=None):
        from repro.core import buildup

        self.spark.catalog.clearCache()
        t0 = time.perf_counter()
        with self._span(tracer, "buildup.build_tables"):
            tables = buildup.build_tables(
                self.spark, self.graph, self.wl.k, seed=COLORING_SEED, flush_dir=self.flush_dir
            )
        seconds = time.perf_counter() - t0
        got = urn_checksum(tables)
        problems = []
        if got != self.urn_ref:
            problems.append(f"urn checksum {got} != reference {self.urn_ref}")
        self.ops.record("build_tables", problems)
        return tables, seconds

    def draw(self, sampler_obj, n: int, name: str, tracer, hits: dict[int, int]) -> tuple[float, float]:
        """One ``sample_graphlets(n)`` call of a sequential sampler, checked;
        adds its hits to ``hits`` and returns its wall and CPU seconds."""
        t0, c0 = time.perf_counter(), time.process_time()
        with self._span(tracer, f"{name}.sample_graphlets"):
            h = sampler_obj.sample_graphlets(n)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.ops.record(name, check_hits(h, n, self.classes))
        for g, x in h.items():
            hits[g] = hits.get(g, 0) + x
        return wall, cpu

    def route_local(self, tables, seed: int, tracer=None) -> dict:
        """Motivo-mode LocalSampler → naive estimates (timed as the route),
        then CC-mode draws (rate only). The rates are draws per second of
        driver CPU time: the samplers are single-threaded pure Python, and
        CPU time leaves out the time the host gives to other guests (which
        still leaves them too noisy to gate on; see README.md)."""
        from repro.core import estimators, local_sampler

        wl = self.wl
        t0 = time.perf_counter()
        with self._span(tracer, "local_sampler.init"):
            seq = local_sampler.LocalSampler(
                tables, seed=seed, use_alias=True, buffer_threshold=BUFFER_THRESHOLD
            )
        route_s = time.perf_counter() - t0
        hits: dict[int, int] = {}
        per_seq = wl.n_seq // CHUNKS
        for _ in range(CHUNKS):
            wall, cpu = self.draw(seq, per_seq, "local_sampler", tracer, hits)
            route_s += wall
            self.add("seq_sampling_rate", per_seq / cpu)

        t0 = time.perf_counter()
        with self._span(tracer, "estimators.naive_estimates"):
            naive = estimators.naive_estimates(hits, per_seq * CHUNKS, tables)
        route_s += time.perf_counter() - t0
        self.ops.record("naive_estimates", check_estimates(naive, self.classes))

        with self._span(tracer, "local_sampler.cc.init"):
            cc = local_sampler.LocalSampler(tables, seed=seed + 1, cc_mode=True, use_alias=False)
        cc_hits: dict[int, int] = {}
        per_cc = wl.n_cc // CHUNKS
        for _ in range(CHUNKS):
            _, cpu = self.draw(cc, per_cc, "local_sampler.cc", tracer, cc_hits)
            self.add("cc_seq_sampling_rate", per_cc / cpu)
        return {
            "route_s": route_s,
            "seq": seq,
            "cc": cc,
            "naive_l1": freq_l1(naive, self.ref_counts),
            "naive_within50": sum(
                1 for g, c in self.ref_counts.items() if abs(naive.get(g, 0.0) - c) <= 0.5 * c
            ),
        }

    def route_ags(self, tables, seed: int, tracer=None) -> dict:
        """AGS, whose batches go through the Spark sampler."""
        from repro.core import ags

        wl, calls = self.wl, []
        with capture_sampler_calls(calls):
            t0 = time.perf_counter()
            with self._span(tracer, "ags.ags"):
                res = ags.ags(
                    self.spark, tables, cbar=CBAR, batch_size=wl.ags_batch,
                    max_samples=wl.ags_batch * wl.ags_rounds, seed=seed,
                )
            ags_s = time.perf_counter() - t0
        for dt, batch in calls:
            self.ops.record("sampler.sample_graphlets", check_batch(batch, wl.ags_batch, self.classes))
            self.sampler_rates.append(batch.n_samples / dt)
        problems = check_estimates(res.estimates, self.classes)
        if res.samples_used != wl.ags_batch * wl.ags_rounds:
            problems.append(f"AGS used {res.samples_used} samples")
        if self.exact and not problems:
            problems += check_exact(res, self.ref_counts)
        self.ops.record("ags", problems)
        self.add("ags_s", ags_s)
        l1 = freq_l1(res.estimates, self.ref_counts) if res.estimates else math.inf
        return {"route_s": ags_s, "ags": res, "ags_l1": l1, "sampler_calls": calls}

    def parquet_bytes(self, tables) -> int:
        """On-disk bytes of in-memory tables written as the flushed build
        writes them (one parquet directory per level)."""
        out = Path(self.work_dir) / "table_bytes"
        for h, df in tables.levels.items():
            df.write.mode("overwrite").parquet(str(out / f"level_{h:02d}.parquet"))
        total = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        shutil.rmtree(out)
        return total

    def extras(self, tables, tracer=None) -> dict | None:
        """What the workload's route leaves out, once, on ``tables``: the
        parquet bytes of in-memory tables (``table_bytes``), and the other
        route. The AGS feeds end-to-end metrics (``sampling_rate``,
        ``ags_s``); the local route feeds per-layer ones only, so it runs
        only when traced."""
        seed = self.seed * 1000 + 999
        if not self.wl.flush and tracer is None:
            self.add("table_bytes", self.parquet_bytes(tables))
        if self.wl.route == "local":
            return self.route_ags(tables, seed, tracer)
        return self.route_local(tables, seed, tracer) if tracer else None

    def warm_sampling_rates(self) -> list[float]:
        """Rates of the run's sampler calls but the first, which carries
        the sampler's code generation and Python worker start-up; the first
        when it is the only one."""
        return self.sampler_rates[1:] or self.sampler_rates

    def run_pass(self, pass_no: int, tracer=None) -> dict:
        """Graph → count tables → estimates along the workload's route."""
        tables, build_s = self.build(tracer)
        route = self.route_local if self.wl.route == "local" else self.route_ags
        out = route(tables, self.seed * 1000 + pass_no * 10, tracer)
        out.update(tables=tables, buildup_s=build_s, estimate_s=build_s + out["route_s"])
        self.add("buildup_s", build_s)
        self.add("estimate_s", out["estimate_s"])
        if self.wl.flush:
            self.add("table_bytes", tables.stats.total_bytes)
        return out


END_TO_END = (
    "setup_s", "buildup_s", "estimate_s", "table_bytes", "sampling_rate", "ags_s",
    "driver_peak_rss_mb",
)
