"""Spans around the calls into each layer, and Spark's work per span.

Tracing is switched on per pass with :meth:`Tracer.patched`, which wraps
the public entry points of the layers from outside (nothing in ``src/`` is
changed) and restores them on exit:

- ``sampler.sample_graphlets``, ``sampler.draw_roots``,
  ``sampler.unfold_treelets`` and ``sampler.classify`` (module globals, so
  ``ags`` and ``sample_graphlets`` call the wrapped versions);
- ``CountTables.root_pdf`` (a class attribute), which ``LocalSampler``,
  ``estimators`` and ``ags`` reach through the tables.

Calls the benchmark makes itself (``buildup.build_tables``, the
``LocalSampler`` constructor and ``sample_graphlets``, ``ags.ags`` and
``estimators.naive_estimates``) are wrapped at the call site with
:meth:`Tracer.span`.

Every span runs its Spark jobs under its own job group. After the pass,
:meth:`Tracer.collect_spark` sums each group's stages from Spark's status
store, so a span's counters hold only the work its own calls caused, never
a difference of global totals (the store evicts old stages).
"""
from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field

SPARK_FIELDS = ("jobs", "tasks", "failed_tasks", "shuffle_bytes", "output_bytes", "task_busy_s")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  #: "<layer>.<call>", e.g. "sampler.unfold_treelets"
    start: float
    end: float = 0.0
    spark: dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, spark):
        self._sc = spark.sparkContext
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self.spans: list[Span] = []

    def _group(self, span: Span | None) -> str | None:
        return None if span is None else f"perfbench-{span.id}"

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(next(self._ids), parent.id if parent else None, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        self._sc.setLocalProperty("spark.jobGroup.id", self._group(s))
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self._sc.setLocalProperty("spark.jobGroup.id", self._group(parent))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap the layers' entry points for the duration of the block."""
        from repro.core import buildup, sampler

        targets = [
            (sampler, "sample_graphlets", "sampler.sample_graphlets"),
            (sampler, "draw_roots", "sampler.draw_roots"),
            (sampler, "unfold_treelets", "sampler.unfold_treelets"),
            (sampler, "classify", "sampler.classify"),
            (buildup.CountTables, "root_pdf", "buildup.root_pdf"),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
        try:
            for obj, attr, name in targets:
                setattr(obj, attr, self.wrap(name, getattr(obj, attr)))
            yield self
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    # -- Spark accounting ---------------------------------------------------

    def collect_spark(self, spans: list[Span]) -> None:
        """Fill ``span.spark`` with the summed stage metrics of its group."""
        sc = self._sc
        jsc = sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()
        store = jsc.statusStore()
        jvm = sc._jvm
        no_tasks = jvm.java.util.ArrayList()
        no_quantiles = sc._gateway.new_array(jvm.double, 0)
        tracker = sc.statusTracker()
        for s in spans:
            acc = dict.fromkeys(SPARK_FIELDS, 0.0)
            job_ids = tracker.getJobIdsForGroup(self._group(s))
            acc["jobs"] = len(job_ids)
            stage_ids = set()
            for j in job_ids:
                info = tracker.getJobInfo(j)
                if info is not None:
                    stage_ids.update(info.stageIds)
            for sid in stage_ids:
                attempts = store.stageData(sid, False, no_tasks, False, no_quantiles)
                for i in range(attempts.size()):
                    st = attempts.apply(i)
                    acc["tasks"] += st.numCompleteTasks()
                    acc["failed_tasks"] += st.numFailedTasks()
                    acc["shuffle_bytes"] += st.shuffleWriteBytes()
                    acc["output_bytes"] += st.outputBytes()
                    acc["task_busy_s"] += st.executorRunTime() / 1000.0
            s.spark = acc

    # -- summaries ----------------------------------------------------------

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        """Duration minus the time its (sequential) child spans cover."""
        return span.seconds - sum(c.seconds for c in self.children(span))

    def descendants(self, span: Span) -> list[Span]:
        out, todo = [], [span]
        while todo:
            cur = todo.pop()
            kids = self.children(cur)
            out.extend(kids)
            todo.extend(kids)
        return out

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self_s": self.self_seconds(s),
                "spark": s.spark,
            }
            for s in self.spans
        ]
