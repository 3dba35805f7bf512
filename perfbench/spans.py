"""Spans and Spark counters for the traced run of the benchmark.

Everything here is recorded from the benchmark's side: spans wrap calls into
the library's public functions (and, for self time, a few of its methods),
Spark counts come from job groups read back through ``statusTracker``, and
join/exchange counts come from walking the executed physical plan. The
library itself is not changed.

Spans stay in memory and are written out when the run ends. Time the tracer
spends on its own bookkeeping (status polling, plan walks, counting memo
relations) is accumulated in :attr:`Tracer.overhead_s` and reported, so the
traced run's per-layer split can be compared with the untraced end-to-end
numbers.
"""
from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

#: Physical operators counted as joins / as exchanges that actually ran.
JOIN_NODES = {
    "SortMergeJoinExec",
    "BroadcastHashJoinExec",
    "ShuffledHashJoinExec",
    "BroadcastNestedLoopJoinExec",
    "CartesianProductExec",
}
EXCHANGE_NODES = {"ShuffleExchangeExec", "BroadcastExchangeExec"}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    query: Optional[str]
    pass_no: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class GroupCounts:
    """Spark work done by one job group (one phase of one operation)."""

    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    #: Seconds from phase start to the first stage submitted, or None.
    first_stage_s: Optional[float] = None


class Tracer:
    """Records spans and per-phase Spark counters; a no-op when disabled."""

    def __init__(self, enabled: bool, sc=None):
        self.enabled = enabled
        self.sc = sc
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self.query: Optional[str] = None
        self.pass_no: Optional[int] = None
        self._stack: list[Span] = []
        self._gids = itertools.count()
        self._seen_stages: set[int] = set()

    # ------------------------------------------------------------- spans
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        t0 = time.perf_counter()
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, 0.0, None, parent, self.query, self.pass_no, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        self.overhead_s += sp.start - t0
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.overhead_s += time.perf_counter() - sp.end

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span whose Spark jobs run under their own job group; the
        group's counts land in the span's ``attrs`` once it has ended."""
        if not self.enabled:
            yield None
            return
        t0 = time.perf_counter()
        gid = f"perfbench-{next(self._gids)}"
        self.sc.setJobGroup(gid, name)
        epoch0 = time.time()
        self.overhead_s += time.perf_counter() - t0
        try:
            with self.span(name) as sp:
                yield sp
        finally:
            t1 = time.perf_counter()
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
            sp.attrs.update(asdict(self._group_counts(gid, epoch0)))
            self.overhead_s += time.perf_counter() - t1

    def _group_counts(self, gid: str, epoch0: float) -> GroupCounts:
        """Jobs, stages that ran, tasks and failed tasks of one job group.

        ``statusTracker`` lists a job's skipped stages in its ``stageIds``
        too, and shuffle-map stages are shared between jobs, so a stage
        counts once, and only if it ran at least one task.
        """
        st = self.sc.statusTracker()
        jst = self.sc._jsc.statusTracker()
        out = GroupCounts()
        jobs = st.getJobIdsForGroup(gid)
        out.jobs = len(jobs)
        submitted = []
        for jid in jobs:
            info = _settled_job(st, jid)
            for sid in info.stageIds if info else ():
                if sid in self._seen_stages:
                    continue
                stage = st.getStageInfo(sid)
                if stage is None or stage.numCompletedTasks + stage.numFailedTasks == 0:
                    continue
                self._seen_stages.add(sid)
                out.stages += 1
                out.tasks += stage.numCompletedTasks + stage.numFailedTasks
                out.failed_tasks += stage.numFailedTasks
                jinfo = jst.getStageInfo(sid)
                if jinfo is not None and jinfo.submissionTime() > 0:
                    submitted.append(jinfo.submissionTime() / 1000.0)
        if submitted:
            out.first_stage_s = max(0.0, min(submitted) - epoch0)
        return out

    # ----------------------------------------------------- overhead work
    @contextlib.contextmanager
    def overhead(self):
        """Tracer-only work (plan walks, extra counts) charged to overhead."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.overhead_s += time.perf_counter() - t0

    # -------------------------------------------------------- patching
    @contextlib.contextmanager
    def patched(self, targets: list[tuple[type, str, str]]):
        """Wrap ``cls.method`` in a span named ``span_name`` for each
        ``(cls, method, span_name)``; restores the originals on exit."""
        if not self.enabled:
            yield
            return
        saved = []
        for cls, meth, span_name in targets:
            orig = cls.__dict__[meth]
            saved.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, span_name))
        try:
            yield
        finally:
            for cls, meth, orig in reversed(saved):
                setattr(cls, meth, orig)

    def _wrap(self, fn, span_name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            kind = type(args[1]).__name__ if len(args) > 1 else None
            with tracer.span(span_name, kind=kind):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------------- reading
    def children(self, sp: Span) -> list[Span]:
        return [c for c in self.spans if c.parent == sp.id]

    def self_time(self, sp: Span) -> float:
        """Duration minus the part covered by child spans (children run
        one after another on the driver thread, so they never overlap)."""
        return sp.dur - sum(c.dur for c in self.children(sp))

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _settled_job(st, jid: int, timeout_s: float = 10.0):
    """Job info once the status listener has seen the job end (the
    listener bus is asynchronous, so an action can return first)."""
    deadline = time.monotonic() + timeout_s
    info = st.getJobInfo(jid)
    while info is not None and info.status not in ("SUCCEEDED", "FAILED"):
        if time.monotonic() > deadline:
            break
        time.sleep(0.002)
        info = st.getJobInfo(jid)
    return info


def plan_counts(jdf) -> tuple[int, int]:
    """``(joins, exchanges)`` in the final executed plan of a cached
    Dataset: the plan that filled the cache, after adaptive
    re-optimisation, without descending into other cached inputs it read
    (those ran earlier) or counting reused exchanges."""
    joins = exchanges = 0
    entered_cache = False
    stack = [jdf.queryExecution().executedPlan()]
    while stack:
        node = stack.pop()
        name = node.getClass().getSimpleName()
        if name == "AdaptiveSparkPlanExec":
            stack.append(node.executedPlan())
            continue
        if name.endswith("QueryStageExec"):
            stack.append(node.plan())
            continue
        if name == "InMemoryTableScanExec":
            if not entered_cache:
                entered_cache = True
                stack.append(node.relation().cacheBuilder().cachedPlan())
            continue
        joins += name in JOIN_NODES
        exchanges += name in EXCHANGE_NODES
        kids = node.children()
        stack.extend(kids.apply(i) for i in range(kids.size()))
    return joins, exchanges
