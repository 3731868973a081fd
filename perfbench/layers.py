"""Per-layer timing by wrapping each layer's public entry points.

Nothing inside ``src/`` is instrumented.  :func:`install` replaces the
names the runner, the Fig. 8 experiment and the daemon's engine pool call
(``build_program``, ``execute_program``, ``insert_prefetches``, the
sampler, ``StatStackModel``, ``PrefetchOptimizer.analyze``,
``CacheHierarchy.run``, ``MulticoreSimulator.run`` and the hardware
prefetchers the factories return) with thin wrappers that record spans
into a :class:`LayerTrace`; :meth:`Patches.undo` puts the originals
back.  The wrappers return exactly what they wrap, so a traced run must
reproduce the untraced run's simulated statistics bit for bit.

A layer's *self* time is its span's duration minus the time of the
spans nested inside it: ``cachesim.self_s`` is ``CacheHierarchy.run``
minus the prefetcher's ``observe`` calls it made.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: The eight solo configurations the benchmark times separately.
SOLO_CONFIGS = ("baseline", "hw", "hwx", "sw", "swnt", "stride", "swi", "hwsw")
#: ``EngineStats`` fields reported as ``engine.<field>``.
ENGINE_KEYS = ("computed", "memo_hits", "failed", "retries", "fallbacks", "batches")


class LayerTrace:
    """Busy seconds (total and self) and counts, keyed by span name."""

    def __init__(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        #: Open spans, innermost last: ``[name, start, child_seconds]``.
        self._stack: list[list] = []
        #: Configuration of the cell being computed (for per-config time).
        self.config: str | None = None

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> float:
        elapsed = time.perf_counter() - frame[1]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name = frame[0]
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def leaf(self, name: str, elapsed: float) -> None:
        """Account a span that opened no children (the hot-path form)."""
        self.total[name] += elapsed
        self.self_time[name] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def busy_self_seconds(self) -> float:
        """Seconds covered by any span (self times partition them)."""
        return sum(self.self_time.values())

    def table(self, wall: float) -> dict[str, float]:
        """The per-layer metric table for ``wall`` seconds of traced work."""
        t, s, c = self.total, self.self_time, self.counts
        table = {
            "workloads.build_s": t["workloads.build"],
            "isa.execute_s": t["isa.execute"],
            "isa.execute_calls": c["isa.execute"],
            "sampling.sample_s": t["sampling.sample"],
            "sampling.reuse_samples": c["sampling.reuse_samples"],
            "statstack.model_s": t["statstack.model"],
            "core.analyze_s": s["core.analyze"],
            "core.delinquent": c["core.delinquent"],
            "core.decisions": c["core.decisions"],
            "core.nta_decisions": c["core.nta_decisions"],
            "isa.rewrite_s": t["isa.rewrite"],
            "isa.rewrite_calls": c["isa.rewrite"],
            "cachesim.run_s": t["cachesim.run"],
            "cachesim.self_s": s["cachesim.run"],
            "cachesim.events": c["cachesim.events"],
        }
        for config in SOLO_CONFIGS:
            table[f"cachesim.run_s.{config}"] = t[f"cachesim.run.{config}"]
        table.update(
            {
                "hwpref.observe_s": t["hwpref.observe"],
                "hwpref.observe_calls": c["hwpref.observe"],
                "hwpref.requests": c["hwpref.requests"],
                "multicore.run_s": t["multicore.run"],
                "multicore.self_s": s["multicore.run"],
                "multicore.events": c["multicore.events"],
                "runner.other_s": max(0.0, wall - self.busy_self_seconds()),
            }
        )
        return table


#: Seconds-valued entries of :meth:`LayerTrace.table` that are layer self
#: times (the rest are totals that overlap them); shares of wall time in
#: the run record are taken over these.
SELF_TIME_KEYS = (
    "workloads.build_s",
    "isa.execute_s",
    "sampling.sample_s",
    "statstack.model_s",
    "core.analyze_s",
    "isa.rewrite_s",
    "cachesim.self_s",
    "hwpref.observe_s",
    "multicore.self_s",
    "runner.other_s",
)


def _span(trace: LayerTrace, name: str, fn):
    def wrapped(*args, **kwargs):
        frame = trace.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            trace.leave(frame)
            trace.counts[name] += 1

    return wrapped


def _wrap_prefetcher(trace: LayerTrace, prefetcher):
    """Time ``observe``/``observe_batch`` on one prefetcher instance."""
    if prefetcher is None:
        return prefetcher
    counts = trace.counts
    perf = time.perf_counter
    observe = prefetcher.observe
    observe_batch = prefetcher.observe_batch

    def timed_observe(pc, addr, line, l1_hit):
        start = perf()
        requests = observe(pc, addr, line, l1_hit)
        trace.leaf("hwpref.observe", perf() - start)
        counts["hwpref.observe"] += 1
        counts["hwpref.requests"] += len(requests)
        return requests

    def timed_observe_batch(*args, **kwargs):
        start = perf()
        result = observe_batch(*args, **kwargs)
        trace.leaf("hwpref.observe", perf() - start)
        counts["hwpref.observe"] += 1
        counts["hwpref.requests"] += len(result[0])
        return result

    prefetcher.observe = timed_observe
    prefetcher.observe_batch = timed_observe_batch
    return prefetcher


class Patches:
    """Attribute replacements to undo, most recent first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def install(trace: LayerTrace) -> Patches:
    """Wrap every layer entry point; ``.undo()`` the result to unwrap them."""
    from repro.cachesim.hierarchy import CacheHierarchy
    from repro.core import pipeline
    from repro.experiments import fig8_mix_detail as fig8
    from repro.experiments import runner
    from repro.multicore.simulator import MulticoreSimulator
    from repro.sampling.sampler import RuntimeSampler

    patches = Patches()
    for module in (runner, fig8):
        patches.set(
            module, "execute_program", _span(trace, "isa.execute", module.execute_program)
        )
        patches.set(
            module, "insert_prefetches",
            _span(trace, "isa.rewrite", module.insert_prefetches),
        )
    patches.set(runner, "build_program", _span(trace, "workloads.build", runner.build_program))

    sample = RuntimeSampler.sample

    def timed_sample(self, trace_events):
        frame = trace.enter("sampling.sample")
        try:
            result = sample(self, trace_events)
        finally:
            trace.leave(frame)
        trace.counts["sampling.reuse_samples"] += len(result.reuse)
        return result

    patches.set(RuntimeSampler, "sample", timed_sample)

    model_cls = pipeline.StatStackModel

    class TimedStatStackModel(model_cls):
        def __init__(self, *args, **kwargs):
            frame = trace.enter("statstack.model")
            try:
                super().__init__(*args, **kwargs)
            finally:
                trace.leave(frame)

    patches.set(pipeline, "StatStackModel", TimedStatStackModel)

    def planning(plan_fn):
        def timed_plan(*args, **kwargs):
            frame = trace.enter("core.analyze")
            try:
                report = plan_fn(*args, **kwargs)
            finally:
                trace.leave(frame)
            trace.counts["core.delinquent"] += len(report.delinquent)
            trace.counts["core.decisions"] += len(report.decisions)
            trace.counts["core.nta_decisions"] += sum(1 for d in report.decisions if d.nta)
            return report

        return timed_plan

    patches.set(
        pipeline.PrefetchOptimizer, "analyze", planning(pipeline.PrefetchOptimizer.analyze)
    )
    patches.set(runner, "stride_centric_plan", planning(runner.stride_centric_plan))

    run = CacheHierarchy.run

    def timed_run(self, events, *args, **kwargs):
        frame = trace.enter("cachesim.run")
        try:
            return run(self, events, *args, **kwargs)
        finally:
            elapsed = trace.leave(frame)
            trace.counts["cachesim.events"] += len(events)
            if trace.config is not None:
                trace.total[f"cachesim.run.{trace.config}"] += elapsed

    patches.set(CacheHierarchy, "run", timed_run)

    multicore_run = MulticoreSimulator.run

    def timed_multicore_run(self, *args, **kwargs):
        frame = trace.enter("multicore.run")
        try:
            return multicore_run(self, *args, **kwargs)
        finally:
            trace.leave(frame)
            trace.counts["multicore.events"] += sum(len(c.trace) for c in self.cores)

    patches.set(MulticoreSimulator, "run", timed_multicore_run)

    compute_run = runner.compute_run

    def config_scoped_compute_run(spec):
        previous, trace.config = trace.config, spec.config
        try:
            return compute_run(spec)
        finally:
            trace.config = previous

    patches.set(runner, "compute_run", config_scoped_compute_run)

    for module, name in (
        (runner, "hw_prefetcher_for"),
        (runner, "cross_core_prefetcher_for"),
        (fig8, "hw_prefetcher_for"),
    ):
        factory = module.__dict__[name]

        def wrapped_factory(*args, _factory=factory, **kwargs):
            return _wrap_prefetcher(trace, _factory(*args, **kwargs))

        patches.set(module, name, wrapped_factory)
    return patches
