"""Functional (timing-free) cache simulation.

Plays the role of the Pin-based functional simulator the paper uses as
ground truth (paper §IV): it simulates one cache level over the *demand*
accesses of a trace and reports exact per-instruction miss counts.  Both
Table I (prefetch coverage) and the StatStack validation experiment
compare model output against this simulator.

The simulation is one per-event loop over the dict-based
:class:`~repro.cachesim.lru.LRUCache`.  ``repro validate`` checks it
against an independent oracle: LRU stack distances, computed per set
(``repro.validate.differential``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.cachesim.lru import LRUCache
from repro.cachesim.stats import PCStats
from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.trace.events import MemoryTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.statstack.mrc import MissRatioCurve

__all__ = [
    "FunctionalCacheSim",
    "simulate_miss_ratios",
    "fully_associative_config",
    "simulate_miss_ratio_curve",
]


class FunctionalCacheSim:
    """Exact per-PC hit/miss simulation of a single cache level.

    Parameters
    ----------
    config:
        Cache geometry.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.cache = LRUCache(config)
        self.stats = PCStats()
        #: Per-event miss vector of the most recent :meth:`run` (over the
        #: simulated view: demand-only unless ``honor_prefetches``).
        self.last_miss: np.ndarray = np.zeros(0, dtype=bool)

    def run(self, trace: MemoryTrace, honor_prefetches: bool = False) -> PCStats:
        """Simulate ``trace``; returns per-PC demand stats.

        With ``honor_prefetches=False`` (default) software prefetch
        events are ignored — the ground-truth simulator observes the
        original, unoptimised program, exactly like the paper's Pin
        tool.  With ``honor_prefetches=True`` prefetch events install
        their line (timing-free) and, like a real prefetch hitting in
        the cache, *refresh the LRU recency* of an already-resident
        line — which measures how many demand misses a prefetch plan
        removes, the paper's coverage metric.
        """
        view = trace if honor_prefetches else trace.demand_only()
        lines = view.line_addr(self.config.line_bytes)
        pcs = view.pc
        is_demand = view.demand_mask
        with obs.span(
            "cachesim.functional", level=self.config.name, events=len(view)
        ):
            miss = self._run_reference(lines, is_demand)
            if obs.enabled():
                obs.metrics().counter("sim.functional.events").inc(len(view))
        self.last_miss = miss
        self.stats.record_bulk(pcs[is_demand], miss[is_demand])
        return self.stats

    def _run_reference(self, lines: np.ndarray, is_demand: np.ndarray) -> np.ndarray:
        """Per-event oracle loop over the dict-based LRU cache.

        Demand and prefetch events have identical cache-state effects —
        a recency-refreshing probe, install on miss (a prefetch that
        hits a resident line promotes it to MRU, like real hardware) —
        they differ only in which rows feed the per-PC stats, which the
        caller filters.  Kept in the original one-event-at-a-time form
        on purpose: this is the ground truth StatStack is checked
        against, so clarity beats speed here.
        """
        cache = self.cache
        miss = np.zeros(len(lines), dtype=bool)
        for i in range(len(lines)):
            line = int(lines[i])
            if is_demand[i]:
                if not cache.lookup(line):
                    miss[i] = True
                    cache.install(line)
            elif not cache.lookup(line):
                # Prefetch miss: fetch and install the line (timing-free).
                miss[i] = True
                cache.install(line)
        return miss

    def miss_ratio(self) -> float:
        """Overall demand miss ratio observed so far."""
        return self.stats.overall_miss_ratio()


def fully_associative_config(
    size_bytes: int,
    line_bytes: int = 64,
    name: str = "FA",
) -> CacheConfig:
    """A fully associative cache of ``size_bytes`` (``ways == num_lines``).

    This is the geometry StatStack models — one LRU stack, no set
    conflicts — so the conformance harness simulates it when comparing
    model output against exact simulation.
    """
    if size_bytes <= 0 or size_bytes % line_bytes:
        raise SimulationError(
            f"size_bytes must be a positive multiple of line_bytes, got {size_bytes}"
        )
    return CacheConfig(
        name=name,
        size_bytes=size_bytes,
        ways=size_bytes // line_bytes,
        line_bytes=line_bytes,
    )


def simulate_miss_ratio_curve(
    trace: MemoryTrace,
    sizes_bytes: Sequence[int] | np.ndarray,
    line_bytes: int = 64,
) -> "MissRatioCurve":
    """Exact fully-associative LRU miss-ratio curve of ``trace``.

    One fresh :class:`FunctionalCacheSim` per size — the simulated
    ground truth the StatStack curves are validated against (paper
    Fig. 3 / §IV).  Returns a
    :class:`~repro.statstack.mrc.MissRatioCurve` over ``sizes_bytes``.
    """
    from repro.statstack.mrc import MissRatioCurve

    demand = trace.demand_only()
    ratios = []
    with obs.span("cachesim.mrc", sizes=len(sizes_bytes), events=len(demand)):
        for size in sizes_bytes:
            sim = FunctionalCacheSim(fully_associative_config(int(size), line_bytes))
            stats = sim.run(demand)
            ratios.append(stats.overall_miss_ratio())
    return MissRatioCurve(np.asarray(sizes_bytes, dtype=np.int64), np.array(ratios))


def simulate_miss_ratios(
    trace: MemoryTrace,
    config: CacheConfig,
) -> tuple[float, dict[int, float], PCStats]:
    """Convenience wrapper: run a functional simulation of one level.

    Returns ``(overall_miss_ratio, per_pc_miss_ratio, raw_stats)``.
    """
    sim = FunctionalCacheSim(config)
    stats = sim.run(trace)
    per_pc = {int(pc): stats.miss_ratio(int(pc)) for pc in stats.accesses}
    return stats.overall_miss_ratio(), per_pc, stats
