"""Single-core three-level cache hierarchy with timing.

This is the workhorse simulator behind the single-benchmark experiments
(paper Figs. 4–6).  It models:

* L1/L2/LLC set-associative LRU caches (mostly-inclusive fill policy);
* demand access timing — ``Δ`` cycles per memory operation plus the
  service latency of the level that provides the data, divided by a
  memory-level-parallelism factor (dependent pointer chases expose the
  full latency, streaming code overlaps several misses);
* software prefetches with *in-flight tracking*: a prefetch issued too
  close to its demand access only hides part of the latency (late
  prefetch), which is how the paper's prefetch-distance formula is
  exercised end to end;
* ``PREFETCHNTA`` semantics: the line is installed in L1 only and is
  dropped on eviction, never occupying L2/LLC — the cache-bypassing
  mechanism of paper §VI-B;
* a hardware prefetcher model observing the L1 miss stream and filling
  L2/LLC speculatively;
* off-chip traffic and bandwidth-dependent DRAM latency through
  :class:`~repro.cachesim.bandwidth.BandwidthModel`.

The per-event loop reads the trace through memoryviews, probes each
level with one O(1) dict-based call and keeps per-event constants as
attributes.  On the benchmark's scale-0.05 grid cells (2-CPU Intel Xeon
host, CPython 3.11) it simulates 1000 events in about 2.2–2.4 ms with a
software plan and no hardware prefetcher, 3.7 ms for the plain demand
stream, and 5–9 ms with a hardware prefetcher, whose model takes most of
that.  It is the only hierarchy simulator, and the multicore driver calls
the same handlers; ``tests/test_hierarchy_digests.py`` pins its results
on seeded traces for every event kind and prefetcher model.
"""

from __future__ import annotations

from repro import obs
from repro.cachesim.bandwidth import BandwidthModel
from repro.cachesim.lru import (
    FLAG_DIRTY,
    FLAG_HW_PREFETCH,
    FLAG_NTA,
    FLAG_REFERENCED,
    FLAG_SW_PREFETCH,
    LRUCache,
)
from repro.cachesim.stats import RunStats
from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.hwpref.base import HardwarePrefetcher, NullPrefetcher
from repro.trace.events import MemOp, MemoryTrace

__all__ = ["CacheHierarchy"]


class CacheHierarchy:
    """One core's private L1/L2 plus an (optionally shared) LLC.

    Parameters
    ----------
    machine:
        Machine description (geometry, latencies, Δ, α).
    prefetcher:
        Hardware prefetcher model; defaults to disabled
        (:class:`~repro.hwpref.base.NullPrefetcher`), the paper's baseline.
    bandwidth:
        Shared memory-controller model.  Supply one instance to several
        hierarchies to model cores contending for off-chip bandwidth; by
        default a private model is created.
    llc:
        Pass a pre-built LLC to share it between hierarchies (multicore
        mode); by default a private LLC is created.
    """

    def __init__(
        self,
        machine: MachineConfig,
        prefetcher: HardwarePrefetcher | None = None,
        bandwidth: BandwidthModel | None = None,
        llc: LRUCache | None = None,
    ) -> None:
        self.machine = machine
        self.prefetcher = prefetcher if prefetcher is not None else NullPrefetcher()
        self.l1 = LRUCache(machine.l1)
        self.l2 = LRUCache(machine.l2)
        self.llc = llc if llc is not None else LRUCache(machine.llc)
        self.bandwidth = (
            bandwidth if bandwidth is not None else BandwidthModel(machine.bytes_per_cycle())
        )
        self.now: float = 0.0
        self._inflight: dict[int, float] = {}
        self._line_shift = machine.line_bytes.bit_length() - 1
        # Per-event constants, read once instead of through
        # ``self.machine`` on every access.
        self._line_bytes = machine.line_bytes
        self._l2_latency = machine.l2.hit_latency
        self._llc_latency = machine.llc.hit_latency
        self._dram_latency = machine.dram_latency
        self._prefetch_cost = machine.prefetch_cost
        # Whether demand accesses are shown to the prefetcher is fixed
        # here: a NullPrefetcher issues nothing, so it is not called.
        self._observed = not isinstance(self.prefetcher, NullPrefetcher)
        # write-combining buffer for non-temporal stores (4 entries,
        # like x86 WC buffers): consecutive NT writes to the same line
        # merge into one off-chip transfer.
        self._wc_buffer: list[int] = []

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def run(
        self,
        trace: MemoryTrace,
        work_per_memop: float = 2.0,
        mlp: float = 2.0,
        stats: RunStats | None = None,
    ) -> RunStats:
        """Simulate ``trace`` to completion and return statistics.

        Parameters
        ----------
        trace:
            Events in program order.
        work_per_memop:
            Average non-memory instructions executed per memory
            operation; charged at the machine's base CPI.
        mlp:
            Memory-level parallelism — how many outstanding misses the
            core overlaps.  Miss stalls are divided by this factor.
        stats:
            Accumulate into an existing :class:`RunStats` (used when a
            run is split into chunks); a fresh one is created otherwise.
        """
        if mlp < 1.0:
            raise SimulationError("mlp must be >= 1")
        if work_per_memop < 0.0:
            raise SimulationError("work_per_memop must be non-negative")
        if stats is None:
            stats = RunStats(line_bytes=self.machine.line_bytes)
        with obs.span(
            "cachesim.run", machine=self.machine.name, events=len(trace)
        ) as run_span:
            self._run_events(trace, work_per_memop, mlp, stats)
            if obs.enabled():
                obs.metrics().counter("sim.hierarchy.events").inc(len(trace))
            run_span.set(cycles=stats.cycles)
        return stats

    def _run_events(
        self,
        trace: MemoryTrace,
        work_per_memop: float,
        mlp: float,
        stats: RunStats,
    ) -> None:
        shift = self._line_shift
        demand_cost = (
            self.machine.cycles_per_memop + self.machine.cpi_base * work_per_memop
        )
        store_op = int(MemOp.STORE)
        nta_op = int(MemOp.PREFETCH_NTA)
        store_nt_op = int(MemOp.STORE_NT)
        demand_access = self._demand_access
        nt_store = self._nt_store
        sw_prefetch = self._sw_prefetch

        n_demand = 0
        n_prefetch = 0
        # memoryviews of the read-only trace arrays yield Python ints
        # without copying the trace (``tolist`` would, at ~60 B/event).
        for pc, addr, op in zip(
            memoryview(trace.pc), memoryview(trace.addr), memoryview(trace.op)
        ):
            line = addr >> shift
            if op <= store_op:
                n_demand += 1
                demand_access(pc, addr, line, op == store_op, demand_cost, mlp, stats)
            elif op == store_nt_op:
                n_demand += 1
                nt_store(pc, line, demand_cost, stats)
            else:
                n_prefetch += 1
                sw_prefetch(line, op == nta_op, stats)

        stats.instructions += int(n_demand * (1.0 + work_per_memop)) + n_prefetch
        stats.cycles = self.now

    def drain_writebacks(self, stats: RunStats) -> int:
        """Account writebacks of dirty lines still resident at run end.

        Without this, a configuration that parks dirty data in the LLC
        looks cheaper than one (e.g. NTA) that wrote it back eagerly —
        the bytes must reach DRAM either way.  Returns the number of
        lines drained.
        """
        dirty: set[int] = set()
        for cache in (self.l1, self.l2, self.llc):
            for line in cache.resident_lines():
                flags = cache.peek_flags(line)
                if flags is not None and flags & FLAG_DIRTY:
                    dirty.add(line)
        self.bandwidth.charge_batch(self.now, self.machine.line_bytes, len(dirty))
        stats.dram_writebacks += len(dirty)
        return len(dirty)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _demand_access(
        self,
        pc: int,
        addr: int,
        line: int,
        is_write: bool,
        demand_cost: float,
        mlp: float,
        stats: RunStats,
    ) -> None:
        self.now += demand_cost
        write_flag = FLAG_DIRTY if is_write else 0
        stats.l1.accesses += 1

        l1_flags = self.l1.access(line, FLAG_REFERENCED | write_flag)
        if l1_flags is not None:
            # A hit on an in-flight prefetched line stalls for the
            # remaining fetch time (late prefetch).
            completion = self._inflight.pop(line, None)
            if completion is not None and completion > self.now:
                # Late prefetch: the remaining fetch time stalls the
                # core, overlapped with other outstanding misses.
                self.now += (completion - self.now) / mlp
                stats.sw_late += 1
            if l1_flags & FLAG_SW_PREFETCH and not l1_flags & FLAG_REFERENCED:
                stats.sw_useful += 1
            stats.pc_l1.record(pc, False)
            if self._observed:
                self._hw_observe(pc, addr, line, True, stats)
            return

        stats.l1.misses += 1
        stats.pc_l1.record(pc, True)
        if self._observed:
            self._hw_observe(pc, addr, line, False, stats)
        self._demand_miss(line, write_flag, mlp, stats)

    def _demand_miss(
        self,
        line: int,
        write_flag: int,
        mlp: float,
        stats: RunStats,
    ) -> None:
        """Service an L1 miss from L2, the LLC or DRAM."""
        fill_flags = FLAG_REFERENCED | write_flag
        stats.l2.accesses += 1
        l2_flags = self.l2.access(line, fill_flags)
        if l2_flags is not None:
            if l2_flags & FLAG_HW_PREFETCH and not l2_flags & FLAG_REFERENCED:
                stats.hw_useful += 1
            completion = self._inflight.pop(line, None)
            if completion is not None and completion > self.now:
                self.now += (completion - self.now) / mlp
            else:
                self.now += self._l2_latency / mlp
            self._install_l1(line, fill_flags, stats)
            return

        stats.l2.misses += 1
        stats.llc.accesses += 1
        llc_flags = self.llc.access(line, fill_flags)
        if llc_flags is not None:
            if llc_flags & FLAG_HW_PREFETCH and not llc_flags & FLAG_REFERENCED:
                stats.hw_useful += 1
            completion = self._inflight.pop(line, None)
            if completion is not None and completion > self.now:
                self.now += (completion - self.now) / mlp
            else:
                self.now += self._llc_latency / mlp
            self._install_l2(line, fill_flags, stats)
            self._install_l1(line, fill_flags, stats)
            return

        stats.llc.misses += 1
        start, duration = self.bandwidth.transfer(self.now, self._line_bytes)
        stats.dram_fills += 1
        # Queueing behind earlier transfers (start - now) is a
        # throughput limit that parallelism cannot hide and is paid in
        # full; the pipelined transfer + access latency overlaps across
        # the core's outstanding misses.
        self.now = start + (duration + self._dram_latency) / mlp
        self._install_llc(line, fill_flags, stats)
        self._install_l2(line, fill_flags, stats)
        self._install_l1(line, fill_flags, stats)

    def _nt_store(self, pc: int, line: int, demand_cost: float, stats: RunStats) -> None:
        """Non-temporal store: write-combine straight to DRAM.

        No read-for-ownership fill, no caching; any cached copy is
        invalidated (superseded by the full-line write).  The write is
        posted — it occupies a controller slot but does not stall the
        core.
        """
        self.now += demand_cost
        stats.l1.accesses += 1
        stats.pc_l1.record(pc, False)
        self.l1.invalidate(line)
        self.l2.invalidate(line)
        self.llc.invalidate(line)
        self._inflight.pop(line, None)
        if line in self._wc_buffer:
            return  # merged into an open write-combining entry
        self._wc_buffer.append(line)
        if len(self._wc_buffer) > 4:
            self._wc_buffer.pop(0)
        self.bandwidth.transfer(self.now, self._line_bytes)
        stats.nt_store_writes += 1

    def _sw_prefetch(self, line: int, nta: bool, stats: RunStats) -> None:
        self.now += self._prefetch_cost
        stats.sw_prefetches += 1
        if self.l1.contains(line):
            return
        # Fetch from the nearest level that has the line.
        if self.l2.lookup(line):
            completion = self.now + self._l2_latency
        elif self.llc.lookup(line):
            completion = self.now + self._llc_latency
        else:
            start, duration = self.bandwidth.transfer(self.now, self._line_bytes)
            stats.dram_fills += 1
            if nta:
                stats.nta_fills += 1
            completion = start + duration + self._dram_latency
            if not nta:
                # An ordinary prefetch from DRAM installs through the
                # hierarchy; NTA bypasses L2/LLC entirely.
                self._install_llc(line, FLAG_SW_PREFETCH, stats)
                self._install_l2(line, FLAG_SW_PREFETCH, stats)
        flags = FLAG_SW_PREFETCH | (FLAG_NTA if nta else 0)
        self._install_l1(line, flags, stats)
        self._inflight[line] = completion

    def _hw_observe(self, pc: int, addr: int, line: int, l1_hit: bool, stats: RunStats) -> None:
        # ``observe`` is looked up on every call, not bound once, so a
        # wrapper installed on the prefetcher instance sees every access.
        requests = self.prefetcher.observe(pc, addr, line, l1_hit)
        if not requests:
            return
        l2_contains = self.l2.contains
        llc_contains = self.llc.contains
        for req in requests:
            target = req.line
            if l2_contains(target):
                continue
            stats.hw_prefetches += 1
            if llc_contains(target):
                # Promote into L2 only; no off-chip traffic.
                if req.fill_l2:
                    self._install_l2(target, FLAG_HW_PREFETCH, stats)
                continue
            start, duration = self.bandwidth.transfer(self.now, self._line_bytes)
            stats.dram_fills += 1
            self._inflight[target] = start + duration + self._dram_latency
            if not req.llc_bypass:
                # A coordinator-retargeted (NTA) fill skips the shared
                # LLC, conserving neighbours' space like PREFETCHNTA.
                self._install_llc(target, FLAG_HW_PREFETCH, stats)
            if req.fill_l2:
                self._install_l2(target, FLAG_HW_PREFETCH, stats)

    # ------------------------------------------------------------------
    # fills and evictions
    # ------------------------------------------------------------------

    def _install_l1(self, line: int, flags: int, stats: RunStats) -> None:
        victim = self.l1.install(line, flags)
        if victim is None:
            return
        v_line, v_flags = victim
        self._inflight.pop(v_line, None)
        if v_flags & FLAG_SW_PREFETCH and not v_flags & FLAG_REFERENCED:
            stats.sw_useless += 1
        if v_flags & FLAG_NTA:
            # NTA lines bypass the outer levels: dirty ones go straight
            # to DRAM, clean ones are simply dropped.
            if v_flags & FLAG_DIRTY:
                stats.dram_writebacks += 1
                self.bandwidth.transfer(self.now, self._line_bytes)
            return
        if v_flags & FLAG_DIRTY:
            if not self.l2.touch_flags(v_line, FLAG_DIRTY):
                if not self.llc.touch_flags(v_line, FLAG_DIRTY):
                    stats.dram_writebacks += 1
                    self.bandwidth.transfer(self.now, self._line_bytes)

    def _install_l2(self, line: int, flags: int, stats: RunStats) -> None:
        victim = self.l2.install(line, flags)
        if victim is None:
            return
        v_line, v_flags = victim
        if v_flags & FLAG_DIRTY:
            if not self.llc.touch_flags(v_line, FLAG_DIRTY):
                stats.dram_writebacks += 1
                self.bandwidth.transfer(self.now, self._line_bytes)

    def _install_llc(self, line: int, flags: int, stats: RunStats) -> None:
        victim = self.llc.install(line, flags)
        if victim is None:
            return
        v_line, v_flags = victim
        if v_flags & FLAG_HW_PREFETCH and not v_flags & FLAG_REFERENCED:
            stats.hw_useless += 1
        if v_flags & FLAG_DIRTY:
            stats.dram_writebacks += 1
            self.bandwidth.transfer(self.now, self._line_bytes)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Flush all caches and clear prefetcher/bandwidth state."""
        self.l1.flush()
        self.l2.flush()
        self.llc.flush()
        self._inflight.clear()
        self._wc_buffer.clear()
        self.prefetcher.reset()
        self.bandwidth.reset()
        self.now = 0.0
