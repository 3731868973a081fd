"""Direct multicore simulation: N cores, shared LLC, shared bandwidth.

Each core owns a :class:`~repro.cachesim.hierarchy.CacheHierarchy` whose
LLC object and memory-controller queue are *shared* between all cores —
so one core's fills evict another core's lines (LLC contention) and one
core's transfers delay everyone's (bandwidth contention), the two
mechanisms the paper's mixed-workload evaluation exercises.

Scheduling is clock-driven: at every step the core with the smallest
local clock executes its next trace event, which interleaves the cores'
memory streams in simulated-time order (a core stalled on DRAM naturally
falls behind and yields the shared resources).  Cores that finish their
trace drop out; the mix result records each core's completion time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro import obs
from repro.cachesim.bandwidth import BandwidthModel
from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.lru import LRUCache
from repro.cachesim.stats import RunStats
from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.hwpref.base import HardwarePrefetcher
from repro.multicore.coordinator import Coordinator, CoreFeedback, note_decisions
from repro.statstack.mrc import MissRatioCurve
from repro.trace.events import MemOp, MemoryTrace

__all__ = ["CoreSpec", "MulticoreResult", "MulticoreSimulator"]


@dataclass
class CoreSpec:
    """One core's program and execution parameters."""

    trace: MemoryTrace
    work_per_memop: float = 2.0
    mlp: float = 2.0
    prefetcher: HardwarePrefetcher | None = None
    name: str = ""
    #: Optional miss-ratio curve; gives a coordinator the core's LLC
    #: marginal utility (without it the gradient reads as zero).
    mrc: MissRatioCurve | None = None


@dataclass
class MulticoreResult:
    """Outcome of one multicore run."""

    per_core: list[RunStats]
    names: list[str]
    total_bytes: int
    makespan_cycles: float

    def achieved_bandwidth_gbs(self, freq_ghz: float) -> float:
        """Average off-chip bandwidth over the mix's makespan."""
        if self.makespan_cycles <= 0:
            return 0.0
        seconds = self.makespan_cycles / (freq_ghz * 1e9)
        return self.total_bytes / seconds / 1e9


class MulticoreSimulator:
    """Clock-ordered interleaved execution of several cores.

    With a ``coordinator``, every ``epoch_events`` processed events the
    simulator snapshots per-core traffic/occupancy deltas, asks the
    coordinator for fresh :class:`~repro.hwpref.base.PrefetchTuning`
    decisions and applies them to each core's prefetcher — the direct
    counterpart of the analytic model's coordinated solve.
    """

    def __init__(
        self,
        machine: MachineConfig,
        cores: list[CoreSpec],
        coordinator: Coordinator | None = None,
        epoch_events: int = 2000,
    ) -> None:
        if not cores:
            raise SimulationError("at least one core required")
        if len(cores) > machine.cores:
            raise SimulationError(
                f"machine has {machine.cores} cores, {len(cores)} requested"
            )
        if epoch_events <= 0:
            raise SimulationError("epoch_events must be positive")
        self.machine = machine
        self.cores = cores
        self.coordinator = coordinator
        self.epoch_events = epoch_events
        self.shared_llc = LRUCache(machine.llc)
        self.bandwidth = BandwidthModel(machine.bytes_per_cycle())
        self.hierarchies = [
            CacheHierarchy(
                machine,
                prefetcher=spec.prefetcher,
                bandwidth=self.bandwidth,
                llc=self.shared_llc,
            )
            for spec in cores
        ]

    def run(self, drain: bool = True) -> MulticoreResult:
        """Execute all cores to completion."""
        machine = self.machine
        cores = self.cores
        hierarchies = self.hierarchies
        shift = machine.line_bytes.bit_length() - 1
        store_op = int(MemOp.STORE)
        nta_op = int(MemOp.PREFETCH_NTA)
        store_nt_op = int(MemOp.STORE_NT)

        # Per-core state lives in parallel lists indexed by core, read
        # through locals in the loop.  memoryviews of the read-only trace
        # arrays yield Python ints without copying the traces.
        pcs = [memoryview(spec.trace.pc) for spec in cores]
        addrs = [memoryview(spec.trace.addr) for spec in cores]
        ops = [memoryview(spec.trace.op) for spec in cores]
        lengths = [len(spec.trace) for spec in cores]
        mlps = [spec.mlp for spec in cores]
        demand_costs = [
            machine.cycles_per_memop + machine.cpi_base * spec.work_per_memop
            for spec in cores
        ]
        per_core = [RunStats(line_bytes=machine.line_bytes) for _ in cores]
        positions = [0] * len(cores)
        n_demand = [0] * len(cores)
        n_prefetch = [0] * len(cores)
        # (clock, core index) keys are unique, so the pop order is fixed;
        # all clocks start at 0.0, so index order is already a heap.
        heap: list[tuple[float, int]] = [(0.0, idx) for idx, n in enumerate(lengths) if n]
        heapreplace = heapq.heapreplace
        heappop = heapq.heappop

        coordinator = self.coordinator
        epoch_events = self.epoch_events
        events_since_epoch = 0
        epoch_prev = [(0, 0, 0) for _ in cores]

        while heap:
            idx = heap[0][1]
            hier = hierarchies[idx]
            stats = per_core[idx]
            pos = positions[idx]
            op = ops[idx][pos]
            addr = addrs[idx][pos]
            line = addr >> shift
            if op <= store_op:
                n_demand[idx] += 1
                hier._demand_access(
                    pcs[idx][pos], addr, line, op == store_op,
                    demand_costs[idx], mlps[idx], stats,
                )
            elif op == store_nt_op:
                n_demand[idx] += 1
                hier._nt_store(pcs[idx][pos], line, demand_costs[idx], stats)
            else:
                n_prefetch[idx] += 1
                hier._sw_prefetch(line, op == nta_op, stats)
            pos += 1
            positions[idx] = pos
            if pos < lengths[idx]:
                heapreplace(heap, (hier.now, idx))
            else:
                heappop(heap)
            if coordinator is not None:
                events_since_epoch += 1
                if events_since_epoch >= epoch_events:
                    events_since_epoch = 0
                    epoch_prev = self._control_epoch(per_core, epoch_prev)

        for idx, (spec, hier, stats) in enumerate(zip(cores, hierarchies, per_core)):
            stats.instructions = (
                int(n_demand[idx] * (1.0 + spec.work_per_memop)) + n_prefetch[idx]
            )
            stats.cycles = hier.now
            if drain:
                hier.drain_writebacks(stats)

        return MulticoreResult(
            per_core=per_core,
            names=[spec.name for spec in cores],
            total_bytes=self.bandwidth.total_bytes,
            makespan_cycles=max(s.cycles for s in per_core),
        )

    def _control_epoch(
        self,
        per_core: list[RunStats],
        prev: list[tuple[int, int, int]],
    ) -> list[tuple[int, int, int]]:
        """Run one coordinator decision and retune every prefetcher.

        ``per_core`` holds each core's statistics so far and ``prev``
        each core's (transfers, prefetches, insertions) counters at the
        previous epoch boundary; this epoch's feedback is computed from
        the deltas since then.
        """
        llc_bytes = float(self.machine.llc.size_bytes)
        snap = []
        deltas = []
        for stats, (p_tr, p_pf, p_ins) in zip(per_core, prev):
            transfers = stats.dram_fills + stats.dram_writebacks
            prefetches = stats.hw_prefetches
            inserts = stats.llc_insertions
            snap.append((transfers, prefetches, inserts))
            deltas.append((transfers - p_tr, prefetches - p_pf, inserts - p_ins))

        total_traffic = sum(d[0] for d in deltas)
        total_inserts = sum(d[2] for d in deltas)
        n = len(per_core)
        feedback = []
        for spec, (d_tr, d_pf, d_ins) in zip(self.cores, deltas):
            bw_share = d_tr / total_traffic if total_traffic > 0 else 1.0 / n
            spec_share = min(1.0, d_pf / d_tr) if d_tr > 0 else 0.0
            llc_share = d_ins / total_inserts if total_inserts > 0 else 1.0 / n
            if spec.mrc is not None:
                lo = max(int(llc_share * llc_bytes), 65536)
                gradient = max(
                    0.0,
                    1.0 - float(spec.mrc.at(2 * lo)) / max(float(spec.mrc.at(lo)), 1e-12),
                )
            else:
                gradient = 0.0
            feedback.append(
                CoreFeedback(
                    name=spec.name,
                    bw_share=bw_share,
                    spec_share=spec_share,
                    mrc_gradient=gradient,
                    llc_share=llc_share,
                )
            )

        rho = self.bandwidth.utilisation()
        with obs.span("coord.decide", policy=self.coordinator.name, cores=n):
            tunings = self.coordinator.decide(feedback, rho)
        if len(tunings) != n:
            raise SimulationError(
                f"coordinator returned {len(tunings)} tunings for {n} cores"
            )
        note_decisions(tunings)
        for spec, tuning in zip(self.cores, tunings):
            prefetcher = spec.prefetcher
            if prefetcher is not None:
                prefetcher.apply_tuning(tuning)
        return snap
