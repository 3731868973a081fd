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
        shift = machine.line_bytes.bit_length() - 1
        store_op = int(MemOp.STORE)
        nta_op = int(MemOp.PREFETCH_NTA)
        store_nt_op = int(MemOp.STORE_NT)

        states = []
        heap: list[tuple[float, int]] = []
        for idx, (spec, hier) in enumerate(zip(self.cores, self.hierarchies)):
            stats = RunStats(line_bytes=machine.line_bytes)
            demand_cost = (
                machine.cycles_per_memop + machine.cpi_base * spec.work_per_memop
            )
            states.append(
                {
                    "spec": spec,
                    "hier": hier,
                    "stats": stats,
                    "pos": 0,
                    "demand_cost": demand_cost,
                    "n_demand": 0,
                    "n_prefetch": 0,
                }
            )
            if len(spec.trace):
                heapq.heappush(heap, (0.0, idx))

        coordinator = self.coordinator
        epoch_events = self.epoch_events
        events_since_epoch = 0
        epoch_prev = [(0, 0, 0) for _ in states]

        while heap:
            _, idx = heapq.heappop(heap)
            st = states[idx]
            spec: CoreSpec = st["spec"]
            hier: CacheHierarchy = st["hier"]
            trace = spec.trace
            pos = st["pos"]
            op = trace.op[pos]
            addr = int(trace.addr[pos])
            line = addr >> shift
            if op <= store_op:
                st["n_demand"] += 1
                hier._demand_access(
                    int(trace.pc[pos]),
                    addr,
                    line,
                    op == store_op,
                    st["demand_cost"],
                    spec.mlp,
                    st["stats"],
                )
            elif op == store_nt_op:
                st["n_demand"] += 1
                hier._nt_store(int(trace.pc[pos]), line, st["demand_cost"], st["stats"])
            else:
                st["n_prefetch"] += 1
                hier._sw_prefetch(line, op == nta_op, st["stats"])
            st["pos"] = pos + 1
            if st["pos"] < len(trace):
                heapq.heappush(heap, (hier.now, idx))
            if coordinator is not None:
                events_since_epoch += 1
                if events_since_epoch >= epoch_events:
                    events_since_epoch = 0
                    epoch_prev = self._control_epoch(states, epoch_prev)

        results: list[RunStats] = []
        for st in states:
            stats: RunStats = st["stats"]
            spec = st["spec"]
            stats.instructions = (
                int(st["n_demand"] * (1.0 + spec.work_per_memop)) + st["n_prefetch"]
            )
            stats.cycles = st["hier"].now
            if drain:
                st["hier"].drain_writebacks(stats)
            results.append(stats)

        return MulticoreResult(
            per_core=results,
            names=[spec.name for spec in self.cores],
            total_bytes=self.bandwidth.total_bytes,
            makespan_cycles=max(s.cycles for s in results),
        )

    def _control_epoch(
        self,
        states: list[dict],
        prev: list[tuple[int, int, int]],
    ) -> list[tuple[int, int, int]]:
        """Run one coordinator decision and retune every prefetcher.

        ``prev`` holds each core's (transfers, prefetches, insertions)
        counters at the previous epoch boundary; this epoch's feedback
        is computed from the deltas since then.
        """
        llc_bytes = float(self.machine.llc.size_bytes)
        snap = []
        deltas = []
        for st, (p_tr, p_pf, p_ins) in zip(states, prev):
            stats: RunStats = st["stats"]
            transfers = stats.dram_fills + stats.dram_writebacks
            prefetches = stats.hw_prefetches
            inserts = stats.llc_insertions
            snap.append((transfers, prefetches, inserts))
            deltas.append((transfers - p_tr, prefetches - p_pf, inserts - p_ins))

        total_traffic = sum(d[0] for d in deltas)
        total_inserts = sum(d[2] for d in deltas)
        n = len(states)
        feedback = []
        for st, (d_tr, d_pf, d_ins) in zip(states, deltas):
            spec: CoreSpec = st["spec"]
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
        for st, tuning in zip(states, tunings):
            prefetcher = st["spec"].prefetcher
            if prefetcher is not None:
                prefetcher.apply_tuning(tuning)
        return snap
