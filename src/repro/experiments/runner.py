"""Single-cell experiment compute layer.

Encodes the paper's evaluation protocol (§VII): one profiling pass on
the *reference* input, analysed per target machine, yields each software
plan, and a cell runs the original or rewritten program with whatever
hardware prefetcher its :data:`~repro.api.CONFIG_TABLE` row names.  The
row's names are resolved here (:func:`plan_from_sampling`,
:func:`prefetcher_for`).

Every cell is addressed by an :class:`~repro.api.ExperimentSpec`.  The
spec-based entry points (:func:`profile_for_spec`, :func:`plan_for_spec`,
:func:`run_spec`) share **one** memo table and, when a persistent
:class:`~repro.cache.ResultCache` is activated (see :func:`set_cache`),
one on-disk store — so the CLI, the parallel engine and the experiment
drivers all reuse each other's work.

Every expensive stage is wrapped in a :func:`repro.obs.span` so traced
runs show where profiling, planning and simulation time goes (see
``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import faults, obs
from repro.api import CONFIG_TABLE, CONFIGS, PLAN_KINDS, ConfigRow, ExperimentSpec
from repro.baselines.stride_centric import stride_centric_plan
from repro.cache import ResultCache
from repro.cachesim.bandwidth import BandwidthModel
from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.stats import RunStats
from repro.config import MachineConfig, get_machine
from repro.core.pipeline import OptimizerSettings, PrefetchOptimizer
from repro.core.report import OptimizationReport
from repro.errors import ExperimentError
from repro.hwpref import (
    amd_hw_prefetcher,
    cross_core_prefetcher_for,
    intel_hw_prefetcher,
)
from repro.isa.interpreter import ExecutionResult, execute_program
from repro.isa.program import Program
from repro.isa.rewriter import insert_prefetches
from repro.sampling.sampler import RuntimeSampler, SamplingResult
from repro.workloads.base import build_program, workload_seed

__all__ = [
    "CONFIGS",
    "PROFILE_RATE",
    "WorkloadProfile",
    "profile_for",
    "profile_for_spec",
    "plan_for_spec",
    "plan_from_sampling",
    "prefetcher_for",
    "compute_run",
    "run_spec",
    "set_cache",
    "get_cache",
    "seed_memo",
    "memo_contains",
    "memo_size",
    "clear_memo",
    "hw_prefetcher_for",
]

#: Sampling rate used for profiling.  The paper samples 1/100k over full
#: SPEC runs (~1e11 references → ~1e6 samples); our traces are ~5e5
#: references, so an equivalent *sample count density per static
#: instruction* needs a proportionally higher rate.
PROFILE_RATE = 2e-3

#: In-process memo of completed cells, shared by every entry point.  A
#: plain dict (not ``lru_cache``) so the parallel engine can seed it
#: with worker-computed and disk-loaded results.
_MEMO: dict[ExperimentSpec, RunStats] = {}

#: The active persistent cache, or ``None`` (process-local memo only).
_CACHE: ResultCache | None = None


def set_cache(cache: ResultCache | None) -> ResultCache | None:
    """Activate (or with ``None``, deactivate) the persistent result cache.

    Returns the previously active cache so callers can restore it.
    """
    global _CACHE
    previous = _CACHE
    _CACHE = cache
    return previous


def get_cache() -> ResultCache | None:
    """The currently active persistent cache, if any."""
    return _CACHE


# The persistent cache is an optimisation: IO trouble (corrupt entry,
# full disk, injected fault) must degrade to a miss or a skipped store,
# never fail a cell whose computation is fine.


def _cache_get_stats(spec: ExperimentSpec):
    if _CACHE is None:
        return None
    try:
        return _CACHE.get_stats(spec, PROFILE_RATE)
    except Exception:
        return None


def _cache_put_stats(spec: ExperimentSpec, stats: RunStats) -> None:
    if _CACHE is None:
        return
    try:
        _CACHE.put_stats(spec, PROFILE_RATE, stats)
    except Exception:
        pass


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything derived from one profiling pass of one workload."""

    program: Program
    execution: ExecutionResult
    sampling: SamplingResult


def profile_for(
    name: str,
    input_set: str = "ref",
    scale: float = 1.0,
    rate: float = PROFILE_RATE,
) -> WorkloadProfile:
    """Build, execute and sample one workload (cached).

    The sampling pass — the only part of profiling that is both
    expensive and machine-independent — is additionally served from the
    persistent cache when one is active.
    """
    # Normalise before the memo so defaulted and explicit arguments hit
    # one cache entry.
    return _profile(name, input_set, float(scale), float(rate))


@lru_cache(maxsize=128)
def _profile(name: str, input_set: str, scale: float, rate: float) -> WorkloadProfile:
    with obs.span(
        "profile.pass", workload=name, input_set=input_set, scale=scale
    ):
        with obs.span("profile.build", workload=name):
            program = build_program(name, input_set, scale)
        seed = workload_seed(name, input_set)
        with obs.span("profile.execute", workload=name) as exec_span:
            execution = execute_program(program, seed=seed)
            exec_span.set(refs=len(execution.trace))
        sampling = None
        if _CACHE is not None:
            try:
                sampling = _CACHE.get_sampling(name, input_set, scale, rate)
            except Exception:
                sampling = None
        if sampling is None:
            sampler = RuntimeSampler(rate=rate, seed=seed & 0xFFFF_FFFF)
            sampling = sampler.sample(execution.trace)
            if _CACHE is not None:
                try:
                    _CACHE.put_sampling(name, input_set, scale, rate, sampling)
                except Exception:
                    pass
        elif obs.enabled():
            obs.metrics().counter("profile.sampling_cache_hits").inc()
        return WorkloadProfile(program, execution, sampling)


def profile_for_spec(spec: ExperimentSpec) -> WorkloadProfile:
    """Profile the workload a spec's cell evaluates (machine-agnostic)."""
    return profile_for(spec.workload, spec.input_set, spec.scale)


#: Plan kind -> MDDLI analysis settings; ``None`` plans with the
#: stride-centric baseline (Luk'02/Wu'02-style insertion) instead.
_PLANNERS: dict[str, OptimizerSettings | None] = {
    "sw": OptimizerSettings(enable_bypass=False),
    "swnt": OptimizerSettings(enable_bypass=True),
    "stride": None,
    "swi": OptimizerSettings(enable_bypass=False, enable_indirect=True),
}


def plan_from_sampling(
    kind: str, sampling: SamplingResult, machine: MachineConfig,
    refs_per_pc=None, indirect_pairs=None,
) -> OptimizationReport:
    """Prefetch plan of one of :data:`PLAN_KINDS` from a sampled profile.

    ``refs_per_pc`` and ``indirect_pairs`` describe the profiled program;
    without them (an inline trace has none) ``swi`` has no ``A[B[i]]``
    pairs to resolve and degrades to the plain rewrite.
    """
    if kind not in PLAN_KINDS:
        raise ExperimentError(f"unknown plan kind {kind!r}; valid: {PLAN_KINDS}")
    settings = _PLANNERS[kind]
    if settings is None:
        return stride_centric_plan(sampling, machine)
    return PrefetchOptimizer(machine, settings).analyze(
        sampling, refs_per_pc=refs_per_pc, indirect_pairs=indirect_pairs
    )


@lru_cache(maxsize=256)
def _plan(name: str, machine_name: str, kind: str, scale: float) -> OptimizationReport:
    """Prefetch plan of one method for one workload on one machine.

    Profiling always uses the reference input (the paper's single-profile
    methodology), but the *profiled scale* matches the evaluated scale so
    distances stay consistent — hence no ``input_set`` in the key.
    """
    profile = profile_for(name, "ref", scale)
    machine = get_machine(machine_name)
    with obs.span(
        "plan.derive", workload=name, machine=machine_name, kind=kind
    ):
        program = profile.program
        return plan_from_sampling(
            kind, profile.sampling, machine, program.refs_per_pc(), program.indirect_pairs()
        )


def plan_for_spec(spec: ExperimentSpec) -> OptimizationReport:
    """The software prefetch plan a spec's configuration requires."""
    kind = spec.plan_kind
    if kind is None:
        raise ExperimentError(
            f"config {spec.config!r} carries no software plan"
        )
    return _plan(spec.workload, spec.machine, kind, spec.scale)


def hw_prefetcher_for(machine: MachineConfig, utilisation=None):
    """The machine's hardware prefetcher model (paper Table II parts)."""
    if "amd" in machine.name:
        return amd_hw_prefetcher(machine.line_bytes, utilisation)
    return intel_hw_prefetcher(machine.line_bytes, utilisation)


def prefetcher_for(
    row: ConfigRow, machine: MachineConfig, program: Program, utilisation=None, hw=None
):
    """The hardware prefetcher a configuration row names, or ``None``.

    ``utilisation`` throttles the machine's prefetcher (built by ``hw``,
    default :func:`hw_prefetcher_for`).  The cross-core helper for
    ``program`` fills the shared LLC on the memory side, untouched by
    off-chip back-off in the paper's sense, so it runs unthrottled.
    """
    if row.prefetcher is None:
        return None
    if row.prefetcher == "xcore":
        return cross_core_prefetcher_for(program, machine)
    return (hw or hw_prefetcher_for)(machine, utilisation)


@lru_cache(maxsize=64)
def _rewritten_execution(
    workload: str, input_set: str, scale: float, machine_name: str, kind: str
) -> ExecutionResult:
    """Rewrite and re-execute one workload under one prefetch plan.

    Decoding (executing) the rewritten program is the most expensive
    machine-dependent stage of a cell; grid sweeps evaluate the same
    rewritten program under many configurations (hardware prefetchers
    alongside the plan, multicore mixes), so one decode serves them all.
    The memo keys on everything the rewrite depends on: the plan is a
    function of (workload, machine, kind, scale), the execution seed of
    (workload, input_set).
    """
    profile = profile_for(workload, input_set, scale)
    plan = _plan(workload, machine_name, kind, scale)
    with obs.span(
        "rewrite.apply", workload=workload, machine=machine_name, kind=kind
    ):
        rewritten = insert_prefetches(profile.program, plan)
        return execute_program(rewritten, seed=workload_seed(workload, input_set))


def compute_run(spec: ExperimentSpec) -> RunStats:
    """Simulate one cell, unconditionally (no memo, no persistent cache).

    This is the pure deterministic compute kernel the engine's worker
    processes call; everything else layers caching on top of it.
    """
    if faults.ACTIVE:
        faults.check("worker.compute", spec)
        # Chaos-harness site: a "kill" fault here models a worker
        # SIGKILLed mid-cell (only fires inside pool workers).
        faults.check("worker.sigkill", spec)
    with obs.span("cell.compute", cell=spec.label()):
        machine = get_machine(spec.machine)
        row = CONFIG_TABLE[spec.config]
        profile = profile_for_spec(spec)
        execution = profile.execution
        if row.plan is not None:
            execution = _rewritten_execution(
                spec.workload, spec.input_set, spec.scale, spec.machine, row.plan
            )

        # Build the hierarchy fully wired: whether demand accesses are
        # shown to a prefetcher at all is fixed when the hierarchy is
        # built, so the prefetcher must not be bolted on afterwards.
        bandwidth = BandwidthModel(machine.bytes_per_cycle())
        prefetcher = prefetcher_for(row, machine, profile.program, bandwidth.utilisation)
        hierarchy = CacheHierarchy(
            machine, prefetcher=prefetcher, bandwidth=bandwidth
        )
        stats = hierarchy.run(
            execution.trace,
            work_per_memop=execution.work_per_memop,
            mlp=execution.mlp,
        )
        hierarchy.drain_writebacks(stats)
        if obs.enabled():
            reg = obs.metrics()
            reg.counter("sim.cells").inc()
            reg.counter("sim.dram_bytes").inc(stats.dram_bytes)
            reg.histogram("sim.bandwidth_gbs").observe(
                stats.bandwidth_gbs(machine.freq_ghz)
            )
        return stats


def run_spec(spec: ExperimentSpec) -> RunStats:
    """Simulate one cell through the shared memo and persistent cache.

    Every caller — bare single-cell runs, grid sweeps, the engine's
    serial path — funnels through this one cached entry point, so any
    result computed anywhere in the process (or stored on disk by a
    previous process) is reused everywhere.
    """
    cached = _MEMO.get(spec)
    if cached is not None:
        return cached
    stats = _cache_get_stats(spec)
    if stats is not None:
        _MEMO[spec] = stats
        return stats
    stats = compute_run(spec)
    _MEMO[spec] = stats
    _cache_put_stats(spec, stats)
    return stats


def seed_memo(spec: ExperimentSpec, stats: RunStats, persist: bool = False) -> None:
    """Install an externally computed result (engine workers, disk loads)."""
    _MEMO[spec] = stats
    if persist:
        _cache_put_stats(spec, stats)


def memo_contains(spec: ExperimentSpec) -> bool:
    """Whether a cell is already resident in the in-process memo."""
    return spec in _MEMO


def memo_size() -> int:
    """Number of cells resident in the in-process memo."""
    return len(_MEMO)


def clear_memo() -> None:
    """Drop every in-process cache (memo, profiles, plans).

    Benchmarks use this to measure genuinely cold runs; the persistent
    disk cache, if active, is untouched.
    """
    _MEMO.clear()
    _profile.cache_clear()
    _plan.cache_clear()
    _rewritten_execution.cache_clear()

