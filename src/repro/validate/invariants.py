"""Metamorphic and invariant checks over the analysis pipeline.

Each check encodes a *law* the pipeline must obey regardless of input —
properties with mathematical provenance, not golden numbers:

* ``lru-stack-inclusion`` — LRU is a stack algorithm: every hit in a
  small cache is a hit in any larger cache, and the simulator's miss
  vector must equal the stack-distance oracle's at both sizes.
* ``mrc-monotone`` — miss ratio curves (modelled and exact) never rise
  with cache size.
* ``rewrite-preserves-semantics`` — inserting prefetches (both at the
  mini-IR level and at the trace level) leaves the demand access stream
  bit-identical: the optimiser may add events, never change the
  program.
* ``bypass-model-consistent`` — every ``PREFETCHNTA`` decision is
  re-derivable from the model, and the modelled LLC misses bypassing
  could add stay within the analysis' flatness tolerance (bypass never
  meaningfully increases modelled LLC misses).
* ``coverage-accounting`` — per-PC miss/access counters sum exactly to
  the simulator's totals, before and after optimisation (Table I's
  coverage arithmetic is only meaningful if this holds).
* ``xcore-llc-fill-attribution`` — the cross-core helper prefetcher's
  fills are LLC-only (never the private L2) and every fill resolves to
  a line actually reachable as ``A[B[pos]]`` — a broken index resolver
  cannot hide behind plausible-looking traffic.

All checks are reusable predicates: the self-test arms a corruption and
re-runs them to prove they have teeth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cachesim.functional import FunctionalCacheSim, fully_associative_config
from repro.config import MachineConfig, amd_phenom_ii
from repro.core.bypass import data_reusing_loads, should_bypass
from repro.core.insertion import apply_prefetch_plan
from repro.core.pipeline import OptimizerSettings, PrefetchOptimizer
from repro.core.report import PrefetchDecision
from repro.isa import interpreter, rewriter
from repro.sampling.sampler import RuntimeSampler
from repro.statstack.mrc import MissRatioCurve, PerPCMissRatios
from repro.statstack.model import StatStackModel
from repro.validate.corpus import CorpusTrace
from repro.validate.differential import LINE_BYTES, size_grid_for
from repro.validate.oracle import oracle_miss_ratio_curve, oracle_miss_vector, stack_distances

__all__ = ["InvariantResult", "InvariantSettings", "run_invariants"]


@dataclass(frozen=True)
class InvariantSettings:
    sampler_rate: float = 0.2
    flatness_tolerance: float = 0.10
    machine: MachineConfig | None = None


@dataclass
class InvariantResult:
    """Outcome of one invariant on one corpus trace."""

    invariant: str
    trace: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "trace": self.trace,
            "ok": self.ok,
            "detail": self.detail,
        }


def _check_stack_inclusion(entry: CorpusTrace) -> InvariantResult:
    demand = entry.trace.demand_only()
    lines = demand.line_addr(LINE_BYTES)
    footprint = len(np.unique(lines))
    sd = stack_distances(lines)
    small_lines = max(8, footprint // 8)
    large_lines = max(small_lines * 4, small_lines + 1)
    misses = {}
    for cache_lines in (small_lines, large_lines):
        sim = FunctionalCacheSim(
            fully_associative_config(cache_lines * LINE_BYTES, LINE_BYTES)
        )
        sim.run(demand)
        expected = oracle_miss_vector(sd, cache_lines)
        if not np.array_equal(sim.last_miss, expected):
            return InvariantResult(
                "lru-stack-inclusion",
                entry.name,
                False,
                f"reference simulator disagrees with stack oracle at "
                f"{cache_lines} lines",
            )
        misses[cache_lines] = sim.last_miss
    # Inclusion: a miss in the large cache must also miss in the small one.
    violations = int(np.count_nonzero(misses[large_lines] & ~misses[small_lines]))
    return InvariantResult(
        "lru-stack-inclusion",
        entry.name,
        violations == 0,
        "" if violations == 0 else f"{violations} hits lost when growing the cache",
    )


def _check_mrc_monotone(entry: CorpusTrace) -> InvariantResult:
    demand = entry.trace.demand_only()
    lines = demand.line_addr(LINE_BYTES)
    sizes = size_grid_for(len(np.unique(lines)))
    sd = stack_distances(lines)
    exact = oracle_miss_ratio_curve(sd, sizes, LINE_BYTES)
    sampling = RuntimeSampler(rate=1.0, line_bytes=LINE_BYTES, seed=entry.seed).sample(demand)
    model = StatStackModel(sampling.reuse, line_bytes=LINE_BYTES)
    model_curve = MissRatioCurve(
        sizes, np.array([model.miss_ratio(int(s)) for s in sizes])
    )
    if not exact.is_monotone_nonincreasing():
        return InvariantResult(
            "mrc-monotone", entry.name, False, "exact curve rises with cache size"
        )
    if not model_curve.is_monotone_nonincreasing(tolerance=1e-9):
        return InvariantResult(
            "mrc-monotone", entry.name, False, "model curve rises with cache size"
        )
    return InvariantResult("mrc-monotone", entry.name, True)


def _synthetic_plan(entry: CorpusTrace) -> list[PrefetchDecision]:
    """A small hand-built plan targeting the program's hottest PCs.

    Used alongside the optimiser's own plan so rewriter semantics are
    exercised even when the analysis decides no prefetching is worth it.
    """
    pcs = entry.trace.unique_pcs()[:3].tolist()
    return [
        PrefetchDecision(
            pc=int(pc), stride=LINE_BYTES, distance_bytes=512 * (i + 1), nta=bool(i % 2)
        )
        for i, pc in enumerate(pcs)
    ]


def _check_rewrite_semantics(
    entry: CorpusTrace, settings: InvariantSettings
) -> InvariantResult:
    name = "rewrite-preserves-semantics"
    program = entry.program
    assert program is not None
    machine = settings.machine or amd_phenom_ii()
    execution = interpreter.execute_program(program, seed=entry.seed)
    original_demand = execution.trace.demand_only()

    sampling = RuntimeSampler(
        rate=settings.sampler_rate, line_bytes=LINE_BYTES, seed=entry.seed
    ).sample(execution.trace)
    report = PrefetchOptimizer(
        machine, OptimizerSettings(flatness_tolerance=settings.flatness_tolerance)
    ).analyze(sampling, refs_per_pc=program.refs_per_pc())

    plans: list[tuple[str, list[PrefetchDecision]]] = [
        ("synthetic", _synthetic_plan(entry))
    ]
    if report.decisions:
        plans.append(("optimizer", list(report.decisions)))
    # The indirect rewrite (prefetch B[i+d]; prefetch A[B[i+d]]) must
    # obey the same law; analyse again with it enabled when the program
    # carries a resolvable A[B[i]] pair.
    indirect_pairs = program.indirect_pairs()
    if indirect_pairs:
        indirect_report = PrefetchOptimizer(
            machine,
            OptimizerSettings(
                flatness_tolerance=settings.flatness_tolerance,
                enable_indirect=True,
            ),
        ).analyze(
            sampling,
            refs_per_pc=program.refs_per_pc(),
            indirect_pairs=indirect_pairs,
        )
        if indirect_report.decisions:
            plans.append(("indirect", list(indirect_report.decisions)))

    for label, decisions in plans:
        rewritten = rewriter.insert_prefetches(program, decisions)
        re_exec = interpreter.execute_program(rewritten, seed=entry.seed)
        if re_exec.trace.demand_only() != original_demand:
            return InvariantResult(
                name, entry.name, False,
                f"{label} plan: IR rewriting changed the demand stream",
            )
        inserted = re_exec.trace.select(re_exec.trace.prefetch_mask)
        # An indirect decision inserts at the data load's PC *and* a
        # run-ahead prefetch at its index load's PC.
        allowed = {d.pc for d in decisions} | {
            d.index_pc for d in decisions if d.index_pc is not None
        }
        if len(inserted) and not set(inserted.unique_pcs().tolist()) <= allowed:
            return InvariantResult(
                name, entry.name, False,
                f"{label} plan: prefetches attributed to non-target PCs",
            )
        trace_level = apply_prefetch_plan(execution.trace, decisions)
        if trace_level.demand_only() != original_demand:
            return InvariantResult(
                name, entry.name, False,
                f"{label} plan: trace-level insertion changed the demand stream",
            )
    return InvariantResult(name, entry.name, True)


def _check_bypass_consistent(
    entry: CorpusTrace, settings: InvariantSettings
) -> InvariantResult:
    name = "bypass-model-consistent"
    program = entry.program
    assert program is not None
    machine = settings.machine or amd_phenom_ii()
    execution = interpreter.execute_program(program, seed=entry.seed)
    sampling = RuntimeSampler(
        rate=settings.sampler_rate, line_bytes=LINE_BYTES, seed=entry.seed
    ).sample(execution.trace)
    report = PrefetchOptimizer(
        machine, OptimizerSettings(flatness_tolerance=settings.flatness_tolerance)
    ).analyze(sampling, refs_per_pc=program.refs_per_pc())
    nta = [d for d in report.decisions if d.nta]
    if not nta:
        return InvariantResult(name, entry.name, True, "no bypass decisions emitted")

    model = StatStackModel(sampling.reuse, line_bytes=machine.line_bytes)
    ratios = PerPCMissRatios(model, machine)
    extra_llc = 0.0
    modelled_l1 = 0.0
    for decision in nta:
        if not should_bypass(
            decision.pc, sampling.reuse, ratios, settings.flatness_tolerance
        ):
            return InvariantResult(
                name, entry.name, False,
                f"pc {decision.pc} marked NTA but model does not justify bypass",
            )
        # Bypassed lines stop being cached in L2/LLC, so the misses it
        # could add land on the loads that *consume* those lines: each
        # reuser's curve drop between L1 and LLC bounds what it loses.
        reusers = data_reusing_loads(sampling.reuse, decision.pc)
        for reuser_pc in reusers or {decision.pc: 1.0}:
            curve = ratios.pc_curve(reuser_pc)
            weight = model.pc_sample_weight(reuser_pc)
            extra_llc += weight * curve.drop_between(
                machine.l1.size_bytes, machine.llc.size_bytes
            )
            modelled_l1 += weight * curve.at(machine.l1.size_bytes)
    if extra_llc > settings.flatness_tolerance * max(modelled_l1, 1e-12):
        return InvariantResult(
            name, entry.name, False,
            f"bypassing adds {extra_llc:.4f} modelled LLC misses per reference "
            f"(> {settings.flatness_tolerance:.0%} of modelled L1 misses)",
        )
    return InvariantResult(name, entry.name, True)


def _check_coverage_accounting(
    entry: CorpusTrace, settings: InvariantSettings
) -> InvariantResult:
    name = "coverage-accounting"
    machine = settings.machine or amd_phenom_ii()
    demand = entry.trace.demand_only()
    sim = FunctionalCacheSim(machine.l1)
    stats = sim.run(demand)
    miss_from_vector = int(np.count_nonzero(sim.last_miss))
    if stats.total_misses() != miss_from_vector:
        return InvariantResult(
            name, entry.name, False,
            f"per-PC misses sum to {stats.total_misses()}, "
            f"miss vector counts {miss_from_vector}",
        )
    if stats.total_accesses() != len(demand):
        return InvariantResult(
            name, entry.name, False,
            f"per-PC accesses sum to {stats.total_accesses()}, "
            f"trace has {len(demand)} demand events",
        )
    # Coverage arithmetic: rewriting must keep the demand population
    # fixed, so removed + remaining misses always equals the baseline.
    plan = _synthetic_plan(entry)
    optimised = apply_prefetch_plan(entry.trace, plan)
    opt_sim = FunctionalCacheSim(machine.l1)
    opt_stats = opt_sim.run(optimised, honor_prefetches=True)
    if opt_stats.total_accesses() != len(demand):
        return InvariantResult(
            name, entry.name, False,
            "optimised run counts a different demand population "
            f"({opt_stats.total_accesses()} vs {len(demand)})",
        )
    removed = stats.total_misses() - opt_stats.total_misses()
    if removed + opt_stats.total_misses() != stats.total_misses():
        return InvariantResult(name, entry.name, False, "coverage identity violated")
    return InvariantResult(name, entry.name, True)


def _check_xcore_attribution(entry: CorpusTrace) -> InvariantResult:
    """Cross-core LLC fills must be LLC-only and resolver-correct.

    Every request the helper prefetcher issues while observing the
    program's demand stream must (a) skip the private L2
    (``fill_l2=False`` — the whole point of a cross-core fill) and
    (b) target a line of the *data* region reachable as ``A[B[pos]]``
    for some index position — a broken resolver (the self-test's
    mutation) lands fills outside that set.
    """
    from repro.hwpref.xcore import cross_core_prefetcher_for, index_directory_for

    name = "xcore-llc-fill-attribution"
    program = entry.program
    assert program is not None
    directory = index_directory_for(program)
    if not directory:
        return InvariantResult(name, entry.name, True, "no A[B[i]] pairs")
    execution = interpreter.execute_program(program, seed=entry.seed)
    demand = execution.trace.demand_only()
    prefetcher = cross_core_prefetcher_for(program)
    ev, lines, fill_l2 = prefetcher.observe_batch(
        demand.pc,
        demand.addr,
        demand.line_addr(LINE_BYTES),
        np.zeros(len(demand), dtype=bool),
    )
    if len(ev) == 0:
        return InvariantResult(
            name, entry.name, False,
            "pairs registered but no cross-core fills issued",
        )
    if fill_l2.any():
        return InvariantResult(
            name, entry.name, False,
            f"{int(fill_l2.sum())} cross-core fills target the private L2",
        )
    reachable = set()
    for region in directory.values():
        vals = region.index_values()
        addrs = region.data_base + vals * region.data_elem_bytes
        reachable.update(np.unique(addrs // LINE_BYTES).tolist())
    stray = set(np.unique(lines).tolist()) - reachable
    if stray:
        return InvariantResult(
            name, entry.name, False,
            f"{len(stray)} prefetched lines are not reachable as A[B[pos]]",
        )
    return InvariantResult(name, entry.name, True)


def run_invariants(
    corpus: list[CorpusTrace], settings: InvariantSettings | None = None
) -> list[InvariantResult]:
    """Run every applicable invariant over the corpus."""
    settings = settings or InvariantSettings()
    results: list[InvariantResult] = []
    with obs.span("validate.invariants", traces=len(corpus)):
        for entry in corpus:
            results.append(_check_stack_inclusion(entry))
            results.append(_check_mrc_monotone(entry))
            results.append(_check_coverage_accounting(entry, settings))
            if entry.program is not None:
                results.append(_check_rewrite_semantics(entry, settings))
                results.append(_check_bypass_consistent(entry, settings))
                results.append(_check_xcore_attribution(entry))
        if obs.enabled():
            obs.metrics().counter("validate.invariant.checks").inc(len(results))
            failed = sum(1 for r in results if not r.ok)
            if failed:
                obs.metrics().counter("validate.invariant.failures").inc(failed)
    return results
