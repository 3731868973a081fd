"""Figure 8 — the mix with the largest software-over-hardware benefit.

The paper dissects the mix {cigar, gcc, lbm, libquantum} on the Intel
machine: with hardware prefetching each application wants far more
bandwidth than the chip can deliver (25.3 GB/s demanded, 13.6 GB/s
achieved), while the software scheme requests 12.8 GB/s, achieves 10,
and ends up ~20 % faster overall.  This experiment runs the mix on the
**direct** four-core simulator (shared LLC + shared controller), not the
analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import get_machine
from repro.api import ConfigRow, ExperimentSpec, config_row
from repro.errors import ExperimentError
from repro.experiments.runner import hw_prefetcher_for, plan_for_spec, prefetcher_for, profile_for
from repro.experiments.tables import render_table
from repro.isa.interpreter import execute_program
from repro.isa.rewriter import insert_prefetches
from repro.multicore.simulator import CoreSpec, MulticoreSimulator
from repro.workloads.base import workload_seed
from repro.workloads.mixes import Mix, fig8_mix

__all__ = ["Fig8Result", "run_fig8", "render_fig8", "direct_row"]


@dataclass(frozen=True)
class Fig8Result:
    """Per-application speedups and achieved bandwidth for one mix."""

    machine: str
    members: tuple[str, ...]
    speedups: dict[str, list[float]]  # config -> per-app speedup-1
    bandwidth: dict[str, float]  # config -> achieved GB/s


def direct_row(config: str) -> ConfigRow:
    """``config``'s row, if the direct multicore simulation can model it."""
    row = config_row(config)
    if row.coordinator is not None:
        raise ExperimentError(
            f"config {config!r} coordinates its cores, which direct simulation does not model"
        )
    return row


def _core_specs(mix: Mix, machine_name: str, config: str, scale: float) -> list[CoreSpec]:
    machine = get_machine(machine_name)
    row = direct_row(config)
    specs = []
    for name, input_set in zip(mix.members, mix.inputs):
        profile = profile_for(name, input_set, scale)
        execution = profile.execution
        if row.plan is not None:
            plan = plan_for_spec(ExperimentSpec(name, machine_name, config, input_set, scale))
            program = insert_prefetches(profile.program, plan)
            execution = execute_program(program, seed=workload_seed(name, input_set))
        specs.append(
            CoreSpec(
                trace=execution.trace,
                work_per_memop=execution.work_per_memop,
                mlp=execution.mlp,
                # unthrottled, built by this module's own factory name
                prefetcher=prefetcher_for(row, machine, profile.program, hw=hw_prefetcher_for),
                name=name,
            )
        )
    return specs


def run_fig8(
    machine_name: str = "intel-i7-2600k",
    mix: Mix | None = None,
    scale: float = 0.5,
    configs: tuple[str, ...] = ("swnt", "hw"),
) -> Fig8Result:
    """Directly simulate the Fig. 8 mix under each configuration."""
    machine = get_machine(machine_name)
    the_mix = mix if mix is not None else fig8_mix()
    for config in configs:
        direct_row(config)

    results = {}
    for config in ("baseline", *configs):
        sim = MulticoreSimulator(machine, _core_specs(the_mix, machine_name, config, scale))
        results[config] = sim.run(drain=False)

    base = results["baseline"]
    speedups = {}
    bandwidth = {}
    for config in configs:
        res = results[config]
        speedups[config] = [
            b.cycles / c.cycles - 1.0 for b, c in zip(base.per_core, res.per_core)
        ]
        bandwidth[config] = res.achieved_bandwidth_gbs(machine.freq_ghz)
    return Fig8Result(
        machine=machine_name,
        members=the_mix.members,
        speedups=speedups,
        bandwidth=bandwidth,
    )


def render_fig8(result: Fig8Result) -> str:
    labels = {"swnt": "Soft Pref.+NT", "hw": "Hardware Pref."}
    configs = list(result.speedups)
    rows = []
    for i, name in enumerate(result.members):
        rows.append(
            (name, *(f"{result.speedups[c][i] * 100:+.1f}%" for c in configs))
        )
    rows.append(
        (
            "average",
            *(
                f"{sum(result.speedups[c]) / len(result.speedups[c]) * 100:+.1f}%"
                for c in configs
            ),
        )
    )
    rows.append(
        ("achieved BW", *(f"{result.bandwidth[c]:.1f} GB/s" for c in configs))
    )
    return render_table(
        ("App", *(labels.get(c, c) for c in configs)),
        rows,
        title=f"Fig 8: Mix detail {result.members} — {result.machine} (direct 4-core sim)",
    )
