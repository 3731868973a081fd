"""Tests for the multicore simulator and the analytic contention model."""

import numpy as np
import pytest

from repro.config import CacheConfig, MachineConfig
from repro.errors import SimulationError
from repro.multicore import (
    AppProfile,
    CoreSpec,
    MulticoreSimulator,
    solve_mix,
)
from repro.statstack.mrc import MissRatioCurve
from repro.trace import MemoryTrace
from repro.trace.synthesis import strided_pattern
from tests.test_hierarchy_digests import random_trace


def stream_trace(base, n=20_000, stride=64):
    return MemoryTrace.loads(np.zeros(n, np.int64), strided_pattern(base, n, stride))


def small_machine(bw_gbs=2.0):
    return MachineConfig(
        name="quad",
        l1=CacheConfig("L1", 4 * 1024, ways=2, hit_latency=2),
        l2=CacheConfig("L2", 16 * 1024, ways=4, hit_latency=8),
        llc=CacheConfig("LLC", 128 * 1024, ways=8, hit_latency=20),
        cores=4,
        freq_ghz=1.0,
        dram_latency=100,
        peak_bandwidth_gbs=bw_gbs,
    )


class TestMulticoreSimulator:
    @pytest.mark.parametrize("machine_name", ["tiny", "intel-i7-2600k"])
    @pytest.mark.parametrize("prefetcher", ["none", "intel", "amd"])
    def test_single_core_matches_hierarchy(self, machine_name, prefetcher, tiny_machine):
        """One core through the multicore driver is the solo hierarchy, exactly."""
        from repro.cachesim import CacheHierarchy
        from repro.config import get_machine
        from repro.core.serialization import stats_to_dict
        from repro.hwpref import amd_hw_prefetcher, intel_hw_prefetcher

        factories = {"none": lambda: None, "intel": intel_hw_prefetcher, "amd": amd_hw_prefetcher}
        machine = tiny_machine if machine_name == "tiny" else get_machine(machine_name)
        t = random_trace(np.random.default_rng(9), 6000, 2048, all_ops=True)
        hier = CacheHierarchy(machine, prefetcher=factories[prefetcher]())
        solo = hier.run(t, work_per_memop=3.0, mlp=2.0)
        hier.drain_writebacks(solo)
        multi = MulticoreSimulator(
            machine,
            [CoreSpec(t, work_per_memop=3.0, mlp=2.0, prefetcher=factories[prefetcher]())],
        ).run(drain=True)
        assert stats_to_dict(multi.per_core[0]) == stats_to_dict(solo)

    def test_contention_slows_everyone(self):
        machine = small_machine(bw_gbs=1.0)
        t1 = stream_trace(0)
        solo = MulticoreSimulator(machine, [CoreSpec(t1, name="a")]).run(drain=False)
        specs = [
            CoreSpec(stream_trace(core << 30), name=f"c{core}") for core in range(4)
        ]
        shared = MulticoreSimulator(machine, specs).run(drain=False)
        assert shared.per_core[0].cycles > solo.per_core[0].cycles

    def test_bandwidth_capped(self):
        machine = small_machine(bw_gbs=1.0)
        specs = [
            CoreSpec(stream_trace(core << 30, n=30_000), name=f"c{core}")
            for core in range(4)
        ]
        result = MulticoreSimulator(machine, specs).run(drain=False)
        assert result.achieved_bandwidth_gbs(machine.freq_ghz) <= 1.05

    def test_llc_is_shared(self):
        # two cores streaming through the LLC evict each other's lines
        machine = small_machine(bw_gbs=16.0)
        # one core re-sweeps a region that fits the LLC alone
        resweep = MemoryTrace.loads(
            np.zeros(40_000, np.int64),
            strided_pattern(0, 40_000, 64, wrap_bytes=96 * 1024),
        )
        alone = MulticoreSimulator(machine, [CoreSpec(resweep, name="r")]).run(
            drain=False
        )
        noisy = MulticoreSimulator(
            machine,
            [CoreSpec(resweep, name="r"), CoreSpec(stream_trace(1 << 30, n=40_000), name="s")],
        ).run(drain=False)
        assert noisy.per_core[0].llc.misses > alone.per_core[0].llc.misses

    def test_short_program_finishes_early(self, tiny_machine):
        long = stream_trace(0, n=10_000)
        short = stream_trace(1 << 30, n=1_000)
        result = MulticoreSimulator(
            tiny_machine, [CoreSpec(long, name="l"), CoreSpec(short, name="s")]
        ).run(drain=False)
        assert result.per_core[1].cycles < result.per_core[0].cycles
        assert result.makespan_cycles == result.per_core[0].cycles

    def test_too_many_cores_rejected(self, tiny_machine):
        specs = [CoreSpec(stream_trace(i << 30)) for i in range(5)]
        with pytest.raises(SimulationError):
            MulticoreSimulator(tiny_machine, specs)

    def test_empty_rejected(self, tiny_machine):
        with pytest.raises(SimulationError):
            MulticoreSimulator(tiny_machine, [])


def flat_mrc(level=0.5):
    sizes = np.array([64 * 1024, 1 << 20, 8 << 20], dtype=np.int64)
    return MissRatioCurve(sizes, np.full(3, level))


def dropping_mrc():
    sizes = np.array([64 * 1024, 1 << 20, 2 << 20, 4 << 20, 8 << 20], dtype=np.int64)
    return MissRatioCurve(sizes, np.array([0.9, 0.8, 0.5, 0.2, 0.1]))


def make_profile(name="a", cycles=1e6, lines=10_000, inserts=None, mrc=None, mr_full=0.5):
    return AppProfile(
        name=name,
        cycles_alone=cycles,
        dram_lines=lines,
        llc_insert_lines=lines if inserts is None else inserts,
        mlp=2.0,
        mrc=mrc if mrc is not None else flat_mrc(),
        mr_full_llc=mr_full,
    )


class TestContentionModel:
    def test_single_app_unchanged(self, amd):
        out = solve_mix(amd, [make_profile()])
        assert out[0].cycles == pytest.approx(1e6, rel=0.05)

    def test_bandwidth_pressure_slows_mix(self, amd):
        # apps that together exceed the controller rate slow down
        heavy = make_profile(cycles=1e5, lines=80_000)
        out = solve_mix(amd, [heavy] * 4)
        assert all(c.cycles > 1.3e5 for c in out)

    def test_light_mix_barely_slows(self, amd):
        light = make_profile(cycles=1e7, lines=1_000)
        out = solve_mix(amd, [light] * 4)
        assert all(c.cycles < 1.05e7 for c in out)

    def test_nta_app_claims_no_llc(self, amd):
        # one polluter + one sensitive app; when the polluter bypasses
        # the LLC (zero insertions) the sensitive app keeps its space
        # and finishes faster
        sensitive = make_profile("sens", cycles=1e6, lines=20_000, mrc=dropping_mrc(), mr_full=0.1)
        polluter = make_profile("poll", cycles=1e6, lines=50_000)
        bypasser = make_profile("poll", cycles=1e6, lines=50_000, inserts=0)
        with_polluter = solve_mix(amd, [sensitive, polluter])
        with_bypasser = solve_mix(amd, [sensitive, bypasser])
        assert with_bypasser[0].cycles < with_polluter[0].cycles

    def test_llc_shares_sum_to_capacity(self, amd):
        out = solve_mix(amd, [make_profile(str(i)) for i in range(4)])
        assert sum(c.llc_share_bytes for c in out) == pytest.approx(
            amd.llc.size_bytes, rel=1e-6
        )

    def test_empty_mix_rejected(self, amd):
        with pytest.raises(SimulationError):
            solve_mix(amd, [])

    def test_slowdown_field(self, amd):
        out = solve_mix(amd, [make_profile(cycles=2e5, lines=50_000)] * 4)
        for c in out:
            assert c.slowdown >= 1.0
