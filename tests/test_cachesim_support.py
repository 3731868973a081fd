"""Tests for the functional simulator, bandwidth model, and interleaving."""

import numpy as np
import pytest

from repro.cachesim import BandwidthModel, FunctionalCacheSim, simulate_miss_ratios
from repro.config import CacheConfig
from repro.errors import ConfigError, TraceError
from repro.trace import (
    MemOp,
    MemoryTrace,
    interleave_round_robin,
    interleave_weighted,
)
from repro.trace.synthesis import strided_pattern


class TestFunctionalSim:
    def test_loop_hits_after_first_sweep(self):
        t = MemoryTrace.loads(
            np.zeros(4096, np.int64), strided_pattern(0, 4096, 64, wrap_bytes=16 * 64)
        )
        mr, per_pc, stats = simulate_miss_ratios(t, CacheConfig("T", 64 * 64, ways=4))
        assert mr < 0.01
        assert per_pc[0] == mr

    def test_cold_stream_always_misses(self):
        t = MemoryTrace.loads(np.zeros(1000, np.int64), strided_pattern(0, 1000, 64))
        mr, _, _ = simulate_miss_ratios(t, CacheConfig("T", 64 * 64, ways=4))
        assert mr == 1.0

    def test_prefetches_ignored_by_default(self):
        t = MemoryTrace(
            [0, 0], [0, 0], [MemOp.PREFETCH, MemOp.LOAD]
        )
        sim = FunctionalCacheSim(CacheConfig("T", 1024, ways=2))
        stats = sim.run(t)
        assert stats.total_misses() == 1  # prefetch did not warm the cache

    def test_prefetches_honoured_when_requested(self):
        t = MemoryTrace([0, 0], [0, 0], [MemOp.PREFETCH, MemOp.LOAD])
        sim = FunctionalCacheSim(CacheConfig("T", 1024, ways=2))
        stats = sim.run(t, honor_prefetches=True)
        assert stats.total_misses() == 0

    def test_per_pc_attribution(self):
        t = MemoryTrace.loads([7, 8, 7], [0, 64, 0])
        sim = FunctionalCacheSim(CacheConfig("T", 1024, ways=2))
        stats = sim.run(t)
        assert stats.accesses == {7: 2, 8: 1}
        assert stats.misses == {7: 1, 8: 1}

    def test_prefetch_hit_refreshes_recency(self):
        """Regression: a prefetch to a resident line must promote it.

        Real hardware refreshes the LRU position of a line a prefetch
        hits; the old code probed with ``contains`` and left the line in
        LRU position, so coverage runs under-counted the misses a
        prefetch plan removes.  One full 2-way set, lines A B C:

            load A, load B, prefetch A, load C, load A

        The prefetch promotes A, so C must evict B and the final load
        of A must hit — 3 demand misses, not 4.
        """
        a, b, c = 0, 64, 128
        t = MemoryTrace(
            [0] * 5,
            [a, b, a, c, a],
            [MemOp.LOAD, MemOp.LOAD, MemOp.PREFETCH, MemOp.LOAD, MemOp.LOAD],
        )
        sim = FunctionalCacheSim(CacheConfig("T", 128, ways=2))
        stats = sim.run(t, honor_prefetches=True)
        assert stats.total_misses() == 3
        assert not sim.last_miss[-1]  # the re-load of A hit


class TestBandwidthModel:
    def test_uncontended_transfer_starts_immediately(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0)
        start, duration = bw.transfer(100.0, 64)
        assert start == 100.0
        assert duration == pytest.approx(32.0)

    def test_queueing_behind_earlier_transfer(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0)
        bw.transfer(0.0, 64)  # occupies [0, 32)
        start, _ = bw.transfer(10.0, 64)
        assert start == pytest.approx(32.0)

    def test_throughput_hard_capped(self):
        bw = BandwidthModel(peak_bytes_per_cycle=1.0)
        finish = 0.0
        for i in range(100):
            start, duration = bw.transfer(0.0, 64)
            finish = start + duration
        # 100 lines at 1 B/cycle cannot finish before 6400 cycles
        assert finish >= 100 * 64

    def test_utilisation_rises_and_decays(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0, window_cycles=100.0)
        for i in range(20):
            bw.transfer(float(i), 64)
        busy = bw.utilisation()
        assert busy > 0.5
        bw.transfer(10_000.0, 0)
        assert bw.utilisation() < busy

    def test_total_accounting(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0)
        bw.transfer(0.0, 64)
        bw.transfer(0.0, 64)
        assert bw.total_bytes == 128
        assert bw.total_transfers == 2

    def test_reset(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0)
        bw.transfer(0.0, 64)
        bw.reset()
        assert bw.total_bytes == 0
        start, _ = bw.transfer(0.0, 64)
        assert start == 0.0

    def test_rejects_bad_peak(self):
        with pytest.raises(ConfigError):
            BandwidthModel(peak_bytes_per_cycle=0.0)

    def test_achieved_gbs(self):
        bw = BandwidthModel(peak_bytes_per_cycle=2.0)
        bw.transfer(0.0, 2_000_000)
        assert bw.achieved_gbs(1e6, freq_ghz=1.0) == pytest.approx(2.0)


class TestInterleave:
    def test_round_robin_alternates(self):
        a = MemoryTrace.loads([0, 0], [0, 1])
        b = MemoryTrace.loads([1, 1], [100, 101])
        merged, cores = interleave_round_robin([a, b])
        assert cores.tolist() == [0, 1, 0, 1]
        assert merged.addr.tolist() == [0, 100, 1, 101]

    def test_weighted_ratio(self):
        a = MemoryTrace.loads([0] * 4, list(range(4)))
        b = MemoryTrace.loads([1] * 2, [100, 101])
        merged, cores = interleave_weighted([a, b], [2.0, 1.0])
        # core 0 gets twice the slots
        assert cores.tolist().count(0) == 4
        first_half = cores.tolist()[:3]
        assert first_half.count(0) == 2

    def test_exhausted_core_drops_out(self):
        a = MemoryTrace.loads([0] * 5, list(range(5)))
        b = MemoryTrace.loads([1], [100])
        merged, cores = interleave_round_robin([a, b])
        assert cores.tolist()[-3:] == [0, 0, 0]

    def test_empty_input(self):
        merged, cores = interleave_round_robin([])
        assert len(merged) == 0 and len(cores) == 0

    def test_bad_weights(self):
        a = MemoryTrace.loads([0], [0])
        with pytest.raises(TraceError):
            interleave_weighted([a], [0.0])
        with pytest.raises(TraceError):
            interleave_weighted([a], [1.0, 2.0])
