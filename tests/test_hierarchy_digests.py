"""Pinned results of the one cache-hierarchy event loop.

Each case runs :class:`~repro.cachesim.hierarchy.CacheHierarchy` on a
seeded trace and compares the SHA-256 of its ``stats_to_dict`` output
(cycles as exact floats, every level and per-PC counter, all prefetch
and traffic counts) with a recorded digest.  The cases cover every event
kind (loads, stores, ``PREFETCH``, ``PREFETCHNTA``, NT stores), every
hardware prefetcher model including the AMD/Intel composites and the
cross-core helper on graph programs, an NTA-bypass tuning and throttled
prefetchers.  The multicore cases pin the direct
:class:`~repro.multicore.simulator.MulticoreSimulator`, which drives the
same handlers on cores sharing one LLC and one memory controller, with
and without a coordinator retuning the prefetchers.  A digest changes
only when simulated behaviour does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cachesim import BandwidthModel, CacheHierarchy
from repro.core.serialization import stats_to_dict
from repro.hwpref import (
    AdjacentLinePrefetcher,
    GHBPrefetcher,
    NullPrefetcher,
    PCStridePrefetcher,
    PrefetchTuning,
    StreamerPrefetcher,
    amd_hw_prefetcher,
    cross_core_prefetcher_for,
    intel_hw_prefetcher,
)
from repro.multicore import CoreSpec, HeuristicCoordinator, MulticoreSimulator
from repro.statstack.mrc import MissRatioCurve
from repro.trace import MemOp, MemoryTrace

PREFETCHER_FACTORIES = {
    "null": NullPrefetcher,
    "adjacent": AdjacentLinePrefetcher,
    "stride": PCStridePrefetcher,
    "ghb": GHBPrefetcher,
    "streamer": StreamerPrefetcher,
    "amd": amd_hw_prefetcher,
    "intel": intel_hw_prefetcher,
}


def random_trace(rng, n, footprint_lines, all_ops=False):
    """Seeded mixed trace: streaming + hot-set + random addresses."""
    stream = (np.arange(n) % footprint_lines) * 64
    hot = rng.integers(0, max(2, footprint_lines // 16), n) * 64
    rand = rng.integers(0, footprint_lines * 4, n) * 64
    pick = rng.random(n)
    addr = np.where(pick < 0.4, stream, np.where(pick < 0.8, hot, rand))
    pc = rng.integers(0, 32, n)
    op = np.zeros(n, dtype=np.int64)
    if all_ops:
        roll = rng.random(n)
        op[roll < 0.25] = int(MemOp.STORE)
        op[(roll >= 0.25) & (roll < 0.30)] = int(MemOp.PREFETCH)
        op[(roll >= 0.30) & (roll < 0.34)] = int(MemOp.PREFETCH_NTA)
        op[(roll >= 0.34) & (roll < 0.38)] = int(MemOp.STORE_NT)
    return MemoryTrace(pc, addr, op)


def pc_correlated_trace(rng, n, hot_lines=64, n_streams=5, nta_share=0.0, sw_share=0.0):
    """Demand-heavy trace with PC-correlated streams (prefetchers fire)."""
    hot = rng.integers(0, hot_lines, n) * 64
    sid = rng.integers(0, n_streams, n)
    prog = np.zeros(n, dtype=np.int64)
    for s in range(n_streams):
        m = sid == s
        prog[m] = np.arange(m.sum())
    stream = (1 << 22) + sid * (1 << 18) + prog * 8 * (1 + (sid % 4))
    pick = rng.random(n)
    addr = np.where(pick < 0.6, hot, stream)
    pc = np.where(pick < 0.6, 900 + (hot // 64) % 7, 100 + sid)
    op = np.where(rng.random(n) < 0.3, int(MemOp.STORE), int(MemOp.LOAD))
    roll = rng.random(n)
    op = np.where(roll < sw_share, int(MemOp.PREFETCH), op)
    op = np.where(
        (roll >= sw_share) & (roll < sw_share + nta_share),
        int(MemOp.PREFETCH_NTA),
        op,
    )
    return MemoryTrace(pc.astype(np.int64), addr.astype(np.int64), op.astype(np.int64))


def graph_trace(name):
    from repro.isa.interpreter import execute_program
    from repro.workloads import build_program, workload_seed

    program = build_program(name, "train", scale=0.02)
    return program, execute_program(program, seed=workload_seed(name, "train")).trace


def simulate(machine, traces, prefetcher=None, bandwidth=None, **run_kw):
    """Run ``traces`` in order through one hierarchy; stats of each run."""
    hier = CacheHierarchy(machine, prefetcher=prefetcher, bandwidth=bandwidth)
    return [hier.run(trace, **run_kw) for trace in traces]


def digest(runs):
    payload = json.dumps([stats_to_dict(s) for s in runs], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _all_event_kinds(tiny, amd):
    trace = random_trace(np.random.default_rng(1), 6000, 512, all_ops=True)
    return simulate(tiny, [trace], work_per_memop=3.0, mlp=2.0)


def _tiny_with_prefetcher(factory):
    def case(tiny, amd):
        trace = random_trace(np.random.default_rng(2), 4000, 512, all_ops=True)
        return simulate(tiny, [trace], prefetcher=factory())

    return case


def _full_machine_all_ops(tiny, amd):
    trace = random_trace(np.random.default_rng(3), 8000, 4096, all_ops=True)
    return simulate(amd, [trace], work_per_memop=8.0, mlp=4.0)


def _model(name):
    def case(tiny, amd):
        rng = np.random.default_rng(4)
        traces = [pc_correlated_trace(rng, 5000) for _ in range(2)]
        return simulate(
            amd, traces, prefetcher=PREFETCHER_FACTORIES[name](),
            work_per_memop=2.0, mlp=2.0,
        )

    return case


def _sw_nta_prefetches(tiny, amd):
    trace = pc_correlated_trace(
        np.random.default_rng(5), 5000, nta_share=0.05, sw_share=0.05
    )
    return simulate(amd, [trace], prefetcher=GHBPrefetcher(), work_per_memop=2.0, mlp=2.0)


def _nta_bypass_tuning(tiny, amd):
    trace = pc_correlated_trace(np.random.default_rng(6), 5000, sw_share=0.05)
    pf = intel_hw_prefetcher(amd.line_bytes)
    pf.apply_tuning(PrefetchTuning(degree_scale=0.5, nta_bypass=True))
    return simulate(amd, [trace], prefetcher=pf, work_per_memop=2.0, mlp=2.0)


def _streamer_bandwidth(shared_model):
    """The same streamer run on an injected or on the hierarchy's own model.

    A hierarchy given no :class:`BandwidthModel` builds its own; a fresh
    injected one must behave the same, so the two digests are equal.
    """

    def case(tiny, amd):
        trace = pc_correlated_trace(np.random.default_rng(8), 5000)
        bw = BandwidthModel(amd.bytes_per_cycle()) if shared_model else None
        return simulate(
            amd, [trace], prefetcher=StreamerPrefetcher(), bandwidth=bw,
            work_per_memop=2.0, mlp=2.0,
        )

    return case


#: Off-chip bandwidth low enough that utilisation passes the 70 % knee of
#: ``throttle_factor``, so throttled prefetchers really back off.
STARVED_GBS = 1.0


def _throttled(factory):
    def case(tiny, amd):
        machine = replace(amd, peak_bandwidth_gbs=STARVED_GBS)
        trace = pc_correlated_trace(np.random.default_rng(7), 4000)
        bw = BandwidthModel(machine.bytes_per_cycle())
        pf = factory(machine.line_bytes, bw.utilisation)
        return simulate(
            machine, [trace], prefetcher=pf, bandwidth=bw, work_per_memop=2.0, mlp=2.0
        )

    return case


def _xcore(name, throttled):
    def case(tiny, amd):
        machine = replace(amd, peak_bandwidth_gbs=STARVED_GBS) if throttled else amd
        program, trace = graph_trace(name)
        bw = BandwidthModel(machine.bytes_per_cycle())
        pf = cross_core_prefetcher_for(
            program, utilisation=bw.utilisation if throttled else None
        )
        return simulate(
            machine, [trace], prefetcher=pf, bandwidth=bw, work_per_memop=2.0, mlp=2.0
        )

    return case


#: Per-core prefetchers of the multicore cases, in core order.
MULTICORE_PREFETCHERS = (intel_hw_prefetcher, amd_hw_prefetcher, StreamerPrefetcher, GHBPrefetcher)


def _multicore(n_cores, coordinated=False):
    """``n_cores`` cores, every event kind, a hardware prefetcher on each.

    Even cores run mixed traces with every event kind over overlapping
    addresses, so the shared LLC serves cross-core hits; odd cores run
    PC-correlated streams with software prefetches in a private range,
    so their stride and GHB prefetchers fire.  The coordinated case runs
    on a starved memory controller, so the heuristic really throttles.
    Core 1 gets a falling miss-ratio curve and keeps filling the LLC;
    the other cores have no curve, read a zero gradient and are
    retargeted to LLC-bypassing fills.  Runs are not drained: a drain
    charges every core for the whole shared LLC.
    """

    def case(tiny, amd):
        machine = replace(amd, peak_bandwidth_gbs=STARVED_GBS) if coordinated else amd
        rng = np.random.default_rng(20 + n_cores + 10 * coordinated)
        falling = MissRatioCurve(
            np.array([64 * 1024, 1 << 20, 2 << 20, 4 << 20, 8 << 20], dtype=np.int64),
            np.array([0.9, 0.8, 0.5, 0.2, 0.1]),
        )
        cores = []
        for k in range(n_cores):
            if k % 2:
                t = pc_correlated_trace(rng, 3000, nta_share=0.05, sw_share=0.05)
                t = MemoryTrace(t.pc, t.addr + (k << 30), t.op)
            else:
                t = random_trace(rng, 3000, 1024 * (k + 1), all_ops=True)
            cores.append(
                CoreSpec(
                    t,
                    work_per_memop=2.0 + k,
                    mlp=1.0 + k,
                    prefetcher=MULTICORE_PREFETCHERS[k](machine.line_bytes),
                    name=f"c{k}",
                    mrc=falling if coordinated and k == 1 else None,
                )
            )
        sim = MulticoreSimulator(
            machine,
            cores,
            coordinator=HeuristicCoordinator() if coordinated else None,
            epoch_events=500,
        )
        return sim.run(drain=False).per_core

    return case


CASES = {
    "all-event-kinds-tiny": _all_event_kinds,
    "tiny-stride": _tiny_with_prefetcher(PCStridePrefetcher),
    "tiny-ghb": _tiny_with_prefetcher(GHBPrefetcher),
    "amd-all-event-kinds": _full_machine_all_ops,
    **{f"amd-model-{name}": _model(name) for name in sorted(PREFETCHER_FACTORIES)},
    "amd-sw-and-nta-prefetches": _sw_nta_prefetches,
    "amd-nta-bypass-tuning": _nta_bypass_tuning,
    "amd-shared-bandwidth-model": _streamer_bandwidth(shared_model=True),
    "amd-streamer-own-bandwidth-model": _streamer_bandwidth(shared_model=False),
    "amd-throttled-amd": _throttled(amd_hw_prefetcher),
    "amd-throttled-intel": _throttled(intel_hw_prefetcher),
    "xcore-pagerank": _xcore("pagerank", throttled=False),
    "xcore-hashjoin": _xcore("hashjoin", throttled=False),
    "xcore-pagerank-throttled": _xcore("pagerank", throttled=True),
    "xcore-hashjoin-throttled": _xcore("hashjoin", throttled=True),
    "multicore-2": _multicore(2),
    "multicore-4": _multicore(4),
    "multicore-4-coordinated": _multicore(4, coordinated=True),
}

DIGESTS = {
    "all-event-kinds-tiny": "bbce36e37b6f4ddb676a10d83fbed3524e67b6e9db1ac21e76152ca1856abd83",
    "amd-all-event-kinds": "a7aa82b7df5a22bb1ea08e71e6cf0ef0a618a67ada6aa7284240b269c4715ce6",
    "amd-model-adjacent": "69ce7fc01d49eb5ac0307ed3ceea558eb43f8759dc509272fb6dcbb9143d74a1",
    "amd-model-amd": "747bdb1b1028153fbbbcb7ba88c6c784ecceaef6641aad1841dc6622a7aaf738",
    "amd-model-ghb": "f851a4cd122b7eb654e610cb45f5968253a73408ac353e2dd058f046b652b4d3",
    "amd-model-intel": "e0747145668c7906c7db3f1f48eef75af7bfe0d081532c2c3105fb068e60a947",
    "amd-model-null": "097a62a5aa7ad1e01249e932a43d55860a50f58448f03a125aa00efe8d063bbf",
    "amd-model-streamer": "574b084edbce515b17d1f0b7bd994ee354f6d140a9a45958c4f32188c61479a3",
    "amd-model-stride": "ba62052dd348648b0407b7827136927ff0df556bdbf32b6de299323dce112f9b",
    "amd-nta-bypass-tuning": "c2b23b91919833c69d10c62245106075ed50eb9db2ef34297d47c3cfe6ed2d3c",
    "amd-shared-bandwidth-model": "a2a709053432ce1923186a2a5518a8ae83085ce9ec059bde55dee97947532ed6",
    "amd-sw-and-nta-prefetches": "1e19dbc4f2a130f80eae247f368b3a99ce6778905a60fbe129ac140e1d96ca05",
    "amd-streamer-own-bandwidth-model": "a2a709053432ce1923186a2a5518a8ae83085ce9ec059bde55dee97947532ed6",
    "amd-throttled-amd": "35020c4bf347b621b5102e6d4c380f1dac3751af9f81dc09eb5e0b5119d77c3a",
    "amd-throttled-intel": "ce55fed9eea11592bc91deb8816d3f073d6b92fe146a19bce2c53057ad7bd7ed",
    "multicore-2": "1549ea344662f39dd3b30848ef2d0ef11698a9448652e360d2734fdd80cbb06d",
    "multicore-4": "325ad0e912ab5d7e46826b610a4d74f0bf4d961e3cd797260c417d64b9cba484",
    "multicore-4-coordinated": "6f03f82026cf5766632e6e6cfbef5ae61520c23f6bf78632de8eda8de20e6808",
    "tiny-ghb": "f232022f71a9e0576222c9f8ba8076b43fe6d10523d2a192f1663126fec98ec3",
    "tiny-stride": "6d5ad0d383b9a8b2a24adb6abcbfd0e68309b4c637c3c1bc018a3d4bbf41be46",
    "xcore-hashjoin": "13452dac2df0577cbea13b053d56af43bc9317fedd447cd2dd5c7f4303432e4e",
    "xcore-hashjoin-throttled": "e77e408e686fcf3c4025e7bf082a594fc7be8a5ff6adb94844dd40f1b4e299c6",
    "xcore-pagerank": "82b501d01997e2ad78c7581eb602822849803c839e5038a108f5ffcf6b3251ae",
    "xcore-pagerank-throttled": "03603247f8630b0d184b860253cbda867da893004ef608922bd454dfd7936e16",
}


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_matches_digest(case, tiny_machine, amd):
    runs = CASES[case](tiny_machine, amd)
    assert digest(runs) == DIGESTS[case]
