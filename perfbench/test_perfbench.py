"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402


# -- percentile helper ------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 0.9) == 90
    with pytest.raises(ValueError, match="need at least 10"):
        loadgen.percentile(values[:99], 0.9)


def test_p50_of_small_sample_and_median():
    assert loadgen.percentile(list(range(1, 21)), 0.5) == 10
    assert loadgen.median([3, 1, 2, 4]) == 2.5
    with pytest.raises(ValueError):
        loadgen.percentile(list(range(200)), 1.0)


# -- due-time latency accounting ---------------------------------------------


class StallingConn:
    """Answers every request at once, but its send blocks once."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.sent = 0
        self.ready: list[bytes] = []

    def send(self, line: bytes) -> None:
        if self.sent == self.stall_at:
            time.sleep(self.stall_s)
        self.sent += 1
        request_id = json.loads(line)["request_id"]
        self.ready.append(json.dumps({"request_id": request_id, "status": "ok"}).encode())

    def read_lines(self, timeout: float) -> list[bytes]:
        if not self.ready:
            time.sleep(max(0.0, timeout))
        lines, self.ready = self.ready, []
        return lines


def test_a_stall_raises_the_latency_of_requests_due_during_it():
    rate, stall_at, stall_s = 100.0, 10, 0.2
    lane = loadgen.OpenLoop(
        lambda i: (f"r{i}", json.dumps({"request_id": f"r{i}"}).encode()), rate, 5.0
    )
    start = time.perf_counter()
    outcomes = lane.run(StallingConn(stall_at, stall_s), start, start + 0.5)
    assert len(outcomes) == 50 and all(o.done is not None for o in outcomes)
    before = [o.latency for o in outcomes[:stall_at]]
    # Requests due while the generator was stuck were sent late; timing
    # them from when they were due charges them the wait.
    during = outcomes[stall_at + 1 : stall_at + 5]
    assert max(before) < 0.05
    assert all(o.latency > 0.1 for o in during)
    assert all(o.lag > 0.1 for o in during)
    # Timed from the send instead, the stall would be invisible.
    assert all(o.done - o.sent < 0.05 for o in during)


def test_an_unanswered_request_fails_at_its_deadline():
    class SilentConn(StallingConn):
        def read_lines(self, timeout):
            time.sleep(max(0.0, min(timeout, 0.01)))
            return []

    lane = loadgen.OpenLoop(
        lambda i: (f"r{i}", json.dumps({"request_id": f"r{i}"}).encode()), 50.0, 0.1
    )
    start = time.perf_counter()
    outcomes = lane.run(SilentConn(-1, 0.0), start, start + 0.1)
    assert time.perf_counter() - start < 1.0
    assert outcomes and all(o.latency == float("inf") for o in outcomes)


# -- host-speed normalisation ----------------------------------------------------


def test_window_mean_averages_the_window_or_its_nearest_samples():
    samples = [(float(t), 1.0 if t < 10 else 3.0) for t in range(20)]
    assert hostspeed.window_mean(samples, 12.0, 18.0) == 3.0
    assert hostspeed.window_mean(samples, 7.0, 12.0) == pytest.approx(2.0)
    # Two samples inside: the five nearest to the middle are used instead.
    assert hostspeed.window_mean(samples, 9.0, 10.0) == pytest.approx(1.8)


def test_a_slower_host_lowers_the_factor_in_proportion():
    speed = hostspeed.Sampler(cpu=0)
    speed.samples = [(float(t), 1e-3 if t < 10 else 2e-3) for t in range(20)]
    fast = speed.normalise(4.0, 0.0, 9.0)
    slow = speed.normalise(8.0, 10.0, 19.0)
    assert fast == pytest.approx(4.0) and slow == pytest.approx(4.0)


def test_the_probe_process_samples_its_cpu_and_stops():
    work_cpu, _ = hostspeed.layout()
    with hostspeed.Sampler(work_cpu) as speed:
        start = time.monotonic()
        time.sleep(0.3)
        end = time.monotonic()
        proc = speed.proc
    assert proc.returncode == 0
    assert len(speed.samples) >= 5
    assert all(start - 1.0 < t < end + 1.0 and d > 0 for t, d in speed.samples)
    assert speed.factor(start, end) > 0


# -- wrapper transparency ------------------------------------------------------


def _solo_digests(specs):
    from repro import api
    from repro.experiments import runner

    runner.clear_memo()
    engine = api.configure(jobs=1)
    results = api.run_many(specs, engine)
    return {s.label(): run.digest(st) for s, st in results.items()}, results


def test_wrappers_are_transparent_and_removable():
    from repro.api import ExperimentSpec
    from repro.cachesim.hierarchy import CacheHierarchy
    from repro.experiments import runner
    from repro.multicore.simulator import MulticoreSimulator
    from repro.workloads.mixes import fig8_mix

    specs = [
        ExperimentSpec("mcf", "amd-phenom-ii", c, scale=0.02)
        for c in ("baseline", "hw", "hwx", "swnt", "swi", "hwsw")
    ]
    originals = (
        CacheHierarchy.run, MulticoreSimulator.run, runner.execute_program,
        runner.hw_prefetcher_for,
    )
    plain, _ = _solo_digests(specs)
    plain_mix = run.mix_pass(fig8_mix(), run.Tally(), scale=0.01).digests

    trace = layers.LayerTrace()
    patches = layers.install(trace)
    try:
        traced, results = _solo_digests(specs)
        tally = run.Tally()
        traced_mix = run.mix_pass(fig8_mix(), tally, scale=0.01).digests
    finally:
        patches.undo()

    assert traced == plain
    assert traced_mix == plain_mix and not tally.failures
    assert (
        CacheHierarchy.run, MulticoreSimulator.run, runner.execute_program,
        runner.hw_prefetcher_for,
    ) == originals
    table = trace.table(wall=1e9)
    assert table["cachesim.events"] == sum(run.events_of(s) for s in results.values())
    assert table["multicore.events"] > 0
    assert table["hwpref.observe_calls"] > 0 and table["isa.rewrite_calls"] > 0
    assert table["cachesim.self_s"] < table["cachesim.run_s"]


# -- contract ------------------------------------------------------------------


def test_exits_nonzero_without_a_program_to_measure(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solo-hw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
