"""The repository benchmark: real grid cells, the direct mix and the daemon.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solo-hw --seed 0 --seconds 12 --trace 0

Workloads (README.md says why each exists):

* ``solo-hw``       3 programs x 2 machines x {baseline, hw, hwx}
* ``solo-sw``       3 programs x 2 machines x {sw, swnt, stride, swi, hwsw}
* ``mix-direct``    ``run_fig8`` on one 4-program mix (baseline/swnt/hw)
* ``advisor-mixed`` ``repro serve`` under open-loop warm + closed-loop cold load

Every pass starts from cold in-process memos with the persistent cache
off, and the benchmark sets no ``SimOptions``.  ``--trace 0`` measures
the end-to-end metrics untraced; ``--trace 1`` reruns the work with the
wrappers of :mod:`layers` and reports the per-layer metrics.  End-to-end
host times are normalised to a reference host speed by :mod:`hostspeed`.
The last line of stdout is the result JSON; a schema-versioned run
record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import layers
import loadgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
RECORD_SCHEMA = "perfbench-run-v1"

#: One trip-count scale for every cell: a pass of the largest workload
#: (solo-sw, 30 cells) takes 4-8 s on a 2-CPU sandbox, so runs stay short
#: and the host's drift over minutes touches fewer of them.
SCALE = 0.05
#: The seed that reproduces the named cell sets (all "ref" inputs, the
#: paper's Fig. 8 mix).
DEFAULT_SEED = 0
PROGRAMS = ("libquantum", "mcf", "pagerank")
MACHINES = ("amd-phenom-ii", "intel-i7-2600k")
SOLO_CONFIGS = {
    "solo-hw": ("baseline", "hw", "hwx"),
    "solo-sw": ("sw", "swnt", "stride", "swi", "hwsw"),
}
MIX_MACHINE = "intel-i7-2600k"
MIX_CONFIGS = ("swnt", "hw")
WORKLOADS = ("solo-hw", "solo-sw", "mix-direct", "advisor-mixed")

SETUP_PROBES = 3
#: Warm lane: open-loop rate (raised for short runs so p90 keeps ten
#: samples beyond it) and per-request deadlines of both lanes.
WARM_RATE = 20.0
MIN_WARM_SAMPLES = 110
WARM_DEADLINE_S = 5.0
COLD_DEADLINE_S = 30.0
#: Served responses per lane re-derived one-shot and compared byte for byte.
BYTE_CHECKS = 2
WARM_TENANT = "bench-warm"
COLD_TENANT = "bench-cold"
#: Cells the daemon computes during set-up; warm requests cycle over them.
WARM_SET = (
    ("libquantum", "amd-phenom-ii", "baseline", "ref"),
    ("mcf", "intel-i7-2600k", "swnt", "ref"),
    ("pagerank", "amd-phenom-ii", "hw", "ref"),
    ("pagerank", "intel-i7-2600k", "swi", "ref"),
)

SIM_KEYS = (
    "sim.cycles", "sim.instructions", "sim.l1_misses", "sim.l2_misses",
    "sim.llc_misses", "sim.dram_bytes", "sim.llc_insertions", "sim.nta_fills",
    "sim.sw_prefetches", "sim.sw_useful", "sim.sw_late", "sim.sw_useless",
    "sim.hw_prefetches", "sim.hw_useful", "sim.hw_useless",
)
MIX_KEYS = ("multicore.bandwidth_gbs", "multicore.mean_speedup.swnt", "multicore.mean_speedup.hw")
SERVE_KEYS = (
    "serve.warm_p50_ms", "serve.warm_p90_ms", "serve.warm_sent", "serve.warm_ok",
    "serve.cold_sent", "serve.cold_ok", "serve.rejected", "serve.errors",
    "serve.cold_p50_s", "bench.gen_lag_p90_ms",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_ms_per_kevent": "ms",
    "peak_rss_mb": "MB",
    "cold_op_s": "s",
    "ok_rate": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""

    units = {}
    for key in layers.LayerTrace().table(0.0):
        units[key] = "s" if key.endswith("_s") or "_s." in key else "count"
    units.update({f"engine.{k}": "count" for k in layers.ENGINE_KEYS})
    units.update({k: "count" for k in SERVE_KEYS})
    units.update({k: "ms" for k in SERVE_KEYS if k.endswith("_ms")})
    units["serve.cold_p50_s"] = "s"
    units.update({k: "count" for k in SIM_KEYS})
    units["sim.cycles"] = "cycles"
    units["sim.dram_bytes"] = "bytes"
    units.update({"multicore.bandwidth_gbs": "GB/s"})
    units.update({k: "ratio" for k in MIX_KEYS[1:]})
    units["bench.trace_overhead_frac"] = "ratio"
    return units


# -- correctness ----------------------------------------------------------


def digest_doc(doc: dict) -> str:
    """SHA-256 of a ``stats_to_dict`` document in canonical JSON."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def digest(stats) -> str:
    from repro.core.serialization import stats_to_dict

    return digest_doc(stats_to_dict(stats))


def load_digests() -> dict[str, str]:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())["digests"]


class Tally:
    """Operations attempted and the names of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, name: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def check_digests(tally: Tally, digests: dict[str, str], reference: dict[str, str],
                  recorded: dict[str, str], what: str) -> None:
    """Each digest must equal its earlier pass's and its recorded value."""
    for key, value in digests.items():
        ok = reference.get(key, value) == value and recorded.get(key, value) == value
        tally.check(ok, f"{what}: statistics mismatch for {key}")


# -- seeds -----------------------------------------------------------------


def solo_specs(workload: str) -> list:
    """The solo cells, every program on its reference input, whatever the seed.

    On one program one input set costs up to 1.7x another, so a seeded
    draw of input sets would let the seed, not the code, set the wall
    time; the other input sets run in ``advisor-mixed`` and ``mix-direct``.
    """
    from repro.api import ExperimentSpec

    return [
        ExperimentSpec(p, m, c, "ref", SCALE)
        for p in PROGRAMS
        for m in MACHINES
        for c in SOLO_CONFIGS[workload]
    ]


def direct_mix(seed: int):
    """The Fig. 8 mix, or (other seeds) its members drawn on other inputs.

    ``generate_mixes`` over a pool of just the Fig. 8 members, with
    varied inputs (the paper's Sec. VII-D method), reorders the members
    across cores and gives each a non-reference input set.  Trace
    lengths do not depend on the input set, so every seed simulates the
    same number of demand events.
    """
    from repro.workloads.mixes import fig8_mix, generate_mixes

    reference = fig8_mix()
    if seed == DEFAULT_SEED:
        return reference
    return generate_mixes(
        count=1, size=len(reference.members), pool=reference.members,
        vary_inputs=True, seed=seed,
    )[0]


def cold_sequence(seed: int) -> list[tuple]:
    """Never-computed advisor cells, in a seeded order.

    The programs take turns.  Each walks its (machine, configuration)
    slots in a fixed order, round after round, and the seed draws which
    input set each slot gets in each round.  So whatever the seed, any
    prefix the daemon gets through holds the same programs, machines and
    configurations, which set most of a cell's cost; only input sets move.
    """
    import numpy as np

    from repro.workloads.base import get_workload

    rng = np.random.default_rng(seed)
    configs = SOLO_CONFIGS["solo-hw"] + SOLO_CONFIGS["solo-sw"]
    slots = [(m, c) for m in MACHINES for c in configs]
    per_program = []
    for p in PROGRAMS:
        rounds: list[list[tuple]] = []
        for m, c in slots:
            inputs = [i for i in get_workload(p).inputs if (p, m, c, i) not in WARM_SET]
            for r, k in enumerate(rng.permutation(len(inputs))):
                if r == len(rounds):
                    rounds.append([])
                rounds[r].append((p, m, c, inputs[k]))
        per_program.append([cell for cells in rounds for cell in cells])
    longest = max(len(cells) for cells in per_program)
    return [
        cells[k] for k in range(longest) for cells in per_program if k < len(cells)
    ]


# -- solo and mix passes ----------------------------------------------------


@dataclass
class Pass:
    """What one timed pass produced."""

    wall: float
    events: int
    cold_ops: int
    digests: dict[str, str]
    sim: dict[str, float]
    engine: dict[str, int] = field(default_factory=dict)
    mix: dict[str, float] = field(default_factory=dict)
    #: ``time.monotonic`` interval of the timed part, for :mod:`hostspeed`.
    span: tuple[float, float] = (0.0, 0.0)


def events_of(stats) -> int:
    """Trace events a cell fed the simulator: demand accesses + prefetch ops."""
    return stats.l1.accesses + stats.sw_prefetches


def sim_counters(all_stats) -> dict[str, float]:
    totals = dict.fromkeys(SIM_KEYS, 0)
    for s in all_stats:
        for key, value in (
            ("sim.cycles", s.cycles), ("sim.instructions", s.instructions),
            ("sim.l1_misses", s.l1.misses), ("sim.l2_misses", s.l2.misses),
            ("sim.llc_misses", s.llc.misses), ("sim.dram_bytes", s.dram_bytes),
            ("sim.llc_insertions", s.llc_insertions), ("sim.nta_fills", s.nta_fills),
            ("sim.sw_prefetches", s.sw_prefetches), ("sim.sw_useful", s.sw_useful),
            ("sim.sw_late", s.sw_late), ("sim.sw_useless", s.sw_useless),
            ("sim.hw_prefetches", s.hw_prefetches), ("sim.hw_useful", s.hw_useful),
            ("sim.hw_useless", s.hw_useless),
        ):
            totals[key] += value
    return totals


def solo_pass(specs, tally: Tally) -> Pass:
    """The cells through one ``run_many`` from cold memos."""
    from repro import api
    from repro.errors import EngineError
    from repro.experiments import runner

    runner.clear_memo()
    engine = api.configure(jobs=1)
    start = time.monotonic()
    try:
        results = api.run_many(specs, engine)
    except EngineError:
        results = {}
    end = time.monotonic()
    for spec in specs:
        tally.check(spec in results, f"cell {spec.label()} failed")
    stats = list(results.values())
    return Pass(
        wall=end - start,
        events=sum(events_of(s) for s in stats),
        cold_ops=len(results),
        digests={spec.label(): digest(s) for spec, s in results.items()},
        sim=sim_counters(stats),
        engine={k: getattr(engine.stats, k) for k in layers.ENGINE_KEYS},
        span=(start, end),
    )


def mix_pass(mix, tally: Tally, scale: float = SCALE) -> Pass:
    """``run_fig8`` on ``mix``; every core's statistics are digested.

    ``run_fig8`` returns only speedups and bandwidth, so the
    ``MulticoreSimulator.run`` results are collected on the way past.
    """
    from repro.experiments import runner
    from repro.experiments.fig8_mix_detail import run_fig8
    from repro.multicore.simulator import MulticoreSimulator

    runs = []
    simulate = MulticoreSimulator.run

    def collecting_run(sim, *args, **kwargs):
        runs.append(simulate(sim, *args, **kwargs))
        return runs[-1]

    runner.clear_memo()
    MulticoreSimulator.run = collecting_run
    start = time.monotonic()
    try:
        result = run_fig8(MIX_MACHINE, mix, scale, MIX_CONFIGS)
    except Exception as exc:  # a failed mix is reported, not fatal
        tally.check(False, f"mix {mix.members}: {type(exc).__name__}: {exc}")
        end = time.monotonic()
        return Pass(end - start, 0, 0, {}, sim_counters([]), span=(start, end))
    finally:
        MulticoreSimulator.run = simulate
    end = time.monotonic()
    tally.check(True, "mix")
    label = f"mix/{MIX_MACHINE}/{'+'.join(mix.members)}/{'+'.join(mix.inputs)}@{scale:g}"
    digests = {}
    stats = []
    for config, sim_result in zip(("baseline", *MIX_CONFIGS), runs):
        for core, core_stats in enumerate(sim_result.per_core):
            digests[f"{label}/{config}/core{core}"] = digest(core_stats)
            stats.append(core_stats)
    return Pass(
        wall=end - start,
        events=sum(events_of(s) for s in stats),
        cold_ops=len(runs),
        digests=digests,
        sim=sim_counters(stats),
        mix={
            "multicore.bandwidth_gbs": sum(result.bandwidth.values()),
            **{
                f"multicore.mean_speedup.{c}": sum(v) / len(v)
                for c, v in result.speedups.items()
            },
        },
        span=(start, end),
    )


# -- the advisor daemon -------------------------------------------------------


class Daemon:
    """``repro serve`` in a child process on a unix socket in the checkout."""

    def __init__(self, cpu: int, layers_out: Path | None = None) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        # Relative paths (to the daemon's cwd, the checkout root, and to
        # ours) keep under the unix-socket path limit wherever the
        # checkout lives.
        self.socket = f"{OUT_DIR.name}/serve-{os.getpid()}-{time.monotonic_ns()}.sock"
        self.layers_out = layers_out
        argv = [sys.executable, str(HERE / "serve_main.py"), "--cpu", str(cpu)]
        if layers_out is not None:
            argv += ["--layers-out", str(layers_out)]
        argv += ["serve", "--unix-socket", self.socket, "--no-cache", "--jobs", "1"]
        self.log = open(OUT_DIR / "serve.log", "ab")
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT)

    def connect(self, timeout: float = 60.0):
        deadline = time.monotonic() + timeout
        while True:
            try:
                return loadgen.LineConn.connect(os.path.relpath(ROOT / self.socket))
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"advisor daemon did not come up (exit {self.proc.poll()})"
                    ) from None
                time.sleep(0.02)

    def stop(self) -> dict | None:
        """SIGTERM (the daemon drains), wait, and return its layer dump."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if self.layers_out is not None and self.layers_out.is_file():
            return json.loads(self.layers_out.read_text())
        return None


def advisor_request(cell, tenant: str, request_id: str):
    """The request for ``(workload, machine, config, input_set)``."""
    from repro.api import AdvisorRequest

    workload, machine, config, input_set = cell
    return AdvisorRequest(
        workload=workload, machine=machine, config=config, input_set=input_set,
        scale=SCALE, tenant=tenant, request_id=request_id,
    )


def request_line(cell, tenant: str, request_id: str) -> tuple[str, bytes]:
    """``(request_id, wire form)`` of :func:`advisor_request`."""
    from repro.serve import protocol

    return request_id, protocol.encode_request(advisor_request(cell, tenant, request_id))


def prewarm(daemon: Daemon) -> None:
    conn = daemon.connect()
    try:
        lines = [request_line(c, WARM_TENANT, f"prewarm-{k}") for k, c in enumerate(WARM_SET)]
        outcomes = loadgen.closed_loop(conn, lines, float("inf"), COLD_DEADLINE_S)
    finally:
        conn.close()
    bad = [o.request_id for o in outcomes if response_status(o.line) != "ok"]
    if len(outcomes) != len(WARM_SET) or bad:
        raise RuntimeError(f"pre-warming the advisor failed: {bad}")


def response_status(line: bytes | None) -> str | None:
    return None if line is None else json.loads(line).get("status")


@dataclass
class LoadPhase:
    """Outcomes of one timed advisor phase."""

    wall: float
    warm: list
    cold: list
    cold_cells: list
    span: tuple[float, float]


def run_load(daemon: Daemon, seconds: float, seed: int) -> LoadPhase:
    """Both lanes against ``daemon`` for ``seconds``."""
    warm_conn = daemon.connect()
    cold_conn = daemon.connect()
    cells = cold_sequence(seed)
    rate = max(WARM_RATE, MIN_WARM_SAMPLES / seconds)
    warm_lane = loadgen.OpenLoop(
        lambda i: request_line(WARM_SET[i % len(WARM_SET)], WARM_TENANT, f"warm-{i}"),
        rate,
        WARM_DEADLINE_S,
    )
    cold_lines = (request_line(c, COLD_TENANT, f"cold-{k}") for k, c in enumerate(cells))
    cold: list = []
    errors: list[BaseException] = []
    began = time.monotonic()
    start = time.perf_counter()
    stop = start + seconds

    def lane(fn):
        try:
            fn()
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=lane, args=(lambda: warm_lane.run(warm_conn, start, stop),)),
        threading.Thread(
            target=lane,
            args=(lambda: cold.extend(
                loadgen.closed_loop(cold_conn, cold_lines, stop, COLD_DEADLINE_S)
            ),),
        ),
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + COLD_DEADLINE_S + 10)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a load lane did not finish")
    finally:
        warm_conn.close()
        cold_conn.close()
    if errors:
        raise RuntimeError(f"load lane failed: {errors[0]!r}") from errors[0]
    wall = time.perf_counter() - start
    return LoadPhase(wall, warm_lane.outcomes, cold, cells, (began, time.monotonic()))


def served_stats(outcomes):
    """``(request_id, RunStats)`` of every ok response with statistics."""
    from repro.core.serialization import stats_from_dict

    out = []
    for o in outcomes:
        if o.line is None:
            continue
        payload = json.loads(o.line)
        if payload.get("status") == "ok" and payload.get("stats"):
            out.append((o.request_id, stats_from_dict(payload["stats"]), payload["stats"]))
    return out


def check_phase(phase: LoadPhase, tally: Tally, recorded: dict[str, str]) -> dict[str, str]:
    """Count lane failures; returns ``{cell label: digest}`` of cold responses."""
    from repro.api import ExperimentSpec

    for lane, outcomes in (("warm", phase.warm), ("cold", phase.cold)):
        for o in outcomes:
            status = response_status(o.line)
            tally.check(status == "ok", f"{lane} {o.request_id}: {status or 'missed deadline'}")
    digests = {}
    for request_id, _stats, doc in served_stats(phase.cold):
        workload, machine, config, input_set = phase.cold_cells[int(request_id.split("-")[1])]
        label = ExperimentSpec(workload, machine, config, input_set, SCALE).label()
        digests[label] = digest_doc(doc)
    check_digests(tally, digests, {}, recorded, "served cold")
    return digests


def byte_check(phase: LoadPhase, tally: Tally) -> None:
    """Served responses must equal one-shot ``repro.api.advise`` byte for byte."""
    from repro import api
    from repro.serve import protocol

    for lane, cells, outcomes, tenant in (
        ("warm", WARM_SET, phase.warm, WARM_TENANT),
        ("cold", phase.cold_cells, phase.cold, COLD_TENANT),
    ):
        answered = [o for o in outcomes if response_status(o.line) == "ok"]
        seen = set()
        for o in answered:
            index = int(o.request_id.split("-")[1])
            cell = cells[index % len(cells)]
            if cell in seen:
                continue
            seen.add(cell)
            oneshot = api.advise(advisor_request(cell, tenant, o.request_id))
            tally.check(
                protocol.encode_response(oneshot) == o.line,
                f"{lane} {o.request_id}: served bytes differ from one-shot",
            )
            if len(seen) == BYTE_CHECKS:
                break


def phase_serve_counts(phase: LoadPhase) -> dict[str, float]:
    """Lane counts and latencies; warm latency is timed from when each was due."""
    counts = dict.fromkeys(SERVE_KEYS, 0)
    warm_ms = [o.latency * 1e3 for o in phase.warm if response_status(o.line) == "ok"]
    if warm_ms:
        counts["serve.warm_p50_ms"] = loadgen.median(warm_ms)
        counts["serve.warm_p90_ms"] = supported_p90(warm_ms)
    counts["serve.warm_sent"] = len(phase.warm)
    counts["serve.cold_sent"] = len(phase.cold)
    for lane, outcomes in (("warm", phase.warm), ("cold", phase.cold)):
        for o in outcomes:
            status = response_status(o.line)
            if status == "ok":
                counts[f"serve.{lane}_ok"] += 1
            elif status == "rejected":
                counts["serve.rejected"] += 1
            elif status == "error":
                counts["serve.errors"] += 1
    cold_s = [o.latency for o in phase.cold if o.done is not None]
    counts["serve.cold_p50_s"] = loadgen.median(cold_s) if cold_s else 0.0
    counts["bench.gen_lag_p90_ms"] = supported_p90([o.lag * 1e3 for o in phase.warm])
    return counts


def supported_p90(values) -> float:
    """p90 when ten samples lie beyond it, else the largest sample."""
    try:
        return loadgen.percentile(values, 0.9)
    except ValueError:
        return max(values, default=0.0)


# -- workloads: setup and measurement ----------------------------------------


def setup(workload: str, seed: int, work_cpu: int):
    """Everything before the first timed operation.

    The advisor daemon is pinned to ``work_cpu``, where the host-speed
    probe samples; the solo and mix work runs in this process, which the
    caller has pinned there.
    """
    from repro import api  # noqa: F401  (part of the measured set-up)
    from repro.experiments import fig8_mix_detail, runner  # noqa: F401

    if workload in SOLO_CONFIGS:
        return solo_specs(workload)
    if workload == "mix-direct":
        return direct_mix(seed)
    daemon = Daemon(work_cpu)
    try:
        prewarm(daemon)
    except BaseException:
        daemon.stop()
        raise
    return daemon


def probe_setup(workload: str, seed: int, work_cpu: int) -> tuple[float, float, float]:
    """Seconds from spawning a fresh process to its first timed operation,
    with the ``time.monotonic`` interval they span."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--work-cpu", str(work_cpu)],
        cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        ready = time.monotonic()
        proc.stdin.close()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return ready - start, start, ready


def setup_probe_main(workload: str, seed: int, work_cpu: int) -> int:
    """Child side of :func:`probe_setup`: set up, say ready, tear down."""
    state = setup(workload, seed, work_cpu)
    print("ready", flush=True)
    sys.stdin.read()
    if isinstance(state, Daemon):
        state.stop()
    return 0


def run_passes(workload: str, state, seconds: float, tally: Tally, recorded,
               traced: bool, reference: dict | None = None):
    """Timed passes until ``seconds`` elapse (at least one)."""

    passes: list[Pass] = []
    tables: list[dict] = []
    first = reference
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        trace = patches = None
        if traced:
            trace = layers.LayerTrace()
            patches = layers.install(trace)
        try:
            if workload in SOLO_CONFIGS:
                p = solo_pass(state, tally)
            else:
                p = mix_pass(state, tally)
        finally:
            if patches is not None:
                patches.undo()
        if first is None:
            first = p.digests
        check_digests(tally, p.digests, first, recorded, workload)
        passes.append(p)
        if trace is not None:
            tables.append(trace.table(p.wall))
    return passes, tables


def peak_rss_mb() -> float:
    """Largest resident set of this process and every child it has waited for."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024


def measure(workload: str, seed: int, seconds: float, tally: Tally, record: dict,
            work_cpu: int) -> dict:
    """The end-to-end metrics of one untraced run.

    Host times are normalised by :mod:`hostspeed`: the probe samples the
    CPU the work runs on for the whole run, set-up included.
    """
    recorded = load_digests()
    with hostspeed.Sampler(work_cpu) as speed:
        setups = [probe_setup(workload, seed, work_cpu) for _ in range(SETUP_PROBES)]
        state = setup(workload, seed, work_cpu)
        if isinstance(state, Daemon):
            try:
                phase = run_load(state, seconds, seed)
            finally:
                state.stop()
        else:
            passes, _ = run_passes(workload, state, seconds, tally, recorded, traced=False)
    record["setup_samples_s"] = [d for d, _, _ in setups]
    record["host_probe_samples"] = len(speed.samples)
    if isinstance(state, Daemon):
        check_phase(phase, tally, recorded)
        byte_check(phase, tally)
        cold_ok = served_stats(phase.cold)
        record["serve"] = phase_serve_counts(phase)
        warm_ok = record["serve"]["serve.warm_ok"]
        record["samples"] = {"serve.warm_p50_ms": warm_ok, "serve.warm_p90_ms": warm_ok}
        factor = speed.factor(*phase.span)
        record["host_factor"] = factor
        # The load phase lasts --seconds whatever the host speed, so its
        # wall time is reported as measured.
        metrics = {
            "wall_s": phase.wall,
            "sim_ms_per_kevent": phase.wall * factor * 1e6
            / max(1, sum(events_of(s) for _, s, _ in cold_ok)),
            "peak_rss_mb": peak_rss_mb(),
            "cold_op_s": phase.wall * factor / max(1, len(cold_ok)),
        }
    else:
        walls = [speed.normalise(p.wall, *p.span) for p in passes]
        record["pass_walls_s"] = [p.wall for p in passes]
        record["pass_walls_normalised_s"] = walls
        record["samples"] = {"wall_s": len(passes)}
        wall = loadgen.median(walls)
        metrics = {
            "wall_s": wall,
            "sim_ms_per_kevent": wall * 1e6 / max(1, passes[0].events),
            "peak_rss_mb": peak_rss_mb(),
            "cold_op_s": wall / max(1, passes[0].cold_ops),
        }
    record["samples"]["setup_s"] = len(setups)
    metrics["setup_s"] = loadgen.median(speed.normalise(*s) for s in setups)
    metrics["ok_rate"] = 1.0 - len(tally.failures) / max(1, tally.attempted)
    return {k: metrics[k] for k in END_TO_END_UNITS}


def measure_layers(workload: str, seed: int, seconds: float, tally: Tally, record: dict,
                   work_cpu: int) -> dict:
    """The per-layer metrics of one traced run (plus an untraced reference)."""

    recorded = load_digests()
    out = dict.fromkeys(per_layer_units(), 0)
    state = setup(workload, seed, work_cpu)
    if isinstance(state, Daemon):
        # Half the time untraced, half traced, on the same cold sequence:
        # the same cells must come back with the same statistics.
        try:
            plain = run_load(state, seconds / 2, seed)
        finally:
            state.stop()
        dump_path = OUT_DIR / f"layers-{os.getpid()}.json"
        traced_daemon = Daemon(work_cpu, layers_out=dump_path)
        try:
            prewarm(traced_daemon)
            traced = run_load(traced_daemon, seconds / 2, seed)
        finally:
            dump = traced_daemon.stop()
            dump_path.unlink(missing_ok=True)
        reference = check_phase(plain, tally, recorded)
        digests = check_phase(traced, tally, recorded)
        check_digests(tally, digests, reference, {}, "traced vs untraced")
        if dump is None:
            tally.check(False, "traced daemon wrote no layer table")
        else:
            out.update(dump["layers"])
        # Latencies from the untraced half: the wrappers slow the daemon.
        out.update(phase_serve_counts(plain))
        out.update(sim_counters(s for _, s, _ in served_stats(traced.cold)))
        n = min(len(plain.cold), len(traced.cold))
        busy = [sum(o.latency for o in lane.cold[:n]) for lane in (plain, traced)]
        out["bench.trace_overhead_frac"] = busy[1] / busy[0] - 1 if n and busy[0] else 0.0
        record["layer_wall_s"] = dump["wall_s"] if dump else None
    else:
        untraced, _ = run_passes(workload, state, 0, tally, recorded, traced=False)
        passes, tables = run_passes(
            workload, state, seconds, tally, recorded, traced=True,
            reference=untraced[0].digests,
        )
        for key in tables[0]:
            out[key] = loadgen.median(t[key] for t in tables)
        last = passes[-1]
        out.update({f"engine.{k}": v for k, v in last.engine.items()})
        out.update(last.sim)
        out.update(last.mix)
        traced_wall = loadgen.median(p.wall for p in passes)
        out["bench.trace_overhead_frac"] = traced_wall / untraced[0].wall - 1
        record["layer_wall_s"] = traced_wall
    wall = record["layer_wall_s"]
    if wall:
        record["layer_share_of_wall"] = {k: out[k] / wall for k in layers.SELF_TIME_KEYS}
    return out


# -- run record and output -----------------------------------------------------


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def base_record(args) -> dict:
    import numpy as np

    from repro.cachesim.options import get_default_options

    options = get_default_options()
    return {
        "schema": RECORD_SCHEMA,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "sim_options": {"backend": options.backend, "batch_hierarchy": options.batch_hierarchy},
        "scale": SCALE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_record(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT_DIR / (
        f"run-{record['workload']}-seed{record['seed']}-trace{record['trace']}"
        f"-{stamp}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-cpu", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe_main(args.workload, args.seed, args.work_cpu)

    # The measured work shares one CPU with the host-speed probe; the
    # advisor's load generator (this process) gets the other.
    work_cpu, generator_cpu = hostspeed.layout()
    hostspeed.pin(generator_cpu if args.workload == "advisor-mixed" else work_cpu)
    tally = Tally()
    record = base_record(args)
    record["cpus"] = {"work": work_cpu, "generator": generator_cpu}
    if args.trace:
        values = measure_layers(args.workload, args.seed, args.seconds, tally, record, work_cpu)
        units = per_layer_units()
    else:
        values = measure(args.workload, args.seed, args.seconds, tally, record, work_cpu)
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record["metrics"] = metrics
    record["failures"] = tally.failures
    path = write_record(record)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": max(1, tally.attempted),
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
