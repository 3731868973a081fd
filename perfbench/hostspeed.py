"""Host-speed normalisation of the benchmark's time metrics.

The benchmark shares a few cores of a host with other tenants, and the
speed a core delivers moves between states up to ~2x apart that last
from milliseconds to minutes.  Taking the fastest of a run's passes does
not help when a whole run falls in a slow state.

So a small *probe* process is pinned to the same CPU as the measured
work.  Every ~20 ms it wakes and times a fixed pure-Python kernel (a
set-associative LRU cache walked by an address stream, the same kind of
interpreter work the simulator does) for about a millisecond.  The
probe's samples interleave with the measured work on that CPU, so their
mean over an interval is the host's speed over the same interval.  A
measured time ``t`` is reported as ``t * REF_PROBE_S / mean probe time``:
the seconds it would have taken on a host where one probe takes
``REF_PROBE_S``.  On a 2-CPU sandbox the pass time of ``solo-hw`` and
the probe mean over the pass correlated at 0.96 over 40 passes, and
normalising cut the spread of pass times from 13.5% to 4.5%.

Usage of the probe process (``Sampler`` starts it)::

    python3 perfbench/hostspeed.py --cpu 0

It samples until its stdin closes, then prints the samples as JSON
``[[start, seconds], ...]`` (``time.monotonic`` clock) and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

#: Probe time of the reference host; normalised times are seconds there.
REF_PROBE_S = 1e-3
#: Kernel size (about a millisecond on a 2-CPU sandbox) and sampling gap.
PROBE_ITERATIONS = 1500
GAP_S = 0.02
#: Fewest samples a window is averaged over.
MIN_SAMPLES = 5


def probe(n: int = PROBE_ITERATIONS) -> int:
    """The fixed kernel: a 64-set, 4-way LRU cache over an LCG stream."""
    sets = [[] for _ in range(64)]
    counts: dict[int, int] = {}
    x = 12345
    hits = 0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 6) & 0x3FF
        ways = sets[line & 63]
        if line in ways:
            ways.remove(line)
            hits += 1
        elif len(ways) >= 4:
            ways.pop(0)
        ways.append(line)
        counts[line] = counts.get(line, 0) + 1
    return hits


def pin(cpu: int) -> None:
    """Restrict this process (and the threads it starts later) to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


def layout() -> tuple[int, int]:
    """``(work CPU, generator CPU)``: the measured work and its probe share
    the first usable CPU; a load generator gets the second if there is one."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[1] if len(cpus) > 1 else cpus[0]


def window_mean(samples, start: float, end: float) -> float:
    """Mean probe time of the samples begun in ``[start, end]``.

    A window with fewer than :data:`MIN_SAMPLES` samples takes the ones
    nearest to it instead.
    """
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
        inside = [d for _, d in nearest]
    if not inside:
        raise ValueError("no host-speed samples")
    return sum(inside) / len(inside)


class Sampler:
    """The probe process, pinned to ``cpu``; use as a context manager.

    ``normalise(seconds, start, end)`` converts a time measured over the
    ``time.monotonic`` interval ``[start, end]``; it is valid after the
    ``with`` block ends (the samples are collected when the probe stops).
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.proc: subprocess.Popen | None = None
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "Sampler":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--cpu", str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.stop()
        elif self.proc is not None:
            self.proc.kill()
            self.proc.communicate()
            self.proc = None

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("host-speed probe did not stop") from None
        if proc.returncode != 0:
            raise RuntimeError(f"host-speed probe failed (exit {proc.returncode})")
        self.samples = [tuple(s) for s in json.loads(out)]

    def factor(self, start: float, end: float) -> float:
        """Reference over measured host speed for ``[start, end]``."""
        return REF_PROBE_S / window_mean(self.samples, start, end)

    def normalise(self, seconds: float, start: float, end: float) -> float:
        return seconds * self.factor(start, end)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="host-speed probe process")
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    pin(args.cpu)
    samples = []
    while True:
        start = time.monotonic()
        probe()
        samples.append((start, time.monotonic() - start))
        readable, _, _ = select.select([sys.stdin], [], [], GAP_S)
        if readable and not sys.stdin.buffer.read1(4096):
            break
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
