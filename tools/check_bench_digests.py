"""Recompute every digest in ``perfbench/digests.json``; exit 1 on any mismatch.

Usage (from the repository root)::

    python3 tools/check_bench_digests.py

``perfbench/run.py`` records a digest mismatch only in its result JSON and
still exits 0, so a change that alters simulated statistics would pass a
benchmark run unnoticed.  This check recomputes the digest of every solo
cell any benchmark seed can draw (3 programs x every registered input set
x 2 machines x the 8 solo configurations) and of every core of the
default-seed direct mix, with the benchmark's own helpers (imported from
``perfbench/run.py``, never modified), and compares them key for key with
the recorded file.  A missing, extra or differing key fails the check.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)


def recompute() -> dict[str, str]:
    """``{label: digest}`` of the cells ``perfbench/record_digests.py`` records."""
    sys.path.insert(0, str(run.SRC))
    from repro import api
    from repro.workloads.base import get_workload

    configs = run.SOLO_CONFIGS["solo-hw"] + run.SOLO_CONFIGS["solo-sw"]
    specs = [
        api.ExperimentSpec(p, m, c, i, run.SCALE)
        for p in run.PROGRAMS
        for i in get_workload(p).inputs
        for m in run.MACHINES
        for c in configs
    ]
    results = api.run_many(specs, api.configure(jobs=1))
    digests = {s.label(): run.digest(st) for s, st in results.items()}
    tally = run.Tally()
    digests.update(run.mix_pass(run.direct_mix(run.DEFAULT_SEED), tally).digests)
    for failure in tally.failures:
        print(f"FAILED {failure}")
    return digests


def main() -> int:
    start = time.monotonic()
    recorded = run.load_digests()
    if not recorded:
        print(f"no digests recorded in {run.DIGESTS}")
        return 1
    computed = recompute()
    matched = bad = 0
    for key in sorted(set(recorded) | set(computed)):
        if key not in computed:
            print(f"MISSING  {key}: recorded but not recomputed")
        elif key not in recorded:
            print(f"EXTRA    {key}: recomputed but not recorded")
        elif computed[key] != recorded[key]:
            print(f"MISMATCH {key}")
        else:
            matched += 1
            continue
        bad += 1
    wall = time.monotonic() - start
    print(f"{matched}/{len(recorded)} benchmark digests match, {bad} failing ({wall:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
