"""Regenerate ``digests.json``: the expected statistics of every cell.

Usage (from the repository root)::

    python3 perfbench/record_digests.py

Records a digest of the ``RunStats`` of every solo cell any seed can
draw (3 programs x every registered input set x 2 machines x the 8 solo
configurations, at the benchmark's scale) and of every core of the
default-seed direct mix.  Run it only when a change is *meant* to alter
simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
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
    digests = {s.label(): run.digest(st) for s, st in api.run_many(specs).items()}
    mix = run.direct_mix(run.DEFAULT_SEED)
    digests.update(run.mix_pass(mix, run.Tally()).digests)
    document = {"scale": run.SCALE, "digests": dict(sorted(digests.items()))}
    run.DIGESTS.write_text(json.dumps(document, indent=1) + "\n")
    print(f"{len(digests)} digests written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
