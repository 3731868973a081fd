"""Run ``repro serve`` in this process, optionally with layer wrappers.

Usage::

    python3 perfbench/serve_main.py [--cpu N] [--layers-out FILE] serve --unix-socket S ...

Everything after the launcher's own flags goes to ``repro.cli.main``
unchanged, so the daemon is the one users start.  ``--cpu`` pins the
daemon to one CPU, where the benchmark's host-speed probe samples.  With
``--layers-out``, :mod:`layers` wraps the layer entry points before the
daemon boots, and when the daemon exits (SIGTERM drains it) the
per-layer table and the engine pool's accounting are written to FILE as
JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    import hostspeed
    from repro import cli

    layers_out = None
    if argv[:1] == ["--cpu"]:
        hostspeed.pin(int(argv[1]))
        argv = argv[2:]
    if argv[:1] == ["--layers-out"]:
        layers_out, argv = argv[1], argv[2:]
    if layers_out is None:
        return cli.main(argv)

    import layers
    from repro.serve import pool

    trace = layers.LayerTrace()
    patches = layers.install(trace)
    engines = []
    engine_cls = pool.ExperimentEngine

    class RecordedEngine(engine_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    pool.ExperimentEngine = RecordedEngine
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        pool.ExperimentEngine = engine_cls
        patches.undo()
    wall = time.perf_counter() - start
    table = trace.table(wall)
    for name in layers.ENGINE_KEYS:
        table[f"engine.{name}"] = sum(getattr(e.stats, name) for e in engines)
    Path(layers_out).write_text(json.dumps({"wall_s": wall, "layers": table}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
