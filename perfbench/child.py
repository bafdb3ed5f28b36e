"""Child-process entry points of the benchmark.

``child.py setup WORKLOAD SEED``
    One timed set-up of an in-process workload in a fresh interpreter:
    imports, engine start-up and the warm-up ops, then ``ready``.
``child.py traced STATS_FILE -- REPRO_ARGS...``
    Run ``python -m repro REPRO_ARGS`` with the engine, cache and
    encoding layers wrapped (:mod:`layers`), and write the layer totals
    to STATS_FILE when the command returns (for ``serve``: after its
    SIGTERM drain).  SIGUSR1 writes the totals so far to
    ``STATS_FILE.mark``, so a caller can subtract what came before its
    timed window.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import sys


def _write(path: str, snapshot: dict) -> None:
    with open(path + ".tmp", "w") as fh:
        json.dump(snapshot, fh)
    os.replace(path + ".tmp", path)


def traced(stats_path: str, argv: list[str]) -> int:
    import time

    import layers

    # The program modules the command needs, imported up front so their
    # import time is attributed (and the wrappers find every caller).
    # The module that serialises responses: the service for ``serve``,
    # the CLI itself for the ``--json`` commands.
    encoder = "repro.evaluation.service" if argv[:1] == ["serve"] else "repro.__main__"
    started = time.perf_counter()
    for module in ("repro.evaluation.engine", "repro.evaluation.api",
                   "repro.evaluation.cache", encoder):
        importlib.import_module(module)
    tracer = layers.Tracer()
    tracer.record("startup", time.perf_counter() - started)
    tracer.install(
        layers.ENGINE_TARGETS,
        builders=layers.BUILDER_TARGETS,
        json_modules=(encoder,),
    )
    signal.signal(
        signal.SIGUSR1,
        lambda *_: _write(stats_path + ".mark", tracer.snapshot()),
    )
    from repro.__main__ import main

    try:
        code = main(argv)
    finally:
        _write(stats_path, tracer.snapshot())
    return code


def entry(args: list[str]) -> int:
    if args[:1] == ["setup"] and len(args) == 3:
        import workload_inproc

        workload_inproc.start(args[1], int(args[2]))
        print("ready", flush=True)
        return 0
    if args[:1] == ["traced"] and len(args) >= 3 and args[2] == "--":
        return traced(args[1], args[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(entry(sys.argv[1:]))
