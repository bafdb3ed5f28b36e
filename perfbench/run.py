"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory.  Workloads (see README.md in this directory):
``sweep`` and ``timeline`` run in-process on the serial executor,
``serve`` drives a ``repro serve`` subprocess, ``cli`` runs cold
``python -m repro`` processes.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` a second, traced
window gives the per-layer metrics.  The line before it is the machine
fingerprint.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("sweep", "timeline", "serve", "cli")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {harness.SRC}/repro; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(harness.SRC))
    machine = harness.fingerprint()
    trace = bool(args.trace)
    harness.adopt_orphans()
    workdir = harness.make_workdir()
    try:
        if args.workload in ("sweep", "timeline"):
            import workload_inproc

            tally, metrics = workload_inproc.run(
                args.workload, args.seed, args.seconds, trace
            )
        elif args.workload == "serve":
            import workload_serve

            tally, metrics = workload_serve.run(
                args.seed, args.seconds, trace, workdir
            )
        else:
            import workload_cli

            tally, metrics = workload_cli.run(
                args.seed, args.seconds, trace, workdir
            )
    finally:
        harness.reap_children()
        harness.remove_workdir(workdir)
    if trace:
        import layers

        metrics = layers.complete(metrics)
    print("fingerprint " + json.dumps(machine, sort_keys=True))
    harness.emit(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
