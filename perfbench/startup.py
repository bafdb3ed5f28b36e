"""Start-up cost of the program, read from ``python -X importtime``."""

from __future__ import annotations

import subprocess
import sys

import harness

#: What each workload's process imports before its first op.
_IN_PROCESS = "repro.evaluation.engine, repro.evaluation.api, repro.evaluation.timeline"
PROGRAM_IMPORTS = {
    "sweep": _IN_PROCESS,
    "timeline": _IN_PROCESS,
    "serve": "repro.__main__, repro.evaluation.service",
    "cli": "repro.__main__, repro.evaluation.engine, repro.evaluation.api, repro.evaluation.cache",
}
SAMPLES = 3


def parse_importtime(text: str) -> tuple[float, float]:
    """``(program import s, scipy import s)`` from ``-X importtime`` output.

    Program time sums the top-level ``repro`` entries (everything they
    pull in nests under them); scipy time sums the outermost ``scipy``
    entries wherever they nest.  Children print before their parent, so
    the lines are walked in reverse to see each parent first.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = name.rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    program = scipy = 0.0
    ancestors: list[str] = []
    for depth, name, seconds in reversed(entries):
        del ancestors[depth:]
        if depth == 0 and name.split(".")[0] == "repro":
            program += seconds
        if name.split(".")[0] == "scipy" and not any(
            a.split(".")[0] == "scipy" for a in ancestors
        ):
            scipy += seconds
        ancestors.append(name)
    return program, scipy


def import_metrics(workload: str) -> dict:
    """Median ``startup.import_s`` / ``startup.scipy_import_s`` over fresh runs."""
    program, scipy = [], []
    for _ in range(SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             f"import {PROGRAM_IMPORTS[workload]}"],
            cwd=harness.ROOT, env=harness.child_env(), capture_output=True,
            text=True, timeout=60, check=True,
        )
        p, s = parse_importtime(done.stderr)
        program.append(p)
        scipy.append(s)
    return {
        "startup.import_s": harness.median(program),
        "startup.scipy_import_s": harness.median(scipy),
    }
