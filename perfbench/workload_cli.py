"""The ``cli`` workload: sequential cold ``python -m repro`` processes.

Set-up fills a fresh ``--cache`` file in-process (the 81-design sweep
and its 24-point timeline) and builds the exact stdout each command
must print; then the window cycles through ``sweep --json``,
``timeline --json`` and ``cache stats --json`` against that cache.
Every design is a disk hit, so an op is start-up, sqlite reads and JSON
writes.  An op is one process from spawn to exit; its stdout must match
the set-up payload byte for byte and it must exit 0.
"""

from __future__ import annotations

import json
import random
import sys

import harness
import layers
from harness import OpFailure, Tally, now

ROLES = ["dns", "web", "app", "db"]
MAX_REPLICAS = 3
POINTS = 24
#: Commands per cycle: sweep, timeline, cache stats.
CYCLE = 3


class Cli:
    """The seeded command cycle and the payloads each command must print."""

    def __init__(self, seed: int, workdir) -> None:
        rng = random.Random(seed)
        self.horizon = float(rng.randrange(480, 961, 24))
        self.offset = rng.randrange(CYCLE)
        self.cache = str(workdir / "cli.sqlite")
        self.workdir = workdir
        space = ["--roles", ",".join(ROLES), "--max-replicas", str(MAX_REPLICAS)]
        self.commands = [
            ("sweep", ["sweep", *space, "--json", "--cache", self.cache]),
            ("timeline", ["timeline", *space, "--horizon", f"{self.horizon:g}",
                          "--points", str(POINTS), "--json", "--cache", self.cache]),
            ("stats", ["cache", "stats", "--cache", self.cache, "--json"]),
        ]
        self.expected: dict[str, bytes] = {}
        self.designs: dict[str, int] = {}
        self.ops = 0

    def fill(self) -> None:
        """Compute both payloads in-process, writing every design to the cache."""
        from repro.evaluation.api import sweep_response, timeline_response
        from repro.evaluation.cache import PersistentEvaluationCache
        from repro.evaluation.engine import SweepEngine
        from repro.evaluation.sweep import enumerate_designs
        from repro.evaluation.timeline import default_time_grid

        designs = list(enumerate_designs(ROLES, max_replicas=MAX_REPLICAS))
        times = default_time_grid(self.horizon, POINTS)
        harness.set_blas_threads(harness.STEADY_BLAS_THREADS)
        engine = SweepEngine(cache_path=self.cache)
        try:
            sweep = sweep_response(
                ROLES, MAX_REPLICAS, None, False, engine.executor.name,
                engine.evaluate(designs),
            )
            timeline = timeline_response(
                ROLES, MAX_REPLICAS, None, False, engine.executor.name, None,
                times, engine.timeline(designs, times),
            )
        finally:
            engine.close()
        harness.check_sweep_payload(sweep, len(designs))
        harness.check_timeline_payload(timeline, len(designs), POINTS)
        with PersistentEvaluationCache(self.cache) as cache:
            stats = cache.stats()
        for name, payload in (("sweep", sweep), ("timeline", timeline), ("stats", stats)):
            self.expected[name] = (json.dumps(payload, indent=2) + "\n").encode()
            self.designs[name] = len(payload.get("designs", ()))

    def next_command(self):
        name, argv = self.commands[(self.offset + self.ops) % len(self.commands)]
        self.ops += 1
        return name, argv

    def run_op(self, name, argv, tally: Tally, stats_path=None) -> float:
        """One cold process; returns its peak RSS in MB."""
        if stats_path is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(harness.BENCH_DIR / "child.py"),
                       "traced", str(stats_path), "--", *argv]
        started = now()
        try:
            code, out, wall, rss = harness.run_child(
                command, self.workdir / f"{name}.err"
            )
            if code != 0:
                raise OpFailure(f"{name} exited {code}")
            if out != self.expected[name]:
                raise OpFailure(f"{name} stdout differs from the set-up payload")
        except OpFailure as exc:
            tally.fail(str(exc), now() - started)
            return 0.0
        tally.record(wall, self.designs[name])
        return rss


def window(cli: Cli, seconds: float, tally: Tally, stats_paths=None) -> float:
    """Run whole command cycles for *seconds*; the largest child peak RSS (MB)."""
    peak = 0.0
    started = now()
    while now() - started < seconds or cli.ops % CYCLE:
        name, argv = cli.next_command()
        stats_path = None
        if stats_paths is not None:
            stats_path = cli.workdir / f"layers-{len(stats_paths)}.json"
            stats_paths.append(stats_path)
        peak = max(peak, cli.run_op(name, argv, tally, stats_path))
    return peak


def start(seed: int, workdir, tally: Tally) -> tuple[Cli, float]:
    """Fill the cache, build the payloads, warm one full command cycle."""
    started = now()
    cli = Cli(seed, workdir)
    cli.fill()
    warm = Tally()
    for _ in cli.commands:
        cli.run_op(*cli.next_command(), warm)
    tally.merge(warm)
    return cli, now() - started


def run(seed: int, seconds: float, trace: bool, workdir) -> tuple[Tally, dict]:
    tally = Tally(CYCLE)
    cli, setup_s = start(seed, workdir, tally)
    peak = window(cli, seconds, tally)
    if not trace:
        return tally, harness.end_to_end(tally, setup_s, peak)
    return tally, traced_metrics(cli, seconds, tally)


def traced_metrics(cli: Cli, seconds: float, untraced: Tally) -> dict:
    import startup

    traced = Tally(CYCLE)
    stats_paths: list = []
    window(cli, seconds, traced, stats_paths)
    snapshots = []
    for path in stats_paths:
        try:
            with open(path) as fh:
                snapshots.append(json.load(fh))
        except (OSError, ValueError):
            continue  # a failed op, already counted
    metrics = layers.layer_metrics(
        layers.merge_snapshots(snapshots), {}, sum(traced.latencies)
    )
    metrics.update(startup.import_metrics("cli"))
    metrics["trace.overhead_ratio"] = layers.rate_ratio(traced, untraced)
    untraced.merge(traced)
    return metrics
