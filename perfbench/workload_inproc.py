"""The in-process workloads: ``sweep`` and ``timeline`` (serial executor).

Each op builds a fresh :class:`SweepEngine` (no memo carries over), runs
one seeded batch of designs and encodes the result with the canonical
``repro.evaluation.api`` builders plus ``json``, as ``repro sweep
--json`` does.  Every op's output is checked.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import subprocess
import sys

import harness
from harness import OpFailure, Tally, now

ROLES4 = ["dns", "web", "app", "db"]

#: Modules an op touches; imported during set-up, never in the window.
IMPORTS = (
    "repro.evaluation.engine",
    "repro.evaluation.api",
    "repro.evaluation.sweep",
    "repro.evaluation.timeline",
    "repro.enterprise",
    "repro.patching",
    "repro.vulnerability.diversity",
)

SWEEP_HOMOGENEOUS = 72
SWEEP_HETEROGENEOUS = 24
TIMELINE_DESIGNS = 27
TIMELINE_POINTS = 24
TIMELINE_HORIZON = 720.0
CAMPAIGN = "canary:0.1:48,fleet:1.0"
CAMPAIGN_STARTS = [0.0, 48.0]


def _paper_design(designs):
    from repro.enterprise.design import RedundancyDesign

    return next(
        d for d in designs
        if isinstance(d, RedundancyDesign) and d.counts == harness.PAPER_COUNTS
    )


def _fresh_engine(executor):
    from repro.evaluation.engine import SweepEngine
    from repro.vulnerability.diversity import diversity_database

    return SweepEngine(executor=executor, database=diversity_database())


class SweepWorkload:
    """72 homogeneous designs (<= 4 replicas, paper design always in) + 24
    variant designs (<= 2 replicas) per op; the paper's Figs. 6-7 at scale."""

    #: Ops per cycle (see :func:`harness.window_rate`).
    unit = 1

    def __init__(self, seed: int) -> None:
        from repro.enterprise import paper_variant_space
        from repro.evaluation.sweep import (
            enumerate_designs,
            enumerate_heterogeneous_designs,
        )

        self.rng = random.Random(seed)
        homogeneous = list(enumerate_designs(ROLES4, max_replicas=4))
        self.paper = _paper_design(homogeneous)
        self.homogeneous = [d for d in homogeneous if d is not self.paper]
        self.heterogeneous = list(
            enumerate_heterogeneous_designs(
                ROLES4, paper_variant_space(), max_replicas=2
            )
        )

    cycle_done = True

    def warmup_inputs(self) -> list:
        return [[self.paper, self.heterogeneous[0]]]

    def next_inputs(self):
        designs = [self.paper] + self.rng.sample(
            self.homogeneous, SWEEP_HOMOGENEOUS - 1
        )
        self.rng.shuffle(designs)
        return designs + self.rng.sample(self.heterogeneous, SWEEP_HETEROGENEOUS)

    def run_op(self, designs, executor="serial", encode=None) -> str:
        from repro.evaluation.api import sweep_response

        engine = _fresh_engine(executor)
        try:
            evaluations = engine.evaluate(designs)

            def build():
                return json.dumps(
                    sweep_response(
                        ROLES4, 4, None, False, engine.executor.name, evaluations
                    )
                )

            return encode(build) if encode else build()
        finally:
            engine.close()

    @staticmethod
    def check(designs, text: str) -> int:
        harness.check_sweep_payload(json.loads(text), len(designs))
        return len(designs)


class TimelineWorkload:
    """27 designs (<= 3 replicas) x 24 points per op; ops alternate between
    the stationary rollout and the staged campaign."""

    #: A block run stationary, then staged.
    unit = 2

    def __init__(self, seed: int) -> None:
        from repro.evaluation.sweep import enumerate_designs
        from repro.evaluation.timeline import default_time_grid
        from repro.patching import PatchCampaign

        self.rng = random.Random(seed)
        self.space = list(enumerate_designs(ROLES4, max_replicas=3))
        self.times = default_time_grid(TIMELINE_HORIZON, TIMELINE_POINTS)
        self.campaign = PatchCampaign.parse(CAMPAIGN)
        self.queue: list = []

    @property
    def cycle_done(self) -> bool:
        """Windows end on a whole cycle (see :meth:`next_inputs`)."""
        return not self.queue

    def warmup_inputs(self) -> list:
        paper = _paper_design(self.space)
        return [([paper], None), ([paper], self.campaign)]

    def next_inputs(self):
        """The next op of a cycle that covers the whole space in both modes.

        A cycle splits the 81 designs into three 27-design blocks and
        runs each block stationary, then staged.
        Every cycle does the same work, so a run's throughput does not
        depend on which designs its seed happened to draw.
        """
        if not self.queue:
            for block in self._latin_blocks():
                self.queue += [(block, None), (block, self.campaign)]
        return self.queue.pop(0)

    def _latin_blocks(self) -> list:
        """Three 27-design blocks, each holding every count combination of
        three seeded roles once (the fourth role's count is set by a
        seeded Latin square), so the blocks cost about the same."""
        free = self.rng.choice(ROLES4)
        others = [role for role in ROLES4 if role != free]
        shift = self.rng.sample(range(3), 3)
        blocks: list[list] = [[], [], []]
        for design in self.space:
            counts = design.counts
            block = (sum(counts[r] for r in others) + shift[counts[free] - 1]) % 3
            blocks[block].append(design)
        for block in blocks:
            self.rng.shuffle(block)
        self.rng.shuffle(blocks)
        return blocks

    def run_op(self, inputs, executor="serial", encode=None) -> str:
        from repro.evaluation.api import timeline_response

        designs, campaign = inputs
        engine = _fresh_engine(executor)
        try:
            timelines = engine.timeline(designs, self.times, campaign=campaign)

            def build():
                return json.dumps(
                    timeline_response(
                        ROLES4, 3, None, False, engine.executor.name,
                        campaign, self.times, timelines,
                    )
                )

            return encode(build) if encode else build()
        finally:
            engine.close()

    def check(self, inputs, text: str) -> int:
        designs, campaign = inputs
        payload = json.loads(text)
        harness.check_timeline_payload(payload, len(designs), len(self.times))
        if campaign is not None:
            for row in payload["designs"]:
                if row["phase_starts"] != CAMPAIGN_STARTS:
                    raise OpFailure(
                        f"{row['label']}: phase_starts {row['phase_starts']}"
                    )
        return len(designs)


WORKLOADS = {"sweep": SweepWorkload, "timeline": TimelineWorkload}


def import_program() -> None:
    for name in IMPORTS:
        importlib.import_module(name)


def start(name: str, seed: int):
    """Imports, engine start-up and the warm-up ops: everything before timing."""
    import_program()
    if name == "timeline":
        harness.set_blas_threads(harness.STEADY_BLAS_THREADS)
    workload = WORKLOADS[name](seed)
    for inputs in workload.warmup_inputs():
        workload.check(inputs, workload.run_op(inputs))
    return workload


def measure_setups(name: str, seed: int) -> float:
    """Median wall time of fresh-interpreter set-ups (spawn to ``ready``)."""
    samples = []
    for repeat in range(harness.SETUP_REPEATS):
        argv = [
            sys.executable, str(harness.BENCH_DIR / "child.py"),
            "setup", name, str(seed + repeat),
        ]
        started = now()
        proc = subprocess.Popen(
            argv, cwd=harness.ROOT, env=harness.child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            elapsed = now() - started
            _, err = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if line.strip() != b"ready" or proc.returncode != 0:
            raise OpFailure(
                f"set-up probe failed ({proc.returncode}): "
                f"{err.decode(errors='replace')[-400:]}"
            )
        samples.append(elapsed)
    return harness.median(samples)


def timed_op(workload, inputs, tally: Tally, executor="serial", encode=None) -> None:
    """One op, timed without its output check, recorded in *tally*."""
    # Each op starts from a collected heap, so the peak RSS does not
    # depend on when the cyclic collector last ran.
    gc.collect()
    started = now()
    try:
        text = workload.run_op(inputs, executor=executor, encode=encode)
        latency = now() - started
        tally.record(latency, workload.check(inputs, text))
    except Exception as exc:  # a wrong output or a program error
        tally.fail(f"{type(exc).__name__}: {exc}", now() - started)


def window(workload, seconds: float, tally: Tally, encode=None) -> None:
    """Run ops until *seconds* have elapsed and a cycle is complete."""
    started = now()
    while True:
        timed_op(workload, workload.next_inputs(), tally, encode=encode)
        if now() - started >= seconds and workload.cycle_done:
            return


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    setup_s = None if trace else measure_setups(name, seed + 1000)
    default_threads = max(harness.blas_threads().values(), default=1)
    workload = start(name, seed)
    tally = Tally(workload.unit)
    window(workload, seconds, tally)
    if not trace:
        rss = harness.self_peak_rss_mb()
        return tally, harness.end_to_end(tally, setup_s, rss)
    metrics = traced_metrics(name, workload, seconds, tally)
    if name == "timeline":
        # As a CLI user runs it: default BLAS threads in parent and pool.
        harness.set_blas_threads(default_threads)
        metrics["engine.process_over_serial"] = process_over_serial(workload, tally)
    return tally, metrics


def traced_metrics(name, workload, seconds, untraced: Tally) -> dict:
    """A second window with every layer wrapped; *untraced* is the baseline."""
    import layers
    import startup
    from repro.observability import REGISTRY

    tracer = layers.Tracer().install(layers.COMPUTE_TARGETS + layers.ENGINE_TARGETS)
    before = layers.registry_totals(REGISTRY.to_dict())
    traced = Tally(workload.unit)
    try:
        window(
            workload, seconds, traced,
            encode=lambda build: tracer.timed("api.encode", build, hook=layers.bytes_hook),
        )
    finally:
        tracer.restore()
    after = layers.registry_totals(REGISTRY.to_dict())
    metrics = layers.layer_metrics(
        tracer.snapshot(),
        layers.registry_delta(before, after),
        sum(traced.latencies),
    )
    metrics.update(startup.import_metrics(name))
    metrics["trace.overhead_ratio"] = layers.rate_ratio(traced, untraced)
    untraced.merge(traced)
    return metrics


def process_over_serial(workload, tally: Tally) -> float:
    """One op through ``executor="process"`` (nproc jobs) over its serial time.

    Shows the known pool slowdown (BLAS threads oversubscribed by pool
    workers) without gating on it.
    """
    from repro.evaluation.engine import ProcessExecutor

    inputs = workload.next_inputs()
    walls = []
    for executor in ("serial", ProcessExecutor(max_workers=os.cpu_count())):
        timed_op(workload, inputs, tally, executor=executor)
        walls.append(tally.latencies[-1])
    return walls[1] / walls[0]
