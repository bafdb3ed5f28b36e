"""Extension: batched patch-timeline analysis over a design space.

The tentpole acceptance bench: transient availability curves for a
whole design space (27 designs x 40 time points over the monthly patch
window) served by :class:`repro.ctmc.transient.BatchTransientSolver` —
one uniformisation, one Poisson-weight table and one iterate stream per
design — against the naive per-design per-time loop that re-runs the
full uniformisation for every single point (the pre-batch behaviour of
``transient_rewards``).

Two assertions:

* **determinism** — the batch result is byte-identical to the per-time
  :func:`repro.ctmc.transient.transient_rewards` oracle loop, and
  numerically equal (1e-9) to the independent
  :func:`transient_distribution` implementation;
* **speedup** — the batch path is >= 10x faster than the naive loop
  (measured ~15-40x), printed as a ``BENCH`` JSON line for CI logs.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.availability.coa import coa_reward
from repro.ctmc.transient import (
    BatchTransientSolver,
    transient_distribution,
    transient_rewards,
)
from repro.evaluation import SweepEngine, default_time_grid, enumerate_designs

ROLES = ("dns", "web", "app")
MAX_REPLICAS = 3
POINTS = 40


def _prepared_models(availability_evaluator):
    """Solved upper-layer chains + reward vectors, one per design."""
    designs = list(enumerate_designs(ROLES, max_replicas=MAX_REPLICAS))
    prepared = []
    for design in designs:
        solution = availability_evaluator.network_model(design).solve()
        rewards = np.asarray(solution.reward_vector(coa_reward(design.counts)))
        prepared.append(
            (design, solution.chain, solution.graph.initial_distribution, rewards)
        )
    return prepared


def test_timeline_batch_speedup(availability_evaluator):
    """Batch >= 10x naive per-design per-time loop, byte-deterministic."""
    prepared = _prepared_models(availability_evaluator)
    times = list(default_time_grid(720.0, POINTS))
    assert len(prepared) >= 20 and len(times) >= 20  # acceptance floor

    def naive_sweep():
        return [
            np.array(
                [
                    float(transient_distribution(chain, initial, t) @ rewards)
                    for t in times
                ]
            )
            for _, chain, initial, rewards in prepared
        ]

    def batch_sweep():
        return [
            BatchTransientSolver(chain).rewards(initial, rewards, times)
            for _, chain, initial, rewards in prepared
        ]

    def timed(fn, trials=3):
        # Min over trials: robust to scheduler preemption on shared CI.
        best, values = float("inf"), None
        for _ in range(trials):
            start = time.perf_counter()
            values = fn()
            best = min(best, time.perf_counter() - start)
        return best, values

    naive_time, naive_curves = timed(naive_sweep)
    batch_time, batch_curves = timed(batch_sweep, trials=5)

    # determinism: batch == per-time oracle loop, byte for byte
    for (_, chain, initial, rewards), batch_curve in zip(prepared, batch_curves):
        oracle = transient_rewards(chain, initial, rewards, times)
        assert batch_curve.tobytes() == oracle.tobytes()
    # accuracy vs the independent single-time implementation
    for naive_curve, batch_curve in zip(naive_curves, batch_curves):
        assert np.abs(naive_curve - batch_curve).max() < 1e-9

    speedup = naive_time / batch_time
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "timeline_batch_transient",
                "designs": len(prepared),
                "time_points": len(times),
                "naive_s": round(naive_time, 4),
                "batch_s": round(batch_time, 4),
                "speedup": round(speedup, 1),
            }
        )
    )
    assert speedup >= 10.0, f"batch transient only {speedup:.1f}x faster"


def test_timeline_curves_over_design_space(benchmark, case_study, critical_policy):
    """The full pipeline: 27-design timeline sweep through the engine."""
    designs = list(enumerate_designs(ROLES, max_replicas=MAX_REPLICAS))
    times = default_time_grid(720.0, POINTS)

    def _timelines():
        # A fresh engine per round: the engine memoises its results.
        engine = SweepEngine(case_study, critical_policy)
        return engine.timeline(designs, times)

    timelines = benchmark(_timelines)

    assert len(timelines) == 27
    for timeline in timelines:
        assert timeline.coa[0] == 1.0
        assert timeline.completion_probability[0] == 0.0
        assert min(timeline.coa) >= timeline.steady_coa - 1e-6
        assert timeline.mean_time_to_completion > 0
    # more redundancy -> slower campaign completion
    by_total = {}
    for timeline in timelines:
        total = timeline.design.total_servers
        by_total.setdefault(total, []).append(timeline.mean_time_to_completion)
    totals = sorted(by_total)
    means = [sum(by_total[t]) / len(by_total[t]) for t in totals]
    assert means == sorted(means)

    print("\n[extension] patch-timeline sweep (27 designs x 40 points)")
    print("  design                         MTTPC (h)   min COA")
    for timeline in timelines[:5]:
        print(
            f"  {timeline.label:<30} {timeline.mean_time_to_completion:8.1f}"
            f"  {timeline.min_coa:.6f}"
        )
