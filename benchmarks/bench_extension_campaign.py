"""Extension: staged patch-rollout campaigns by piecewise uniformisation.

The PR 5 tentpole acceptance bench: transient COA curves for a whole
design space (27 designs x 32 time points) under a three-phase staged
rollout (canary -> ramp -> fleet), served by
:func:`repro.ctmc.transient.transient_piecewise` — one uniformised
batch pass per campaign phase, the state vector carried across phase
boundaries — against the brute-force per-phase re-uniformised oracle
that, for every single time point, re-propagates the state vector
through each earlier phase and runs one more single-time pass.

Two assertions:

* **determinism** — the piecewise batch result is byte-identical to the
  per-time oracle (independently constructed solvers), and the
  single-phase degenerate campaign is byte-identical to the stationary
  timeline across the whole space;
* **speedup** — the piecewise path is >= 5x faster than the brute-force
  oracle (measured ~10-25x: 3 passes per design instead of ~60+),
  printed as a ``BENCH`` JSON line for the CI trajectory artifact.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from repro.availability.grouped import CoaStructure  # noqa: F401 (doc link)
from repro.ctmc.transient import transient_piecewise
from repro.evaluation import (
    default_time_grid,
    enumerate_designs,
    evaluate_timeline,
)
from repro.evaluation.availability import scale_patch_rates
from repro.patching import BIG_BANG, CANARY_THEN_FLEET

ROLES = ("dns", "web", "app")
MAX_REPLICAS = 3
POINTS = 32

#: The staged rollout under test: multipliers and durations of
#: CANARY_THEN_FLEET (48 h canary at x0.1, 120 h ramp at x0.5, fleet).
PHASES = [
    (phase.rate_multiplier, phase.duration_hours)
    for phase in CANARY_THEN_FLEET.phases[:-1]
] + [(CANARY_THEN_FLEET.phases[-1].rate_multiplier, math.inf)]


def _prepared_structures(availability_evaluator):
    """Canonical structure + slot rates per design (shared patterns)."""
    designs = list(enumerate_designs(ROLES, max_replicas=MAX_REPLICAS))
    return [
        (design, *availability_evaluator.coa_structure_for(design))
        for design in designs
    ]


def _phase_solvers(structure, rates):
    """One uniformised transient solver per campaign phase."""
    return [
        (
            structure.transient_solver(scale_patch_rates(rates, multiplier)),
            duration,
        )
        for multiplier, duration in PHASES
    ]


def test_campaign_piecewise_speedup(availability_evaluator):
    """Piecewise >= 5x the brute-force per-time oracle, bit-identical."""
    prepared = _prepared_structures(availability_evaluator)
    times = list(default_time_grid(720.0, POINTS))
    assert len(prepared) == 27 and len(PHASES) == 3  # acceptance shape

    boundaries = []
    start = 0.0
    for _, duration in PHASES[:-1]:
        start += duration
        boundaries.append(start)

    def oracle_sweep():
        """Per time point: re-propagate through every earlier phase."""
        curves = []
        for _, structure, rates in prepared:
            segments = _phase_solvers(structure, rates)
            values = np.empty(len(times))
            for i, t in enumerate(times):
                carry = structure.initial
                start = 0.0
                for position, (solver, duration) in enumerate(segments):
                    last = position == len(segments) - 1
                    end = math.inf if last else start + duration
                    if start <= t < end:
                        dist = solver.distributions(carry, [t - start])[0]
                        values[i] = float(dist @ structure.reward)
                        break
                    carry = solver.propagate(carry, duration)
                    start = end
            curves.append(values)
        return curves

    def piecewise_sweep():
        """One batch pass per phase, boundaries carried in-pass."""
        curves = []
        for _, structure, rates in prepared:
            segments = _phase_solvers(structure, rates)
            dists = transient_piecewise(segments, structure.initial, times)
            values = np.empty(len(times))
            for i in range(len(dists)):
                values[i] = float(dists[i] @ structure.reward)
            curves.append(values)
        return curves

    def timed(fn, trials=3):
        # Min over trials: robust to scheduler preemption on shared CI.
        best, values = float("inf"), None
        for _ in range(trials):
            start = time.perf_counter()
            values = fn()
            best = min(best, time.perf_counter() - start)
        return best, values

    oracle_time, oracle_curves = timed(oracle_sweep)
    piecewise_time, piecewise_curves = timed(piecewise_sweep, trials=5)

    # determinism: piecewise == brute-force oracle, byte for byte
    for oracle_curve, piecewise_curve in zip(oracle_curves, piecewise_curves):
        assert piecewise_curve.tobytes() == oracle_curve.tobytes()
    # the staged curves really are staged: all-up at t = 0, and during
    # the canary phase COA sits strictly above the stationary curve
    assert all(curve[0] == 1.0 for curve in piecewise_curves)
    for (_, structure, rates), curve in zip(prepared[:3], piecewise_curves[:3]):
        stationary = structure.transient_coa(rates, times[:2])
        assert curve[1] > stationary[1]

    speedup = oracle_time / piecewise_time
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "campaign_piecewise_transient",
                "designs": len(prepared),
                "phases": len(PHASES),
                "time_points": len(times),
                "oracle_s": round(oracle_time, 4),
                "piecewise_s": round(piecewise_time, 4),
                "speedup": round(speedup, 1),
            }
        )
    )
    assert speedup >= 5.0, f"piecewise campaign only {speedup:.1f}x faster"


def test_single_phase_campaign_degenerates_bitwise(case_study, critical_policy):
    """BIG_BANG timelines equal the stationary ones across the space."""
    designs = list(enumerate_designs(ROLES, max_replicas=2))
    times = default_time_grid(720.0, 8)
    for design in designs:
        plain = evaluate_timeline(
            design, times, case_study=case_study, policy=critical_policy
        )
        staged = evaluate_timeline(
            design,
            times,
            case_study=case_study,
            policy=critical_policy,
            campaign=BIG_BANG,
        )
        assert staged.coa == plain.coa
        assert staged.completion_probability == plain.completion_probability
        assert staged.unpatched_fraction == plain.unpatched_fraction
        assert staged.mean_time_to_completion == plain.mean_time_to_completion


def test_staged_campaign_timeline_sweep(case_study, critical_policy):
    """The full pipeline: 27-design staged-campaign sweep, phase-aware."""
    designs = list(enumerate_designs(ROLES, max_replicas=MAX_REPLICAS))
    times = default_time_grid(720.0, POINTS)
    from repro.evaluation import SweepEngine

    engine = SweepEngine(case_study, critical_policy)
    staged = engine.timeline(designs, times, campaign=CANARY_THEN_FLEET)
    plain = engine.timeline(designs, times)
    assert len(staged) == 27
    for s, p in zip(staged, plain):
        assert s.phase_starts == (0.0, 48.0, 168.0)
        # canary-first: slower exposure decay, later completion
        assert all(
            b >= a - 1e-12
            for a, b in zip(p.unpatched_fraction, s.unpatched_fraction)
        )
        assert s.mean_time_to_completion > p.mean_time_to_completion
