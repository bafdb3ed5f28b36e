"""Tentpole bench: the structure-sharing sweep pipeline.

Process-executor sweeps used to re-pickle the case study per chunk and
re-solve every lower-layer SRN in every chunk, and every design's
availability SRN was explored from scratch even when dozens of designs
share one transition pattern.  The structure-sharing pipeline solves the
per-role aggregate table and one canonical structure per pattern once,
publishes the numeric arrays to pool workers over
``multiprocessing.shared_memory``, and pattern-groups the upper-layer
solves — results byte-identical to the naive path, which evaluates each
design with a fresh evaluator pair (the per-design oracle).

Three assertions on the paper's 27-design sweep (dns/web/app x 1..3):

* **speedup** — the shared process-executor sweep is >= 5x faster than
  the per-design oracle run through the same 2-worker, ``chunk_size=1``
  process pool (``engine.map`` of :func:`evaluate_design`: one fresh
  evaluator pair per design), measured as min-over-trials on reused
  engines (result memo cleared each trial, so the parent's one-time
  precompute amortises exactly as it does across repeated CLI/cached
  sweeps);
* **solve-count reduction** — 27 designs collapse to 10 distinct
  transition patterns: the shared pipeline runs 10 upper-layer
  reachability explorations instead of the oracle's 27 (and one
  lower-layer solve per role instead of one per role per design);
* **byte-identity** — sweep and timeline results equal the per-design
  oracle bit for bit, across serial, thread and process executors.
"""

from __future__ import annotations

import json
import time
from functools import partial

from repro.evaluation.combined import evaluate_design
from repro.evaluation.engine import SweepEngine
from repro.evaluation.timeline import evaluate_timeline
from repro.evaluation.sweep import enumerate_designs
from repro.availability.grouped import design_layout
from repro.observability import REGISTRY
from repro.srn.reachability import exploration_count

ROLES = ("dns", "web", "app")
MAX_REPLICAS = 3
TRIALS = 5

#: Reduced grid for the <60s CI smoke (identity + solve counts only).
SMOKE_ROLES = ("dns", "web")
SMOKE_REPLICAS = 2


def _space():
    return list(enumerate_designs(ROLES, max_replicas=MAX_REPLICAS))


def _assert_identical(reference, results):
    assert len(reference) == len(results)
    for a, b in zip(reference, results):
        assert a.design == b.design
        assert a.before == b.before
        assert a.after == b.after
        assert a.after.coa.hex() == b.after.coa.hex()


def _oracle(designs, case_study, policy):
    """Per-design oracle: a fresh evaluator pair for every design."""
    return [evaluate_design(design, case_study, policy) for design in designs]


def _solve_counts(evaluate):
    """(reachability explorations, steady solves) spent by *evaluate*."""
    steady = REGISTRY.counter("repro_steady_solves_total")
    steady_before = sum(c.value for c in steady.series().values())
    before = exploration_count()
    evaluate()
    steady_after = sum(c.value for c in steady.series().values())
    return exploration_count() - before, round(steady_after - steady_before)


def test_structure_sharing_speedup(case_study, critical_policy):
    """Shared process sweep >= 5x the per-design oracle on the same pool."""
    designs = _space()
    assert len(designs) == 27  # the acceptance space

    patterns = {design_layout(design)[0] for design in designs}
    assert len(patterns) < len(designs)
    assert len(patterns) == 10

    def engine():
        return SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
            chunk_size=1,
        )

    def timed(run):
        best, results = float("inf"), None
        for _ in range(TRIALS):
            start = time.perf_counter()
            results = run()
            best = min(best, time.perf_counter() - start)
        return best, results

    def shared_run():
        shared_engine.clear_cache()
        return shared_engine.evaluate(designs)

    shared_engine, baseline_engine = engine(), engine()
    oracle_task = partial(
        evaluate_design, case_study=case_study, policy=critical_policy
    )
    baseline_s, baseline_results = timed(
        lambda: baseline_engine.map(oracle_task, designs)
    )
    shared_s, shared_results = timed(shared_run)

    # byte-identity before anything else: speed means nothing otherwise
    _assert_identical(baseline_results, shared_results)

    # solve counts, measured in-process: a serial engine vs the oracle
    lower_layer = len(ROLES)  # one server SRN per role per evaluator
    shared_explorations, shared_steady = _solve_counts(
        lambda: SweepEngine(
            case_study=case_study, policy=critical_policy
        ).evaluate(designs)
    )
    baseline_explorations, baseline_steady = _solve_counts(
        lambda: _oracle(designs, case_study, critical_policy)
    )
    assert shared_explorations == len(patterns) + lower_layer
    assert baseline_explorations == len(designs) * (1 + lower_layer)

    speedup = baseline_s / shared_s
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "structure_sharing_sweep",
                "designs": len(designs),
                "patterns": len(patterns),
                "baseline_s": round(baseline_s, 4),
                "shared_s": round(shared_s, 4),
                "speedup": round(speedup, 1),
                "upper_explorations_shared": shared_explorations - lower_layer,
                "upper_explorations_baseline": (
                    baseline_explorations - lower_layer * len(designs)
                ),
                "steady_solves_shared": shared_steady,
                "steady_solves_baseline": baseline_steady,
            }
        )
    )
    assert speedup >= 5.0, f"structure sharing only {speedup:.1f}x faster"


def test_sweep_identity_across_executors(case_study, critical_policy):
    """Every executor == the per-design oracle, byte for byte (reduced grid)."""
    designs = list(
        enumerate_designs(SMOKE_ROLES, max_replicas=SMOKE_REPLICAS)
    )
    reference = _oracle(designs, case_study, critical_policy)
    for executor in ("serial", "thread", "process"):
        kwargs = (
            {} if executor == "serial" else {"max_workers": 2, "chunk_size": 1}
        )
        results = SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor=executor,
            **kwargs,
        ).evaluate(designs)
        _assert_identical(reference, results)


def test_timeline_identity_across_executors(case_study, critical_policy):
    """Timeline parity with the per-design oracle across executors."""
    designs = list(
        enumerate_designs(SMOKE_ROLES, max_replicas=SMOKE_REPLICAS)
    )
    times = tuple(float(t) for t in (0.0, 90.0, 360.0, 720.0))
    reference = [
        evaluate_timeline(
            design, times, case_study=case_study, policy=critical_policy
        )
        for design in designs
    ]
    for executor in ("serial", "thread", "process"):
        kwargs = (
            {} if executor == "serial" else {"max_workers": 2, "chunk_size": 1}
        )
        results = SweepEngine(
            case_study=case_study,
            policy=critical_policy,
            executor=executor,
            **kwargs,
        ).timeline(designs, times)
        for a, b in zip(reference, results):
            assert a.coa == b.coa
            assert a.completion_probability == b.completion_probability
            assert a.unpatched_fraction == b.unpatched_fraction
            assert a.mean_time_to_completion == b.mean_time_to_completion
            assert a.before == b.before
            assert a.after == b.after


def test_smoke_solve_count_reduction(case_study, critical_policy):
    """CI smoke: the reduced grid still shares structures (4 designs,
    3 patterns) and never exceeds the oracle's exploration count."""
    designs = list(
        enumerate_designs(SMOKE_ROLES, max_replicas=SMOKE_REPLICAS)
    )
    patterns = {design_layout(design)[0] for design in designs}
    assert len(patterns) < len(designs)

    shared, _ = _solve_counts(
        lambda: SweepEngine(
            case_study=case_study, policy=critical_policy
        ).evaluate(designs)
    )
    baseline, _ = _solve_counts(
        lambda: _oracle(designs, case_study, critical_policy)
    )

    lower_layer = len(SMOKE_ROLES)
    assert shared == len(patterns) + lower_layer
    assert baseline == len(designs) * (1 + lower_layer)
    print(
        "\nBENCH "
        + json.dumps(
            {
                "bench": "structure_sharing_smoke",
                "designs": len(designs),
                "patterns": len(patterns),
                "upper_explorations_shared": shared - lower_layer,
                "upper_explorations_baseline": (
                    baseline - lower_layer * len(designs)
                ),
            }
        )
    )
