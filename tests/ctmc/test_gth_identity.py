"""Bit-identity of the rank-1 GTH elimination against the scalar loop.

:func:`_gth_column_loop` is the historical per-column elimination, kept
here only as a test oracle: the production :func:`_gth_core` must
return the same bits (``np.array_equal``) or raise the same
:class:`SolverError` on every generator, including rates at the ends
of the float range where a careless update would form ``inf * 0``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ctmc import steady
from repro.ctmc.steady import _gth_core
from repro.errors import SolverError


def _gth_column_loop(q: np.ndarray) -> np.ndarray:
    """GTH elimination with the column update as a scalar Python loop."""
    n = q.shape[0]
    a = q.copy()
    np.fill_diagonal(a, 0.0)
    a = np.abs(a)
    for k in range(n - 1, 0, -1):
        total = a[k, :k].sum()
        if total <= 0.0:
            raise SolverError(
                "GTH elimination hit a state with no outflow to lower indices; "
                "the chain is reducible"
            )
        a[:k, k] /= total
        for j in range(k):
            if a[k, j] != 0.0:
                a[:k, j] += a[:k, k] * a[k, j]
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise SolverError("GTH produced a non-normalisable vector")
    return pi / total


def _outcome(solve, q: np.ndarray):
    with np.errstate(all="ignore"):
        try:
            return "ok", solve(q)
        except SolverError as exc:
            return "error", str(exc)


def _assert_same(q: np.ndarray) -> None:
    kind, value = _outcome(_gth_core, q)
    ref_kind, ref_value = _outcome(_gth_column_loop, q)
    assert kind == ref_kind, (value, ref_value)
    if kind == "ok":
        assert np.array_equal(value, ref_value)
    else:
        assert value == ref_value


def _random_generator(
    seed: int, n: int, density: float, low: int, high: int, connect: bool
) -> np.ndarray:
    """Sparse rates ``m * 10**e`` (``m`` in [1, 10), ``e`` in [low, high])
    with exact zeros elsewhere; *connect* adds a random Hamiltonian
    cycle so the chain is irreducible."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    rates = rng.uniform(1.0, 10.0, (n, n)) * 10.0 ** rng.integers(
        low, high + 1, (n, n)
    ).astype(float)
    q = np.where(mask, rates, 0.0)
    if connect:
        order = rng.permutation(n)
        for src, dst in zip(order, np.roll(order, -1)):
            q[src, dst] = rng.uniform(1.0, 10.0) * 10.0 ** rng.integers(low, high + 1)
    np.fill_diagonal(q, 0.0)
    with np.errstate(over="ignore"):
        np.fill_diagonal(q, -q.sum(axis=1))
    return q


@st.composite
def generators(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    low = draw(st.integers(min_value=-300, max_value=299))
    high = draw(st.integers(min_value=low, max_value=299))
    return _random_generator(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        n=n,
        density=draw(st.sampled_from([0.05, 0.2, 0.5, 1.0])),
        low=low,
        high=high,
        connect=draw(st.booleans()),
    )


class TestRankOneUpdate:
    @given(generators())
    @settings(max_examples=200, deadline=None)
    def test_matches_column_loop(self, q):
        _assert_same(q)

    @pytest.mark.parametrize("low,high", [(-300, -290), (290, 299), (-300, 299)])
    def test_extreme_rates(self, low, high):
        for seed in range(20):
            _assert_same(_random_generator(seed, 40, 0.1, low, high, True))

    def test_reducible_chain_raises_the_same_error(self):
        q = np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, -2.0]])
        _assert_same(q)
        with pytest.raises(SolverError, match="reducible"):
            _gth_core(q)

    def test_sweep_chains_match_column_loop(self, monkeypatch):
        """Every GTH solve of a real sweep gives the loop's exact bits."""
        from repro.evaluation import SweepEngine
        from repro.evaluation.sweep import enumerate_designs

        recorded: list[np.ndarray] = []

        def record(q):
            recorded.append(q.copy())
            return _gth_core(q)

        monkeypatch.setattr(steady, "_gth_core", record)
        designs = list(enumerate_designs(("dns", "web", "app"), max_replicas=3))
        with SweepEngine(executor="serial") as engine:
            engine.evaluate(designs)
        assert len(recorded) > 1
        for q in recorded:
            assert np.array_equal(_gth_core(q), _gth_column_loop(q))
