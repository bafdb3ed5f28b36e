"""Tests for reachability generation and vanishing-marking elimination."""

from __future__ import annotations

import pytest

from repro.errors import SrnError, StateSpaceError
from repro.srn import StochasticRewardNet, explore


def updown_net():
    net = StochasticRewardNet()
    net.add_place("up", tokens=1)
    net.add_place("down")
    net.add_timed_transition("fail", rate=2.0)
    net.add_arc("up", "fail")
    net.add_arc("fail", "down")
    net.add_timed_transition("repair", rate=8.0)
    net.add_arc("down", "repair")
    net.add_arc("repair", "up")
    return net


class TestTangibleOnly:
    def test_two_states(self):
        graph = explore(updown_net())
        assert graph.number_of_states == 2
        assert graph.vanishing_count == 0

    def test_rates_preserved(self):
        graph = explore(updown_net())
        chain = graph.to_ctmc()
        up = next(m for m in graph.tangible if m["up"] == 1)
        down = next(m for m in graph.tangible if m["down"] == 1)
        assert chain.rate(up, down) == 2.0
        assert chain.rate(down, up) == 8.0

    def test_initial_distribution_on_tangible_start(self):
        graph = explore(updown_net())
        assert graph.initial_distribution[0] == 1.0

    def test_token_counting_birth_death(self):
        net = StochasticRewardNet()
        net.add_place("up", tokens=3)
        net.add_place("down")
        net.add_timed_transition("fail", rate=lambda m: 1.0 * m["up"])
        net.add_arc("up", "fail")
        net.add_arc("fail", "down")
        net.add_timed_transition("repair", rate=lambda m: 2.0 * m["down"])
        net.add_arc("down", "repair")
        net.add_arc("repair", "up")
        graph = explore(net)
        assert graph.number_of_states == 4  # up in {0,1,2,3}

    def test_max_markings_enforced(self):
        net = updown_net()
        with pytest.raises(StateSpaceError):
            explore(net, max_markings=1)

    def test_arc_added_after_exploration_is_seen(self):
        """Firing deltas are rebuilt per exploration, never stale."""
        net = StochasticRewardNet()
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_place("r")
        net.add_timed_transition("t1", rate=1.0)
        net.add_arc("p", "t1")
        net.add_arc("t1", "q")
        net.add_timed_transition("t2", rate=1.0)
        net.add_arc("q", "t2")
        net.add_arc("t2", "p")
        before = explore(net)
        assert [m.tokens for m in before.tangible] == [(1, 0, 0), (0, 1, 0)]
        net.add_arc("t1", "r")  # t1 now also marks r ...
        net.add_arc("r", "t2")  # ... and t2 consumes it
        after = explore(net)
        assert [m.tokens for m in after.tangible] == [(1, 0, 0), (0, 1, 1)]
        assert after.rates == {(0, 1): 1.0, (1, 0): 1.0}


class TestVanishingElimination:
    def test_weighted_branch(self):
        """a --1.0--> b; b branches 3:1 to c and d (immediate)."""
        net = StochasticRewardNet()
        for name in ("a", "b", "c", "d"):
            net.add_place(name, tokens=1 if name == "a" else 0)
        net.add_timed_transition("t", rate=1.0)
        net.add_arc("a", "t")
        net.add_arc("t", "b")
        net.add_immediate_transition("i1", weight=3.0)
        net.add_arc("b", "i1")
        net.add_arc("i1", "c")
        net.add_immediate_transition("i2", weight=1.0)
        net.add_arc("b", "i2")
        net.add_arc("i2", "d")
        net.add_timed_transition("back1", rate=1.0)
        net.add_arc("c", "back1")
        net.add_arc("back1", "a")
        net.add_timed_transition("back2", rate=1.0)
        net.add_arc("d", "back2")
        net.add_arc("back2", "a")

        graph = explore(net)
        assert graph.vanishing_count == 1
        chain = graph.to_ctmc()
        a = next(m for m in graph.tangible if m["a"] == 1)
        c = next(m for m in graph.tangible if m["c"] == 1)
        d = next(m for m in graph.tangible if m["d"] == 1)
        assert chain.rate(a, c) == pytest.approx(0.75)
        assert chain.rate(a, d) == pytest.approx(0.25)

    def test_immediate_chain(self):
        """Two immediates in sequence collapse into one effective rate."""
        net = StochasticRewardNet()
        for name, tokens in (("a", 1), ("b", 0), ("c", 0), ("d", 0)):
            net.add_place(name, tokens=tokens)
        net.add_timed_transition("t", rate=5.0)
        net.add_arc("a", "t")
        net.add_arc("t", "b")
        net.add_immediate_transition("i1")
        net.add_arc("b", "i1")
        net.add_arc("i1", "c")
        net.add_immediate_transition("i2")
        net.add_arc("c", "i2")
        net.add_arc("i2", "d")
        net.add_timed_transition("back", rate=1.0)
        net.add_arc("d", "back")
        net.add_arc("back", "a")
        graph = explore(net)
        assert graph.vanishing_count == 2
        chain = graph.to_ctmc()
        a = next(m for m in graph.tangible if m["a"] == 1)
        d = next(m for m in graph.tangible if m["d"] == 1)
        assert chain.rate(a, d) == pytest.approx(5.0)

    def test_vanishing_cycle_with_exit(self):
        """Immediate cycle b <-> c with a weighted exit still resolves."""
        net = StochasticRewardNet()
        for name, tokens in (("a", 1), ("b", 0), ("c", 0), ("d", 0)):
            net.add_place(name, tokens=tokens)
        net.add_timed_transition("t", rate=2.0)
        net.add_arc("a", "t")
        net.add_arc("t", "b")
        # b -> c (weight 1); c -> b (weight 1) and c -> d (weight 1)
        net.add_immediate_transition("bc", weight=1.0)
        net.add_arc("b", "bc")
        net.add_arc("bc", "c")
        net.add_immediate_transition("cb", weight=1.0)
        net.add_arc("c", "cb")
        net.add_arc("cb", "b")
        net.add_immediate_transition("cd", weight=1.0)
        net.add_arc("c", "cd")
        net.add_arc("cd", "d")
        net.add_timed_transition("back", rate=1.0)
        net.add_arc("d", "back")
        net.add_arc("back", "a")
        graph = explore(net)
        chain = graph.to_ctmc()
        a = next(m for m in graph.tangible if m["a"] == 1)
        d = next(m for m in graph.tangible if m["d"] == 1)
        # the cycle always eventually exits to d, so the full rate arrives
        assert chain.rate(a, d) == pytest.approx(2.0)

    def test_timeless_trap_detected(self):
        """An immediate cycle with no exit must raise."""
        net = StochasticRewardNet()
        for name, tokens in (("a", 1), ("b", 0), ("c", 0)):
            net.add_place(name, tokens=tokens)
        net.add_timed_transition("t", rate=1.0)
        net.add_arc("a", "t")
        net.add_arc("t", "b")
        net.add_immediate_transition("bc")
        net.add_arc("b", "bc")
        net.add_arc("bc", "c")
        net.add_immediate_transition("cb")
        net.add_arc("c", "cb")
        net.add_arc("cb", "b")
        with pytest.raises(SrnError):
            explore(net)

    def test_vanishing_initial_marking(self):
        """An immediate enabled at t=0 spreads the initial distribution."""
        net = StochasticRewardNet()
        for name, tokens in (("start", 1), ("left", 0), ("right", 0)):
            net.add_place(name, tokens=tokens)
        net.add_immediate_transition("go_left", weight=1.0)
        net.add_arc("start", "go_left")
        net.add_arc("go_left", "left")
        net.add_immediate_transition("go_right", weight=3.0)
        net.add_arc("start", "go_right")
        net.add_arc("go_right", "right")
        net.add_timed_transition("swap1", rate=1.0)
        net.add_arc("left", "swap1")
        net.add_arc("swap1", "right")
        net.add_timed_transition("swap2", rate=1.0)
        net.add_arc("right", "swap2")
        net.add_arc("swap2", "left")
        graph = explore(net)
        assert graph.initial_distribution == pytest.approx([0.25, 0.75])


class TestSparseGenerator:
    """``ReachabilityGraph.generator()`` builds the CSR generator
    directly from the rate table; it must be exactly the matrix the
    ``to_ctmc()`` round-trip produces."""

    def _parity(self, net):
        import numpy as np

        graph = explore(net)
        direct = graph.generator().toarray()
        via_chain = graph.to_ctmc().generator().toarray()
        assert np.array_equal(direct, via_chain)

    def test_updown_parity(self):
        self._parity(updown_net())

    def test_birth_death_parity(self):
        net = StochasticRewardNet()
        net.add_place("up", tokens=4)
        net.add_place("down")
        net.add_timed_transition("fail", rate=lambda m: 0.7 * m["up"])
        net.add_arc("up", "fail")
        net.add_arc("fail", "down")
        net.add_timed_transition("repair", rate=lambda m: 1.9 * m["down"])
        net.add_arc("down", "repair")
        net.add_arc("repair", "up")
        self._parity(net)

    def test_generator_rows_sum_to_zero(self):
        import numpy as np

        graph = explore(updown_net())
        q = graph.generator()
        rows = np.asarray(q.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 0.0, atol=0.0)
