"""Canonical pattern structures for structure-sharing design sweeps.

Two designs whose availability SRNs share a *transition pattern* — the
same multiset of per-tier replica counts — generate isomorphic
reachability graphs: only the numeric patch/recovery rates differ.  The
sweep engine exploits that by mapping every
:class:`~repro.enterprise.design.DesignSpec` onto a *canonical layout*
(tiers stably sorted by their group-count signature, groups within a
tier stably sorted by count) and exploring the canonical SRN **once per
layout**.  The exploration is then distilled into a purely numeric
:class:`CoaStructure`:

- the sorted ``(src, dst)`` transition pattern feeding a
  :class:`~repro.ctmc.steady.BatchSteadySolver`;
- per-edge token *coefficients* and slot/rate indices, so a member
  design's rate vector is one numpy multiply
  (``coefficients * rates[rate_index]``) — no net objects, no closures;
- the Table VI COA reward vector and the all-up initial distribution.

Because every design of a layout shares the structure bit-for-bit, the
grouped solves are byte-identical to solving each design's canonical
net independently — the structure-sharing parity the sweep pipeline
asserts.  Being plain arrays, structures also travel through
``multiprocessing.shared_memory`` to pool workers (see
:mod:`repro.evaluation.shared_memory`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.availability.coa import up_place
from repro.ctmc.steady import BatchSteadySolver
from repro.ctmc.transient import BatchTransientSolver
from repro.enterprise.roles import ServerRole
from repro.errors import EvaluationError
from repro.srn import StochasticRewardNet
from repro.srn.reachability import explore

__all__ = [
    "SlotRef",
    "CanonicalLayout",
    "design_layout",
    "build_canonical_net",
    "canonical_coa_reward",
    "CoaStructure",
    "coa_structure",
]


@dataclass(frozen=True)
class SlotRef:
    """One canonical server group of a design.

    *role* is the tier the group serves (for component-rate lookup);
    *variant* is the stack of a heterogeneous group (``None`` for a
    homogeneous role group); *count* its replica count.
    """

    role: str
    variant: ServerRole | None
    count: int

    @property
    def key(self) -> str:
        """The aggregate-table key (role or variant name)."""
        return self.variant.name if self.variant is not None else self.role


@dataclass(frozen=True)
class CanonicalLayout:
    """The transition-pattern signature of a design's availability SRN.

    ``tiers`` holds, per canonical tier, the tuple of group replica
    counts — e.g. ``((1,), (1, 2))`` for a design with a single-group
    tier of one server and a two-variant tier of 1 + 2 servers.  Designs
    with equal ``tiers`` generate structurally identical canonical nets.
    """

    tiers: tuple[tuple[int, ...], ...]

    @property
    def counts(self) -> tuple[int, ...]:
        """Flat slot counts, in canonical slot order."""
        return tuple(count for tier in self.tiers for count in tier)

    @property
    def n_slots(self) -> int:
        """Number of server groups across all tiers."""
        return sum(len(tier) for tier in self.tiers)

    @property
    def total_servers(self) -> int:
        """Total replica count over all groups."""
        return sum(self.counts)

    def tier_slots(self) -> tuple[tuple[int, ...], ...]:
        """Per tier, the canonical slot indices belonging to it."""
        slots: list[tuple[int, ...]] = []
        offset = 0
        for tier in self.tiers:
            slots.append(tuple(range(offset, offset + len(tier))))
            offset += len(tier)
        return tuple(slots)


def design_layout(design) -> tuple[CanonicalLayout, tuple[SlotRef, ...]]:
    """The canonical layout of *design* plus its slot assignment.

    Tiers are stably sorted by their group-count signature and groups
    within a tier stably sorted by count, so the layout depends only on
    the design's transition pattern — two designs with the same counts
    multiset share one layout — while the returned :class:`SlotRef`
    sequence records which of the design's groups fills each slot.
    The sort is stable on the design's insertion order, so a
    single-variant-per-role heterogeneous design maps onto exactly the
    same slots as its homogeneous twin.
    """
    from repro.enterprise.heterogeneous import (
        HeterogeneousDesign,
        check_design_kind,
    )

    tiers: list[list[SlotRef]] = []
    if isinstance(design, HeterogeneousDesign):
        for role in design.roles:
            tiers.append(
                [
                    SlotRef(role=role, variant=variant, count=count)
                    for variant, count in design.variants(role).items()
                ]
            )
    else:
        check_design_kind(design)
        for role, count in design.counts.items():
            tiers.append([SlotRef(role=role, variant=None, count=count)])

    sorted_tiers = [
        sorted(groups, key=lambda ref: ref.count) for groups in tiers
    ]
    sorted_tiers.sort(key=lambda groups: tuple(ref.count for ref in groups))
    layout = CanonicalLayout(
        tiers=tuple(
            tuple(ref.count for ref in groups) for groups in sorted_tiers
        )
    )
    slots = tuple(ref for groups in sorted_tiers for ref in groups)
    return layout, slots


def _slot_name(slot: int) -> str:
    return f"g{slot}"


def build_canonical_net(
    layout: CanonicalLayout, rates: Sequence[tuple[float, float]]
) -> StochasticRewardNet:
    """The canonical availability SRN of *layout*.

    *rates* supplies one ``(patch_rate, recovery_rate)`` pair per slot.
    Place and transition names follow the network-model convention
    (``Pg<i>up`` / ``Tg<i>d``), one up/down pair per slot in canonical
    order, so every design of the layout produces a structurally
    identical net.
    """
    if len(rates) != layout.n_slots:
        raise EvaluationError(
            f"layout has {layout.n_slots} slots but {len(rates)} rate "
            "pairs were given"
        )
    net = StochasticRewardNet("canonical-availability")
    for slot, (count, (patch_rate, recovery_rate)) in enumerate(
        zip(layout.counts, rates)
    ):
        name = _slot_name(slot)
        place_up = up_place(name)
        place_down = f"P{name}d"
        net.add_place(place_up, tokens=count)
        net.add_place(place_down)

        def patch(m, _p=place_up, _r=patch_rate):
            return _r * m[_p]

        def repair(m, _p=place_down, _r=recovery_rate):
            return _r * m[_p]

        net.add_timed_transition(f"T{name}d", rate=patch)
        net.add_arc(place_up, f"T{name}d")
        net.add_arc(f"T{name}d", place_down)
        net.add_timed_transition(f"T{name}up", rate=repair)
        net.add_arc(place_down, f"T{name}up")
        net.add_arc(f"T{name}up", place_up)
    return net


def canonical_coa_reward(layout: CanonicalLayout):
    """Table VI reward over canonical markings: running fraction, 0 on
    any tier with no server up (the tier-up condition couples a tier's
    groups, matching the heterogeneous model's reward)."""
    tier_places = [
        [up_place(_slot_name(s)) for s in slots] for slots in layout.tier_slots()
    ]
    total = layout.total_servers

    def reward(marking) -> float:
        running = 0
        for places in tier_places:
            tier_up = sum(marking[place] for place in places)
            if tier_up == 0:
                return 0.0
            running += tier_up
        return running / total

    return reward


@dataclass(frozen=True)
class CoaStructure:
    """The numeric distillation of one canonical layout's exploration.

    Everything a steady or transient COA solve needs, as plain arrays:
    a member design's off-diagonal rate vector is
    ``coefficients * rates[rate_index]`` where *rates* holds the flat
    ``(patch, recovery)`` pairs per slot (``rates[2 * slot]`` patching,
    ``rates[2 * slot + 1]`` recovering).
    """

    layout: CanonicalLayout
    n_states: int
    src: np.ndarray  # (edges,) intp — pattern sources, sorted by (src, dst)
    dst: np.ndarray  # (edges,) intp — pattern destinations
    coefficients: np.ndarray  # (edges,) float64 — token counts
    rate_index: np.ndarray  # (edges,) intp — index into the flat rate vector
    reward: np.ndarray  # (n_states,) float64 — Table VI COA reward
    initial: np.ndarray  # (n_states,) float64 — all-up one-hot
    _solver: list = field(default_factory=list, repr=False, compare=False)

    @property
    def pattern(self) -> list[tuple[int, int]]:
        """The off-diagonal ``(src, dst)`` pairs, in rate-vector order."""
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def solver(self) -> BatchSteadySolver:
        """The (cached) batch steady solver over this pattern."""
        if not self._solver:
            self._solver.append(BatchSteadySolver(self.n_states, self.pattern))
        return self._solver[0]

    def rate_values(self, slot_rates: Sequence[float]) -> np.ndarray:
        """Off-diagonal rate vector for flat per-slot *slot_rates*."""
        rates = np.asarray(slot_rates, dtype=float)
        if rates.shape != (2 * self.layout.n_slots,):
            raise EvaluationError(
                f"expected {2 * self.layout.n_slots} slot rates, got "
                f"shape {rates.shape}"
            )
        return self.coefficients * rates[self.rate_index]

    def steady_probabilities(
        self, slot_rates: Sequence[float], method: str = "auto"
    ) -> np.ndarray:
        """Steady-state vector of the member with *slot_rates*."""
        return self.solver().solve(self.rate_values(slot_rates), method=method)

    def coa(self, slot_rates: Sequence[float], method: str = "auto") -> float:
        """Steady-state COA of the member with *slot_rates*."""
        return float(
            self.steady_probabilities(slot_rates, method=method) @ self.reward
        )

    def transient_solver(
        self,
        slot_rates: Sequence[float],
        tolerance: float = 1e-10,
        method: str = "uniformisation",
    ) -> BatchTransientSolver:
        """A transient solver for the member with *slot_rates*.

        *method* selects the propagation backend (see
        :class:`~repro.ctmc.transient.BatchTransientSolver`).
        """
        generator = self.solver().generator(self.rate_values(slot_rates))
        return BatchTransientSolver.from_generator(
            generator, tolerance=tolerance, method=method
        )

    def transient_coa(
        self,
        slot_rates: Sequence[float],
        times: Sequence[float],
        tolerance: float = 1e-10,
        method: str = "uniformisation",
    ) -> np.ndarray:
        """Expected COA at each time from the all-up marking."""
        return self.transient_solver(slot_rates, tolerance, method).rewards(
            self.initial, self.reward, times
        )

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The shareable numeric payload (see ``from_arrays``)."""
        return {
            "src": self.src,
            "dst": self.dst,
            "coefficients": self.coefficients,
            "rate_index": self.rate_index,
            "reward": self.reward,
            "initial": self.initial,
        }

    @classmethod
    def from_arrays(
        cls, layout: CanonicalLayout, arrays: dict[str, np.ndarray]
    ) -> "CoaStructure":
        """Rebuild a structure from its ``to_arrays`` payload."""
        return cls(
            layout=layout,
            n_states=len(arrays["reward"]),
            src=np.asarray(arrays["src"], dtype=np.intp),
            dst=np.asarray(arrays["dst"], dtype=np.intp),
            coefficients=np.asarray(arrays["coefficients"], dtype=float),
            rate_index=np.asarray(arrays["rate_index"], dtype=np.intp),
            reward=np.asarray(arrays["reward"], dtype=float),
            initial=np.asarray(arrays["initial"], dtype=float),
        )


def coa_structure(
    layout: CanonicalLayout, rates: Sequence[tuple[float, float]]
) -> CoaStructure:
    """Explore the canonical net of *layout* once and distil it.

    *rates* only shapes the exploration's rate values (any member's
    rates work — discovery order is rate-independent); the returned
    structure depends solely on the layout, which is what makes it
    shareable across every member of the pattern group.
    """
    net = build_canonical_net(layout, rates)
    graph = explore(net)
    tangible = graph.tangible
    index = {marking: i for i, marking in enumerate(tangible)}
    place_count = 2 * layout.n_slots

    # Slot s owns places 2s (up) and 2s + 1 (down); its patch and repair
    # deltas are built once, not per marking.
    moves: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    for slot in range(layout.n_slots):
        patch = [0] * place_count
        patch[2 * slot] = -1
        patch[2 * slot + 1] = 1
        moves.append((2 * slot, tuple(patch), tuple(-d for d in patch)))

    edges: list[tuple[int, int, float, int]] = []
    for i, marking in enumerate(tangible):
        tokens = marking.tokens
        for up, patch, repair in moves:
            up_tokens = tokens[up]
            down_tokens = tokens[up + 1]
            if up_tokens > 0:
                j = index[marking.with_delta(patch)]
                edges.append((i, j, float(up_tokens), up))
            if down_tokens > 0:
                j = index[marking.with_delta(repair)]
                edges.append((i, j, float(down_tokens), up + 1))
    edges.sort(key=lambda edge: (edge[0], edge[1]))

    reward_fn = canonical_coa_reward(layout)
    reward = np.fromiter(
        (reward_fn(marking) for marking in tangible),
        dtype=float,
        count=len(tangible),
    )
    return CoaStructure(
        layout=layout,
        n_states=len(tangible),
        src=np.array([e[0] for e in edges], dtype=np.intp),
        dst=np.array([e[1] for e in edges], dtype=np.intp),
        coefficients=np.array([e[2] for e in edges], dtype=float),
        rate_index=np.array([e[3] for e in edges], dtype=np.intp),
        reward=reward,
        initial=np.asarray(graph.initial_distribution, dtype=float),
    )
