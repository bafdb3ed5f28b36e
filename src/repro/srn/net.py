"""Stochastic-reward-net definition: places, transitions, arcs, guards."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from repro._validation import (
    check_name,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)
from repro.errors import SrnError
from repro.srn.marking import Marking

__all__ = ["Place", "Transition", "TransitionKind", "StochasticRewardNet"]

#: A guard predicate over markings (SPNP-style).
Guard = Callable[[Marking], bool]
#: A marking-dependent rate or weight.
RateFn = Callable[[Marking], float]


@dataclass(frozen=True)
class Place:
    """A place with its initial token count."""

    name: str
    initial_tokens: int = 0

    def __post_init__(self) -> None:
        check_name(self.name, "place name")
        check_non_negative_int(self.initial_tokens, "initial_tokens")


class TransitionKind(str, Enum):
    """Timed (exponential) or immediate transition."""

    TIMED = "timed"
    IMMEDIATE = "immediate"

    def __str__(self) -> str:
        return self.value


@dataclass
class Transition:
    """A transition with arcs, guard and rate/weight.

    Timed transitions carry an exponential *rate* (a float or a
    marking-dependent callable); immediate transitions carry a *weight*
    (for probabilistic conflict resolution) and an integer *priority*
    (higher fires first).
    """

    name: str
    kind: TransitionKind
    rate: float | RateFn | None = None
    weight: float | RateFn = 1.0
    priority: int = 0
    guard: Guard | None = None
    inputs: list[tuple[int, int]] = field(default_factory=list)
    outputs: list[tuple[int, int]] = field(default_factory=list)
    inhibitors: list[tuple[int, int]] = field(default_factory=list)

    def is_enabled(self, marking: Marking) -> bool:
        """Structural + guard enabling test in *marking*."""
        tokens = marking.tokens
        for place_idx, multiplicity in self.inputs:
            if tokens[place_idx] < multiplicity:
                return False
        for place_idx, multiplicity in self.inhibitors:
            if tokens[place_idx] >= multiplicity:
                return False
        if self.guard is not None and not self.guard(marking):
            return False
        return True

    def firing_delta(self, place_count: int) -> tuple[int, ...]:
        """Token-count change caused by firing."""
        delta = [0] * place_count
        for place_idx, multiplicity in self.inputs:
            delta[place_idx] -= multiplicity
        for place_idx, multiplicity in self.outputs:
            delta[place_idx] += multiplicity
        return tuple(delta)

    def rate_in(self, marking: Marking) -> float:
        """Evaluate the (possibly marking-dependent) rate in *marking*."""
        if self.kind is not TransitionKind.TIMED:
            raise SrnError(f"transition {self.name!r} is immediate; it has no rate")
        value = self.rate(marking) if callable(self.rate) else self.rate
        if value is None or value != value or value < 0:
            raise SrnError(
                f"transition {self.name!r} produced invalid rate {value!r}"
            )
        return float(value)

    def weight_in(self, marking: Marking) -> float:
        """Evaluate the (possibly marking-dependent) weight in *marking*."""
        value = self.weight(marking) if callable(self.weight) else self.weight
        if value is None or value != value or value <= 0:
            raise SrnError(
                f"transition {self.name!r} produced invalid weight {value!r}"
            )
        return float(value)


class StochasticRewardNet:
    """Builder and container for an SRN.

    Examples
    --------
    >>> net = StochasticRewardNet()
    >>> net.add_place("up", tokens=1)
    >>> net.add_place("down")
    >>> net.add_timed_transition("fail", rate=2.0)
    >>> net.add_arc("up", "fail")
    >>> net.add_arc("fail", "down")
    >>> net.add_timed_transition("repair", rate=8.0)
    >>> net.add_arc("down", "repair")
    >>> net.add_arc("repair", "up")
    >>> net.initial_marking().nonzero()
    {'up': 1}
    """

    def __init__(self, name: str = "srn") -> None:
        self.name = check_name(name, "net name")
        self._places: list[Place] = []
        self._place_index: dict[str, int] = {}
        self._transitions: list[Transition] = []
        self._transition_index: dict[str, int] = {}

    # -- construction -------------------------------------------------------

    def add_place(self, name: str, tokens: int = 0) -> Place:
        """Add a place holding *tokens* initially."""
        if name in self._place_index:
            raise SrnError(f"duplicate place {name!r}")
        if name in self._transition_index:
            raise SrnError(f"{name!r} already names a transition")
        place = Place(name, tokens)
        self._place_index[name] = len(self._places)
        self._places.append(place)
        return place

    def add_timed_transition(
        self,
        name: str,
        rate: float | RateFn,
        guard: Guard | None = None,
    ) -> Transition:
        """Add an exponentially timed transition.

        *rate* is a positive float or a callable evaluated per marking
        (marking-dependent firing rate, as in the paper's upper layer).
        """
        if not callable(rate):
            check_positive(rate, f"rate of {name!r}")
        return self._add_transition(
            Transition(name=name, kind=TransitionKind.TIMED, rate=rate, guard=guard)
        )

    def add_immediate_transition(
        self,
        name: str,
        weight: float | RateFn = 1.0,
        priority: int = 0,
        guard: Guard | None = None,
    ) -> Transition:
        """Add an immediate transition with optional weight and priority."""
        if not callable(weight):
            check_positive(weight, f"weight of {name!r}")
        check_non_negative_int(priority, f"priority of {name!r}")
        return self._add_transition(
            Transition(
                name=name,
                kind=TransitionKind.IMMEDIATE,
                weight=weight,
                priority=priority,
                guard=guard,
            )
        )

    def add_arc(self, src: str, dst: str, multiplicity: int = 1) -> None:
        """Add an input arc (place -> transition) or output arc
        (transition -> place) depending on the endpoint kinds."""
        check_positive_int(multiplicity, "arc multiplicity")
        if src in self._place_index and dst in self._transition_index:
            transition = self._transitions[self._transition_index[dst]]
            transition.inputs.append((self._place_index[src], multiplicity))
        elif src in self._transition_index and dst in self._place_index:
            transition = self._transitions[self._transition_index[src]]
            transition.outputs.append((self._place_index[dst], multiplicity))
        else:
            raise SrnError(
                f"arc must connect a place and a transition, got {src!r} -> {dst!r}"
            )

    def add_inhibitor_arc(self, place: str, transition: str, multiplicity: int = 1) -> None:
        """Disable *transition* whenever *place* holds >= *multiplicity* tokens."""
        check_positive_int(multiplicity, "inhibitor multiplicity")
        if place not in self._place_index:
            raise SrnError(f"unknown place {place!r}")
        if transition not in self._transition_index:
            raise SrnError(f"unknown transition {transition!r}")
        self._transitions[self._transition_index[transition]].inhibitors.append(
            (self._place_index[place], multiplicity)
        )

    # -- accessors -----------------------------------------------------------

    @property
    def places(self) -> list[Place]:
        """Places in insertion order."""
        return list(self._places)

    @property
    def transitions(self) -> list[Transition]:
        """Transitions in insertion order."""
        return list(self._transitions)

    def place_index(self) -> dict[str, int]:
        """Place name -> position mapping (shared with markings)."""
        return self._place_index

    def transition(self, name: str) -> Transition:
        """The transition called *name*."""
        try:
            return self._transitions[self._transition_index[name]]
        except KeyError:
            raise SrnError(f"unknown transition {name!r}") from None

    def initial_marking(self) -> Marking:
        """The marking defined by the places' initial token counts."""
        return Marking(
            self._place_index, tuple(place.initial_tokens for place in self._places)
        )

    def marking(self, tokens: dict[str, int]) -> Marking:
        """Build a marking from a ``{place: tokens}`` dict (others 0)."""
        counts = [0] * len(self._places)
        for name, value in tokens.items():
            if name not in self._place_index:
                raise SrnError(f"unknown place {name!r}")
            counts[self._place_index[name]] = check_non_negative_int(value, name)
        return Marking(self._place_index, tuple(counts))

    # -- semantics -----------------------------------------------------------

    def enabled_transitions(self, marking: Marking) -> list[Transition]:
        """Transitions enabled in *marking* with priority filtering.

        If any immediate transition is enabled, only the enabled immediate
        transitions of maximal priority are returned (the marking is
        vanishing); otherwise all enabled timed transitions are returned.
        """
        enabled_immediate: list[Transition] = []
        enabled_timed: list[Transition] = []
        for transition in self._transitions:
            if transition.is_enabled(marking):
                if transition.kind is TransitionKind.IMMEDIATE:
                    enabled_immediate.append(transition)
                else:
                    enabled_timed.append(transition)
        if enabled_immediate:
            top = max(t.priority for t in enabled_immediate)
            return [t for t in enabled_immediate if t.priority == top]
        return enabled_timed

    def is_vanishing(self, marking: Marking) -> bool:
        """Whether *marking* enables at least one immediate transition."""
        return any(
            t.kind is TransitionKind.IMMEDIATE and t.is_enabled(marking)
            for t in self._transitions
        )

    def fire(self, marking: Marking, transition: Transition) -> Marking:
        """The marking reached by firing *transition* from *marking*."""
        if not transition.is_enabled(marking):
            raise SrnError(
                f"transition {transition.name!r} is not enabled in {marking!r}"
            )
        return marking.with_delta(transition.firing_delta(len(self._places)))

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check structural sanity; raise :class:`SrnError` on problems."""
        if not self._places:
            raise SrnError("net has no places")
        if not self._transitions:
            raise SrnError("net has no transitions")
        for transition in self._transitions:
            if not transition.inputs and not transition.outputs:
                raise SrnError(
                    f"transition {transition.name!r} has no arcs at all"
                )
            if transition.kind is TransitionKind.TIMED and transition.rate is None:
                raise SrnError(f"timed transition {transition.name!r} has no rate")

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"StochasticRewardNet({self.name!r}, places={len(self._places)}, "
            f"transitions={len(self._transitions)})"
        )

    # -- internal ---------------------------------------------------------------

    def _add_transition(self, transition: Transition) -> Transition:
        name = check_name(transition.name, "transition name")
        if name in self._transition_index:
            raise SrnError(f"duplicate transition {name!r}")
        if name in self._place_index:
            raise SrnError(f"{name!r} already names a place")
        self._transition_index[name] = len(self._transitions)
        self._transitions.append(transition)
        return transition
