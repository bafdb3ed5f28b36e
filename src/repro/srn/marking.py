"""Markings: immutable token-count vectors addressable by place name.

Guards, marking-dependent rates and reward functions all receive a
:class:`Marking` and read token counts with ``marking["Phwup"]``,
mirroring SPNP's ``#Phwup`` notation.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Mapping

from repro.errors import SrnError

__all__ = ["Marking"]


class Marking:
    """An immutable assignment of token counts to places.

    Instances share one place-index mapping (owned by the net), so
    hashing and equality reduce to the token tuple.

    Examples
    --------
    >>> marking = Marking({"a": 0, "b": 1}, (1, 0))
    >>> marking["a"]
    1
    """

    __slots__ = ("_index", "_tokens", "_hash")

    def __init__(self, index: Mapping[str, int], tokens: tuple[int, ...]) -> None:
        if len(index) != len(tokens):
            raise SrnError(
                f"marking needs {len(index)} token counts, got {len(tokens)}"
            )
        self._index = index
        self._tokens = tokens
        self._hash = hash(tokens)

    # -- reading ------------------------------------------------------------

    def __getitem__(self, place: str | int) -> int:
        if isinstance(place, int):
            return self._tokens[place]
        try:
            return self._tokens[self._index[place]]
        except KeyError:
            raise SrnError(f"unknown place {place!r}") from None

    def get(self, place: str, default: int = 0) -> int:
        """Token count of *place*, or *default* if the place is unknown."""
        position = self._index.get(place)
        return self._tokens[position] if position is not None else default

    @property
    def tokens(self) -> tuple[int, ...]:
        """The raw token tuple (ordered like the net's places)."""
        return self._tokens

    def places(self) -> list[str]:
        """Place names in index order."""
        return sorted(self._index, key=self._index.__getitem__)

    def as_dict(self) -> dict[str, int]:
        """``{place: tokens}`` mapping."""
        return {name: self._tokens[pos] for name, pos in self._index.items()}

    def nonzero(self) -> dict[str, int]:
        """Only the places holding at least one token."""
        return {name: count for name, count in self.as_dict().items() if count}

    def __iter__(self) -> Iterator[int]:
        return iter(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    # -- derivation ------------------------------------------------------------

    def with_delta(self, delta: tuple[int, ...]) -> "Marking":
        """A new marking with *delta* added element-wise."""
        tokens = tuple(map(operator.add, self._tokens, delta))
        if min(tokens, default=0) < 0:
            raise SrnError(f"negative token count after delta {delta!r}")
        return Marking(self._index, tokens)

    # -- identity ----------------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self._tokens == other._tokens

    def __repr__(self) -> str:
        inside = ", ".join(f"{name}={count}" for name, count in self.nonzero().items())
        return f"Marking({inside})"
