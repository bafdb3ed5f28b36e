"""Tests for markings."""

from __future__ import annotations

import pytest

from repro.errors import SrnError
from repro.srn import Marking

INDEX = {"a": 0, "b": 1, "c": 2}


class TestAccess:
    def test_by_name(self):
        marking = Marking(INDEX, (1, 0, 2))
        assert marking["a"] == 1
        assert marking["c"] == 2

    def test_by_position(self):
        marking = Marking(INDEX, (1, 0, 2))
        assert marking[1] == 0

    def test_unknown_place_raises(self):
        marking = Marking(INDEX, (1, 0, 2))
        with pytest.raises(SrnError):
            marking["zz"]

    def test_get_with_default(self):
        marking = Marking(INDEX, (1, 0, 2))
        assert marking.get("zz", 7) == 7
        assert marking.get("a") == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(SrnError):
            Marking(INDEX, (1, 0))

    def test_as_dict_and_nonzero(self):
        marking = Marking(INDEX, (1, 0, 2))
        assert marking.as_dict() == {"a": 1, "b": 0, "c": 2}
        assert marking.nonzero() == {"a": 1, "c": 2}

    def test_places_in_index_order(self):
        marking = Marking(INDEX, (0, 0, 0))
        assert marking.places() == ["a", "b", "c"]

    def test_iteration_and_len(self):
        marking = Marking(INDEX, (1, 0, 2))
        assert list(marking) == [1, 0, 2]
        assert len(marking) == 3


class TestIdentity:
    def test_equality_by_tokens(self):
        assert Marking(INDEX, (1, 0, 2)) == Marking(INDEX, (1, 0, 2))
        assert Marking(INDEX, (1, 0, 2)) != Marking(INDEX, (1, 0, 3))

    def test_hashable(self):
        seen = {Marking(INDEX, (1, 0, 2))}
        assert Marking(INDEX, (1, 0, 2)) in seen

    def test_not_equal_to_tuple(self):
        assert Marking(INDEX, (1, 0, 2)) != (1, 0, 2)


class TestDelta:
    def test_with_delta(self):
        marking = Marking(INDEX, (1, 0, 2))
        moved = marking.with_delta((-1, 1, 0))
        assert moved.tokens == (0, 1, 2)
        assert marking.tokens == (1, 0, 2)  # immutable

    def test_negative_tokens_rejected(self):
        marking = Marking(INDEX, (1, 0, 2))
        with pytest.raises(SrnError):
            marking.with_delta((-2, 0, 0))

    def test_with_delta_on_zero_places(self):
        moved = Marking({}, ()).with_delta(())
        assert moved.tokens == ()
        assert moved == Marking({}, ())

    def test_repr_shows_nonzero(self):
        assert "a=1" in repr(Marking(INDEX, (1, 0, 0)))
