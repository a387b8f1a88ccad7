"""Unit tests for AS-path algebra."""

import pytest

from repro.bgp import AsPath
from repro.errors import ProtocolError


class TestConstruction:
    def test_empty_path(self):
        path = AsPath.empty()
        assert path.is_empty
        assert len(path) == 0
        assert path.head is None
        assert path.origin is None

    def test_basic_path(self):
        path = AsPath((5, 4, 0))
        assert len(path) == 3
        assert path.head == 5
        assert path.origin == 0
        assert list(path) == [5, 4, 0]

    def test_duplicate_ases_rejected(self):
        with pytest.raises(ProtocolError):
            AsPath((1, 2, 1))

    def test_negative_asn_rejected(self):
        with pytest.raises(ProtocolError):
            AsPath((1, -2))

    def test_value_equality_and_hash(self):
        assert AsPath((1, 2)) == AsPath((1, 2))
        assert AsPath((1, 2)) != AsPath((2, 1))
        assert hash(AsPath((1, 2))) == hash(AsPath((1, 2)))

    def test_repr_matches_paper_notation(self):
        assert repr(AsPath((5, 4, 0))) == "(5 4 0)"


class TestPrepend:
    def test_prepend_puts_asn_at_head(self):
        assert AsPath((4, 0)).prepend(5) == AsPath((5, 4, 0))

    def test_prepend_existing_asn_rejected(self):
        with pytest.raises(ProtocolError):
            AsPath((4, 0)).prepend(4)

    def test_prepend_to_empty(self):
        assert AsPath.empty().prepend(0) == AsPath((0,))

    def test_prepend_is_pure(self):
        original = AsPath((4, 0))
        original.prepend(5)
        assert original == AsPath((4, 0))


class TestContainment:
    def test_contains(self):
        path = AsPath((5, 4, 0))
        assert 4 in path
        assert 9 not in path


class TestSuffix:
    def test_suffix_from_member(self):
        assert AsPath((5, 4, 0)).suffix_from(4) == AsPath((4, 0))

    def test_suffix_from_head_is_whole_path(self):
        path = AsPath((5, 4, 0))
        assert path.suffix_from(5) == path

    def test_suffix_from_nonmember_is_none(self):
        assert AsPath((5, 4, 0)).suffix_from(9) is None

    def test_indexing(self):
        path = AsPath((5, 4, 0))
        assert path[0] == 5
        assert path[-1] == 0
        assert path[1:] == (4, 0)
