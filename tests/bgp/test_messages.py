"""Unit tests for BGP messages."""

import pytest

from repro.bgp import Announcement, AsPath, Withdrawal, is_update


class TestAnnouncement:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Announcement(prefix="d", path=AsPath.empty())

    def test_value_equality(self):
        a = Announcement("d", AsPath((1, 0)))
        b = Announcement("d", AsPath((1, 0)))
        assert a == b

    def test_repr(self):
        msg = Announcement("d", AsPath((1, 0)))
        assert "d" in repr(msg) and "(1 0)" in repr(msg)


class TestWithdrawal:
    def test_value_equality(self):
        assert Withdrawal("d") == Withdrawal("d")
        assert Withdrawal("d") != Withdrawal("e")


class TestIsUpdate:
    def test_updates_counted(self):
        assert is_update(Announcement("d", AsPath((1, 0))))
        assert is_update(Withdrawal("d"))

    def test_non_updates_not_counted(self):
        assert not is_update("keepalive")
        assert not is_update(None)
