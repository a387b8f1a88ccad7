"""Unit tests for topology edge-list I/O."""

import io

import pytest

from repro.errors import TopologyError
from repro.topology import (
    DEFAULT_LINK_DELAY,
    clique,
    dumps_edge_list,
    load_edge_list,
)


class TestLoad:
    def test_basic_parse(self):
        topo = load_edge_list(io.StringIO("0 1\n1 2\n"))
        assert topo.num_nodes == 3
        assert topo.has_edge(0, 1)
        assert topo.link_delay(0, 1) == DEFAULT_LINK_DELAY

    def test_explicit_delay(self):
        topo = load_edge_list(io.StringIO("0 1 0.05\n"))
        assert topo.link_delay(0, 1) == 0.05

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n0 1  # trailing comment\n"
        topo = load_edge_list(io.StringIO(text))
        assert topo.num_edges == 1

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(TopologyError, match=":2:"):
            load_edge_list(io.StringIO("0 1\n0 1 2 3\n"))

    def test_non_numeric_rejected(self):
        with pytest.raises(TopologyError):
            load_edge_list(io.StringIO("a b\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(TopologyError, match="no edges"):
            load_edge_list(io.StringIO("# nothing\n"))

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("0 1\n1 2\n")
        topo = load_edge_list(path)
        assert topo.num_edges == 2


class TestRoundTrip:
    def test_dumps_then_load_preserves_graph(self):
        original = clique(5)
        restored = load_edge_list(io.StringIO(dumps_edge_list(original)))
        assert restored == original

    def test_non_default_delay_round_trips(self):
        from repro.topology import Topology

        original = Topology()
        original.add_edge(0, 1, delay=0.5)
        restored = load_edge_list(io.StringIO(dumps_edge_list(original)))
        assert restored.link_delay(0, 1) == 0.5
