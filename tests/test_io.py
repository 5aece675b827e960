"""Tests for graph I/O (edge lists, biadjacency matrices, NetworkX bridge)."""

from __future__ import annotations

import io

import networkx as nx
import pytest

from repro.exceptions import GraphFormatError
from repro.graph.generators import random_bipartite
from repro.graph.io import (
    from_networkx,
    read_biadjacency,
    read_edge_list,
    write_biadjacency,
    write_edge_list,
)


class TestEdgeList:
    def test_read_from_iterable_of_lines(self):
        graph = read_edge_list(["% comment", "1 10", "2 10", "", "# another", "2 11"])
        assert graph.num_left == 2
        assert graph.num_right == 2
        assert graph.num_edges == 3

    def test_extra_tokens_are_ignored(self):
        graph = read_edge_list(["1 2 3.5 1318032000"])
        assert graph.has_edge(1, 2)

    def test_bad_token_raises(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(["a b"])

    def test_too_few_tokens_raises(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(["42"])

    def test_round_trip_through_file(self, tmp_path):
        graph = random_bipartite(6, 7, 0.4, seed=9)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_edges == graph.num_edges
        assert {(u, v) for u, v in loaded.edges()} == {(u, v) for u, v in graph.edges()}

    def test_read_from_open_file_object(self):
        handle = io.StringIO("5 6\n5 7\n")
        graph = read_edge_list(handle)
        assert graph.degree_left(5) == 2

    def test_non_utf8_file_raises(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 2\n% caf\xe9\n3 4\n")
        with pytest.raises(GraphFormatError, match="UTF-8"):
            read_edge_list(path)

    def test_open_file_object_stays_open_after_an_error(self):
        handle = io.StringIO("1 2\nx y\n3 4\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(handle)
        assert not handle.closed
        assert handle.readline() == "3 4\n"


class TestBiadjacency:
    def test_read_simple_matrix(self):
        graph = read_biadjacency(["101", "010"])
        assert graph.num_left == 2
        assert graph.num_right == 3
        assert graph.has_edge(0, 0) and graph.has_edge(0, 2) and graph.has_edge(1, 1)

    def test_read_with_spaces_and_comments(self):
        graph = read_biadjacency(["% header", "1 0", "0 1"])
        assert graph.num_edges == 2

    def test_ragged_matrix_raises(self):
        with pytest.raises(GraphFormatError):
            read_biadjacency(["10", "101"])

    def test_non_binary_entry_raises(self):
        with pytest.raises(GraphFormatError):
            read_biadjacency(["102"])

    def test_non_utf8_file_raises(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"% caf\xe9\n10\n01\n")
        with pytest.raises(GraphFormatError, match="UTF-8"):
            read_biadjacency(path)

    def test_round_trip_through_file(self, tmp_path):
        graph = random_bipartite(4, 5, 0.5, seed=3)
        path = tmp_path / "matrix.txt"
        write_biadjacency(graph, path)
        loaded = read_biadjacency(path)
        assert loaded.num_edges == graph.num_edges


class TestNetworkxBridge:
    def test_round_trip_from_networkx(self):
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(["u1", "u2"], bipartite=0)
        nx_graph.add_nodes_from(["v1", "v2", "v3"], bipartite=1)
        nx_graph.add_edges_from([("u1", "v1"), ("u2", "v1"), ("u2", "v3")])
        graph = from_networkx(nx_graph, left_nodes=["u1", "u2"])
        assert graph.num_left == 2
        assert graph.num_right == 3
        assert graph.has_edge("u2", "v3")

    def test_edge_inside_partition_raises(self):
        nx_graph = nx.Graph()
        nx_graph.add_edge("u1", "u2")
        with pytest.raises(GraphFormatError):
            from_networkx(nx_graph, left_nodes=["u1", "u2"])
