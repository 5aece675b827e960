"""Tests for the classical core decomposition, cross-checked against NetworkX."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph
from repro.graph.csr import CSRBipartite
from repro.graph.generators import (
    complete_bipartite,
    path_bipartite,
    random_bipartite,
    random_power_law_bipartite,
    star_bipartite,
)
from repro.cores.core import (
    core_numbers,
    degeneracy,
    degeneracy_order,
    flat_core_numbers,
    k_core,
)


def _to_networkx(graph: BipartiteGraph) -> nx.Graph:
    nx_graph = nx.Graph()
    for u in graph.left_vertices():
        nx_graph.add_node((LEFT, u))
    for v in graph.right_vertices():
        nx_graph.add_node((RIGHT, v))
    for u, v in graph.edges():
        nx_graph.add_edge((LEFT, u), (RIGHT, v))
    return nx_graph


class TestCoreNumbers:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_on_random_graphs(self, seed):
        graph = random_bipartite(8, 9, 0.35, seed=seed)
        expected = nx.core_number(_to_networkx(graph))
        assert core_numbers(graph) == expected

    def test_complete_bipartite(self):
        graph = complete_bipartite(3, 5)
        numbers = core_numbers(graph)
        assert all(value == 3 for value in numbers.values())

    def test_star_graph(self):
        graph = star_bipartite(6)
        numbers = core_numbers(graph)
        assert numbers[(LEFT, 0)] == 1
        assert all(numbers[(RIGHT, v)] == 1 for v in range(6))

    def test_path_graph_core_is_one(self):
        numbers = core_numbers(path_bipartite(6))
        assert set(numbers.values()) == {1}

    def test_empty_graph(self):
        assert core_numbers(BipartiteGraph()) == {}

    def test_isolated_vertices_have_core_zero(self):
        graph = BipartiteGraph(left=[1], right=[2])
        numbers = core_numbers(graph)
        assert numbers == {(LEFT, 1): 0, (RIGHT, 2): 0}


def _assert_flat_matches(graph: BipartiteGraph) -> None:
    csr = CSRBipartite.from_bipartite(graph)
    numbers = core_numbers(graph)
    assert flat_core_numbers(csr) == [numbers[key] for key in csr.keys]


class TestFlatCoreNumbers:
    """The CSR bucket peel equals the label-keyed peel, id by id."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        _assert_flat_matches(random_bipartite(12, 15, 0.3, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_power_law_graphs(self, seed):
        _assert_flat_matches(random_power_law_bipartite(80, 60, 4.0, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_label_graphs(self, seed):
        base = random_bipartite(10, 10, 0.35, seed=seed)
        graph = BipartiteGraph()
        for u, v in base.edges():
            left = u if u % 3 == 0 else (f"u{u}" if u % 3 == 1 else ("t", u))
            # Labels shared across sides must not collide.
            right = v if v % 2 else f"u{v}"
            graph.add_edge(left, right)
        _assert_flat_matches(graph)

    def test_edgeless_and_empty_graphs(self):
        _assert_flat_matches(BipartiteGraph(left=[1, 2, 3], right=["a"]))
        assert flat_core_numbers(CSRBipartite.from_bipartite(BipartiteGraph())) == []

    def test_isolated_vertices_next_to_a_dense_block(self):
        graph = complete_bipartite(4, 4)
        graph.add_left_vertex("lonely")
        graph.add_right_vertex(99)
        graph.add_edge("lonely", 0)
        _assert_flat_matches(graph)


class TestDegeneracy:
    def test_complete_bipartite_degeneracy(self):
        assert degeneracy(complete_bipartite(4, 7)) == 4

    def test_empty_graph_degeneracy_is_zero(self):
        assert degeneracy(BipartiteGraph()) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_degeneracy_equals_max_core_number(self, seed):
        graph = random_bipartite(10, 10, 0.3, seed=seed)
        assert degeneracy(graph) == max(core_numbers(graph).values())


class TestDegeneracyOrder:
    @pytest.mark.parametrize("seed", range(6))
    def test_is_a_permutation_of_all_vertices(self, seed):
        graph = random_bipartite(7, 8, 0.4, seed=seed)
        order = degeneracy_order(graph)
        assert len(order) == graph.num_vertices
        assert len(set(order)) == graph.num_vertices

    @pytest.mark.parametrize("seed", range(6))
    def test_smallest_degree_last_property(self, seed):
        graph = random_bipartite(7, 7, 0.4, seed=seed)
        order = degeneracy_order(graph)
        delta = degeneracy(graph)
        remaining_left = set(graph.left)
        remaining_right = set(graph.right)
        for side, label in order:
            if side == LEFT:
                degree = len(graph.neighbors_left(label) & remaining_right)
            else:
                degree = len(graph.neighbors_right(label) & remaining_left)
            # The defining property of a degeneracy order: each vertex has
            # residual degree at most the degeneracy when it is peeled.
            assert degree <= delta
            if side == LEFT:
                remaining_left.discard(label)
            else:
                remaining_right.discard(label)


class TestKCore:
    def test_k_core_of_complete_graph(self):
        graph = complete_bipartite(4, 4)
        assert k_core(graph, 4).num_vertices == 8
        assert k_core(graph, 5).num_vertices == 0

    def test_k_core_zero_returns_copy(self):
        graph = random_bipartite(5, 5, 0.3, seed=1)
        core = k_core(graph, 0)
        assert core == graph
        assert core is not graph

    def test_k_core_minimum_degree_property(self):
        graph = random_bipartite(12, 12, 0.3, seed=3)
        for k in range(1, 4):
            core = k_core(graph, k)
            for u in core.left_vertices():
                assert core.degree_left(u) >= k
            for v in core.right_vertices():
                assert core.degree_right(v) >= k

    def test_k_core_matches_networkx(self):
        graph = random_bipartite(10, 10, 0.35, seed=9)
        for k in range(1, 4):
            ours = k_core(graph, k)
            theirs = nx.k_core(_to_networkx(graph), k)
            expected_left = {n[1] for n in theirs.nodes if n[0] == LEFT}
            expected_right = {n[1] for n in theirs.nodes if n[0] == RIGHT}
            assert ours.left == expected_left
            assert ours.right == expected_right
