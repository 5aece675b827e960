"""Tests for the random and structured graph generators."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.generators import (
    complete_bipartite,
    crown_graph,
    cycle_bipartite,
    expected_dense_mbb_side,
    grid_union_of_bicliques,
    path_bipartite,
    planted_balanced_biclique,
    random_bipartite,
    random_bipartite_with_edge_count,
    random_near_complete_bipartite,
    random_power_law_bipartite,
    star_bipartite,
)
from repro.graph.complement import max_missing_degree
from repro.graph.validation import check_consistent, is_biclique


class TestRandomBipartite:
    def test_sizes_and_density_extremes(self):
        empty = random_bipartite(5, 6, 0.0, seed=1)
        full = random_bipartite(5, 6, 1.0, seed=1)
        assert empty.num_edges == 0
        assert full.num_edges == 30
        assert empty.num_left == full.num_left == 5

    def test_deterministic_for_fixed_seed(self):
        a = random_bipartite(8, 8, 0.5, seed=42)
        b = random_bipartite(8, 8, 0.5, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_bipartite(10, 10, 0.5, seed=1)
        b = random_bipartite(10, 10, 0.5, seed=2)
        assert a != b

    def test_density_roughly_respected(self):
        graph = random_bipartite(40, 40, 0.3, seed=5)
        assert 0.2 < graph.density < 0.4

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            random_bipartite(-1, 5, 0.5)
        with pytest.raises(InvalidParameterError):
            random_bipartite(5, 5, 1.5)

    def test_accepts_random_instance(self):
        rng = random.Random(7)
        graph = random_bipartite(4, 4, 0.5, seed=rng)
        check_consistent(graph)


class TestEdgeCountGenerator:
    @pytest.mark.parametrize("n_edges", [0, 5, 12, 20])
    def test_exact_edge_count(self, n_edges):
        graph = random_bipartite_with_edge_count(4, 5, n_edges, seed=3)
        assert graph.num_edges == n_edges
        check_consistent(graph)

    def test_invalid_edge_count(self):
        with pytest.raises(InvalidParameterError):
            random_bipartite_with_edge_count(2, 2, 5)


class TestPowerLawGenerator:
    def test_basic_shape(self):
        graph = random_power_law_bipartite(200, 100, 3.0, seed=1)
        assert graph.num_left == 200
        assert graph.num_right == 100
        assert 0 < graph.num_edges <= 200 * 3
        check_consistent(graph)

    def test_degree_skew_hubs_exist(self):
        graph = random_power_law_bipartite(300, 300, 4.0, seed=2)
        degrees = sorted(
            (graph.degree_left(u) for u in graph.left_vertices()), reverse=True
        )
        # The biggest hub should be far above the average degree.
        average = sum(degrees) / len(degrees)
        assert degrees[0] >= 3 * average

    def test_zero_average_degree(self):
        graph = random_power_law_bipartite(10, 10, 0.0, seed=1)
        assert graph.num_edges == 0

    def test_invalid_parameters(self):
        nan, inf = float("nan"), float("inf")
        for avg_degree, exponent in [
            (-1.0, 2.1),
            (2.0, 0.5),
            (nan, 2.1),
            (inf, 2.1),
            (-inf, 2.1),
            (2.0, nan),
        ]:
            with pytest.raises(InvalidParameterError):
                random_power_law_bipartite(10, 10, avg_degree, exponent=exponent)

    def test_huge_finite_average_degree_is_capped(self):
        # 5 * 1e308 overflows to inf; the edge target caps at |L| * |R|.
        graph = random_power_law_bipartite(5, 4, 1e308, seed=1)
        assert 0 < graph.num_edges <= 20


class TestPlantedBiclique:
    def test_planted_block_is_a_biclique(self):
        graph = planted_balanced_biclique(30, 30, 6, background_density=0.05, seed=1)
        planted_left = list(range(6))
        planted_right = list(range(6))
        assert is_biclique(graph, planted_left, planted_right)

    def test_planted_size_zero_is_plain_random(self):
        graph = planted_balanced_biclique(10, 10, 0, background_density=0.0, seed=1)
        assert graph.num_edges == 0

    def test_invalid_planted_size(self):
        with pytest.raises(InvalidParameterError):
            planted_balanced_biclique(5, 5, 6)


class TestNearComplete:
    @pytest.mark.parametrize("max_missing", [0, 1, 2])
    def test_missing_budget_respected(self, max_missing):
        graph = random_near_complete_bipartite(8, 8, max_missing=max_missing, seed=4)
        assert max_missing_degree(graph) <= max_missing

    def test_invalid_budget(self):
        with pytest.raises(InvalidParameterError):
            random_near_complete_bipartite(4, 4, max_missing=-1)


class TestStructuredGraphs:
    def test_complete_bipartite(self):
        graph = complete_bipartite(3, 7)
        assert graph.num_edges == 21
        assert graph.density == pytest.approx(1.0)

    def test_crown_graph_structure(self):
        graph = crown_graph(4)
        assert graph.num_edges == 4 * 3
        assert all(not graph.has_edge(i, i) for i in range(4))

    def test_crown_graph_invalid(self):
        with pytest.raises(InvalidParameterError):
            crown_graph(-1)

    def test_path_bipartite_edge_count(self):
        for length in range(0, 8):
            graph = path_bipartite(length)
            assert graph.num_edges == length
            assert graph.num_vertices == length + 1
            check_consistent(graph)

    def test_path_bipartite_degrees(self):
        graph = path_bipartite(5)
        degrees = sorted(
            [graph.degree_left(u) for u in graph.left_vertices()]
            + [graph.degree_right(v) for v in graph.right_vertices()]
        )
        # A path has exactly two endpoints of degree 1.
        assert degrees.count(1) == 2
        assert max(degrees) <= 2

    def test_cycle_bipartite(self):
        graph = cycle_bipartite(8)
        assert graph.num_vertices == 8
        assert graph.num_edges == 8
        assert all(graph.degree_left(u) == 2 for u in graph.left_vertices())
        assert all(graph.degree_right(v) == 2 for v in graph.right_vertices())

    def test_cycle_bipartite_invalid(self):
        with pytest.raises(InvalidParameterError):
            cycle_bipartite(7)
        with pytest.raises(InvalidParameterError):
            cycle_bipartite(2)

    def test_star_bipartite(self):
        graph = star_bipartite(5)
        assert graph.num_left == 1
        assert graph.num_right == 5
        assert graph.degree_left(0) == 5

    def test_grid_union_of_bicliques(self):
        graph = grid_union_of_bicliques([3, 2])
        assert graph.num_edges == 9 + 4
        assert is_biclique(graph, [0, 1, 2], [0, 1, 2])
        assert is_biclique(graph, [3, 4], [3, 4])

    def test_grid_union_with_noise_stays_consistent(self):
        graph = grid_union_of_bicliques([2, 2], noise_edges=5, seed=1)
        check_consistent(graph)


class TestExpectedDenseSide:
    def test_monotone_in_density(self):
        low = expected_dense_mbb_side(64, 0.5)
        high = expected_dense_mbb_side(64, 0.9)
        assert high >= low

    def test_extremes(self):
        assert expected_dense_mbb_side(10, 0.0) == 0
        assert expected_dense_mbb_side(10, 1.0) == 10
        assert expected_dense_mbb_side(0, 0.5) == 0
