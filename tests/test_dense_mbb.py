"""Tests for the dense-graph solver (Algorithm 3, denseMBB)."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    complete_bipartite,
    crown_graph,
    grid_union_of_bicliques,
    planted_balanced_biclique,
    random_bipartite,
    random_near_complete_bipartite,
)
from repro.mbb.dense import BRANCH_NAIVE, BRANCH_TRIVIALITY_LAST, dense_mbb, dense_mbb_on_sets
from repro.mbb.context import SearchContext
from repro.mbb.result import Biclique
from repro.baselines.brute_force import brute_force_side_size


class TestDenseMBBStructuredGraphs:
    def test_empty_graph(self):
        assert dense_mbb(BipartiteGraph()).side_size == 0

    def test_complete_bipartite(self):
        assert dense_mbb(complete_bipartite(5, 8)).side_size == 5

    @pytest.mark.parametrize("n", range(0, 9))
    def test_crown_graph_closed_form(self, n):
        assert dense_mbb(crown_graph(n)).side_size == n // 2

    def test_union_of_blocks(self):
        graph = grid_union_of_bicliques([4, 2, 1])
        result = dense_mbb(graph)
        assert result.side_size == 4
        assert result.biclique.is_valid_in(graph)

    def test_planted_biclique_is_found(self):
        graph = planted_balanced_biclique(20, 20, 6, background_density=0.1, seed=7)
        assert dense_mbb(graph).side_size >= 6


class TestDenseMBBAgainstOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_random_graphs(self, seed, random_graph_factory):
        graph = random_graph_factory(seed, max_side=9)
        result = dense_mbb(graph)
        assert result.side_size == brute_force_side_size(graph)
        assert result.biclique.is_valid_in(graph)
        assert result.biclique.is_balanced

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_dense_graphs(self, seed):
        graph = random_bipartite(9, 9, 0.85, seed=seed)
        assert dense_mbb(graph).side_size == brute_force_side_size(graph)

    @pytest.mark.parametrize("seed", range(8))
    def test_naive_branching_agrees_with_default(self, seed):
        graph = random_bipartite(8, 8, 0.6, seed=seed)
        default = dense_mbb(graph, branching=BRANCH_TRIVIALITY_LAST)
        naive = dense_mbb(graph, branching=BRANCH_NAIVE)
        assert default.side_size == naive.side_size


class TestDenseMBBOptions:
    def test_unknown_branching_mode_raises(self):
        with pytest.raises(InvalidParameterError):
            dense_mbb(complete_bipartite(2, 2), branching="bogus")

    def test_initial_best_seeds_incumbent(self):
        # An optimal seed is never replaced (only a strictly larger
        # biclique is), so it comes back as the witness.
        graph = random_bipartite(10, 10, 0.6, seed=3)
        seed = dense_mbb(graph).biclique
        result = dense_mbb(graph, initial_best=seed)
        assert result.optimal
        assert result.biclique == seed

    @pytest.mark.parametrize("kernel", ["bits", "sets"])
    def test_initial_best_outside_the_graph_is_rejected(self, kernel):
        from repro.graph.generators import random_power_law_bipartite

        graph = random_power_law_bipartite(60, 60, 3.0, seed=1)
        fictional = Biclique.of(range(1000, 1010), range(2000, 2010))
        with pytest.raises(InvalidParameterError):
            dense_mbb(graph, kernel=kernel, initial_best=fictional)

    def test_initial_best_that_is_not_a_biclique_is_rejected(self):
        graph = complete_bipartite(3, 3)
        graph.remove_edge(0, 0)
        with pytest.raises(InvalidParameterError):
            dense_mbb(graph, initial_best=Biclique.of([0, 1], [0, 1]))

    def test_heuristic_seed_solves_as_before(self):
        from repro.mbb.heuristics import degree_heuristic

        graph = random_bipartite(14, 14, 0.7, seed=4)
        plain = dense_mbb(graph)
        seeded = dense_mbb(graph, initial_best=degree_heuristic(graph))
        assert seeded.optimal
        assert seeded.side_size == plain.side_size
        assert seeded.biclique.is_valid_in(graph)

    def test_node_budget_best_effort(self):
        graph = random_bipartite(12, 12, 0.6, seed=5)
        result = dense_mbb(graph, node_budget=3)
        assert not result.optimal
        assert result.biclique.is_valid_in(graph)

    def test_polynomial_case_counter_increases_on_dense_input(self):
        graph = random_near_complete_bipartite(10, 10, max_missing=2, seed=1)
        result = dense_mbb(graph)
        assert result.stats.polynomial_cases >= 1

    def test_on_sets_entry_point_forces_vertex(self):
        graph = complete_bipartite(4, 4)
        context = SearchContext()
        dense_mbb_on_sets(
            graph,
            context,
            a={0},
            b=set(),
            ca={1, 2, 3},
            cb=set(graph.neighbors_left(0)),
        )
        assert context.best_side == 4
        assert 0 in context.best.left

    def test_on_sets_rejects_bad_branching(self):
        graph = complete_bipartite(2, 2)
        with pytest.raises(InvalidParameterError):
            dense_mbb_on_sets(
                graph, SearchContext(), set(), set(), graph.left, graph.right,
                branching="bogus",
            )
