"""Tests for the greedy heuristics and the hMBB stage (Algorithm 5)."""

from __future__ import annotations

import pytest

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph
from repro.graph.bitset import IndexedBitGraph
from repro.graph.generators import (
    complete_bipartite,
    planted_balanced_biclique,
    random_bipartite,
    random_power_law_bipartite,
    star_bipartite,
)
from repro.cores.core import core_numbers, degeneracy
from repro.exceptions import InvalidParameterError
from repro.graph.prepared import PreparedGraph
from repro.mbb.context import SearchAborted, SearchContext
from repro.mbb.heuristics import (
    core_heuristic,
    core_heuristic_bits,
    degree_heuristic,
    greedy_extend,
    greedy_extend_bits,
    h_mbb,
)
from repro.mbb.reductions import core_reduce
from repro.baselines.brute_force import brute_force_side_size


def reference_h_mbb(graph: BipartiteGraph, top_r: int, context: SearchContext):
    """The label-keyed hMBB body, kept as the oracle of the flat one.

    Built only from the public label-keyed helpers: every step re-peels
    and rebuilds the dict graph.  Returns ``(best, residual graph,
    proven_optimal)``.
    """
    context.offer_biclique(degree_heuristic(graph, top_r=top_r, context=context))
    context.stats.heuristic_side = max(
        context.stats.heuristic_side, context.best_side
    )
    if context.best_side > 0 and degeneracy(graph) <= context.best_side:
        return context.best, graph, True
    reduced = core_reduce(graph, context.best_side)
    if reduced.num_vertices == 0:
        return context.best, reduced, True
    cores = core_numbers(reduced)
    side_before = context.best_side
    context.offer_biclique(
        core_heuristic(reduced, top_r=top_r, cores=cores, context=context)
    )
    if context.best_side > side_before:
        context.stats.heuristic_side = max(
            context.stats.heuristic_side, context.best_side
        )
        if max(cores.values(), default=0) <= context.best_side:
            return context.best, reduced, True
        reduced = core_reduce(reduced, context.best_side)
        if reduced.num_vertices == 0:
            return context.best, reduced, True
    return context.best, reduced, False


def _mixed_labels(graph: BipartiteGraph) -> BipartiteGraph:
    """``graph`` relabelled with ints, strings and tuples on both sides."""
    mixed = BipartiteGraph()
    for u, v in graph.edges():
        left = u if u % 3 == 0 else (f"a{u}" if u % 3 == 1 else ("t", u))
        right = v if v % 2 else f"a{v}"
        mixed.add_edge(left, right)
    return mixed


class TestGreedyExtend:
    def test_complete_graph_reaches_optimum(self):
        graph = complete_bipartite(4, 4)
        result = greedy_extend(graph, LEFT, 0)
        assert result.side_size == 4
        assert result.is_valid_in(graph)

    def test_star_graph_single_edge(self):
        graph = star_bipartite(5)
        result = greedy_extend(graph, LEFT, 0)
        assert result.side_size == 1

    def test_seed_on_right_side(self):
        graph = complete_bipartite(3, 5)
        result = greedy_extend(graph, RIGHT, 0)
        assert result.side_size == 3

    @pytest.mark.parametrize("seed", range(10))
    def test_result_is_always_a_valid_balanced_biclique(self, seed):
        graph = random_bipartite(10, 10, 0.4, seed=seed)
        for side, label in [(LEFT, 0), (RIGHT, 0)]:
            result = greedy_extend(graph, side, label)
            assert result.is_balanced
            assert result.is_valid_in(graph)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_exceeds_optimum(self, seed):
        graph = random_bipartite(8, 8, 0.5, seed=seed)
        optimum = brute_force_side_size(graph)
        assert greedy_extend(graph, LEFT, 0).side_size <= optimum


class TestSeededHeuristics:
    def test_degree_heuristic_validity(self):
        graph = random_bipartite(15, 15, 0.4, seed=1)
        result = degree_heuristic(graph, top_r=4)
        assert result.is_balanced
        assert result.is_valid_in(graph)

    def test_core_heuristic_finds_planted_block(self):
        graph = planted_balanced_biclique(40, 40, 6, background_density=0.03, seed=2)
        result = core_heuristic(graph, top_r=6)
        assert result.side_size >= 5  # the planted block dominates the cores

    def test_degree_heuristic_on_empty_graph(self):
        assert degree_heuristic(BipartiteGraph()).side_size == 0

    def test_top_r_one_still_works(self):
        graph = random_bipartite(10, 10, 0.5, seed=3)
        assert degree_heuristic(graph, top_r=1).is_balanced


class TestBitsetHeuristics:
    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_extend_bits_matches_sets(self, seed):
        """Identical tie-breaking: both kernels grow the same biclique."""
        graph = random_bipartite(12, 12, 0.4, seed=seed)
        bitgraph = IndexedBitGraph.from_bipartite(graph)
        for side in (LEFT, RIGHT):
            labels = bitgraph.left_labels if side == LEFT else bitgraph.right_labels
            for index, label in enumerate(labels[:4]):
                expected = greedy_extend(graph, side, label)
                assert greedy_extend_bits(bitgraph, side, index) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_core_heuristic_bits_matches_sets(self, seed):
        graph = random_bipartite(14, 14, 0.35, seed=seed)
        bitgraph = IndexedBitGraph.from_bipartite(graph)
        assert core_heuristic_bits(bitgraph) == core_heuristic(graph)

    def test_core_heuristic_bits_on_planted_graph(self):
        graph = planted_balanced_biclique(40, 40, 6, background_density=0.02, seed=3)
        bitgraph = IndexedBitGraph.from_bipartite(graph)
        result = core_heuristic_bits(bitgraph, top_r=6)
        assert result.side_size >= 5
        assert result.is_valid_in(graph)

    @pytest.mark.parametrize("seed", range(8))
    def test_restricted_cores_pick_the_full_cores_winner(self, seed):
        """Core numbers restricted to a k-core holding >= top_r vertices
        rank the same seeds as the full peel, so the winner is the same."""
        from repro.graph.bitset import core_numbers_masks, k_core_masks

        graph = planted_balanced_biclique(
            30, 30, 7, background_density=0.12, seed=seed
        )
        bitgraph = IndexedBitGraph.from_bipartite(graph)
        full = core_numbers_masks(bitgraph)
        expected = core_heuristic_bits(bitgraph, cores=full)
        checked = 0
        for k in range(1, 9):
            left, right = k_core_masks(bitgraph, k)
            if left.bit_count() + right.bit_count() < 5:
                continue
            restricted = core_numbers_masks(bitgraph, left, right)
            assert core_heuristic_bits(bitgraph, cores=restricted) == expected
            checked += 1
        assert checked >= 3

    def test_greedy_extend_bits_validity(self):
        graph = random_bipartite(10, 10, 0.5, seed=2)
        bitgraph = IndexedBitGraph.from_bipartite(graph)
        result = greedy_extend_bits(bitgraph, LEFT, 0)
        assert result.is_balanced
        assert result.is_valid_in(graph)


class TestHeuristicBudgets:
    def test_degree_heuristic_checkpoint_aborts(self):
        graph = random_bipartite(10, 10, 0.4, seed=1)
        context = SearchContext()
        context.cancel()
        with pytest.raises(SearchAborted):
            degree_heuristic(graph, context=context)

    def test_h_mbb_returns_incumbent_on_abort(self):
        graph = random_bipartite(20, 20, 0.4, seed=2)
        context = SearchContext()
        seeds_tried = []
        context.cancel_hook = lambda: len(seeds_tried) >= 2 or bool(
            seeds_tried.append(None)
        )
        outcome = h_mbb(graph, context=context)
        assert context.aborted
        assert not outcome.proven_optimal
        assert outcome.best.is_valid_in(graph)
        # The two seeds that completed before the hook fired offered their
        # bicliques to the shared incumbent; aborting the third seed must
        # not discard that work.
        assert outcome.best.side_size > 0
        assert context.best_side == outcome.best.side_size


class TestFlatHMBBMatchesLabelKeyedReference:
    """The flat S1 equals the label-keyed reference step for step."""

    @staticmethod
    def _graphs():
        yield BipartiteGraph(left=range(3), right=range(2))
        for seed in range(12):
            yield random_bipartite(14, 12, 0.15 + 0.03 * seed, seed=seed)
            yield random_power_law_bipartite(60, 50, 4.0, seed=seed)
            yield planted_balanced_biclique(
                25, 25, 4, background_density=0.08, seed=seed
            )

    @pytest.mark.parametrize("labels", ["int", "mixed"])
    @pytest.mark.parametrize("top_r", [0, 1, 5])
    def test_same_witness_proof_residual_and_heuristic_side(self, labels, top_r):
        for graph in self._graphs():
            if labels == "mixed":
                graph = _mixed_labels(graph)
            expected_context = SearchContext()
            best, residual, proven = reference_h_mbb(
                graph, top_r, expected_context
            )
            context = SearchContext()
            outcome = h_mbb(graph, top_r=top_r, context=context)
            assert outcome.best == best
            assert outcome.proven_optimal == proven
            assert outcome.reduced_graph.left == residual.left
            assert outcome.reduced_graph.right == residual.right
            assert (
                context.stats.heuristic_side
                == expected_context.stats.heuristic_side
            )

    def test_residual_is_a_snapshot_of_the_reduced_graph(self):
        graph = random_power_law_bipartite(60, 50, 4.0, seed=0)
        prepared = PreparedGraph.prepare(graph)
        outcome = h_mbb(graph, prepared=prepared)
        assert not outcome.proven_optimal
        assert outcome.residual is not prepared
        assert outcome.reduced_graph is outcome.residual.graph
        # A repeated call finds the memoised residual.
        assert h_mbb(graph, prepared=prepared).residual is outcome.residual

    def test_negative_top_r_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            h_mbb(complete_bipartite(3, 3), top_r=-1)

    def test_foreign_snapshot_is_rejected(self):
        graph = complete_bipartite(3, 3)
        other = PreparedGraph.prepare(complete_bipartite(3, 4))
        with pytest.raises(InvalidParameterError):
            h_mbb(graph, prepared=other)


class TestHMBB:
    def test_outcome_fields(self):
        graph = planted_balanced_biclique(30, 30, 5, background_density=0.05, seed=4)
        outcome = h_mbb(graph)
        assert outcome.best.is_valid_in(graph)
        assert outcome.best.is_balanced
        assert outcome.reduced_graph.num_vertices <= graph.num_vertices

    def test_early_termination_on_complete_graph(self):
        graph = complete_bipartite(5, 5)
        outcome = h_mbb(graph)
        # The heuristic reaches side 5 and the degeneracy bound certifies it.
        assert outcome.best.side_size == 5
        assert outcome.proven_optimal

    def test_heuristic_never_exceeds_optimum(self):
        for seed in range(8):
            graph = random_bipartite(9, 9, 0.4, seed=seed)
            outcome = h_mbb(graph)
            assert outcome.best.side_size <= brute_force_side_size(graph)

    def test_reduction_keeps_improving_bicliques(self):
        for seed in range(6):
            graph = random_bipartite(9, 9, 0.5, seed=seed)
            optimum = brute_force_side_size(graph)
            outcome = h_mbb(graph)
            if outcome.proven_optimal:
                assert outcome.best.side_size == optimum
            else:
                # The residual graph must still contain an optimum solution
                # whenever the heuristic has not already found one.
                residual_best = (
                    brute_force_side_size(outcome.reduced_graph)
                    if outcome.reduced_graph.num_vertices
                    else 0
                )
                assert max(residual_best, outcome.best.side_size) == optimum

    def test_shares_context_incumbent(self):
        graph = complete_bipartite(4, 4)
        context = SearchContext()
        outcome = h_mbb(graph, context=context)
        assert context.best_side == outcome.best.side_size
