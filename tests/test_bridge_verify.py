"""Tests for the bridging (Algorithm 6) and verification (Algorithm 8) stages."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    complete_bipartite,
    grid_union_of_bicliques,
    planted_balanced_biclique,
    random_bipartite,
    random_power_law_bipartite,
)
from repro.graph.prepared import PreparedGraph
from repro.cores.core import degeneracy
from repro.cores.orders import ORDER_BIDEGENERACY, ORDER_DEGREE
from repro.mbb.bridge import bridge_mbb
from repro.mbb.context import SearchContext
from repro.mbb.dense import KERNEL_BITS, KERNEL_SETS
from repro.mbb.verify import (
    schedule_hardest_first,
    subgraph_hardness,
    verify_mbb,
)
from repro.baselines.brute_force import brute_force_side_size


class TestBridgeMBB:
    def test_empty_graph(self):
        context = SearchContext()
        outcome = bridge_mbb(BipartiteGraph(), context)
        assert outcome.exhausted
        assert outcome.best.side_size == 0

    def test_pruning_with_strong_incumbent_removes_everything(self):
        graph = random_bipartite(12, 12, 0.2, seed=1)
        context = SearchContext()
        # Give the context an incumbent that is certainly at least as large
        # as anything in this sparse graph.
        context.offer(range(100, 108), range(200, 208))
        outcome = bridge_mbb(graph, context)
        assert outcome.exhausted

    def test_local_heuristic_improves_incumbent_on_planted_graph(self):
        graph = planted_balanced_biclique(40, 40, 6, background_density=0.02, seed=3)
        context = SearchContext()
        outcome = bridge_mbb(graph, context)
        assert outcome.best.side_size >= 5

    def test_surviving_subgraphs_have_enough_vertices(self):
        graph = random_bipartite(20, 20, 0.25, seed=4)
        context = SearchContext()
        context.offer([0, 1], [0, 1])
        outcome = bridge_mbb(graph, context)
        for sub in outcome.surviving:
            assert min(sub.graph.num_left, sub.graph.num_right) >= context.best_side + 1

    def test_statistics_are_populated(self):
        graph = random_bipartite(15, 15, 0.3, seed=5)
        context = SearchContext()
        bridge_mbb(graph, context)
        assert context.stats.subgraphs_generated == graph.num_vertices

    @pytest.mark.parametrize("order_name", [ORDER_DEGREE, ORDER_BIDEGENERACY])
    def test_bridge_plus_verify_reaches_optimum(self, order_name):
        for seed in range(6):
            graph = random_bipartite(9, 9, 0.5, seed=seed)
            optimum = brute_force_side_size(graph)
            context = SearchContext()
            outcome = bridge_mbb(graph, context, order=order_name)
            verify_mbb(outcome.surviving, context)
            assert context.best_side == optimum


class TestBridgeKernels:
    """Property tests: the bits and sets S2 kernels are interchangeable."""

    @pytest.mark.parametrize("seed", range(12))
    def test_surviving_subgraphs_identical(self, seed):
        graph = random_bipartite(18, 18, 0.3, seed=seed)
        context_bits = SearchContext()
        context_sets = SearchContext()
        bits = bridge_mbb(graph, context_bits, kernel=KERNEL_BITS)
        sets = bridge_mbb(graph, context_sets, kernel=KERNEL_SETS)
        assert [sub.center for sub in bits.surviving] == [
            sub.center for sub in sets.surviving
        ]
        assert context_bits.best == context_sets.best
        assert bits.local_heuristic_best == sets.local_heuristic_best
        assert (
            context_bits.stats.subgraphs_pruned
            == context_sets.stats.subgraphs_pruned
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_surviving_subgraphs_identical_power_law(self, seed):
        graph = random_power_law_bipartite(40, 40, 3.0, seed=seed)
        context_bits = SearchContext()
        context_sets = SearchContext()
        bits = bridge_mbb(graph, context_bits, kernel=KERNEL_BITS)
        sets = bridge_mbb(graph, context_sets, kernel=KERNEL_SETS)
        assert [sub.center for sub in bits.surviving] == [
            sub.center for sub in sets.surviving
        ]
        assert context_bits.best == context_sets.best

    @pytest.mark.parametrize("kernel", [KERNEL_BITS, KERNEL_SETS])
    def test_degeneracy_cached_on_survivors(self, kernel):
        graph = random_bipartite(16, 16, 0.35, seed=9)
        context = SearchContext()
        outcome = bridge_mbb(graph, context, kernel=kernel)
        for sub in outcome.surviving:
            assert sub.degeneracy is not None
            assert sub.degeneracy == degeneracy(sub.graph)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(InvalidParameterError):
            bridge_mbb(random_bipartite(4, 4, 0.5, seed=1), SearchContext(), kernel="quantum")

    def test_precomputed_order_matches_internal(self):
        from repro.cores.orders import search_order

        graph = random_bipartite(15, 15, 0.3, seed=4)
        order = search_order(graph, ORDER_BIDEGENERACY)
        with_order = bridge_mbb(graph, SearchContext(), total_order=order)
        without = bridge_mbb(graph, SearchContext())
        assert [sub.center for sub in with_order.surviving] == [
            sub.center for sub in without.surviving
        ]

    def test_mismatched_precomputed_order_rejected(self):
        from repro.cores.orders import search_order

        graph = random_bipartite(10, 10, 0.4, seed=5)
        other = random_bipartite(12, 12, 0.4, seed=6)
        stale_order = search_order(other, ORDER_BIDEGENERACY)
        with pytest.raises(InvalidParameterError):
            bridge_mbb(graph, SearchContext(), total_order=stale_order)


class TestBridgeBudgets:
    def test_cancel_hook_mid_s2_aborts_within_one_subgraph(self):
        graph = random_bipartite(25, 25, 0.3, seed=11)
        context = SearchContext()
        cutoff = 5
        context.cancel_hook = (
            lambda: context.stats.subgraphs_generated >= cutoff
        )
        outcome = bridge_mbb(graph, context)
        assert context.aborted and context.cancelled
        # The hook fired once `cutoff` subgraphs had been generated; the
        # checkpoint before the next subgraph must be the last poll.
        assert context.stats.subgraphs_generated == cutoff
        assert outcome.best.is_valid_in(graph)

    def test_checkpoint_does_not_inflate_node_stats(self):
        graph = random_bipartite(15, 15, 0.3, seed=12)
        context = SearchContext()
        bridge_mbb(graph, context)
        # Bridging only checkpoints; search nodes belong to S3.
        assert context.stats.nodes == 0

    def test_expired_deadline_aborts_immediately(self):
        import time

        graph = random_bipartite(15, 15, 0.3, seed=13)
        context = SearchContext()
        context.deadline = time.perf_counter() - 1.0
        outcome = bridge_mbb(graph, context)
        assert context.aborted
        assert context.stats.subgraphs_generated == 0
        # An aborted scan with no survivors is *not* exhaustion: subgraphs
        # it never reached could still hold an improvement.
        assert outcome.aborted
        assert not outcome.exhausted


class TestExactPrunes:
    """The cheap S2 prunes kill exactly what one full core peel kills."""

    FAMILIES = {
        "random": lambda seed: random_bipartite(18, 18, 0.3, seed=seed),
        "power_law": lambda seed: random_power_law_bipartite(40, 40, 3.0, seed=seed),
        "planted": lambda seed: planted_balanced_biclique(
            40, 40, 7, background_density=0.06, seed=seed
        ),
    }

    @pytest.mark.parametrize("order_name", [ORDER_DEGREE, ORDER_BIDEGENERACY])
    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", range(3))
    def test_scan_matches_a_full_peel_reference(self, kind, order_name, seed):
        from repro.graph.bitset import IndexedBitGraph, core_numbers_masks
        from repro.mbb.bridge import _scan_bits
        from repro.mbb.heuristics import core_heuristic_bits
        from repro.mbb.vertex_centred import iter_vertex_centred_subgraphs_csr

        graph = self.FAMILIES[kind](seed)
        prepared = PreparedGraph.prepare(graph)
        order = prepared.search_order(order_name)
        for target in range(1, 7):
            for sub in iter_vertex_centred_subgraphs_csr(prepared, order):
                if sub.min_side < target:
                    continue
                reference = IndexedBitGraph.from_bipartite(
                    graph, sub.left_members, sub.right_members
                )
                cores = core_numbers_masks(reference)
                full_degeneracy = max(max(cores[0]), max(cores[1]))
                candidate = _scan_bits(sub, target, True, True)
                if full_degeneracy < target:
                    assert candidate is None
                    continue
                assert candidate is not None
                assert sub.degeneracy == full_degeneracy
                assert candidate == core_heuristic_bits(reference, cores=cores)

    @pytest.mark.parametrize("seed", range(4))
    def test_bridge_counters_match_the_sets_kernel(self, seed):
        graph = planted_balanced_biclique(
            40, 40, 7, background_density=0.06, seed=seed
        )
        outcomes = {}
        for kernel in (KERNEL_BITS, KERNEL_SETS):
            context = SearchContext()
            outcome = bridge_mbb(graph, context, kernel=kernel)
            outcomes[kernel] = (
                [(sub.center, sub.degeneracy) for sub in outcome.surviving],
                context.best,
                context.stats.subgraphs_generated,
                context.stats.subgraphs_pruned,
            )
        assert outcomes[KERNEL_BITS] == outcomes[KERNEL_SETS]


class TestVerifyMBB:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_mbb([], SearchContext(), kernel="nope")

    def test_unknown_branching_rejected(self):
        with pytest.raises(InvalidParameterError):
            verify_mbb([], SearchContext(), branching="zzz")

    def test_unknown_kernel_rejected_before_any_search(self):
        graph = random_power_law_bipartite(40, 40, 3.0, seed=2)
        context = SearchContext()
        outcome = bridge_mbb(graph, context, use_local_heuristic=False)
        assert outcome.surviving
        with pytest.raises(InvalidParameterError):
            verify_mbb(outcome.surviving, context, kernel="nope")
        assert context.stats.subgraphs_searched == 0

    def test_verify_on_no_subgraphs_keeps_incumbent(self):
        context = SearchContext()
        context.offer([1], [2])
        best = verify_mbb([], context)
        assert best.side_size == 1

    def test_verify_improves_on_union_of_blocks(self):
        graph = grid_union_of_bicliques([4, 2])
        context = SearchContext()
        outcome = bridge_mbb(graph, context, use_local_heuristic=False)
        verify_mbb(outcome.surviving, context)
        assert context.best_side == 4

    def test_verify_without_core_pruning_still_correct(self):
        graph = random_bipartite(8, 8, 0.6, seed=7)
        optimum = brute_force_side_size(graph)
        context = SearchContext()
        outcome = bridge_mbb(graph, context, use_core_pruning=False)
        verify_mbb(outcome.surviving, context, use_core_pruning=False)
        assert context.best_side == optimum

    def test_verify_respects_time_budget(self):
        graph = complete_bipartite(12, 12)
        context = SearchContext(node_budget=1)
        outcome = bridge_mbb(graph, context, use_local_heuristic=False)
        # With a one-node budget the verification aborts but must still
        # return a valid (possibly sub-optimal) incumbent.
        best = verify_mbb(outcome.surviving, context)
        assert best.is_valid_in(graph)


def _surviving_family(graph):
    """Bridge with the local heuristic off: a context plus the survivors
    for driving ``verify_mbb`` directly."""
    context = SearchContext()
    prepared = PreparedGraph.prepare(graph)
    bridge = bridge_mbb(
        graph,
        context,
        prepared=prepared,
        total_order=prepared.search_order(ORDER_BIDEGENERACY),
        use_local_heuristic=False,
    )
    return context, bridge.surviving


class TestSchedule:
    def test_hardest_first_orders_by_descending_bound(self):
        graph = random_bipartite(30, 30, 0.3, seed=1)
        _context, surviving = _surviving_family(graph)
        assert len(surviving) >= 2
        ordered = schedule_hardest_first(surviving)
        bounds = [sub.min_side for sub in ordered]
        assert bounds == sorted(bounds, reverse=True)
        # Deterministic: ties broken by generation position.
        assert [subgraph_hardness(s) for s in ordered] == sorted(
            subgraph_hardness(s) for s in surviving
        )

    def test_verify_mbb_consumes_the_schedule(self):
        # verify_mbb reorders its input hardest-first itself, so the order
        # the survivors arrive in changes neither the answer nor the work.
        graph = random_bipartite(30, 30, 0.3, seed=2)
        context, surviving = _surviving_family(graph)
        baseline = SearchContext()
        baseline.offer_biclique(context.best)
        verify_mbb(list(reversed(surviving)), baseline)
        other = SearchContext()
        other.offer_biclique(context.best)
        verify_mbb(surviving, other)
        assert baseline.best == other.best
        assert baseline.stats.nodes == other.stats.nodes
        assert baseline.stats.subgraphs_searched == other.stats.subgraphs_searched
