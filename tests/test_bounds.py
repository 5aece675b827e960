"""Tests for bounding conditions and candidate-set completions."""

from __future__ import annotations

from repro.graph.generators import complete_bipartite
from repro.mbb.bounds import (
    common_neighbour_upper_bound,
    degree_upper_bound,
    is_bounded,
    offer_completions,
    trivial_upper_bound,
    upper_bound_side,
)
from repro.mbb.context import SearchContext
from repro.mbb.result import Biclique


class TestUpperBoundSide:
    def test_basic(self):
        assert upper_bound_side(1, 2, 3, 4) == min(1 + 3, 2 + 4)
        assert upper_bound_side(0, 0, 0, 0) == 0

    def test_trivial_upper_bound(self):
        assert trivial_upper_bound(3, 7) == 3


class TestIsBounded:
    def test_prunes_when_cannot_beat_incumbent(self):
        context = SearchContext()
        context.offer([1, 2], ["a", "b"])  # incumbent side 2
        assert is_bounded(context, 0, 0, 2, 2)  # upper bound 2 <= 2 -> prune
        assert not is_bounded(context, 0, 0, 3, 3)  # could reach 3

    def test_empty_incumbent_never_prunes_nonempty_node(self):
        context = SearchContext()
        assert not is_bounded(context, 0, 0, 1, 1)
        assert is_bounded(context, 0, 0, 0, 5)  # left side can never grow


class TestOfferCompletions:
    def test_offers_one_sided_extensions(self):
        graph = complete_bipartite(3, 3)
        context = SearchContext()
        # A = {0,1}, B = {0}, CB = {1,2}: completing B with CB gives side 2.
        offer_completions(context, {0, 1}, {0}, set(), {1, 2})
        assert context.best_side == 2
        assert context.best.is_valid_in(graph)

    def test_does_not_offer_when_not_improving(self):
        context = SearchContext()
        context.offer([1, 2, 3], [4, 5, 6])
        before = context.best
        offer_completions(context, {1}, {4}, {2}, {5})
        assert context.best is before


class TestDegreeUpperBound:
    def test_h_index_style_bound(self):
        assert degree_upper_bound([]) == 0
        assert degree_upper_bound([0, 0, 0]) == 0
        assert degree_upper_bound([5, 5, 5, 5, 5]) == 5
        assert degree_upper_bound([3, 3, 3, 1]) == 3
        assert degree_upper_bound([1, 2, 3, 4, 5]) == 3

    def test_common_neighbour_upper_bound_alias(self):
        assert common_neighbour_upper_bound([2, 2, 2]) == 2


class TestSearchContext:
    def test_offer_balances_and_tracks_best(self):
        context = SearchContext()
        improved = context.offer([1, 2, 3], ["a", "b"])
        assert improved
        assert context.best_side == 2
        assert context.best.is_balanced
        assert not context.offer([1], ["a"])

    def test_offer_biclique(self):
        context = SearchContext()
        assert context.offer_biclique(Biclique.of([1, 2], [3, 4]))
        assert not context.offer_biclique(Biclique.of([9], [9]))
        assert context.best_total == 4

    def test_node_budget_aborts(self):
        from repro.mbb.context import SearchAborted

        context = SearchContext(node_budget=2)
        context.enter_node(0)
        context.enter_node(1)
        try:
            context.enter_node(2)
        except SearchAborted:
            aborted = True
        else:
            aborted = False
        assert aborted and context.aborted

    def test_enter_node_polls_only_when_something_is_set(self):
        import time

        context = SearchContext()
        polls = []
        context.checkpoint = lambda: polls.append(context.stats.nodes)
        for depth in (0, 3, 1):
            context.enter_node(depth)
        assert polls == []
        assert (context.stats.nodes, context.stats.depth_sum, context.stats.max_depth) == (3, 4, 3)
        # Each of the four, set after construction, is polled at the next node.
        for name, value in (
            ("cancel_hook", lambda: False),
            ("time_budget", 60.0),
            ("deadline", time.perf_counter() + 60.0),
            ("cancelled", True),
        ):
            fresh = SearchContext()
            fresh_polls = []
            fresh.checkpoint = lambda polls=fresh_polls: polls.append(True)
            fresh.enter_node(0)
            setattr(fresh, name, value)
            fresh.enter_node(1)
            assert fresh_polls == [True], name
