"""Tests for the size-constrained (a, b) biclique problem."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    complete_bipartite,
    crown_graph,
    grid_union_of_bicliques,
    random_bipartite,
    star_bipartite,
)
from repro.graph.validation import is_biclique
from repro.mbb.context import SearchContext
from repro.mbb.size_constrained import (
    _decide,
    _inherit_cancellation,
    balanced_side_from_profile,
    find_biclique_of_size,
    has_biclique_of_size,
    maximal_biclique_profile,
    size_constrained_mbb,
)
from repro.baselines.brute_force import brute_force_side_size


class TestFindBicliqueOfSize:
    def test_zero_targets_always_satisfiable(self):
        assert find_biclique_of_size(BipartiteGraph(), 0, 0) is not None

    def test_targets_larger_than_sides_fail_fast(self):
        graph = complete_bipartite(3, 3)
        assert find_biclique_of_size(graph, 4, 1) is None
        assert find_biclique_of_size(graph, 1, 4) is None

    def test_negative_targets_raise(self):
        with pytest.raises(InvalidParameterError):
            find_biclique_of_size(complete_bipartite(2, 2), -1, 0)

    def test_complete_graph_all_feasible_pairs(self):
        graph = complete_bipartite(3, 4)
        for a in range(0, 4):
            for b in range(0, 5):
                witness = find_biclique_of_size(graph, a, b)
                assert witness is not None
                assert len(witness.left) >= a and len(witness.right) >= b
                assert is_biclique(graph, witness.left, witness.right)

    def test_star_graph(self):
        graph = star_bipartite(4)
        assert has_biclique_of_size(graph, 1, 4)
        assert not has_biclique_of_size(graph, 2, 1)

    def test_crown_graph_asymmetric_instances(self):
        graph = crown_graph(4)
        # Any 1 left vertex is adjacent to 3 right vertices.
        assert has_biclique_of_size(graph, 1, 3)
        assert not has_biclique_of_size(graph, 1, 4)
        # Balanced (2, 2) exists, (3, 3) does not (complement matching).
        assert has_biclique_of_size(graph, 2, 2)
        assert not has_biclique_of_size(graph, 3, 3)

    @pytest.mark.parametrize("seed", range(8))
    def test_consistency_with_mbb_oracle(self, seed):
        graph = random_bipartite(7, 7, 0.5, seed=seed)
        optimum = brute_force_side_size(graph)
        assert has_biclique_of_size(graph, optimum, optimum) or optimum == 0
        assert not has_biclique_of_size(graph, optimum + 1, optimum + 1)

    def test_witness_is_a_real_biclique(self):
        graph = grid_union_of_bicliques([3, 2], noise_edges=3, seed=1)
        witness = find_biclique_of_size(graph, 2, 3)
        if witness is not None:
            assert is_biclique(graph, witness.left, witness.right)

    def test_budget_returns_none(self):
        graph = random_bipartite(15, 15, 0.5, seed=2)
        assert find_biclique_of_size(graph, 6, 6, node_budget=1) is None

    def test_unknown_kernel_raises(self):
        with pytest.raises(InvalidParameterError):
            find_biclique_of_size(complete_bipartite(3, 3), 2, 2, kernel="quantum")


class TestKernelAgreement:
    """The bitset padding reduction and the set search decide identically."""

    @pytest.mark.parametrize("seed", range(10))
    def test_kernels_agree_on_random_instances(self, seed):
        graph = random_bipartite(6, 7, 0.5, seed=seed)
        for a in range(0, 6):
            for b in range(0, 6):
                bits = find_biclique_of_size(graph, a, b, kernel="bits")
                sets = find_biclique_of_size(graph, a, b, kernel="sets")
                assert (bits is None) == (sets is None), (seed, a, b)
                if bits is not None:
                    assert len(bits.left) >= a and len(bits.right) >= b
                    assert is_biclique(graph, bits.left, bits.right)

    @pytest.mark.parametrize("seed", range(5))
    def test_profiles_agree_across_kernels(self, seed):
        graph = random_bipartite(5, 6, 0.5, seed=40 + seed)
        assert maximal_biclique_profile(graph, kernel="bits") == (
            maximal_biclique_profile(graph, kernel="sets")
        )

    def test_asymmetric_padding_both_directions(self):
        graph = star_bipartite(4)
        # b > a exercises left-side padding, a > b right-side padding.
        assert has_biclique_of_size(graph, 1, 4, kernel="bits")
        assert not has_biclique_of_size(graph, 2, 1, kernel="bits")
        wide = crown_graph(5)
        assert has_biclique_of_size(wide, 4, 1, kernel="bits")
        assert not has_biclique_of_size(wide, 5, 1, kernel="bits")


class TestSizeConstrainedMBB:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle(self, seed):
        graph = random_bipartite(7, 7, 0.5, seed=seed)
        result = size_constrained_mbb(graph)
        assert result.optimal
        assert result.side_size == brute_force_side_size(graph)
        assert result.biclique.is_valid_in(graph)
        assert result.biclique.is_balanced

    def test_set_kernel_matches_bits(self):
        graph = random_bipartite(8, 8, 0.6, seed=3)
        bits = size_constrained_mbb(graph, kernel="bits")
        sets = size_constrained_mbb(graph, kernel="sets")
        assert bits.side_size == sets.side_size

    def test_budget_marks_result_non_optimal(self):
        graph = random_bipartite(15, 15, 0.5, seed=4)
        result = size_constrained_mbb(graph, node_budget=2)
        assert not result.optimal

    def test_empty_graph(self):
        result = size_constrained_mbb(BipartiteGraph())
        assert result.optimal and result.side_size == 0

    def test_a_parent_hook_stops_the_solve_inside_a_decision(self):
        # Each (k, k) decision's context polls the parent's hook at every
        # node, besides the parent's own checkpoint between decisions.
        # The 20th poll lands inside a decision, so that decision stops
        # and the solve with it, while the parent itself never saw the
        # hook fire.
        graph = random_bipartite(14, 14, 0.6, seed=6)
        unhooked = size_constrained_mbb(graph)
        polls = []

        def hook():
            polls.append(None)
            return len(polls) >= 20

        parent = SearchContext(cancel_hook=hook)
        result = size_constrained_mbb(graph, context=parent)
        assert not result.optimal
        assert len(polls) == 20 and not parent.cancelled
        assert 0 < result.stats.nodes < unhooked.stats.nodes
        assert result.biclique.is_valid_in(graph) and result.biclique.is_balanced

    def test_a_decision_stops_at_its_first_witness(self):
        # A parent hook that never fires counts its polls.  A decision
        # polls it at every node but the one after its first witness:
        # there the decision's own hook, polled first, ends the search.
        graph = random_bipartite(14, 14, 0.6, seed=6)
        side = size_constrained_mbb(graph).side_size
        polls = []

        def hook():
            polls.append(None)
            return False

        witness, aborted, stats = _decide(
            graph, side, side, parent=SearchContext(cancel_hook=hook)
        )
        assert not aborted
        assert stats.nodes == len(polls) + 1
        assert witness == find_biclique_of_size(graph, side, side)
        assert is_biclique(graph, witness.left, witness.right)
        assert min(len(witness.left), len(witness.right)) >= side


class TestInheritCancellation:
    """A decision's context stops when its own hook or its parent does."""

    @staticmethod
    def recording(polls, name, fires):
        def hook():
            polls.append(name)
            return fires

        return hook

    def test_without_a_parent_the_child_is_unchanged(self):
        own = self.recording([], "own", False)
        child = SearchContext(deadline=7.0, cancel_hook=own)
        _inherit_cancellation(child, None)
        assert child.cancel_hook is own and child.deadline == 7.0

    def test_the_child_takes_the_parents_deadline(self):
        parent = SearchContext(deadline=123.5)
        child = SearchContext(time_budget=5.0)
        _inherit_cancellation(child, parent)
        assert child.deadline == 123.5
        assert child.cancel_hook() is False

    def test_the_childs_own_hook_is_polled_first(self):
        polls = []
        parent = SearchContext(cancel_hook=self.recording(polls, "parent", True))
        parent.cancelled = True
        child = SearchContext(cancel_hook=self.recording(polls, "own", True))
        _inherit_cancellation(child, parent)
        assert child.cancel_hook() is True
        assert polls == ["own"]

    def test_the_parents_flag_is_read_before_its_hook(self):
        polls = []
        parent = SearchContext(cancel_hook=self.recording(polls, "parent", False))
        child = SearchContext(cancel_hook=self.recording(polls, "own", False))
        _inherit_cancellation(child, parent)
        parent.cancelled = True
        assert child.cancel_hook() is True
        assert polls == ["own"]

    @pytest.mark.parametrize("fires", [False, True])
    def test_the_parents_hook_is_polled_last(self, fires):
        polls = []
        parent = SearchContext(cancel_hook=self.recording(polls, "parent", fires))
        child = SearchContext(cancel_hook=self.recording(polls, "own", False))
        _inherit_cancellation(child, parent)
        assert child.cancel_hook() is fires
        assert polls == ["own", "parent"]


class TestMaximalBicliqueProfile:
    def test_complete_graph_profile(self):
        graph = complete_bipartite(2, 3)
        profile = maximal_biclique_profile(graph)
        assert (2, 3) in profile
        # In a complete graph the only Pareto-maximal pair is the full one.
        assert profile == [(2, 3)]

    def test_star_graph_profile(self):
        graph = star_bipartite(3)
        profile = maximal_biclique_profile(graph)
        assert (1, 3) in profile
        assert all(b <= 3 for _, b in profile)

    def test_profile_is_pareto(self):
        graph = grid_union_of_bicliques([3, 1])
        profile = maximal_biclique_profile(graph)
        for i, (a1, b1) in enumerate(profile):
            for j, (a2, b2) in enumerate(profile):
                if i != j:
                    assert not (a1 <= a2 and b1 <= b2), profile

    @pytest.mark.parametrize("seed", range(5))
    def test_balanced_side_from_profile_matches_mbb(self, seed):
        graph = random_bipartite(6, 6, 0.5, seed=seed)
        profile = maximal_biclique_profile(graph)
        assert balanced_side_from_profile(profile) == brute_force_side_size(graph)

    def test_max_side_cap(self):
        graph = complete_bipartite(5, 5)
        profile = maximal_biclique_profile(graph, max_side=2)
        assert all(a <= 2 and b <= 2 for a, b in profile)
