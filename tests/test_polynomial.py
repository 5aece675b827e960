"""Tests for the polynomial-time solver on near-complete subgraphs."""

from __future__ import annotations

import random

import pytest

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph
from repro.graph.bitset import IndexedBitGraph, iter_bits
from repro.graph.generators import (
    complete_bipartite,
    crown_graph,
    random_bipartite,
    random_near_complete_bipartite,
)
from repro.mbb import polynomial
from repro.mbb.context import SearchContext
from repro.mbb.polynomial import (
    component_choices,
    is_polynomially_solvable,
    maximum_balanced_biclique_near_complete,
    missing_neighbors,
    solve_polynomial_case,
    solve_polynomial_case_bits,
)
from repro.mbb.reductions import BitNodeState, NodeState
from repro.mbb.result import Biclique
from repro.baselines.brute_force import brute_force_mbb


def _full_state(graph: BipartiteGraph) -> NodeState:
    return NodeState(set(), set(), graph.left, graph.right)


class TestIsPolynomiallySolvable:
    def test_complete_graph_is_solvable(self):
        graph = complete_bipartite(4, 4)
        assert is_polynomially_solvable(graph, _full_state(graph))

    def test_crown_graph_is_solvable(self):
        graph = crown_graph(5)
        assert is_polynomially_solvable(graph, _full_state(graph))

    def test_sparse_graph_is_not(self):
        graph = random_bipartite(6, 6, 0.2, seed=1)
        assert not is_polynomially_solvable(graph, _full_state(graph))

    @pytest.mark.parametrize("seed", range(5))
    def test_near_complete_generator_is_always_solvable(self, seed):
        graph = random_near_complete_bipartite(7, 6, max_missing=2, seed=seed)
        assert is_polynomially_solvable(graph, _full_state(graph))


class TestMissingNeighbors:
    def test_complement_adjacency_restricted_to_candidates(self):
        graph = crown_graph(3)
        complement = missing_neighbors(graph, _full_state(graph))
        # The crown complement is a perfect matching: every vertex misses
        # exactly one neighbour.
        assert all(len(misses) == 1 for misses in complement.values())
        assert complement[(LEFT, 0)] == {(RIGHT, 0)}


class TestComponentChoices:
    def test_path_choices_are_independent_sets(self):
        # Path u0 - v0 - u1 in the complement: choices are {u0,u1}, {v0}, ...
        sequence = [(LEFT, 0), (RIGHT, 0), (LEFT, 1)]
        choices = component_choices(sequence, is_cycle=False)
        pairs = {(c.a, c.b) for c in choices}
        assert (2, 0) in pairs  # both left endpoints
        assert (0, 1) in pairs  # the middle right vertex alone
        assert all(c.a + c.b <= 2 for c in choices)

    def test_cycle_choices_exclude_adjacent_pairs(self):
        # 4-cycle in the complement: at most one vertex per complement edge.
        sequence = [(LEFT, 0), (RIGHT, 0), (LEFT, 1), (RIGHT, 1)]
        choices = component_choices(sequence, is_cycle=True)
        pairs = {(c.a, c.b) for c in choices}
        assert (2, 0) in pairs
        assert (0, 2) in pairs
        assert (2, 1) not in pairs and (1, 2) not in pairs

    def test_empty_sequence(self):
        choices = component_choices([], is_cycle=False)
        assert len(choices) == 1
        assert choices[0].a == 0 and choices[0].b == 0


class TestSolvePolynomialCase:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_crown_graphs_have_half_n_optimum(self, n):
        graph = crown_graph(n)
        result = maximum_balanced_biclique_near_complete(graph)
        assert result.side_size == n // 2
        assert result.is_valid_in(graph)

    def test_complete_graph(self):
        graph = complete_bipartite(5, 3)
        result = maximum_balanced_biclique_near_complete(graph)
        assert result.side_size == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_on_near_complete_graphs(self, seed):
        graph = random_near_complete_bipartite(7, 7, max_missing=2, seed=seed)
        expected = brute_force_mbb(graph).side_size
        result = maximum_balanced_biclique_near_complete(graph)
        assert result.side_size == expected
        assert result.is_valid_in(graph)
        assert result.is_balanced

    def test_rejects_graphs_outside_lemma3(self):
        graph = random_bipartite(8, 8, 0.3, seed=2)
        if not is_polynomially_solvable(graph, _full_state(graph)):
            with pytest.raises(ValueError):
                maximum_balanced_biclique_near_complete(graph)

    def test_returns_none_when_incumbent_already_better(self):
        graph = complete_bipartite(2, 2)
        context = SearchContext()
        context.offer([0, 1, 2], [0, 1, 2])  # incumbent side 3 (fictional)
        result = solve_polynomial_case(graph, _full_state(graph), context)
        assert result is None

    def test_respects_partial_result(self):
        # Partial result (A={0}, B={0}) with candidates forming a complete
        # 2x2 block on {1,2} x {1,2}: the extension reaches side 3.
        graph = complete_bipartite(3, 3)
        state = NodeState({0}, {0}, {1, 2}, {1, 2})
        context = SearchContext()
        result = solve_polynomial_case(graph, state, context)
        assert result is not None
        assert result.side_size == 3


def _context_with_incumbent(side: int) -> SearchContext:
    # Only the incumbent's side size matters to the polynomial case.
    return SearchContext(best=Biclique.of(range(side), range(side)))


def _bit_state(bits: IndexedBitGraph, state: NodeState) -> BitNodeState:
    return BitNodeState(
        bits.left_mask(state.a),
        bits.right_mask(state.b),
        bits.left_mask(state.ca),
        bits.right_mask(state.cb),
    )


def _random_lemma3_node(graph: BipartiteGraph, rng: random.Random) -> NodeState:
    """A random search node: ``A x B`` complete, candidates adjacent to it.

    ``A`` and ``B`` obey the solver invariant (every candidate is adjacent
    to the whole opposite partial side); some compatible candidates are
    dropped, as an exclude branch would.
    """
    left = sorted(graph.left_vertices())
    right = sorted(graph.right_vertices())
    a = set(rng.sample(left, rng.randint(0, min(2, len(left)))))
    common = [v for v in right if all(graph.has_edge(u, v) for u in a)]
    b = set(rng.sample(common, rng.randint(0, min(2, len(common)))))
    ca = {
        u
        for u in left
        if u not in a
        and all(graph.has_edge(u, v) for v in b)
        and rng.random() < 0.85
    }
    cb = {v for v in common if v not in b and rng.random() < 0.85}
    return NodeState(a, b, ca, cb)


def _cycle_complement_graph(rng: random.Random) -> BipartiteGraph:
    """A complete bipartite graph minus disjoint even cycles.

    Random near-complete graphs seldom have complement cycles; here every
    complement component is a 4- or 6-cycle.
    """
    n = rng.randint(2, 7)
    graph = complete_bipartite(n + rng.randint(0, 2), n + rng.randint(0, 2))
    left = list(range(n))
    right = list(range(n))
    rng.shuffle(left)
    rng.shuffle(right)
    start = 0
    while n - start >= 2:
        k = 2 if n - start < 5 else rng.choice((2, 3))
        for i in range(k):
            u = left[start + i]
            graph.remove_edge(u, right[start + i])
            graph.remove_edge(u, right[start + (i + 1) % k])
        start += k
    return graph


def _lemma3_graph(seed: int) -> BipartiteGraph:
    rng = random.Random(seed)
    family = seed % 4
    if family == 0:
        return random_near_complete_bipartite(
            rng.randint(2, 8), rng.randint(2, 8), max_missing=2, seed=seed
        )
    if family == 1:
        return crown_graph(rng.randint(2, 8))
    if family == 2:
        return _cycle_complement_graph(rng)
    return complete_bipartite(rng.randint(1, 6), rng.randint(1, 6))


class TestSolvePolynomialCaseBits:
    @pytest.mark.parametrize("seed", range(48))
    def test_matches_sets_kernel_across_incumbents(self, seed):
        graph = _lemma3_graph(seed)
        bits = IndexedBitGraph.from_bipartite(graph)
        # The unconstrained optimum is the graph's.
        full = BitNodeState(0, 0, bits.all_left_mask, bits.all_right_mask)
        whole = solve_polynomial_case_bits(bits, full, SearchContext())
        side = whole.side_size if whole is not None else 0
        assert side == brute_force_mbb(graph).side_size
        rng = random.Random(1000 + seed)
        for _ in range(8):
            state = _random_lemma3_node(graph, rng)
            assert is_polynomially_solvable(graph, state)
            best = solve_polynomial_case(graph, state, SearchContext())
            optimum = best.side_size if best is not None else 0
            for incumbent in range(optimum + 2):
                expected = solve_polynomial_case(
                    graph, state, _context_with_incumbent(incumbent)
                )
                result = solve_polynomial_case_bits(
                    bits, _bit_state(bits, state), _context_with_incumbent(incumbent)
                )
                assert (result is None) == (expected is None), incumbent
                if result is None:
                    continue
                assert result.side_size == expected.side_size == optimum
                assert result.is_balanced
                assert result.is_valid_in(graph)
                # Balancing trims the larger side, which may drop a partial
                # vertex; the untrimmed pair contains A and B.
                assert result.left <= state.a | state.ca
                assert result.right <= state.b | state.cb
                assert Biclique.of(
                    result.left | state.a, result.right | state.b
                ).is_valid_in(graph)


class TestKoenigExit:
    """Nodes that cannot beat the incumbent never reach the Pareto DP."""

    #: K_{4,4} minus these edges, with the full node's optimum and König
    #: bound ``(base_left + base_right + alpha) // 2``.  Both bounds exceed
    #: the optimum, so the exit is not the DP's own "no improvement" answer.
    SHAPES = {
        # Complement paths u0-v0-u1 and u2-v1-u3; v2, v3 are trivial:
        # (0 + 2 + 4) // 2 = 3.
        "paths": ([(0, 0), (1, 0), (2, 1), (3, 1)], 2, 3),
        # Complement cycle u0-v0-u1-v1; u2, u3, v2, v3 are trivial:
        # (2 + 2 + 2) // 2 = 3.
        "cycle": ([(0, 0), (0, 1), (1, 0), (1, 1)], 2, 3),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_exit_skips_the_dp(self, shape, monkeypatch):
        missing, optimum, bound = self.SHAPES[shape]
        graph = complete_bipartite(4, 4)
        for u, v in missing:
            graph.remove_edge(u, v)
        bits = IndexedBitGraph.from_bipartite(graph)
        state = BitNodeState(0, 0, bits.all_left_mask, bits.all_right_mask)
        assert brute_force_mbb(graph).side_size == optimum

        def no_dp(sequence):
            raise AssertionError("the Pareto DP ran")

        monkeypatch.setattr(polynomial, "_path_frontier_masks", no_dp)
        monkeypatch.setattr(polynomial, "_cycle_frontier_masks", no_dp)
        for incumbent in (bound, bound + 1):
            context = _context_with_incumbent(incumbent)
            assert solve_polynomial_case_bits(bits, state, context) is None
        # Below the bound the node needs the DP, so the patch is live.
        with pytest.raises(AssertionError, match="Pareto DP"):
            solve_polynomial_case_bits(
                bits, state, _context_with_incumbent(optimum - 1)
            )

        monkeypatch.undo()
        result = solve_polynomial_case_bits(
            bits, state, _context_with_incumbent(optimum - 1)
        )
        assert result == Biclique.of({0, 1}, {2, 3})
        assert result.is_valid_in(graph)


class TestWalkFreeExit:
    """Most Lemma 3 nodes are rejected before a miss mask or a walk.

    The bound is ``(|A| + |B| + (2n - E) // 2) // 2`` for ``n`` candidates
    with ``E`` complement edges between them.
    """

    @staticmethod
    def _k44_minus(missing):
        graph = complete_bipartite(4, 4)
        for u, v in missing:
            graph.remove_edge(u, v)
        bits = IndexedBitGraph.from_bipartite(graph)
        return graph, bits, BitNodeState(0, 0, bits.all_left_mask, bits.all_right_mask)

    def test_exit_skips_the_walk(self, monkeypatch):
        # One complement edge: (0 + 15 // 2) // 2 = 3, and the optimum is 3.
        graph, bits, state = self._k44_minus([(0, 0)])
        assert brute_force_mbb(graph).side_size == 3

        def no_walk(mask):
            raise AssertionError("the complement was walked")

        monkeypatch.setattr(polynomial, "iter_bits", no_walk)
        for incumbent in (3, 4):
            context = _context_with_incumbent(incumbent)
            assert solve_polynomial_case_bits(bits, state, context) is None
        # Below the bound the node needs the walk, so the patch is live.
        with pytest.raises(AssertionError, match="walked"):
            solve_polynomial_case_bits(bits, state, _context_with_incumbent(2))

    def test_koenig_exit_after_the_walk(self, monkeypatch):
        # A 3-edge complement matching: the walk-free bound is
        # (0 + 13 // 2) // 2 = 3, König's is (2 + 3) // 2 = 2.
        graph, bits, state = self._k44_minus([(0, 0), (1, 1), (2, 2)])
        assert brute_force_mbb(graph).side_size == 2
        walks = []

        def counting_iter_bits(mask):
            walks.append(mask)
            return iter_bits(mask)

        def no_dp(sequence):
            raise AssertionError("the Pareto DP ran")

        monkeypatch.setattr(polynomial, "iter_bits", counting_iter_bits)
        monkeypatch.setattr(polynomial, "_path_frontier_masks", no_dp)
        monkeypatch.setattr(polynomial, "_cycle_frontier_masks", no_dp)
        assert solve_polynomial_case_bits(bits, state, _context_with_incumbent(2)) is None
        assert walks

    @pytest.mark.parametrize(
        "missing, incumbent, optimum",
        [
            # Walk-free bound 3, König bound 2: both exits pass at 1.
            ([(0, 0), (1, 1), (2, 2)], 1, 2),
            # No complement edge: both bounds are exactly the optimum 4.
            ([], 3, 4),
        ],
    )
    def test_neither_exit_fires(self, missing, incumbent, optimum):
        graph, bits, state = self._k44_minus(missing)
        result = solve_polynomial_case_bits(bits, state, _context_with_incumbent(incumbent))
        assert result is not None
        assert result.side_size == optimum
        assert result.is_valid_in(graph)
        expected = solve_polynomial_case(
            graph, _full_state(graph), _context_with_incumbent(incumbent)
        )
        assert expected.side_size == optimum
