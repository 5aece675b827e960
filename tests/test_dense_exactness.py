"""The bits kernel's per-node shortcuts decide exactly what full loops decide.

``reduce_node_bits`` rescans a side only after the other side removed a
vertex, and ``solve_polynomial_case_bits`` rejects most Lemma 3 nodes
with a bound that needs no component walk.  Both walk their masks in
12-bit chunks.  ``_dense_mbb_bits`` bounds, offers and records its leaves
inline, and ``SearchContext.enter_node`` polls the budgets only when one
is set.  None of this may change a removal, a forcing, a branch pick, a
polynomial-case answer, a witness, a counter or where a budget stops the
search.  The reference loops below are the one oracle for each: the
reduction rescans a side whenever the other side changed at all, the
polynomial case walks the whole complement before its first exit, both
walk bits lowest first, and the node goes through ``is_bounded``, the
two-sided completion offer, ``record_leaf`` and an ``enter_node`` that
polls every budget at every node.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Optional, Tuple

import pytest

from repro.graph.bipartite import BipartiteGraph
from repro.graph.bitset import IndexedBitGraph, iter_bits
from repro.graph.generators import (
    random_bipartite,
    random_near_complete_bipartite,
    random_power_law_bipartite,
)
from repro.mbb import dense
from repro.mbb.bounds import is_bounded
from repro.mbb.context import SearchAborted, SearchContext
from repro.mbb.dense import BRANCH_NAIVE, BRANCH_TRIVIALITY_LAST, dense_mbb
from repro.mbb.polynomial import (
    _EMPTY_MASK_CHOICE,
    _cycle_frontier_masks,
    _MaskChoice,
    _pareto_masks,
    _path_frontier_masks,
    solve_polynomial_case_bits,
)
from repro.mbb.reductions import BitNodeState, BranchCandidate, reduce_node_bits
from repro.mbb.result import Biclique
from repro.mbb.sparse import hbv_mbb


def reference_reduce_node_bits(
    graph: IndexedBitGraph,
    state: BitNodeState,
    context: SearchContext,
) -> Tuple[Optional[BranchCandidate], Optional[BranchCandidate]]:
    """Lemmas 1 and 2 to a fixpoint, rescanning a side after any change."""
    target = context.best_side + 1
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    stats = context.stats
    a = state.a
    b = state.b
    ca = state.ca
    cb = state.cb
    best_left: Optional[BranchCandidate] = None
    best_right: Optional[BranchCandidate] = None
    scan_left = True
    scan_right = True
    while scan_left or scan_right:
        if scan_left:
            scan_left = False
            best_left = None
            best_missing = 2
            b_size = b.bit_count()
            cb_size = cb.bit_count()
            remaining = ca
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                neighbours = adj_left[low.bit_length() - 1] & cb
                kept = neighbours.bit_count()
                if b_size + kept < target:
                    ca ^= low
                    stats.reductions_removed += 1
                    scan_right = True
                elif neighbours == cb:
                    ca ^= low
                    a |= low
                    stats.reductions_forced += 1
                    scan_right = True
                elif cb_size - kept > best_missing:
                    best_missing = cb_size - kept
                    best_left = (best_missing, low, neighbours)
        if scan_right:
            scan_right = False
            best_right = None
            best_missing = 2
            a_size = a.bit_count()
            ca_size = ca.bit_count()
            remaining = cb
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                neighbours = adj_right[low.bit_length() - 1] & ca
                kept = neighbours.bit_count()
                if a_size + kept < target:
                    cb ^= low
                    stats.reductions_removed += 1
                    scan_left = True
                elif neighbours == ca:
                    cb ^= low
                    b |= low
                    stats.reductions_forced += 1
                    scan_left = True
                elif ca_size - kept > best_missing:
                    best_missing = ca_size - kept
                    best_right = (best_missing, low, neighbours)
    state.a = a
    state.b = b
    state.ca = ca
    state.cb = cb
    return best_left, best_right


def reference_solve_polynomial_case_bits(
    graph: IndexedBitGraph,
    state: BitNodeState,
    context: SearchContext,
) -> Optional[Biclique]:
    """Lemma 3: walk the complement, apply the König exit, fold the DP."""
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    ca = state.ca
    cb = state.cb

    miss_left: Dict[int, int] = {}
    miss_right: Dict[int, int] = {}
    trivial_left_mask = 0
    trivial_right_mask = 0
    for i in iter_bits(ca):
        missing = cb & ~adj_left[i]
        if missing:
            miss_left[i] = missing
        else:
            trivial_left_mask |= 1 << i
    for j in iter_bits(cb):
        missing = ca & ~adj_right[j]
        if missing:
            miss_right[j] = missing
        else:
            trivial_right_mask |= 1 << j

    visited_left = 0
    visited_right = 0

    def walk(is_left: bool, index: int) -> List[Tuple[bool, int]]:
        nonlocal visited_left, visited_right
        sequence: List[Tuple[bool, int]] = []
        while True:
            sequence.append((is_left, index))
            if is_left:
                visited_left |= 1 << index
                next_mask = miss_left[index] & ~visited_right
            else:
                visited_right |= 1 << index
                next_mask = miss_right[index] & ~visited_left
            if not next_mask:
                return sequence
            low = next_mask & -next_mask
            index = low.bit_length() - 1
            is_left = not is_left

    paths: List[List[Tuple[bool, int]]] = []
    for i, missing in miss_left.items():
        if visited_left >> i & 1 or missing.bit_count() > 1:
            continue
        paths.append(walk(True, i))
    for j, missing in miss_right.items():
        if visited_right >> j & 1 or missing.bit_count() > 1:
            continue
        paths.append(walk(False, j))
    cycles: List[List[Tuple[bool, int]]] = []
    for i in miss_left:
        if not visited_left >> i & 1:
            cycles.append(walk(True, i))
    for j in miss_right:
        if not visited_right >> j & 1:
            cycles.append(walk(False, j))

    base_left_mask = state.a | trivial_left_mask
    base_right_mask = state.b | trivial_right_mask
    base_left = base_left_mask.bit_count()
    base_right = base_right_mask.bit_count()
    best_side = context.best_side
    independent = sum((len(path) + 1) // 2 for path in paths)
    independent += sum(len(cycle) // 2 for cycle in cycles)
    if (base_left + base_right + independent) // 2 <= best_side:
        return None

    frontier: List[_MaskChoice] = [_EMPTY_MASK_CHOICE]

    def fold(options: List[_MaskChoice]) -> None:
        nonlocal frontier
        frontier = _pareto_masks(
            [
                (a1 + a2, b1 + b2, l1 | l2, r1 | r2)
                for a1, b1, l1, r1 in frontier
                for a2, b2, l2, r2 in options
            ]
        )

    for path in paths:
        fold(_path_frontier_masks(path))
    for cycle in cycles:
        fold(_cycle_frontier_masks(cycle))

    best_choice: Optional[_MaskChoice] = None
    for choice in frontier:
        side = min(base_left + choice[0], base_right + choice[1])
        if side > best_side:
            best_side = side
            best_choice = choice
    if best_choice is None:
        return None
    return Biclique.of(
        graph.left_labels_of(base_left_mask | best_choice[2]),
        graph.right_labels_of(base_right_mask | best_choice[3]),
    ).balanced()


def reference_enter_node(context: SearchContext, depth: int) -> None:
    """Record the node, poll every budget, then test the node budget."""
    context.stats.record_node(depth)
    context.checkpoint()
    if context.node_budget is not None and context.stats.nodes > context.node_budget:
        context.aborted = True
        raise SearchAborted(f"node budget {context.node_budget} exhausted")


def reference_offer_completions_bits(
    context: SearchContext,
    graph: IndexedBitGraph,
    a: int,
    b: int,
    ca: int,
    cb: int,
) -> None:
    """Offer ``(A, B | CB)`` and ``(A | CA, B)`` when either could improve."""
    a_size = a.bit_count()
    b_size = b.bit_count()
    best = context.best_side
    if min(a_size, b_size + cb.bit_count()) > best:
        context.offer(graph.left_labels_of(a), graph.right_labels_of(b | cb))
    if min(a_size + ca.bit_count(), b_size) > best:
        context.offer(graph.left_labels_of(a | ca), graph.right_labels_of(b))


def reference_dense_mbb_bits(
    graph: IndexedBitGraph,
    context: SearchContext,
    state: BitNodeState,
    depth: int,
    branching: str,
) -> None:
    """One bitset denseMBB node through the shared helpers, and its subtree."""
    reference_enter_node(context, depth)
    if is_bounded(
        context,
        state.a.bit_count(),
        state.b.bit_count(),
        state.ca.bit_count(),
        state.cb.bit_count(),
    ):
        context.stats.bound_prunes += 1
        context.record_leaf(depth)
        return

    best_left, best_right = reference_reduce_node_bits(graph, state, context)
    reference_offer_completions_bits(
        context, graph, state.a, state.b, state.ca, state.cb
    )
    if is_bounded(
        context,
        state.a.bit_count(),
        state.b.bit_count(),
        state.ca.bit_count(),
        state.cb.bit_count(),
    ):
        context.stats.bound_prunes += 1
        context.record_leaf(depth)
        return
    if not state.ca or not state.cb:
        context.record_leaf(depth)
        return

    if branching == BRANCH_TRIVIALITY_LAST:
        if best_left is None and best_right is None:
            context.stats.polynomial_cases += 1
            context.record_leaf(depth)
            result = reference_solve_polynomial_case_bits(graph, state, context)
            if result is not None:
                context.offer_biclique(result)
            return
        if best_right is None or (
            best_left is not None and best_left[0] >= best_right[0]
        ):
            selection = ("L", best_left[1], best_left[2])
        else:
            selection = ("R", best_right[1], best_right[2])
    else:
        selection = dense._select_any_vertex_bits(graph, state)
        if selection is None:
            context.record_leaf(depth)
            return

    side, bit, neighbours = selection
    if side == "L":
        include = BitNodeState(state.a | bit, state.b, state.ca ^ bit, neighbours)
        exclude = BitNodeState(state.a, state.b, state.ca ^ bit, state.cb)
    else:
        include = BitNodeState(state.a, state.b | bit, neighbours, state.cb ^ bit)
        exclude = BitNodeState(state.a, state.b, state.ca, state.cb ^ bit)
    reference_dense_mbb_bits(graph, context, include, depth + 1, branching)
    reference_dense_mbb_bits(graph, context, exclude, depth + 1, branching)


# ----------------------------------------------------------------------
# node sources
# ----------------------------------------------------------------------
def _context_with_incumbent(side: int) -> SearchContext:
    # Only the incumbent's side size matters to a node's reduction.
    return SearchContext(best=Biclique.of(range(side), range(side)))


def _copy(state: BitNodeState) -> BitNodeState:
    return BitNodeState(state.a, state.b, state.ca, state.cb)


def _random_node(bits: IndexedBitGraph, rng: random.Random) -> BitNodeState:
    """A node some branch sequence reaches: include or exclude at random.

    Including a vertex cuts the opposite candidates to its neighbours, so
    ``A x B`` stays complete and every candidate stays adjacent to the
    whole opposite partial side.
    """
    state = BitNodeState(0, 0, bits.all_left_mask, bits.all_right_mask)
    for _ in range(rng.randint(0, 6)):
        left = list(iter_bits(state.ca))
        right = list(iter_bits(state.cb))
        if not left and not right:
            break
        if right and (not left or rng.random() < 0.5):
            bit = 1 << rng.choice(right)
            state.cb ^= bit
            if rng.random() < 0.5:
                state.b |= bit
                state.ca &= bits.adj_right[bit.bit_length() - 1]
        else:
            bit = 1 << rng.choice(left)
            state.ca ^= bit
            if rng.random() < 0.5:
                state.a |= bit
                state.cb &= bits.adj_left[bit.bit_length() - 1]
    return state


def _recorded_nodes(
    graph: BipartiteGraph,
) -> Tuple[List[Tuple[BitNodeState, int]], List[Tuple[BitNodeState, int]]]:
    """Every reduction input and Lemma 3 node of a reference search.

    Each entry is the node as it arrived and the incumbent side then.  The
    search runs the reference loops, so the nodes do not depend on the
    code under test.
    """
    reductions: List[Tuple[BitNodeState, int]] = []
    lemma3: List[Tuple[BitNodeState, int]] = []

    def record_reduction(bits, state, context):
        reductions.append((_copy(state), context.best_side))
        return reference_reduce_node_bits(bits, state, context)

    def record_lemma3(bits, state, context):
        lemma3.append((_copy(state), context.best_side))
        return reference_solve_polynomial_case_bits(bits, state, context)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dense, "reduce_node_bits", record_reduction)
        patch.setattr(dense, "solve_polynomial_case_bits", record_lemma3)
        dense_mbb(graph)
    return reductions, lemma3


#: ``(left side, right side, density)`` of the search-node matrix.
GRAPH_MATRIX = [
    (side, side + extra, density)
    for side, extra in ((8, 0), (14, 3), (20, 1), (28, 2))
    for density in (0.3, 0.5, 0.7, 0.85, 0.95)
]


def _matrix_graph(index: int) -> BipartiteGraph:
    n_left, n_right, density = GRAPH_MATRIX[index]
    return random_bipartite(n_left, n_right, density, seed=7000 + index)


def _assert_same_reduction(
    bits: IndexedBitGraph, state: BitNodeState, incumbent: int
) -> None:
    expected_state = _copy(state)
    expected_context = _context_with_incumbent(incumbent)
    expected = reference_reduce_node_bits(bits, expected_state, expected_context)
    context = _context_with_incumbent(incumbent)
    result = reduce_node_bits(bits, state, context)
    assert result == expected
    assert state == expected_state
    assert context.stats == expected_context.stats


def _assert_same_lemma3_answer(
    bits: IndexedBitGraph, state: BitNodeState, incumbent: int
) -> None:
    expected = reference_solve_polynomial_case_bits(
        bits, state, _context_with_incumbent(incumbent)
    )
    result = solve_polynomial_case_bits(bits, state, _context_with_incumbent(incumbent))
    assert result == expected


# ----------------------------------------------------------------------
# one node at a time
# ----------------------------------------------------------------------
class TestReductionMatchesReference:
    @pytest.mark.parametrize("density", [0.3, 0.5, 0.7, 0.85, 0.95])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_nodes(self, density, seed):
        rng = random.Random(seed * 1000 + int(density * 100))
        graph = random_bipartite(
            rng.randint(8, 28), rng.randint(8, 28), density, seed=rng
        )
        bits = IndexedBitGraph.from_bipartite(graph)
        for _ in range(25):
            node = _random_node(bits, rng)
            for incumbent in sorted({0, 1, 2, rng.randint(3, 14)}):
                _assert_same_reduction(bits, _copy(node), incumbent)

    @pytest.mark.parametrize("density", [0.3, 0.7, 0.9])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_nodes_wider_than_three_chunks(self, density, seed):
        # Sides of 40-80 candidates span four to seven 12-bit chunks, so
        # the chunk walk crosses every boundary case of its base offset.
        rng = random.Random(9000 + seed * 100 + int(density * 10))
        graph = random_bipartite(
            rng.randint(40, 80), rng.randint(40, 80), density, seed=rng
        )
        bits = IndexedBitGraph.from_bipartite(graph)
        for _ in range(15):
            node = _random_node(bits, rng)
            for incumbent in sorted({0, 2, rng.randint(3, 30)}):
                _assert_same_reduction(bits, _copy(node), incumbent)

    @pytest.mark.parametrize("index", range(len(GRAPH_MATRIX)))
    def test_every_node_of_a_search(self, index):
        bits = IndexedBitGraph.from_bipartite(_matrix_graph(index))
        reductions, _ = _recorded_nodes(_matrix_graph(index))
        for state, incumbent in reductions:
            _assert_same_reduction(bits, state, incumbent)

    def test_best_candidate_skips_a_vertex_forced_after_its_scan(self):
        # Left u0 sees only v0 and is the left branch pick (it misses four);
        # left u1 sees everything and is forced in the first left scan.  The
        # first right scan then forces v0, which every left candidate sees,
        # and removes nothing, so the left side is not rescanned: its pick
        # must still not offer v0, now a partial vertex, as a candidate.
        graph = BipartiteGraph(
            left=[0, 1], right=range(5), edges=[(0, 0)] + [(1, v) for v in range(5)]
        )
        bits = IndexedBitGraph.from_bipartite(graph)
        state = BitNodeState(0, 0, bits.all_left_mask, bits.all_right_mask)
        context = SearchContext()
        best_left, best_right = reduce_node_bits(bits, state, context)
        assert best_left == (4, bits.left_mask([0]), 0)
        assert best_right is None
        assert state.b == bits.right_mask([0])
        assert state.cb == bits.right_mask([1, 2, 3, 4])
        assert context.stats.reductions_forced == 2
        assert context.stats.reductions_removed == 0
        _assert_same_reduction(
            bits, BitNodeState(0, 0, bits.all_left_mask, bits.all_right_mask), 0
        )


class TestLemma3MatchesReference:
    @pytest.mark.parametrize("index", range(len(GRAPH_MATRIX)))
    def test_every_lemma3_node_of_a_search(self, index):
        bits = IndexedBitGraph.from_bipartite(_matrix_graph(index))
        _, lemma3 = _recorded_nodes(_matrix_graph(index))
        for state, incumbent in lemma3:
            for probe in range(max(0, incumbent - 2), incumbent + 2):
                _assert_same_lemma3_answer(bits, state, probe)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_nodes_of_near_complete_graphs(self, seed):
        # Every node of such a graph meets the Lemma 3 precondition; each
        # is asked at every incumbent from 0 to one past its optimum.
        rng = random.Random(500 + seed)
        graph = random_near_complete_bipartite(
            rng.randint(3, 14), rng.randint(3, 14), max_missing=2, seed=rng
        )
        bits = IndexedBitGraph.from_bipartite(graph)
        for _ in range(20):
            state = _random_node(bits, rng)
            whole = reference_solve_polynomial_case_bits(bits, state, SearchContext())
            optimum = whole.side_size if whole is not None else 0
            for incumbent in range(optimum + 2):
                _assert_same_lemma3_answer(bits, state, incumbent)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_nodes_wider_than_three_chunks(self, seed):
        # The walk-free exit counts complement edges over 40-80 candidates
        # per side in 12-bit chunks; every incumbent near the optimum.
        rng = random.Random(800 + seed)
        graph = random_near_complete_bipartite(
            rng.randint(40, 80), rng.randint(40, 80), max_missing=2, seed=rng
        )
        bits = IndexedBitGraph.from_bipartite(graph)
        for _ in range(6):
            state = _random_node(bits, rng)
            whole = reference_solve_polynomial_case_bits(bits, state, SearchContext())
            optimum = whole.side_size if whole is not None else 0
            for incumbent in range(max(0, optimum - 3), optimum + 2):
                _assert_same_lemma3_answer(bits, state, incumbent)


# ----------------------------------------------------------------------
# whole searches
# ----------------------------------------------------------------------
def _counters(stats) -> Dict[str, object]:
    # Every counter; the wall-clock fields differ between any two runs.
    return {
        key: value
        for key, value in dataclasses.asdict(stats).items()
        if not key.endswith("_seconds")
    }


def _with_references(solve):
    # The reference node calls the reference reduction and Lemma 3 itself.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dense, "_dense_mbb_bits", reference_dense_mbb_bits)
        return solve()


class TestWholeSearchesMatchReference:
    @pytest.mark.parametrize("index", range(len(GRAPH_MATRIX)))
    def test_dense_mbb(self, index):
        graph = _matrix_graph(index)
        expected = _with_references(lambda: dense_mbb(graph))
        result = dense_mbb(graph)
        assert result.biclique == expected.biclique
        assert _counters(result.stats) == _counters(expected.stats)

    # Naive branching (the bd3 ablation) takes 168k nodes on one 28-vertex
    # graph, so only the smaller sides run here.
    @pytest.mark.parametrize(
        "index", [i for i, (side, _, _) in enumerate(GRAPH_MATRIX) if side <= 20]
    )
    def test_dense_mbb_naive_branching(self, index):
        graph = _matrix_graph(index)
        expected = _with_references(lambda: dense_mbb(graph, branching=BRANCH_NAIVE))
        result = dense_mbb(graph, branching=BRANCH_NAIVE)
        assert result.biclique == expected.biclique
        assert _counters(result.stats) == _counters(expected.stats)

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_mbb_on_table4_sized_graphs(self, seed):
        side = (32, 36)[seed % 2]
        graph = random_bipartite(side, side, (0.80, 0.85, 0.90)[seed % 3], seed=seed)
        expected = _with_references(lambda: dense_mbb(graph))
        result = dense_mbb(graph)
        assert result.biclique == expected.biclique
        assert _counters(result.stats) == _counters(expected.stats)

    @pytest.mark.parametrize("seed", range(8))
    def test_hbv_mbb_on_planted_power_law_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_power_law_bipartite(150, 150, 3.0, seed=rng)
        for _ in range(3):
            left = rng.sample(range(150), 14)
            right = rng.sample(range(150), 14)
            for u in left:
                for v in right:
                    if rng.random() < 0.75:
                        graph.add_edge(u, v)
        expected = _with_references(lambda: hbv_mbb(graph))
        result = hbv_mbb(graph)
        assert result.biclique == expected.biclique
        assert result.terminated_at == expected.terminated_at
        assert _counters(result.stats) == _counters(expected.stats)
        assert result.stats.nodes > 0


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------
#: A matrix graph whose search takes 133 nodes, so every budget below
#: stops it part-way.
BUDGET_GRAPH = 13


def _cancel_on_poll(k: int):
    """A cancel hook that fires on its ``k``-th poll."""
    polls = [0]

    def hook() -> bool:
        polls[0] += 1
        return polls[0] >= k

    return hook


def _assert_same_stop(make_context, branching: str = BRANCH_TRIVIALITY_LAST):
    """The search stops where the reference stops, with the same state."""
    graph = _matrix_graph(BUDGET_GRAPH)
    expected_context = make_context()
    expected = _with_references(
        lambda: dense_mbb(graph, context=expected_context, branching=branching)
    )
    context = make_context()
    result = dense_mbb(graph, context=context, branching=branching)
    assert not expected.optimal
    assert result.optimal is expected.optimal
    assert result.biclique == expected.biclique
    assert _counters(result.stats) == _counters(expected.stats)
    assert (context.aborted, context.cancelled) == (
        expected_context.aborted,
        expected_context.cancelled,
    )
    return result


class TestBudgetsMatchReference:
    def test_the_budget_graph_needs_more_than_forty_nodes(self):
        assert dense_mbb(_matrix_graph(BUDGET_GRAPH)).stats.nodes > 41

    @pytest.mark.parametrize("budget", range(41))
    def test_node_budget(self, budget):
        result = _assert_same_stop(lambda: SearchContext(node_budget=budget))
        # The node that trips the budget is recorded before it aborts.
        assert result.stats.nodes == budget + 1

    @pytest.mark.parametrize("budget", [0, 3, 17])
    def test_node_budget_naive_branching(self, budget):
        _assert_same_stop(lambda: SearchContext(node_budget=budget), BRANCH_NAIVE)

    @pytest.mark.parametrize("k", [1, 2, 5, 17, 40])
    def test_cancel_hook_fires_at_node_k(self, k):
        result = _assert_same_stop(lambda: SearchContext(cancel_hook=_cancel_on_poll(k)))
        assert result.stats.nodes == k

    def test_expired_deadline(self):
        result = _assert_same_stop(
            lambda: SearchContext(deadline=time.perf_counter() - 1.0)
        )
        assert result.stats.nodes == 1

    def test_spent_time_budget(self):
        result = _assert_same_stop(lambda: SearchContext(time_budget=0.0))
        assert result.stats.nodes == 1

    def test_deadline_assigned_after_construction(self):
        # MBBEngine._dispatch builds the context, then sets its deadline.
        def make_context():
            context = SearchContext()
            context.deadline = time.perf_counter() - 1.0
            return context

        assert _assert_same_stop(make_context).stats.nodes == 1

    @pytest.mark.parametrize("k", [1, 9])
    def test_cancel_hook_assigned_after_construction(self, k):
        def make_context():
            context = SearchContext()
            context.cancel_hook = _cancel_on_poll(k)
            return context

        assert _assert_same_stop(make_context).stats.nodes == k

    @pytest.mark.parametrize("offers", [1, 2])
    def test_cancel_called_mid_search(self, offers):
        # cancel() on an improving offer: the next node entered aborts.
        def make_context():
            context = SearchContext()
            offer = context.offer
            improved = [0]

            def cancelling_offer(left, right):
                if offer(left, right):
                    improved[0] += 1
                    if improved[0] == offers:
                        context.cancel()
                    return True
                return False

            context.offer = cancelling_offer
            return context

        result = _assert_same_stop(make_context)
        assert result.stats.nodes > 1
