"""Algorithm 3: ``denseMBB`` — reduction, branch and bound for dense graphs.

The solver augments the basic enumeration with the three ingredients of the
paper's dense-graph contribution:

1. **Reductions** (Lemmas 1 and 2) applied at every node until fixpoint.
2. **Polynomial cases** (Lemma 3 / Algorithm 2): as soon as every candidate
   misses at most two neighbours on the other side, the node is handed to
   the path/cycle dynamic program instead of being branched.
3. **Triviality-last branching**: when branching is unavoidable, pick a
   vertex missing at least three neighbours; committing or discarding such
   a vertex shrinks the candidate sets quickly (worst branching factor
   ``(4, 1)``), which yields the ``O*(1.3803^n)`` bound and, on genuinely
   dense inputs, drives the search into the polynomial case within a few
   levels.

The ``branching`` parameter exposes a "naive" mode (no polynomial case, no
triviality-last selection) used by the ``bd3`` ablation of Table 6.

Two interchangeable kernels implement the inner loop:

* :data:`KERNEL_BITS` (default) — the graph is indexed into an
  :class:`~repro.graph.bitset.IndexedBitGraph` and every node carries four
  integer bitmasks; neighbourhood/candidate intersections are single ``&``
  operations and cardinalities are ``int.bit_count()`` calls.  Its node
  is fused: the bound, the two completions and the leaf records are
  inline, on side counts taken once after the reduction.
* :data:`KERNEL_SETS` — the original adjacency-set implementation, kept for
  ablation/benchmark comparisons and as the fallback for graphs whose
  labels resist indexing.

Both kernels run the same algorithm and report through the same
:class:`~repro.mbb.context.SearchContext`; they always find the same
optimum, but their search trees (and hence node counts) can differ by a
few percent because branch-selection ties are broken in different orders.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from repro._util import ensure_recursion_limit, recursion_headroom_for
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.bitset import IndexedBitGraph
from repro.mbb.bounds import is_bounded, offer_completions
from repro.mbb.context import SearchAborted, SearchContext
from repro.mbb.polynomial import (
    solve_polynomial_case,
    solve_polynomial_case_bits,
)
from repro.mbb.reductions import (
    BitNodeState,
    NodeState,
    reduce_node,
    reduce_node_bits,
)
from repro.mbb.result import Biclique, MBBResult

#: Branch on a vertex missing >= 3 neighbours (the paper's strategy).
BRANCH_TRIVIALITY_LAST = "triviality_last"
#: Branch on an arbitrary candidate and never invoke the polynomial solver.
BRANCH_NAIVE = "naive"

_BRANCHING_MODES = (BRANCH_TRIVIALITY_LAST, BRANCH_NAIVE)

#: Indexed bitmask kernel (default).
KERNEL_BITS = "bits"
#: Original adjacency-set kernel (ablation / fallback).
KERNEL_SETS = "sets"

_KERNELS = (KERNEL_BITS, KERNEL_SETS)


def _check_branching(branching: str) -> None:
    if branching not in _BRANCHING_MODES:
        raise InvalidParameterError(
            f"unknown branching mode {branching!r}; expected one of {_BRANCHING_MODES}"
        )


def _check_kernel(kernel: str) -> None:
    if kernel not in _KERNELS:
        raise InvalidParameterError(
            f"unknown kernel {kernel!r}; expected one of {_KERNELS}"
        )


def _check_initial_best(initial_best: Biclique, graph: BipartiteGraph) -> None:
    # A seed outside the graph would be reported as the optimal witness.
    if not initial_best.is_valid_in(graph):
        raise InvalidParameterError(
            "initial_best is not a biclique of the graph being solved"
        )


# ----------------------------------------------------------------------
# set kernel
# ----------------------------------------------------------------------
def _select_branch_vertex(
    graph: BipartiteGraph, state: NodeState
) -> Optional[Tuple[str, Vertex, Set[Vertex]]]:
    """Pick the candidate vertex with the most missing neighbours (>= 3).

    Returns ``(side, vertex, neighbours_in_other_candidate_set)`` or
    ``None`` when every candidate misses at most two neighbours (i.e. the
    node is polynomially solvable).
    """
    best: Optional[Tuple[int, str, Vertex, Set[Vertex]]] = None
    for u in state.ca:
        neighbours = graph.neighbors_left(u) & state.cb
        missing = len(state.cb) - len(neighbours)
        if missing >= 3 and (best is None or missing > best[0]):
            best = (missing, "L", u, neighbours)
    for v in state.cb:
        neighbours = graph.neighbors_right(v) & state.ca
        missing = len(state.ca) - len(neighbours)
        if missing >= 3 and (best is None or missing > best[0]):
            best = (missing, "R", v, neighbours)
    if best is None:
        return None
    return best[1], best[2], best[3]


def _select_any_vertex(
    graph: BipartiteGraph, state: NodeState
) -> Optional[Tuple[str, Vertex, Set[Vertex]]]:
    """Naive branching: pick the candidate on the lagging side, any vertex."""
    prefer_left = len(state.a) <= len(state.b)
    if prefer_left and state.ca:
        u = max(state.ca, key=lambda x: (len(graph.neighbors_left(x) & state.cb), repr(x)))
        return "L", u, graph.neighbors_left(u) & state.cb
    if state.cb:
        v = max(state.cb, key=lambda x: (len(graph.neighbors_right(x) & state.ca), repr(x)))
        return "R", v, graph.neighbors_right(v) & state.ca
    if state.ca:
        u = max(state.ca, key=lambda x: (len(graph.neighbors_left(x) & state.cb), repr(x)))
        return "L", u, graph.neighbors_left(u) & state.cb
    return None


def _dense_mbb(
    graph: BipartiteGraph,
    context: SearchContext,
    state: NodeState,
    depth: int,
    branching: str,
) -> None:
    context.enter_node(depth)
    if is_bounded(context, len(state.a), len(state.b), len(state.ca), len(state.cb)):
        context.stats.bound_prunes += 1
        context.record_leaf(depth)
        return

    reduce_node(graph, state, context)
    offer_completions(context, state.a, state.b, state.ca, state.cb)
    if is_bounded(context, len(state.a), len(state.b), len(state.ca), len(state.cb)):
        context.stats.bound_prunes += 1
        context.record_leaf(depth)
        return
    if not state.ca or not state.cb:
        context.record_leaf(depth)
        return

    if branching == BRANCH_TRIVIALITY_LAST:
        selection = _select_branch_vertex(graph, state)
        if selection is None:
            # Lemma 3 applies: hand the node to the polynomial solver.
            context.stats.polynomial_cases += 1
            context.record_leaf(depth)
            result = solve_polynomial_case(graph, state, context)
            if result is not None:
                context.offer_biclique(result)
            return
    else:
        selection = _select_any_vertex(graph, state)
        if selection is None:
            context.record_leaf(depth)
            return

    side, vertex, neighbours = selection
    if side == "L":
        include = NodeState(
            state.a | {vertex}, set(state.b), state.ca - {vertex}, set(neighbours)
        )
        exclude = NodeState(
            set(state.a), set(state.b), state.ca - {vertex}, set(state.cb)
        )
    else:
        include = NodeState(
            set(state.a), state.b | {vertex}, set(neighbours), state.cb - {vertex}
        )
        exclude = NodeState(
            set(state.a), set(state.b), set(state.ca), state.cb - {vertex}
        )
    _dense_mbb(graph, context, include, depth + 1, branching)
    _dense_mbb(graph, context, exclude, depth + 1, branching)


# ----------------------------------------------------------------------
# bitset kernel
# ----------------------------------------------------------------------
def _select_any_vertex_bits(
    graph: IndexedBitGraph, state: BitNodeState
) -> Optional[Tuple[str, int, int]]:
    """Bitset naive branching: lagging side, candidate keeping most alive."""

    def pick(adj, candidates: int, others: int) -> Tuple[int, int]:
        best_low = 0
        best_neighbours = 0
        best_kept = -1
        remaining = candidates
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            neighbours = adj[low.bit_length() - 1] & others
            kept = neighbours.bit_count()
            if kept > best_kept:
                best_kept = kept
                best_low = low
                best_neighbours = neighbours
        return best_low, best_neighbours

    prefer_left = state.a.bit_count() <= state.b.bit_count()
    if prefer_left and state.ca:
        low, neighbours = pick(graph.adj_left, state.ca, state.cb)
        return "L", low, neighbours
    if state.cb:
        low, neighbours = pick(graph.adj_right, state.cb, state.ca)
        return "R", low, neighbours
    if state.ca:
        low, neighbours = pick(graph.adj_left, state.ca, state.cb)
        return "L", low, neighbours
    return None


def _dense_mbb_bits(
    graph: IndexedBitGraph,
    context: SearchContext,
    state: BitNodeState,
    depth: int,
    branching: str,
) -> None:
    """One bitset ``denseMBB`` node and, recursively, its subtree.

    The bound, the completions and the leaf records are inline: the four
    side counts are taken once after the reduction and serve both
    completions and the second bound, and a leaf updates the counters
    directly.  The rules are those of :func:`~repro.mbb.bounds.is_bounded`
    and :func:`~repro.mbb.bounds.offer_completions`, which the set
    kernel's :func:`_dense_mbb` calls; only the bookkeeping is inline.
    """
    context.enter_node(depth)
    stats = context.stats
    # The bounding condition of Algorithm 1: min(|A|+|CA|, |B|+|CB|) <= best.
    best = context.best_side
    if (
        state.a.bit_count() + state.ca.bit_count() <= best
        or state.b.bit_count() + state.cb.bit_count() <= best
    ):
        stats.bound_prunes += 1
        stats.leaf_count += 1
        stats.leaf_depth_sum += depth
        return

    best_left, best_right = reduce_node_bits(graph, state, context)
    a = state.a
    b = state.b
    ca = state.ca
    cb = state.cb
    a_size = a.bit_count()
    b_size = b.bit_count()
    left_size = a_size + ca.bit_count()
    right_size = b_size + cb.bit_count()
    # The one-sided completions (A, B ∪ CB) and (A ∪ CA, B); labels are
    # built only for one that improves on the incumbent.
    best = context.best_side
    if a_size > best and right_size > best:
        context.offer(graph.left_labels_of(a), graph.right_labels_of(b | cb))
    if left_size > best and b_size > best:
        context.offer(graph.left_labels_of(a | ca), graph.right_labels_of(b))
    best = context.best_side
    if left_size <= best or right_size <= best:
        stats.bound_prunes += 1
        stats.leaf_count += 1
        stats.leaf_depth_sum += depth
        return
    if not ca or not cb:
        stats.leaf_count += 1
        stats.leaf_depth_sum += depth
        return

    if branching == BRANCH_TRIVIALITY_LAST:
        # The reduction's final scans already found, per side, the survivor
        # missing the most (>= 3) opposite candidates.
        if best_left is None and best_right is None:
            # Lemma 3 applies: hand the node to the polynomial solver.
            stats.polynomial_cases += 1
            stats.leaf_count += 1
            stats.leaf_depth_sum += depth
            result = solve_polynomial_case_bits(graph, state, context)
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
        selection = _select_any_vertex_bits(graph, state)
        if selection is None:
            stats.leaf_count += 1
            stats.leaf_depth_sum += depth
            return

    side, bit, neighbours = selection
    if side == "L":
        include = BitNodeState(a | bit, b, ca ^ bit, neighbours)
        exclude = BitNodeState(a, b, ca ^ bit, cb)
    else:
        include = BitNodeState(a, b | bit, neighbours, cb ^ bit)
        exclude = BitNodeState(a, b, ca, cb ^ bit)
    _dense_mbb_bits(graph, context, include, depth + 1, branching)
    _dense_mbb_bits(graph, context, exclude, depth + 1, branching)


def dense_mbb_on_bitgraph(
    graph: IndexedBitGraph,
    context: SearchContext,
    a: int,
    b: int,
    ca: int,
    cb: int,
    *,
    branching: str = BRANCH_TRIVIALITY_LAST,
    depth: int = 0,
) -> None:
    """Run the bitset ``denseMBB`` kernel from an arbitrary node.

    The four arguments are masks over ``graph``'s indices satisfying the
    solver invariant (every candidate adjacent to the whole opposite
    partial side).  Used by the sparse framework's verification stage,
    which keeps its vertex-centred subgraphs in bitset form end to end.
    """
    _check_branching(branching)
    try:
        _dense_mbb_bits(graph, context, BitNodeState(a, b, ca, cb), depth, branching)
    except SearchAborted:
        pass


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def dense_mbb_on_sets(
    graph: BipartiteGraph,
    context: SearchContext,
    a: Iterable[Vertex],
    b: Iterable[Vertex],
    ca: Iterable[Vertex],
    cb: Iterable[Vertex],
    *,
    branching: str = BRANCH_TRIVIALITY_LAST,
    depth: int = 0,
    kernel: str = KERNEL_BITS,
) -> None:
    """Run ``denseMBB`` from an arbitrary node (used by ``verifyMBB``).

    The caller provides the partial biclique ``(a, b)`` and the candidate
    sets; results are reported through ``context``.  The candidate sets
    must already satisfy the solver invariant (every candidate adjacent to
    the whole opposite partial side).

    With the default :data:`KERNEL_BITS` the relevant slice of ``graph`` is
    indexed once into an :class:`IndexedBitGraph` and the search runs on
    bitmasks; :data:`KERNEL_SETS` runs directly on the adjacency sets.
    """
    _check_branching(branching)
    _check_kernel(kernel)
    if kernel == KERNEL_BITS:
        a = set(a)
        b = set(b)
        ca = set(ca)
        cb = set(cb)
        bitgraph = IndexedBitGraph.from_bipartite(graph, a | ca, b | cb)
        dense_mbb_on_bitgraph(
            bitgraph,
            context,
            bitgraph.left_mask(a),
            bitgraph.right_mask(b),
            bitgraph.left_mask(ca),
            bitgraph.right_mask(cb),
            branching=branching,
            depth=depth,
        )
        return
    state = NodeState(set(a), set(b), set(ca), set(cb))
    try:
        _dense_mbb(graph, context, state, depth, branching)
    except SearchAborted:
        pass


def dense_mbb(
    graph: BipartiteGraph,
    *,
    context: Optional[SearchContext] = None,
    initial_best: Optional[Biclique] = None,
    branching: str = BRANCH_TRIVIALITY_LAST,
    kernel: str = KERNEL_BITS,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> MBBResult:
    """Find a maximum balanced biclique with the dense-graph algorithm.

    Parameters
    ----------
    graph:
        The bipartite graph to search.  The algorithm is correct on any
        bipartite graph; it is *fast* on dense ones (edge density roughly
        0.7 and above), where it converges to polynomially solvable
        subproblems within a near-constant number of branchings.
    context:
        Optional pre-seeded search context (shared incumbent / budgets).
    initial_best:
        Optional known biclique of ``graph`` used to seed the incumbent;
        one that is not a biclique of ``graph`` raises
        :class:`~repro.exceptions.InvalidParameterError`.
    branching:
        :data:`BRANCH_TRIVIALITY_LAST` (default) or :data:`BRANCH_NAIVE`
        for the ``bd3`` ablation.
    kernel:
        :data:`KERNEL_BITS` (default) for the indexed bitset inner loop or
        :data:`KERNEL_SETS` for the original adjacency-set implementation.
        If the graph cannot be indexed (e.g. labels without a usable
        ``repr`` ordering), the set kernel is used as a fallback.
    node_budget, time_budget:
        Optional budgets; exhausted budgets return ``optimal=False``.
    """
    _check_branching(branching)
    _check_kernel(kernel)
    if context is None:
        context = SearchContext(node_budget=node_budget, time_budget=time_budget)
    if initial_best is not None:
        _check_initial_best(initial_best, graph)
        context.offer_biclique(initial_best)
    ensure_recursion_limit(recursion_headroom_for(graph.num_vertices))
    optimal = True

    bitgraph: Optional[IndexedBitGraph] = None
    if kernel == KERNEL_BITS:
        try:
            bitgraph = IndexedBitGraph.from_bipartite(graph)
        except (TypeError, OverflowError):
            bitgraph = None

    try:
        if bitgraph is not None:
            state_bits = BitNodeState(
                0, 0, bitgraph.all_left_mask, bitgraph.all_right_mask
            )
            _dense_mbb_bits(bitgraph, context, state_bits, 0, branching)
        else:
            state = NodeState(set(), set(), graph.left, graph.right)
            _dense_mbb(graph, context, state, 0, branching)
    except SearchAborted:
        optimal = False
    return MBBResult(
        biclique=context.best,
        optimal=optimal,
        stats=context.stats,
        elapsed_seconds=context.elapsed,
    )
