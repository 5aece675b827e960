"""Reduction rules applied inside the branch-and-bound solvers.

Three rules from the paper are implemented:

* **Lemma 1 (all-connection rule)** — a candidate adjacent to every
  candidate on the other side can be moved into the partial result
  immediately; it can never hurt.
* **Lemma 2 (low-degree rule)** — a candidate whose neighbourhood inside
  the other candidate set is too small to ever reach a result larger than
  the incumbent can be discarded.
* **Lemma 4 (core rule)** — globally, a vertex outside the
  ``(best_side + 1)``-core cannot participate in any improving balanced
  biclique, so the whole graph can be shrunk to that core.

All rules only discard vertices that cannot be part of a *strictly
improving* solution, so applying them never changes the optimum as long as
the incumbent itself is retained.

Each rule exists in two kernels: the original adjacency-set form
(:class:`NodeState` / :func:`reduce_node`) and a bitset form
(:class:`BitNodeState` / :func:`reduce_node_bits`) operating on
:class:`~repro.graph.bitset.IndexedBitGraph` masks, which is the default
inner loop of ``denseMBB``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.bitset import CHUNK_BITS, IndexedBitGraph
from repro.cores.core import k_core
from repro.mbb.context import SearchContext


@dataclass
class NodeState:
    """The four vertex sets making up one branch-and-bound node."""

    a: Set[Vertex]
    b: Set[Vertex]
    ca: Set[Vertex]
    cb: Set[Vertex]

    def copy(self) -> "NodeState":
        """Deep copy (the sets are copied, the labels are shared)."""
        return NodeState(set(self.a), set(self.b), set(self.ca), set(self.cb))

    @property
    def upper_bound_side(self) -> int:
        """``min(|A| + |CA|, |B| + |CB|)``."""
        return min(len(self.a) + len(self.ca), len(self.b) + len(self.cb))


def reduce_node(
    graph: BipartiteGraph,
    state: NodeState,
    context: SearchContext,
) -> NodeState:
    """Apply Lemmas 1 and 2 to a node until a fixpoint is reached.

    The state is modified in place and also returned for convenience.  The
    rules interact (forcing a vertex changes nothing for the other side's
    candidate degrees, but removing one does), hence the fixpoint loop.

    Invariant required and preserved: every vertex of ``CA`` is adjacent to
    all of ``B`` and every vertex of ``CB`` is adjacent to all of ``A``.
    """
    target = context.best_side + 1
    changed = True
    while changed:
        changed = False

        # Lemma 2: drop candidates that cannot reach an improving biclique.
        for u in list(state.ca):
            reachable_b = len(state.b) + len(graph.neighbors_left(u) & state.cb)
            if reachable_b < target:
                state.ca.discard(u)
                context.stats.reductions_removed += 1
                changed = True
        for v in list(state.cb):
            reachable_a = len(state.a) + len(graph.neighbors_right(v) & state.ca)
            if reachable_a < target:
                state.cb.discard(v)
                context.stats.reductions_removed += 1
                changed = True

        # Lemma 1: force candidates adjacent to the whole other candidate set.
        for u in list(state.ca):
            if state.cb <= graph.neighbors_left(u):
                state.ca.discard(u)
                state.a.add(u)
                context.stats.reductions_forced += 1
                changed = True
        for v in list(state.cb):
            if state.ca <= graph.neighbors_right(v):
                state.cb.discard(v)
                state.b.add(v)
                context.stats.reductions_forced += 1
                changed = True
    return state


@dataclass
class BitNodeState:
    """Bitset branch-and-bound node: four masks over an `IndexedBitGraph`.

    ``a``/``ca`` are masks over the left indices and ``b``/``cb`` masks over
    the right indices.  Because Python integers are immutable, child nodes
    are built with plain bit operations and no copying.
    """

    a: int
    b: int
    ca: int
    cb: int

    @property
    def upper_bound_side(self) -> int:
        """``min(|A| + |CA|, |B| + |CB|)``."""
        return min(
            (self.a | self.ca).bit_count(), (self.b | self.cb).bit_count()
        )


#: Branch candidate collected by :func:`reduce_node_bits`:
#: ``(missing_count, vertex_bit, neighbour_mask)``.
BranchCandidate = Tuple[int, int, int]


def reduce_node_bits(
    graph: IndexedBitGraph,
    state: BitNodeState,
    context: SearchContext,
) -> Tuple[Optional[BranchCandidate], Optional[BranchCandidate]]:
    """Bitset counterpart of :func:`reduce_node` (Lemmas 1 and 2).

    Identical semantics, but candidate neighbourhood intersections are one
    ``&`` and one ``bit_count`` each.  The state is modified in place.

    Each pass over one side checks both lemmas with a single neighbourhood
    intersection and one comparison chain per candidate (the conditions
    only read the *other* side's masks, which a pass over this side never
    mutates).  A pass walks its candidates in 12-bit chunks
    (:data:`~repro.graph.bitset.CHUNK_BITS`), lowest index first, so ties
    still go to the lowest index; a vertex's bit is built only when it is
    removed, forced or recorded.  A side is rescanned only when the
    opposite side *removed* a vertex since its last scan.  A forced vertex is adjacent to every
    opposite candidate, so forcing it lowers each opposite candidate's
    kept count by one and raises the opposite partial side by one: every
    Lemma 2 sum, Lemma 1 test and missing count on the other side stays
    what it was, and the skipped rescan would have removed and forced
    nothing.

    As a byproduct of the final scans the function returns, per side, the
    surviving candidate with the most (>= 3) missing neighbours as
    ``(missing, bit, neighbour_mask)`` — exactly the triviality-last branch
    selection of Algorithm 3 — or ``None`` when every survivor of that side
    misses at most two neighbours (the Lemma 3 polynomial precondition).
    The values are valid because each side's final scan saw every
    surviving candidate, and only forcings, which leave every missing
    count as it was, can have happened on the other side since.  Such
    forcings did shrink the opposite candidate mask, so the neighbour mask
    of a side that was not rescanned is cut to the final opposite mask:
    the include child takes it as its candidate set.
    """
    target = context.best_side + 1
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    a = state.a
    b = state.b
    ca = state.ca
    cb = state.cb
    removed = 0
    forced = 0
    best_left: Optional[BranchCandidate] = None
    best_right: Optional[BranchCandidate] = None
    scan_left = True
    scan_right = True
    # Per side: it forced a vertex since the other side's last scan.
    forced_left = False
    forced_right = False
    while scan_left or scan_right:
        if scan_left:
            scan_left = False
            forced_right = False
            need = target - b.bit_count()
            cb_size = cb.bit_count()
            # A candidate is the best so far when it keeps fewer than
            # ``limit`` opposite candidates, i.e. misses more than the
            # best so far (at least three).
            limit = cb_size - 2
            best_left = None
            remaining = ca
            base = 0
            while remaining:
                for i in CHUNK_BITS[remaining & 0xFFF]:
                    i += base
                    neighbours = adj_left[i] & cb
                    kept = neighbours.bit_count()
                    if kept < need:
                        ca ^= 1 << i
                        removed += 1
                        scan_right = True
                    elif kept < limit:
                        # kept < cb_size - 2, so this candidate is not forced.
                        limit = kept
                        best_left = (cb_size - kept, 1 << i, neighbours)
                    elif neighbours == cb:
                        low = 1 << i
                        ca ^= low
                        a |= low
                        forced += 1
                        forced_left = True
                remaining >>= 12
                base += 12
        if scan_right:
            scan_right = False
            forced_left = False
            need = target - a.bit_count()
            ca_size = ca.bit_count()
            limit = ca_size - 2
            best_right = None
            remaining = cb
            base = 0
            while remaining:
                for j in CHUNK_BITS[remaining & 0xFFF]:
                    j += base
                    neighbours = adj_right[j] & ca
                    kept = neighbours.bit_count()
                    if kept < need:
                        cb ^= 1 << j
                        removed += 1
                        scan_left = True
                    elif kept < limit:
                        limit = kept
                        best_right = (ca_size - kept, 1 << j, neighbours)
                    elif neighbours == ca:
                        low = 1 << j
                        cb ^= low
                        b |= low
                        forced += 1
                        forced_right = True
                remaining >>= 12
                base += 12
    if forced_right and best_left is not None:
        best_left = (best_left[0], best_left[1], best_left[2] & cb)
    if forced_left and best_right is not None:
        best_right = (best_right[0], best_right[1], best_right[2] & ca)
    stats = context.stats
    stats.reductions_removed += removed
    stats.reductions_forced += forced
    state.a = a
    state.b = b
    state.ca = ca
    state.cb = cb
    return best_left, best_right


def core_reduce(graph: BipartiteGraph, best_side: int) -> BipartiteGraph:
    """Lemma 4: shrink the graph to its ``(best_side + 1)``-core.

    Any balanced biclique with side size at least ``best_side + 1`` gives
    each of its vertices degree at least ``best_side + 1`` inside the
    biclique, so all of them survive in that core; everything outside can
    be discarded without losing an improving solution.
    """
    return k_core(graph, best_side + 1)
