"""Algorithm 8: ``verifyMBB`` — maximality verification.

The verification stage receives the vertex-centred subgraphs that survived
the bridging stage and proves (or improves) the incumbent by running the
dense-graph solver on each of them, with the centre vertex forced into the
result.  The subgraphs are first shrunk to their ``(best_side + 1)``-core
(Lemma 4 again, now with the possibly improved incumbent).

With the default :data:`~repro.mbb.dense.KERNEL_BITS` kernel each centred
subgraph arrives with the :class:`~repro.graph.bitset.IndexedBitGraph` the
bridging stage already built from the order view's position rows and
cached on it, together with the centre's index in it, so no
re-conversion or label lookup happens here; the core reduction is
applied as a pair of vertex masks
(:func:`~repro.graph.bitset.k_core_masks`) and the exhaustive search runs
on bitmasks, so this stage never materialises additional
``BipartiteGraph`` copies.  The :data:`~repro.mbb.dense.KERNEL_SETS` path
preserves the original behaviour for ablations: it searches the
label-keyed graph built from the subgraph's lazy label member sets.

Because the surviving subgraphs are small (bounded by the bidegeneracy) and
dense, the exhaustive step behaves near-polynomially in practice, which is
the crux of the paper's ``O*(1.3803^δ̈)`` claim.

**Scheduling.**  Survivors are searched hardest-first — descending
min-side bound, positions breaking ties: the subgraphs most likely to
improve the incumbent go first, so the early-incumbent effect prunes the
long tail.  The schedule is deterministic, and the work counters of a
solve depend on it.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.graph.bipartite import LEFT
from repro.graph.bitset import k_core_masks
from repro.cores.core import k_core
from repro.mbb.context import SearchAborted, SearchContext
from repro.mbb.dense import (
    BRANCH_TRIVIALITY_LAST,
    KERNEL_BITS,
    KERNEL_SETS,
    _check_branching,
    _check_kernel,
    dense_mbb_on_bitgraph,
    dense_mbb_on_sets,
)
from repro.mbb.result import Biclique
from repro.mbb.vertex_centred import VertexCentredSubgraph


def subgraph_hardness(sub: VertexCentredSubgraph) -> Tuple[int, int]:
    """Sort key: descending min-side bound, generation position as tie-break."""
    return (-sub.min_side, sub.position)


def schedule_hardest_first(
    subgraphs: Iterable[VertexCentredSubgraph],
) -> List[VertexCentredSubgraph]:
    """The S3 schedule: hardest survivors first, deterministically."""
    return sorted(subgraphs, key=subgraph_hardness)


def _search_subgraph_bits(
    sub: VertexCentredSubgraph,
    context: SearchContext,
    branching: str,
    use_core_pruning: bool,
) -> None:
    """Bitset search of a single centred subgraph, centre forced in."""
    bitgraph = sub.to_bitgraph()
    left_mask = bitgraph.all_left_mask
    right_mask = bitgraph.all_right_mask
    if use_core_pruning:
        left_mask, right_mask = k_core_masks(
            bitgraph, context.best_side + 1, left_mask, right_mask
        )
    index = sub.center_index
    if sub.center[0] == LEFT:
        bit = 1 << index
        if not left_mask & bit:
            return
        a = bit
        b = 0
        ca = left_mask ^ bit
        cb = bitgraph.adj_left[index] & right_mask
    else:
        bit = 1 << index
        if not right_mask & bit:
            return
        a = 0
        b = bit
        ca = bitgraph.adj_right[index] & left_mask
        cb = right_mask ^ bit
    if min((a | ca).bit_count(), (b | cb).bit_count()) <= context.best_side:
        return
    context.stats.subgraphs_searched += 1
    dense_mbb_on_bitgraph(
        bitgraph, context, a, b, ca, cb, branching=branching, depth=0
    )


def _search_subgraph(
    sub: VertexCentredSubgraph,
    context: SearchContext,
    branching: str,
    use_core_pruning: bool,
) -> None:
    """Set-kernel search of a single centred subgraph, centre forced in."""
    subgraph = sub.graph
    if use_core_pruning:
        subgraph = k_core(subgraph, context.best_side + 1)
    side, label = sub.center
    if side == LEFT:
        if not subgraph.has_left_vertex(label):
            return
        neighbours = set(subgraph.neighbors_left(label))
        a = {label}
        b: set = set()
        ca = subgraph.left - {label}
        cb = neighbours
    else:
        if not subgraph.has_right_vertex(label):
            return
        neighbours = set(subgraph.neighbors_right(label))
        a = set()
        b = {label}
        ca = neighbours
        cb = subgraph.right - {label}
    if min(len(a) + len(ca), len(b) + len(cb)) <= context.best_side:
        return
    context.stats.subgraphs_searched += 1
    dense_mbb_on_sets(
        subgraph,
        context,
        a,
        b,
        ca,
        cb,
        branching=branching,
        depth=0,
        kernel=KERNEL_SETS,
    )


def verify_mbb(
    subgraphs: Iterable[VertexCentredSubgraph],
    context: SearchContext,
    *,
    branching: str = BRANCH_TRIVIALITY_LAST,
    use_core_pruning: bool = True,
    kernel: str = KERNEL_BITS,
) -> Biclique:
    """Run the verification stage over all surviving centred subgraphs.

    The incumbent stored in ``context`` is updated in place and also
    returned.  When a budget is exhausted the incumbent found so far is
    returned and ``context.aborted`` is set.  ``kernel`` selects the
    bitset (default) or adjacency-set search implementation.  Survivors
    are searched in :func:`schedule_hardest_first` order.  An unknown
    ``kernel`` or ``branching`` raises
    :class:`~repro.exceptions.InvalidParameterError` before any search.
    """
    _check_kernel(kernel)
    _check_branching(branching)
    search = _search_subgraph_bits if kernel == KERNEL_BITS else _search_subgraph
    for sub in schedule_hardest_first(subgraphs):
        if context.aborted:
            break
        try:
            # Budgets are polled between subgraphs as well as inside the
            # kernel, so a deadline fires even when every remaining
            # subgraph would be pruned before entering a search node.
            context.checkpoint()
            search(sub, context, branching, use_core_pruning)
        except SearchAborted:
            break
    return context.best
