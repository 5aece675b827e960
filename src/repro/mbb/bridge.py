"""Algorithm 6: ``bridgeMBB`` — from a sparse graph to small dense subgraphs.

The bridging stage takes the residual graph left over after the heuristic
stage, computes the requested total search order (bidegeneracy by default),
slices the graph into vertex-centred subgraphs along that order and prunes
each subgraph with progressively stronger tests:

1. **size test** — a subgraph with fewer than ``best_side + 1`` vertices on
   either side cannot contain an improving balanced biclique; applied to
   the member counts before anything is built;
2. **degeneracy test** — neither can one whose degeneracy is at most the
   incumbent side size;
3. **local heuristic** — the core-number greedy is run on each survivor,
   which frequently lifts the incumbent to the global optimum before any
   exhaustive search happens (the ``heuLocal`` series of Figure 4).

The subgraphs that survive are handed to ``verifyMBB`` (Algorithm 8).

Subgraphs come from the one position-space generator
(:func:`~repro.mbb.vertex_centred.iter_vertex_centred_subgraphs_csr`).
With the default :data:`~repro.mbb.dense.KERNEL_BITS` kernel the
degeneracy test runs cheapest first, and each step is exact (it kills
only subgraphs whose degeneracy is below the target): an other-side
degree count from the position lists, then the target-core of the
survivor's :class:`~repro.graph.bitset.IndexedBitGraph` (built from the
order view's rows, no labels involved), then one
:func:`~repro.graph.bitset.core_numbers_masks` peel restricted to that
core, which also ranks the seeds of
:func:`~repro.mbb.heuristics.core_heuristic_bits`.  Survivors keep their
bitgraph cached so the verification stage searches the same object.
The adjacency-set implementation stays selectable as
:data:`~repro.mbb.dense.KERNEL_SETS` for the ablation benchmarks: it
reads the same subgraphs through their lazy label member sets and runs
one full label-keyed peel per size-test survivor.  Both kernels apply
exact tests with the same tie-breaking, so they keep the same
subgraphs.

Budgets are enforced between subgraphs: each centred subgraph polls
:meth:`~repro.mbb.context.SearchContext.checkpoint`, so a deadline or
cancellation hook firing mid-stage aborts within one subgraph and the
incumbent found so far is reported with ``context.aborted`` set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph
from repro.graph.bitset import core_numbers_masks, k_core_masks
from repro.graph.prepared import PreparedGraph, ensure_prepared_for
from repro.cores.core import core_numbers
from repro.cores.orders import ORDER_BIDEGENERACY, search_order
from repro.mbb.context import SearchAborted, SearchContext
from repro.mbb.dense import KERNEL_BITS, KERNEL_SETS, _check_kernel
from repro.mbb.heuristics import core_heuristic, core_heuristic_bits
from repro.mbb.result import Biclique
from repro.mbb.vertex_centred import (
    VertexCentredSubgraph,
    VertexKey,
    iter_vertex_centred_subgraphs_csr,
)

#: Seeds of the per-subgraph local heuristic (``top_r`` of both kernels'
#: core heuristics).
_LOCAL_SEEDS = 5


@dataclass
class BridgeOutcome:
    """Result of the bridging stage."""

    best: Biclique
    surviving: List[VertexCentredSubgraph] = field(default_factory=list)
    local_heuristic_best: Biclique = field(default_factory=Biclique.empty)
    #: True when a budget or cancellation cut the scan short; the stage's
    #: conclusions are then best-effort, never proofs.
    aborted: bool = False

    @property
    def exhausted(self) -> bool:
        """True when every centred subgraph was *provably* pruned away.

        An aborted scan with no survivors is not exhaustion — subgraphs it
        never reached could still hold an improvement — so this stays
        ``False`` whenever :attr:`aborted` is set, and callers may treat
        ``exhausted`` as an optimality certificate.
        """
        return not self.surviving and not self.aborted


def _scan_bits(
    sub: VertexCentredSubgraph,
    target: int,
    use_core_pruning: bool,
    use_local_heuristic: bool,
) -> Optional[Biclique]:
    """Bitset prunes + local heuristic for one subgraph that passed the size test.

    Returns the local-heuristic candidate (possibly empty) when the
    subgraph survives, ``None`` when the degeneracy test killed it.  The
    test runs cheapest first, and each step kills only subgraphs whose
    degeneracy is below ``target``, exactly what one full core peel
    would kill:

    1. the other-side degree count, from tail lengths before any
       bitgraph exists;
    2. the ``target``-core (:func:`k_core_masks`) of the survivor's
       bitgraph: empty means degeneracy below ``target``;
    3. :func:`core_numbers_masks` restricted to that core.  Core numbers
       inside a ``k``-core equal the full peel's, so the cached
       degeneracy is exact, and the heuristic ranks the same seeds when
       the core holds at least ``top_r`` vertices; a smaller core falls
       back to the full peel.
    """
    if use_core_pruning:
        if sub.count_other_degrees_at_least(target) < target:
            return None
        bitgraph = sub.to_bitgraph()
        left, right = k_core_masks(bitgraph, target)
        if not left:
            return None
        cores = core_numbers_masks(bitgraph, left, right)
        sub.degeneracy = max(max(cores[0]), max(cores[1]))
        if not use_local_heuristic:
            return Biclique.empty()
        if left.bit_count() + right.bit_count() < _LOCAL_SEEDS:
            cores = core_numbers_masks(bitgraph)
        return core_heuristic_bits(
            bitgraph, top_r=_LOCAL_SEEDS, cores=cores
        )
    if not use_local_heuristic:
        return Biclique.empty()
    return core_heuristic_bits(sub.to_bitgraph(), top_r=_LOCAL_SEEDS)


def _scan_sets(
    sub: VertexCentredSubgraph,
    target: int,
    use_core_pruning: bool,
    use_local_heuristic: bool,
) -> Optional[Biclique]:
    """Adjacency-set counterpart of :func:`_scan_bits` (``sets`` ablation).

    Also runs the bucket peel once: the degeneracy is the maximum of the
    core numbers that the local heuristic needs anyway (an earlier revision
    peeled the same subgraph twice here and a third time in the re-filter).
    """
    subgraph = sub.graph
    cores = None
    if use_core_pruning:
        cores = core_numbers(subgraph)
        sub.degeneracy = max(cores.values(), default=0)
        if sub.degeneracy < target:
            return None
    if not use_local_heuristic:
        return Biclique.empty()
    return core_heuristic(subgraph, top_r=_LOCAL_SEEDS, cores=cores)


#: Per-kernel prunes and local heuristic for one size-test survivor.
_SCANS = {KERNEL_BITS: _scan_bits, KERNEL_SETS: _scan_sets}


def bridge_mbb(
    graph: BipartiteGraph,
    context: SearchContext,
    *,
    order: str = ORDER_BIDEGENERACY,
    use_core_pruning: bool = True,
    use_local_heuristic: bool = True,
    kernel: str = KERNEL_BITS,
    total_order: Optional[Sequence[VertexKey]] = None,
    prepared: Optional[PreparedGraph] = None,
) -> BridgeOutcome:
    """Run the bridging stage on the (already reduced) residual graph.

    Parameters
    ----------
    graph:
        The residual graph produced by the heuristic stage.
    context:
        Shared search context carrying the incumbent found so far.  Its
        :meth:`~repro.mbb.context.SearchContext.checkpoint` is polled once
        per centred subgraph; when a budget fires the stage stops, sets
        ``context.aborted`` and returns the subgraphs scanned so far.
    order:
        Total search order; one of ``degree``, ``degeneracy``,
        ``bidegeneracy`` (the ablations ``bd4``/``bd5`` use the first two).
    use_core_pruning:
        When ``False`` the degeneracy test is skipped (``bd2`` ablation).
    use_local_heuristic:
        When ``False`` the per-subgraph greedy is skipped.
    kernel:
        :data:`~repro.mbb.dense.KERNEL_BITS` (default) runs every
        per-subgraph computation on bitmasks;
        :data:`~repro.mbb.dense.KERNEL_SETS` keeps the adjacency-set
        implementation for ablations.
    total_order:
        Optional precomputed total search order (must be the order that
        ``order`` names, over exactly this graph's vertices).  Computing
        the bidegeneracy order is the kernel-independent fixed cost of
        this stage; callers that already hold it — ``hbv_mbb``, which
        computes it once and records its wall time as the
        ``order_seconds`` stage stat, repeated solves on one residual
        graph, or the kernel benchmarks isolating the data-structure
        effect — pass it here to skip the recomputation.
    prepared:
        Optional :class:`~repro.graph.prepared.PreparedGraph` of exactly
        this graph.  Both kernels generate the centred subgraphs from its
        CSR snapshot
        (:func:`~repro.mbb.vertex_centred.iter_vertex_centred_subgraphs_csr`),
        preparing one on the fly when none is passed.  The ``sets``
        ablation reads each size-test survivor through its lazy label
        member sets; both kernels apply exact tests with the same
        tie-breaks, so they keep the same survivors and incumbents.
    """
    _check_kernel(kernel)
    outcome = BridgeOutcome(best=context.best)
    if graph.num_vertices == 0:
        return outcome

    if prepared is not None:
        ensure_prepared_for(prepared, graph)
    scan = _SCANS[kernel]
    if total_order is None:
        total_order = search_order(graph, order, prepared=prepared)
    else:
        # A stale order (e.g. computed before the heuristic stage's core
        # reductions shrank the graph) would otherwise surface as a bare
        # KeyError deep inside member-set construction.
        expected = {(LEFT, u) for u in graph.left_vertices()}
        expected.update((RIGHT, v) for v in graph.right_vertices())
        if len(total_order) != len(expected) or set(total_order) != expected:
            raise InvalidParameterError(
                "total_order must be a permutation of the graph's "
                "(side, label) vertex keys; it covers a different vertex set "
                "(was it computed on a pre-reduction graph?)"
            )
    if prepared is None:
        prepared = PreparedGraph.prepare(graph)
    subgraphs = iter_vertex_centred_subgraphs_csr(prepared, total_order)
    surviving: List[VertexCentredSubgraph] = []
    local_best = Biclique.empty()
    try:
        for sub in subgraphs:
            context.checkpoint()
            context.stats.subgraphs_generated += 1
            target = context.best_side + 1
            # Trivial size test on the member counts: nothing (labels,
            # bitgraph or BipartiteGraph) is built for subgraphs it kills.
            if sub.min_side < target:
                context.stats.subgraphs_pruned += 1
                continue
            candidate = scan(
                sub, target, use_core_pruning, use_local_heuristic
            )
            if candidate is None:
                context.stats.subgraphs_pruned += 1
                continue
            if candidate.side_size > local_best.side_size:
                local_best = candidate
            if context.offer_biclique(candidate):
                context.stats.local_heuristic_side = max(
                    context.stats.local_heuristic_side, context.best_side
                )
            surviving.append(sub)
    except SearchAborted:
        # context.aborted is set; report the incumbent and whatever was
        # scanned so far so the caller can return a best-effort result.
        outcome.aborted = True

    # The incumbent may have improved while scanning; re-filter the kept
    # subgraphs with the final bound so the verification stage sees as few
    # of them as possible.  The degeneracy cached during the scan makes the
    # second pass peel-free.
    final_target = context.best_side + 1
    filtered: List[VertexCentredSubgraph] = []
    for sub in surviving:
        if sub.min_side < final_target:
            context.stats.subgraphs_pruned += 1
            continue
        if (
            use_core_pruning
            and sub.degeneracy is not None
            and sub.degeneracy < final_target
        ):
            context.stats.subgraphs_pruned += 1
            continue
        filtered.append(sub)

    outcome.best = context.best
    outcome.surviving = filtered
    outcome.local_heuristic_best = local_best
    return outcome
