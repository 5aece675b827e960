"""Algorithm 4: ``hbvMBB`` — the full framework for large sparse graphs.

The framework chains three stages that share a single incumbent:

* **S1 — heuristic and reduction** (:func:`repro.mbb.heuristics.h_mbb`):
  greedy heuristics, Lemma 4 core reductions and the Lemma 5 early exit.
* **S2 — bridging** (:func:`repro.mbb.bridge.bridge_mbb`): vertex-centred
  subgraphs along the bidegeneracy order, pruned by size / degeneracy and
  refined by a local heuristic.
* **S3 — verification** (:func:`repro.mbb.verify.verify_mbb`): the dense
  solver applied to every surviving subgraph with its centre forced in.

Every switch the paper ablates in Table 6 is exposed through
:class:`SparseConfig`: the heuristic stage (``bd1``), core/bicore based
optimisations (``bd2``), the dense branching technique (``bd3``) and the
choice of search order (``bd4``/``bd5``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.graph.bipartite import BipartiteGraph
from repro.graph.prepared import PreparedGraph, ensure_prepared_for
from repro.cores.orders import (
    ORDER_BIDEGENERACY,
    ORDER_DEGENERACY,
    ORDER_DEGREE,
)
from repro.mbb.bridge import bridge_mbb
from repro.mbb.context import SearchContext
from repro.mbb.dense import (
    BRANCH_NAIVE,
    BRANCH_TRIVIALITY_LAST,
    KERNEL_BITS,
)
from repro.mbb.heuristics import h_mbb
from repro.mbb.reductions import core_reduce
from repro.mbb.result import (
    Biclique,
    MBBResult,
    STEP_BRIDGE,
    STEP_HEURISTIC,
    STEP_VERIFY,
)
from repro.mbb.verify import verify_mbb


@dataclass(frozen=True)
class SparseConfig:
    """Configuration of the sparse framework (defaults = full ``hbvMBB``)."""

    #: Run the heuristic + reduction stage (``bd1`` disables it).
    use_heuristic: bool = True
    #: Use core/bicore based pruning, reductions and ordering (``bd2``
    #: disables it; the order then falls back to plain degree order).
    use_core_pruning: bool = True
    #: Use the dense solver's triviality-last branching and polynomial
    #: cases (``bd3`` disables it, falling back to naive branching).
    use_dense_branching: bool = True
    #: Total search order for the bridging stage (``bd4`` = degree,
    #: ``bd5`` = degeneracy, default = bidegeneracy).
    order: str = ORDER_BIDEGENERACY
    #: How many top-degree / top-core seeds the greedy heuristics try.
    heuristic_seeds: int = 5
    #: Search kernel for the bridging *and* verification stages: ``"bits"``
    #: (default) runs S2's core decomposition / local heuristic and S3's
    #: dense solver on IndexedBitGraph masks, ``"sets"`` on adjacency sets
    #: (see :mod:`repro.mbb.dense` and :mod:`repro.mbb.bridge`).
    kernel: str = KERNEL_BITS
    #: Optional safety budgets forwarded to the search context.
    node_budget: Optional[int] = None
    time_budget: Optional[float] = None

    @property
    def effective_order(self) -> str:
        """The order actually used once the ``bd2`` interaction is applied."""
        if not self.use_core_pruning:
            return ORDER_DEGREE
        return self.order

    @property
    def branching(self) -> str:
        """Branching mode forwarded to the dense solver."""
        return BRANCH_TRIVIALITY_LAST if self.use_dense_branching else BRANCH_NAIVE


#: Ready-made configurations matching the paper's Table 3 variants.
CONFIG_FULL = SparseConfig()
CONFIG_BD1_NO_HEURISTIC = SparseConfig(use_heuristic=False)
CONFIG_BD2_NO_CORE = SparseConfig(use_core_pruning=False)
CONFIG_BD3_NO_BRANCHING = SparseConfig(use_dense_branching=False)
CONFIG_BD4_DEGREE_ORDER = SparseConfig(order=ORDER_DEGREE)
CONFIG_BD5_DEGENERACY_ORDER = SparseConfig(order=ORDER_DEGENERACY)

VARIANT_CONFIGS = {
    "hbvMBB": CONFIG_FULL,
    "bd1": CONFIG_BD1_NO_HEURISTIC,
    "bd2": CONFIG_BD2_NO_CORE,
    "bd3": CONFIG_BD3_NO_BRANCHING,
    "bd4": CONFIG_BD4_DEGREE_ORDER,
    "bd5": CONFIG_BD5_DEGENERACY_ORDER,
}


def hbv_mbb(
    graph: BipartiteGraph,
    *,
    config: SparseConfig = CONFIG_FULL,
    context: Optional[SearchContext] = None,
    initial_best: Optional[Biclique] = None,
    prepared: Optional[PreparedGraph] = None,
) -> MBBResult:
    """Find a maximum balanced biclique with the sparse framework.

    Parameters
    ----------
    graph:
        The bipartite graph to search (any density is accepted; the
        framework is designed for large sparse inputs).
    config:
        Stage switches and budgets; see :class:`SparseConfig`.
    context:
        Optional pre-seeded context (shared incumbent / statistics).
    initial_best:
        Optional known balanced biclique to seed the incumbent.
    prepared:
        Optional :class:`~repro.graph.prepared.PreparedGraph` of exactly
        ``graph`` (what :class:`~repro.api.engine.MBBEngine` hands in
        from its per-graph cache).  The bridging stage then reuses the
        snapshot's memoised order and CSR arrays; a fresh snapshot is
        prepared only when the S1 core reduction actually shrank the
        graph (and is memoised on the bundle, so repeated solves skip
        even that).  The time spent locating/re-preparing snapshots is
        recorded as the ``prepare_seconds`` stage stat.

    Returns
    -------
    MBBResult
        The best balanced biclique with ``terminated_at`` set to ``"S1"``,
        ``"S2"`` or ``"S3"`` depending on which stage proved optimality.
    """
    if prepared is not None:
        ensure_prepared_for(prepared, graph)
    if context is None:
        context = SearchContext(
            node_budget=config.node_budget, time_budget=config.time_budget
        )
    if initial_best is not None:
        context.offer_biclique(initial_best)

    # ------------------------------------------------------------------
    # Step 1: heuristics and reduction.
    # ------------------------------------------------------------------
    residual = graph
    if config.use_heuristic:
        outcome = h_mbb(graph, top_r=config.heuristic_seeds, context=context)
        context.offer_biclique(outcome.best)
        residual = outcome.reduced_graph
        if context.aborted:
            # A budget or cancellation fired between greedy seeds; the
            # incumbent is best-effort, not proven optimal.
            return MBBResult(
                biclique=context.best,
                optimal=False,
                terminated_at=STEP_HEURISTIC,
                stats=context.stats,
                elapsed_seconds=context.elapsed,
            )
        if outcome.proven_optimal:
            return MBBResult(
                biclique=context.best,
                optimal=True,
                terminated_at=STEP_HEURISTIC,
                stats=context.stats,
                elapsed_seconds=context.elapsed,
            )
    elif config.use_core_pruning and context.best_side > 0:
        residual = core_reduce(graph, context.best_side)

    # ------------------------------------------------------------------
    # Step 2: bridge to small dense subgraphs.
    # ------------------------------------------------------------------
    # One prepared snapshot backs the whole stage.  A caller-supplied
    # bundle (the engine cache) is reused as long as the S1 reduction
    # removed nothing; when it did shrink the graph, the residual's own
    # snapshot is prepared — and memoised on the bundle, so a repeated
    # solve of the same graph re-prepares nothing.  Either way the wall
    # time of locating/building the snapshot is the ``prepare_seconds``
    # stage stat.
    total_order = None
    if residual.num_vertices:
        with context.timed_stat("prepare_seconds"):
            if prepared is None:
                prepared = PreparedGraph.prepare(residual)
            else:
                prepared = prepared.for_subgraph(residual)
            # Generate from the snapshot's own graph: content-equal to the
            # residual, and it keeps every stage downstream of S2 (member
            # sets, bitgraphs, verification) on one consistent parent object.
            residual = prepared.graph
        # The total search order is the stage's kernel-independent fixed
        # cost; compute it once here (memoised on the snapshot — the raw
        # memoised list is used on purpose, so the bridging stage's order
        # view is memoised by identity too) and record its wall time so
        # reports break the ordering overhead out of the per-subgraph
        # work (the ``bdegOrder`` column of Table 6).
        with context.timed_stat("order_seconds"):
            total_order = prepared.search_order(config.effective_order)
    bridge = bridge_mbb(
        residual,
        context,
        order=config.effective_order,
        use_core_pruning=config.use_core_pruning,
        kernel=config.kernel,
        total_order=total_order,
        prepared=prepared,
    )
    if context.aborted or bridge.exhausted:
        # Either every subgraph was pruned away (exhaustion proves the
        # incumbent optimal) or a budget cut the scan short (best effort) —
        # never claim exhaustion for an aborted bridge.
        return MBBResult(
            biclique=context.best,
            optimal=not context.aborted,
            terminated_at=STEP_BRIDGE,
            stats=context.stats,
            elapsed_seconds=context.elapsed,
        )

    # ------------------------------------------------------------------
    # Step 3: verification with the dense solver.
    # ------------------------------------------------------------------
    verify_mbb(
        bridge.surviving,
        context,
        branching=config.branching,
        use_core_pruning=config.use_core_pruning,
        kernel=config.kernel,
    )
    return MBBResult(
        biclique=context.best,
        optimal=not context.aborted,
        terminated_at=STEP_VERIFY,
        stats=context.stats,
        elapsed_seconds=context.elapsed,
    )


def sparse_mbb(graph: BipartiteGraph, **kwargs) -> MBBResult:
    """Alias for :func:`hbv_mbb` matching the paper's ``sparseMBB`` name."""
    return hbv_mbb(graph, **kwargs)


def variant(name: str) -> SparseConfig:
    """Return the :class:`SparseConfig` for a named Table 3 variant.

    Known names: ``hbvMBB``, ``bd1`` .. ``bd5``.
    """
    try:
        return VARIANT_CONFIGS[name]
    except KeyError:
        raise KeyError(
            f"unknown variant {name!r}; expected one of {sorted(VARIANT_CONFIGS)}"
        ) from None


def variant_with_budget(
    name: str,
    *,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> SparseConfig:
    """A named variant with budgets attached (used by the bench harness)."""
    return replace(
        variant(name), node_budget=node_budget, time_budget=time_budget
    )
