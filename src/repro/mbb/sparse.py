"""Algorithm 4: ``hbvMBB`` — the full framework for large sparse graphs.

The framework chains three stages that share a single incumbent:

* **S1 — heuristic and reduction** (:func:`repro.mbb.heuristics.h_mbb`):
  greedy heuristics, Lemma 4 core reductions and the Lemma 5 early exit,
  all answered by one memoised core peel of the prepared snapshot.
* **S2 — bridging** (:func:`repro.mbb.bridge.bridge_mbb`): vertex-centred
  subgraphs along the bidegeneracy order, pruned by size / degeneracy and
  refined by a local heuristic.
* **S3 — verification** (:func:`repro.mbb.verify.verify_mbb`): the dense
  solver applied to every surviving subgraph with its centre forced in.

The stages share one :class:`~repro.graph.prepared.PreparedGraph`: the
caller's (the engine cache's) or one prepared on entry.  S1 reduces it to
a residual snapshot memoised on the bundle, and S2 and S3 run on that
snapshot's graph, CSR arrays and memoised search order.

Every switch the paper ablates in Table 6 is exposed through
:class:`SparseConfig`: the heuristic stage (``bd1``), core/bicore based
optimisations (``bd2``), the dense branching technique (``bd3``) and the
choice of search order (``bd4``/``bd5``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.prepared import PreparedGraph, ensure_prepared_for
from repro.cores.orders import (
    ALL_ORDERS,
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
    _check_initial_best,
    _check_kernel,
)
from repro.mbb.heuristics import h_mbb
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

    def __post_init__(self) -> None:
        # Validate up front: S1 alone can end a solve, so a bad order or
        # kernel would otherwise pass silently whenever S2 never runs.
        if self.order not in ALL_ORDERS:
            raise InvalidParameterError(
                f"unknown search order {self.order!r}; expected one of {ALL_ORDERS}"
            )
        _check_kernel(self.kernel)
        if self.heuristic_seeds < 0:
            raise InvalidParameterError(
                f"heuristic_seeds must be non-negative, got {self.heuristic_seeds}"
            )

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
        Optional known biclique of ``graph`` to seed the incumbent; one
        that is not a biclique of ``graph`` raises
        :class:`~repro.exceptions.InvalidParameterError`, since the
        solve would otherwise report it as an optimal witness.
    prepared:
        Optional :class:`~repro.graph.prepared.PreparedGraph` of exactly
        ``graph`` (what :class:`~repro.api.engine.MBBEngine` hands in
        from its per-graph cache); prepared here when not given.  S1
        runs on its memoised core numbers, and each Lemma 4 reduction
        is a residual snapshot memoised on the bundle
        (:meth:`~repro.graph.prepared.PreparedGraph.for_subgraph`) that
        goes straight to S2, so a repeated solve re-derives nothing
        before the bridging stage.  The time spent preparing or
        locating snapshots is recorded as the ``prepare_seconds`` stage
        stat.

    Returns
    -------
    MBBResult
        The best balanced biclique with ``terminated_at`` set to ``"S1"``,
        ``"S2"`` or ``"S3"`` depending on which stage proved optimality.
    """
    if context is None:
        context = SearchContext(
            node_budget=config.node_budget, time_budget=config.time_budget
        )
    if prepared is None:
        with context.timed_stat("prepare_seconds"):
            prepared = PreparedGraph.prepare(graph)
    else:
        ensure_prepared_for(prepared, graph)
    if initial_best is not None:
        _check_initial_best(initial_best, graph)
        context.offer_biclique(initial_best)

    # ------------------------------------------------------------------
    # Step 1: heuristics and reduction.
    # ------------------------------------------------------------------
    # One prepared snapshot backs the whole solve: S1 reduces it to a
    # residual snapshot (memoised on the bundle), and that snapshot's own
    # graph, CSR arrays and memoised order feed S2 and S3.
    residual = prepared
    if config.use_heuristic:
        outcome = h_mbb(
            prepared.graph,
            top_r=config.heuristic_seeds,
            context=context,
            prepared=prepared,
        )
        residual = outcome.residual
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
        with context.timed_stat("prepare_seconds"):
            residual = prepared.for_subgraph(context.best_side + 1)

    # ------------------------------------------------------------------
    # Step 2: bridge to small dense subgraphs.
    # ------------------------------------------------------------------
    total_order = None
    if residual.csr.num_vertices:
        # The total search order is the stage's kernel-independent fixed
        # cost; compute it once here (memoised on the snapshot — the raw
        # memoised list is used on purpose, so the bridging stage's order
        # view is memoised by identity too) and record its wall time so
        # reports break the ordering overhead out of the per-subgraph
        # work (the ``bdegOrder`` column of Table 6).
        with context.timed_stat("order_seconds"):
            total_order = residual.search_order(config.effective_order)
    bridge = bridge_mbb(
        residual.graph,
        context,
        order=config.effective_order,
        use_core_pruning=config.use_core_pruning,
        kernel=config.kernel,
        total_order=total_order,
        prepared=residual,
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
