"""Metrics for the breakdown experiments (Figures 4, 5 and 6).

The functions here compute the quantities the paper plots:

* the size gap between the heuristics and the optimum (Figure 4),
* the average exhaustive-search depth relative to the bidegeneracy for the
  three total search orders (Figure 5),
* the average density of vertex-centred subgraphs generated by each order
  (Figure 6), and
* the total size of the centred subgraph family per order (Lemmas 6-8).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, Optional

from repro.graph.bipartite import BipartiteGraph
from repro.graph.prepared import PreparedGraph
from repro.cores.bicore import bidegeneracy
from repro.cores.orders import ALL_ORDERS, search_order
from repro.mbb.bridge import bridge_mbb
from repro.mbb.context import SearchContext
from repro.mbb.heuristics import h_mbb
from repro.mbb.result import MBBResult
from repro.mbb.sparse import SparseConfig, hbv_mbb
from repro.mbb.vertex_centred import subgraph_density_profile, total_subgraph_size


def average_subgraph_density(
    graph: BipartiteGraph, orders: tuple = ALL_ORDERS
) -> Dict[str, float]:
    """Average density of the vertex-centred subgraphs per search order.

    This is the Figure 6 metric; empty centred subgraphs are excluded from
    the average (they carry no search work).  One prepared snapshot is
    shared across all requested orders, so the graph is indexed once, not
    once per order (and not once more per profile pass).
    """
    prepared = PreparedGraph.prepare(graph)
    result: Dict[str, float] = {}
    for order_name in orders:
        order = search_order(graph, order_name, prepared=prepared)
        densities = subgraph_density_profile(graph, order, prepared=prepared)
        result[order_name] = mean(densities) if densities else 0.0
    return result


def subgraph_size_totals(
    graph: BipartiteGraph, orders: tuple = ALL_ORDERS
) -> Dict[str, int]:
    """Total vertex count over all centred subgraphs per order (Lemmas 6-8)."""
    prepared = PreparedGraph.prepare(graph)
    return {
        order_name: total_subgraph_size(
            graph,
            search_order(graph, order_name, prepared=prepared),
            prepared=prepared,
        )
        for order_name in orders
    }


def search_depth_ratio(
    graph: BipartiteGraph,
    orders: tuple = ALL_ORDERS,
    *,
    time_budget: Optional[float] = None,
) -> Dict[str, float]:
    """Average exhaustive-search depth divided by δ̈, per order (Figure 5).

    The sparse framework is run once per order; the reported quantity is
    the average depth of the dense-solver recursion over all verification
    searches, normalised by the graph's bidegeneracy as in the paper.
    """
    delta = bidegeneracy(graph)
    if delta == 0:
        return {order_name: 0.0 for order_name in orders}
    ratios: Dict[str, float] = {}
    for order_name in orders:
        config = SparseConfig(order=order_name, time_budget=time_budget)
        result = hbv_mbb(graph, config=config)
        ratios[order_name] = result.stats.average_leaf_depth / delta
    return ratios


@dataclass
class HeuristicGap:
    """Gap (in side size) between a heuristic result and the optimum."""

    optimum: int
    global_heuristic: int
    local_heuristic: int

    @property
    def gap_global(self) -> int:
        """Optimum minus the side size found by ``hMBB`` (heuGlobal)."""
        return self.optimum - self.global_heuristic

    @property
    def gap_local(self) -> int:
        """Optimum minus the side size after the bridging heuristic (heuLocal)."""
        return self.optimum - self.local_heuristic


def heuristic_gaps(
    graph: BipartiteGraph,
    *,
    optimum: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> HeuristicGap:
    """Compute the Figure 4 gaps for a single graph.

    ``heuGlobal`` is the incumbent produced by the heuristic stage alone;
    ``heuLocal`` additionally includes the per-subgraph heuristic run during
    bridging.  When ``optimum`` is not supplied the full exact solver is run
    to obtain it.
    """
    context = SearchContext()
    outcome = h_mbb(graph, context=context)
    global_side = outcome.best.side_size
    local_side = global_side
    if not outcome.proven_optimal:
        bridge = bridge_mbb(
            outcome.reduced_graph, context, prepared=outcome.residual
        )
        local_side = max(local_side, bridge.best.side_size)
    if optimum is None:
        exact: MBBResult = hbv_mbb(
            graph, config=SparseConfig(time_budget=time_budget)
        )
        optimum = exact.side_size
    return HeuristicGap(
        optimum=optimum,
        global_heuristic=global_side,
        local_heuristic=local_side,
    )
