"""Result types shared by every MBB solver in the library.

A :class:`Biclique` is an immutable pair of vertex sets; an
:class:`MBBResult` wraps the best biclique found together with search
statistics and bookkeeping (optimality flag, terminating step of the sparse
framework) that the benchmark harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional

from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.validation import is_biclique


@dataclass(frozen=True)
class Biclique:
    """An immutable biclique ``(A, B)`` with ``A ⊆ L`` and ``B ⊆ R``."""

    left: FrozenSet[Vertex]
    right: FrozenSet[Vertex]

    @classmethod
    def empty(cls) -> "Biclique":
        """The empty biclique (side size zero)."""
        return cls(frozenset(), frozenset())

    @classmethod
    def of(cls, left: Iterable[Vertex], right: Iterable[Vertex]) -> "Biclique":
        """Build a biclique from arbitrary iterables of vertex labels."""
        return cls(frozenset(left), frozenset(right))

    @property
    def side_size(self) -> int:
        """Size of the smaller side — the quantity the MBB problem maximises."""
        return min(len(self.left), len(self.right))

    @property
    def total_size(self) -> int:
        """``|A| + |B|``."""
        return len(self.left) + len(self.right)

    @property
    def is_balanced(self) -> bool:
        """``True`` when both sides have the same number of vertices."""
        return len(self.left) == len(self.right)

    def balanced(self) -> "Biclique":
        """Return a balanced biclique by trimming the larger side.

        Which vertices are dropped is deterministic (sorted by ``repr``) so
        repeated runs produce identical output; any subset works because
        removing vertices from one side of a biclique keeps it a biclique.
        """
        k = self.side_size
        left = self.left
        right = self.right
        if len(left) > k:
            left = frozenset(sorted(left, key=repr)[:k])
        if len(right) > k:
            right = frozenset(sorted(right, key=repr)[:k])
        return Biclique(left, right)

    def is_valid_in(self, graph: BipartiteGraph) -> bool:
        """Check that the vertex pair really induces a biclique of ``graph``."""
        return is_biclique(graph, self.left, self.right)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Biclique(|A|={len(self.left)}, |B|={len(self.right)}, "
            f"side={self.side_size})"
        )


@dataclass
class SearchStats:
    """Counters collected while a solver runs.

    The counters feed the breakdown experiments of the paper: recursion
    node counts and depths (Figure 5), how often the polynomial case fired,
    how much the reductions removed, and how many vertex-centred subgraphs
    survived pruning (Table 6 discussion).
    """

    nodes: int = 0
    max_depth: int = 0
    depth_sum: int = 0
    leaf_count: int = 0
    leaf_depth_sum: int = 0
    reductions_removed: int = 0
    reductions_forced: int = 0
    polynomial_cases: int = 0
    bound_prunes: int = 0
    subgraphs_generated: int = 0
    subgraphs_pruned: int = 0
    subgraphs_searched: int = 0
    heuristic_side: int = 0
    local_heuristic_side: int = 0
    #: Wall seconds spent computing the total search order (the bridging
    #: stage's kernel-independent fixed cost, the ``bdegOrder`` overhead
    #: column of Table 6).  0.0 when the solve never reached the bridging
    #: stage, was handed a precomputed order, or hit a prepared snapshot
    #: whose memoised order made the computation free.
    order_seconds: float = 0.0
    #: Wall seconds spent locating/building prepared graph snapshots
    #: (CSR indexing plus cache lookups; the lazily derived artifacts are
    #: charged to the stage that asks for them, e.g. the bidegeneracy
    #: peel to :attr:`order_seconds`).  ≈ 0 on an engine cache hit.
    prepare_seconds: float = 0.0
    #: Engine prepared-graph cache hits/misses attributable to this
    #: solve (0/0 for backends that never touch the cache).
    prepared_cache_hits: int = 0
    prepared_cache_misses: int = 0
    #: Fault-tolerance accounting, stamped by the engine's batch layer
    #: (``MBBEngine.solve_many``), never by solvers: resubmissions this
    #: request needed beyond its first (``worker_retries``) and pool
    #: rebuilds its attempts lived through (``pool_rebuilds``).
    worker_retries: int = 0
    pool_rebuilds: int = 0

    def record_node(self, depth: int) -> None:
        """Record entry into a branch-and-bound node at the given depth."""
        self.nodes += 1
        self.depth_sum += depth
        if depth > self.max_depth:
            self.max_depth = depth

    def record_leaf(self, depth: int) -> None:
        """Record that a node at ``depth`` did not branch further."""
        self.leaf_count += 1
        self.leaf_depth_sum += depth

    @property
    def average_depth(self) -> float:
        """Average depth over all visited nodes (0.0 when nothing ran)."""
        if self.nodes == 0:
            return 0.0
        return self.depth_sum / self.nodes

    @property
    def average_leaf_depth(self) -> float:
        """Average depth of nodes that stopped branching."""
        if self.leaf_count == 0:
            return 0.0
        return self.leaf_depth_sum / self.leaf_count

    def merge(self, other: "SearchStats") -> None:
        """Accumulate the counters of ``other`` into this object."""
        self.nodes += other.nodes
        self.max_depth = max(self.max_depth, other.max_depth)
        self.depth_sum += other.depth_sum
        self.leaf_count += other.leaf_count
        self.leaf_depth_sum += other.leaf_depth_sum
        self.reductions_removed += other.reductions_removed
        self.reductions_forced += other.reductions_forced
        self.polynomial_cases += other.polynomial_cases
        self.bound_prunes += other.bound_prunes
        self.subgraphs_generated += other.subgraphs_generated
        self.subgraphs_pruned += other.subgraphs_pruned
        self.subgraphs_searched += other.subgraphs_searched
        self.heuristic_side = max(self.heuristic_side, other.heuristic_side)
        self.local_heuristic_side = max(
            self.local_heuristic_side, other.local_heuristic_side
        )
        self.order_seconds += other.order_seconds
        self.prepare_seconds += other.prepare_seconds
        self.prepared_cache_hits += other.prepared_cache_hits
        self.prepared_cache_misses += other.prepared_cache_misses
        self.worker_retries += other.worker_retries
        self.pool_rebuilds += other.pool_rebuilds


#: Step labels reported by the sparse framework (Table 5, column "hbvMBB").
STEP_HEURISTIC = "S1"
STEP_BRIDGE = "S2"
STEP_VERIFY = "S3"


@dataclass
class MBBResult:
    """Outcome of an MBB solver run."""

    biclique: Biclique
    optimal: bool = True
    terminated_at: Optional[str] = None
    stats: SearchStats = field(default_factory=SearchStats)
    elapsed_seconds: float = 0.0

    @property
    def side_size(self) -> int:
        """Side size of the reported (balanced) biclique."""
        return self.biclique.side_size

    @property
    def total_size(self) -> int:
        """Total number of vertices of the reported biclique."""
        return self.biclique.balanced().total_size

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        step = f", step={self.terminated_at}" if self.terminated_at else ""
        flag = "optimal" if self.optimal else "best-effort"
        return f"MBBResult(side={self.side_size}, {flag}{step})"
