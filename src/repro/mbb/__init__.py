"""Exact maximum balanced biclique algorithms (the paper's contribution).

Public entry points:

* :func:`~repro.mbb.solver.solve_mbb` / :func:`~repro.mbb.solver.maximum_balanced_biclique`
  — the one-call API that auto-selects between the two algorithms below.
  Both are thin wrappers over the service layer in :mod:`repro.api`
  (backend registry, :class:`~repro.api.SolveRequest` /
  :class:`~repro.api.SolveReport` JSON wire format, and the
  batch-parallel :class:`~repro.api.MBBEngine`); use the engine directly
  for structured requests, JSON reports or batches on worker processes.
* :func:`~repro.mbb.dense.dense_mbb` — Algorithm 3 (``denseMBB``) for dense
  bipartite graphs.
* :func:`~repro.mbb.sparse.hbv_mbb` — Algorithm 4 (``hbvMBB``/``sparseMBB``)
  for large sparse bipartite graphs, with :class:`~repro.mbb.sparse.SparseConfig`
  exposing every ablation switch of the paper's Table 3.
* :func:`~repro.mbb.basic_bb.basic_bb` — Algorithm 1, the unoptimised
  enumeration kept as a reference.
* :func:`~repro.mbb.size_constrained.size_constrained_mbb` — MBB through
  rising ``(k, k)`` size-constrained decisions on the bitset kernel (the
  registry's ``size-constrained`` backend).

Kernel selection: both exact solvers default to the indexed bitset kernel
(:data:`~repro.mbb.dense.KERNEL_BITS`), which runs the branch and bound on
:class:`~repro.graph.bitset.IndexedBitGraph` masks; for the sparse
framework the same switch also governs the bridging stage (S2), whose
core decomposition, degeneracy pruning and local greedy run on masks.
Pass ``kernel=`` :data:`~repro.mbb.dense.KERNEL_SETS` (or
``SparseConfig(kernel="sets")``) for the original adjacency-set
implementation, kept for ablations.

Lemma 5 note: the S1 early exit of the sparse framework compares the
incumbent side size against the degeneracy of the graph *before* the
Lemma 4 core reduction (``δ(G) <= |A*|`` proves optimality); comparing
against the reduced graph's degeneracy can never succeed because a nonempty
``(k + 1)``-core has degeneracy above ``k``.
"""

from repro.mbb.basic_bb import basic_bb
from repro.mbb.bounds import degree_upper_bound
from repro.mbb.context import SearchContext
from repro.mbb.dense import (
    BRANCH_NAIVE,
    BRANCH_TRIVIALITY_LAST,
    KERNEL_BITS,
    KERNEL_SETS,
    dense_mbb,
)
from repro.mbb.heuristics import (
    core_heuristic,
    core_heuristic_bits,
    degree_heuristic,
    greedy_extend,
    greedy_extend_bits,
    h_mbb,
)
from repro.mbb.polynomial import (
    is_polynomially_solvable,
    maximum_balanced_biclique_near_complete,
)
from repro.mbb.result import (
    Biclique,
    MBBResult,
    SearchStats,
    STEP_BRIDGE,
    STEP_HEURISTIC,
    STEP_VERIFY,
)
from repro.mbb.size_constrained import (
    find_biclique_of_size,
    has_biclique_of_size,
    maximal_biclique_profile,
    size_constrained_mbb,
)
from repro.mbb.solver import (
    METHOD_AUTO,
    METHOD_BASIC,
    METHOD_DENSE,
    METHOD_SPARSE,
    choose_method,
    maximum_balanced_biclique,
    solve_mbb,
)
from repro.mbb.sparse import (
    CONFIG_FULL,
    SparseConfig,
    VARIANT_CONFIGS,
    hbv_mbb,
    sparse_mbb,
    variant,
    variant_with_budget,
)

__all__ = [
    "Biclique",
    "MBBResult",
    "SearchStats",
    "SearchContext",
    "STEP_HEURISTIC",
    "STEP_BRIDGE",
    "STEP_VERIFY",
    "basic_bb",
    "dense_mbb",
    "BRANCH_NAIVE",
    "BRANCH_TRIVIALITY_LAST",
    "KERNEL_BITS",
    "KERNEL_SETS",
    "hbv_mbb",
    "sparse_mbb",
    "SparseConfig",
    "CONFIG_FULL",
    "VARIANT_CONFIGS",
    "variant",
    "variant_with_budget",
    "solve_mbb",
    "maximum_balanced_biclique",
    "choose_method",
    "METHOD_AUTO",
    "METHOD_DENSE",
    "METHOD_SPARSE",
    "METHOD_BASIC",
    "degree_heuristic",
    "core_heuristic",
    "core_heuristic_bits",
    "greedy_extend",
    "greedy_extend_bits",
    "h_mbb",
    "is_polynomially_solvable",
    "maximum_balanced_biclique_near_complete",
    "degree_upper_bound",
    "find_biclique_of_size",
    "has_biclique_of_size",
    "maximal_biclique_profile",
    "size_constrained_mbb",
]
