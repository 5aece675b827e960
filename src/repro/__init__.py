"""repro — exact maximum balanced biclique search in bipartite graphs.

A from-scratch Python reproduction of

    Lu Chen, Chengfei Liu, Rui Zhou, Jiajie Xu, Jianxin Li.
    "Efficient Exact Algorithms for Maximum Balanced Biclique Search in
    Bipartite Graphs." SIGMOD 2021 (arXiv:2007.08836).

Quickstart
----------
>>> from repro import BipartiteGraph, solve_mbb
>>> graph = BipartiteGraph(edges=[(0, "x"), (0, "y"), (1, "x"), (1, "y"), (2, "y")])
>>> result = solve_mbb(graph)
>>> result.side_size
2
>>> sorted(result.biclique.left), sorted(result.biclique.right)
([0, 1], ['x', 'y'])

API notes
---------
:func:`solve_mbb` is a thin wrapper over the service API in
:mod:`repro.api`: solvers are *named backends* in a registry
(:func:`~repro.api.available_backends`), a
:class:`~repro.api.SolveRequest` / :class:`~repro.api.SolveReport` pair is
the JSON wire format, and :class:`~repro.api.MBBEngine` executes one
request — or a batch of them across worker processes via
:meth:`~repro.api.MBBEngine.solve_many`.

>>> from repro.api import GraphSpec, MBBEngine, SolveRequest
>>> report = MBBEngine().solve(
...     SolveRequest(graph=GraphSpec.random(10, 10, 0.8, seed=7), backend="dense")
... )
>>> report.side_size >= 3
True

Both exact solvers run their branch and bound on an indexed bitset kernel
by default: the graph is mapped onto contiguous indices
(:class:`~repro.graph.bitset.IndexedBitGraph`) and candidate-set
intersections become single ``&``/``bit_count`` operations on Python-int
bitmasks.  ``solve_mbb(graph, kernel="sets")`` (or
``SparseConfig(kernel="sets")``) selects the original adjacency-set inner
loop for ablations.  The sparse framework's S1 stage applies the Lemma 5
early exit by comparing the incumbent against the degeneracy of the
*pre-reduction* graph, so it can prove optimality while the residual graph
is still nonempty.

The package is organised as:

* :mod:`repro.graph` — the bipartite graph substrate and generators;
* :mod:`repro.cores` — core/bicore decompositions and search orders;
* :mod:`repro.mbb` — the paper's algorithms (denseMBB, hbvMBB, ...);
* :mod:`repro.baselines` — ExtBBClq, adapted MBE engines, local search,
  the brute-force oracle and the polynomial MVB solver;
* :mod:`repro.api` — the service layer: backend registry, request/report
  wire format and the batch-parallel :class:`~repro.api.MBBEngine`;
* :mod:`repro.workloads` — synthetic workloads and KONECT stand-ins;
* :mod:`repro.analysis` / :mod:`repro.bench` — the evaluation harness that
  regenerates every table and figure of the paper.
"""

from repro.exceptions import (
    BudgetExceededError,
    DatasetError,
    GraphError,
    InvalidParameterError,
    ReproError,
    SolverError,
)
from repro.graph import (
    LEFT,
    RIGHT,
    BipartiteGraph,
    CSRBipartite,
    IndexedBitGraph,
    bipartite_complement,
)
from repro.cores import (
    bicore_decomposition,
    bicore_numbers,
    bidegeneracy,
    bidegeneracy_order,
    core_numbers,
    degeneracy,
    degeneracy_order,
    k_core,
)
from repro.mbb import (
    Biclique,
    MBBResult,
    SparseConfig,
    basic_bb,
    dense_mbb,
    hbv_mbb,
    maximum_balanced_biclique,
    solve_mbb,
    sparse_mbb,
)
from repro.api import (
    BackendInfo,
    GraphSpec,
    MBBEngine,
    SolveReport,
    SolveRequest,
    available_backends,
    get_backend,
    register_backend,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # graph substrate
    "BipartiteGraph",
    "CSRBipartite",
    "IndexedBitGraph",
    "LEFT",
    "RIGHT",
    "bipartite_complement",
    # sparsity machinery
    "core_numbers",
    "degeneracy",
    "degeneracy_order",
    "k_core",
    "bicore_decomposition",
    "bicore_numbers",
    "bidegeneracy",
    "bidegeneracy_order",
    # solvers
    "Biclique",
    "MBBResult",
    "SparseConfig",
    "solve_mbb",
    "maximum_balanced_biclique",
    "dense_mbb",
    "hbv_mbb",
    "sparse_mbb",
    "basic_bb",
    # service API
    "MBBEngine",
    "SolveRequest",
    "SolveReport",
    "GraphSpec",
    "BackendInfo",
    "register_backend",
    "get_backend",
    "available_backends",
    # exceptions
    "ReproError",
    "GraphError",
    "SolverError",
    "InvalidParameterError",
    "BudgetExceededError",
    "DatasetError",
]
