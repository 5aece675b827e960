"""Built-in backend registrations.

Importing this module (which :mod:`repro.api` does on package import, and
the registry does lazily on first lookup) registers every solver shipped
with the library:

==================  =====================================================
name                solver
==================  =====================================================
``auto``            density-based choice between ``dense`` and ``sparse``
``dense``           Algorithm 3, ``denseMBB``
``sparse``          Algorithm 4, ``hbvMBB`` (the sparse framework)
``basic``           Algorithm 1, the unoptimised branch and bound
``size-constrained``  MBB through rising ``(k, k)`` decisions
``brute_force``     exhaustive oracle (small graphs only)
``extbbclq``        ExtBBClq, the state-of-the-art exact baseline
``mbe``             adapted maximal-biclique-enumeration engine
``adp1``..``adp4``  the paper's assembled baselines (heuristic + MBE)
``mvb``             polynomial maximum *vertex* biclique, balanced-trimmed
``local_search``    POLS / SBMNAS local search
==================  =====================================================

Every ``run`` implementation reports through the caller-owned
:class:`~repro.mbb.context.SearchContext`, so one context carries the
incumbent, the statistics, the budgets and the cancellation hook across
whichever backend executes.
"""

from __future__ import annotations

from typing import Optional

from repro.api.registry import BackendInfo, FunctionBackend, register_backend
from repro.baselines.adapted import ADAPTED_BASELINES, run_adapted_baseline
from repro.baselines.brute_force import brute_force_mbb
from repro.baselines.extbbclq import ext_bbclq
from repro.baselines.local_search import pols, sbmnas
from repro.baselines.mbe import adapted_fmbe, adapted_imbea
from repro.baselines.mvb import maximum_vertex_biclique
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.prepared import PreparedGraph
from repro.mbb.basic_bb import basic_bb
from repro.mbb.context import SearchContext
from repro.mbb.dense import KERNEL_BITS, KERNEL_SETS, dense_mbb
from repro.mbb.result import Biclique, MBBResult
from repro.mbb.size_constrained import size_constrained_mbb
from repro.mbb.sparse import SparseConfig, hbv_mbb

_BOTH_KERNELS = (KERNEL_BITS, KERNEL_SETS)


def _run_dense(
    graph: BipartiteGraph,
    context: SearchContext,
    *,
    kernel: str,
    seed: int,
    initial_best: Optional[Biclique] = None,
    branching: Optional[str] = None,
) -> MBBResult:
    kwargs = {} if branching is None else {"branching": branching}
    return dense_mbb(
        graph, context=context, kernel=kernel, initial_best=initial_best, **kwargs
    )


def _run_sparse(
    graph: BipartiteGraph,
    context: SearchContext,
    *,
    kernel: str,
    seed: int,
    sparse_config: Optional[SparseConfig] = None,
    prepared: Optional[PreparedGraph] = None,
) -> MBBResult:
    if sparse_config is None:
        config = SparseConfig(kernel=kernel)
    else:
        # An explicit config wins, including its kernel choice (matching
        # the historical ``solve_mbb`` contract); its budgets are adopted
        # by the shared context only when the caller set no budget of its
        # own (the engine expresses a request time budget as ``deadline``).
        config = sparse_config
        if context.node_budget is None and config.node_budget is not None:
            context.node_budget = config.node_budget
        if (
            context.time_budget is None
            and context.deadline is None
            and config.time_budget is not None
        ):
            context.time_budget = config.time_budget
    return hbv_mbb(graph, config=config, context=context, prepared=prepared)


def _run_auto(
    graph: BipartiteGraph,
    context: SearchContext,
    *,
    kernel: str,
    seed: int,
    sparse_config: Optional[SparseConfig] = None,
    prepared: Optional[PreparedGraph] = None,
) -> MBBResult:
    # The prepared snapshot only serves the sparse framework; the dense
    # resolution drops it (the dense solver indexes into bitsets itself).
    if resolve_auto(graph) == "dense":
        return _run_dense(graph, context, kernel=kernel, seed=seed)
    return _run_sparse(
        graph,
        context,
        kernel=kernel,
        seed=seed,
        sparse_config=sparse_config,
        prepared=prepared,
    )


def resolve_auto(graph: BipartiteGraph) -> str:
    """Backend name the ``auto`` backend picks for ``graph``."""
    from repro.mbb.solver import METHOD_DENSE, choose_method

    return "dense" if choose_method(graph) == METHOD_DENSE else "sparse"


def _run_basic(
    graph: BipartiteGraph, context: SearchContext, *, kernel: str, seed: int
) -> MBBResult:
    return basic_bb(graph, context=context)


def _run_size_constrained(
    graph: BipartiteGraph, context: SearchContext, *, kernel: str, seed: int
) -> MBBResult:
    return size_constrained_mbb(graph, kernel=kernel, context=context)


def _run_brute_force(
    graph: BipartiteGraph,
    context: SearchContext,
    *,
    kernel: str,
    seed: int,
    max_side: Optional[int] = None,
) -> MBBResult:
    kwargs = {} if max_side is None else {"max_side": max_side}
    context.offer_biclique(brute_force_mbb(graph, **kwargs))
    return MBBResult(
        biclique=context.best,
        optimal=True,
        stats=context.stats,
        elapsed_seconds=context.elapsed,
    )


def _run_extbbclq(
    graph: BipartiteGraph, context: SearchContext, *, kernel: str, seed: int
) -> MBBResult:
    return ext_bbclq(graph, context=context)


def _run_mbe(
    graph: BipartiteGraph,
    context: SearchContext,
    *,
    kernel: str,
    seed: int,
    engine: str = "imbea",
    use_core_bound: bool = True,
) -> MBBResult:
    engines = {"imbea": adapted_imbea, "fmbe": adapted_fmbe}
    if engine not in engines:
        raise InvalidParameterError(
            f"unknown MBE engine {engine!r}; expected one of {sorted(engines)}"
        )
    return engines[engine](graph, context=context, use_core_bound=use_core_bound)


def _make_adapted_runner(name: str):
    def run(
        graph: BipartiteGraph,
        context: SearchContext,
        *,
        kernel: str,
        seed: int,
        heuristic_iterations: int = 2000,
    ) -> MBBResult:
        return run_adapted_baseline(
            graph,
            name,
            context=context,
            seed=seed,
            heuristic_iterations=heuristic_iterations,
        )

    return run


def _run_mvb(
    graph: BipartiteGraph, context: SearchContext, *, kernel: str, seed: int
) -> MBBResult:
    context.offer_biclique(maximum_vertex_biclique(graph).balanced())
    return MBBResult(
        biclique=context.best,
        optimal=False,
        stats=context.stats,
        elapsed_seconds=context.elapsed,
    )


def _run_local_search(
    graph: BipartiteGraph,
    context: SearchContext,
    *,
    kernel: str,
    seed: int,
    variant: str = "pols",
    iterations: int = 2000,
) -> MBBResult:
    searchers = {"pols": pols, "sbmnas": sbmnas}
    if variant not in searchers:
        raise InvalidParameterError(
            f"unknown local-search variant {variant!r}; expected one of "
            f"{sorted(searchers)}"
        )
    context.offer_biclique(searchers[variant](graph, iterations=iterations, seed=seed))
    return MBBResult(
        biclique=context.best,
        optimal=False,
        stats=context.stats,
        elapsed_seconds=context.elapsed,
    )


def _register(name: str, function, **info_kwargs) -> None:
    register_backend(
        FunctionBackend(BackendInfo(name=name, **info_kwargs), function),
        replace=True,
    )


_register(
    "auto",
    _run_auto,
    description="density-based choice between denseMBB and hbvMBB",
    exact=True,
    kernels=_BOTH_KERNELS,
    supports_prepared=True,
)
_register(
    "dense",
    _run_dense,
    description="Algorithm 3 denseMBB (reductions, polynomial cases)",
    exact=True,
    kernels=_BOTH_KERNELS,
)
_register(
    "sparse",
    _run_sparse,
    description="Algorithm 4 hbvMBB (heuristic, bridging, verification)",
    exact=True,
    kernels=_BOTH_KERNELS,
    supports_prepared=True,
)
_register(
    "basic",
    _run_basic,
    description="Algorithm 1, the unoptimised branch and bound",
    exact=True,
)
_register(
    "size-constrained",
    _run_size_constrained,
    description="MBB through rising (k, k) size-constrained decisions",
    exact=True,
    kernels=_BOTH_KERNELS,
)
_register(
    "brute_force",
    _run_brute_force,
    description="exhaustive subset-enumeration oracle (small graphs only)",
    exact=True,
    supports_budgets=False,
)
_register(
    "extbbclq",
    _run_extbbclq,
    description="ExtBBClq exact baseline (Zhou, Rossi and Hao 2018)",
    exact=True,
)
_register(
    "mbe",
    _run_mbe,
    description="adapted maximal-biclique-enumeration engine (iMBEA/FMBE)",
    exact=True,
)
for _name in sorted(ADAPTED_BASELINES):
    _register(
        _name,
        _make_adapted_runner(_name),
        description="assembled baseline: local-search heuristic + adapted MBE",
        exact=True,
        supports_seed=True,
    )
_register(
    "mvb",
    _run_mvb,
    description="polynomial maximum vertex biclique, balanced-trimmed (heuristic)",
    exact=False,
    supports_budgets=False,
)
_register(
    "local_search",
    _run_local_search,
    description="POLS/SBMNAS local search (heuristic)",
    exact=False,
    supports_budgets=False,
    supports_seed=True,
)
