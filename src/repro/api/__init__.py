"""Service API: backend registry, request/report wire format, engine.

This package is the library's service surface — the layer a CLI, a
benchmark harness or a network server builds on:

* :mod:`repro.api.registry` — named solver backends with capability
  metadata (:func:`register_backend` / :func:`get_backend` /
  :func:`available_backends`);
* :mod:`repro.api.request` — :class:`SolveRequest` / :class:`SolveReport`
  dataclasses with lossless JSON round-trips, :class:`GraphSpec` graph
  sources, and the :func:`sweep_requests` dataset-sweep expander behind
  ``repro-mbb sweep``;
* :mod:`repro.api.engine` — the :class:`MBBEngine` facade with
  :meth:`~MBBEngine.solve`, the batch-parallel
  :meth:`~MBBEngine.solve_many`, and the per-graph
  :class:`PreparedGraphCache` that amortises the
  CSR + ``N_{<=2}`` + peel pipeline across repeated solves.

Quickstart
----------
>>> from repro.api import GraphSpec, MBBEngine, SolveRequest, SolveReport
>>> request = SolveRequest(graph=GraphSpec.random(12, 12, 0.6, seed=1),
...                        backend="dense")
>>> report = MBBEngine().solve(request)
>>> report.side_size == SolveReport.from_json(report.to_json()).side_size
True
"""

from repro.api import backends as _backends  # noqa: F401  (registers built-ins)
from repro.api.engine import MBBEngine, PreparedGraphCache, RetryPolicy
from repro.api.registry import (
    BackendInfo,
    FunctionBackend,
    SolverBackend,
    available_backends,
    backend_infos,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.api.request import (
    ERROR_KINDS,
    STATUS_ABORTED,
    STATUS_ERROR,
    STATUS_OK,
    GraphSpec,
    SolveError,
    SolveReport,
    SolveRequest,
    sweep_requests,
)

__all__ = [
    "BackendInfo",
    "FunctionBackend",
    "SolverBackend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "backend_infos",
    "GraphSpec",
    "SolveRequest",
    "SolveReport",
    "SolveError",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_ABORTED",
    "ERROR_KINDS",
    "sweep_requests",
    "MBBEngine",
    "PreparedGraphCache",
    "RetryPolicy",
]
