"""The engine's wire format: graph sources, solve requests, solve reports.

The CLI, the benchmark harness, the process-pool batch executor and any
future server all speak this one format: a :class:`SolveRequest` says
*what to solve and how* (graph source, backend name, kernel, budgets,
seed) and a :class:`SolveReport` says *what happened* (the biclique,
optimality, statistics, timings, backend provenance and library version).
Both round-trip losslessly through JSON — ``from_json(x.to_json()) == x``
— which is what lets :meth:`MBBEngine.solve_many
<repro.api.engine.MBBEngine.solve_many>` ship requests to worker
processes as plain strings and what makes ``repro-mbb solve --json``
output machine-consumable.

Graphs are described by a :class:`GraphSpec` rather than embedded as live
objects: a spec names a built-in dataset, an edge-list file, an inline
edge list, or a synthetic-generator configuration, and is materialised on
the solving side.  Inline edge labels must be JSON-representable (ints or
strings) for the JSON round-trip to be lossless.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro._util import is_finite_number
from repro.exceptions import DatasetError, GraphFormatError, InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.mbb.dense import KERNEL_BITS
from repro.mbb.result import Biclique, MBBResult, SearchStats

#: ``GraphSpec.kind`` values.
SOURCE_DATASET = "dataset"
SOURCE_PATH = "path"
SOURCE_EDGES = "edges"
SOURCE_RANDOM = "random"
SOURCE_POWER_LAW = "power_law"

_SOURCE_KINDS = (
    SOURCE_DATASET,
    SOURCE_PATH,
    SOURCE_EDGES,
    SOURCE_RANDOM,
    SOURCE_POWER_LAW,
)

#: ``SolveReport.status`` values.  ``ok`` — the solve ran to a result
#: (possibly a budget-limited, non-optimal one).  ``error`` — the solve
#: failed; the report carries a :class:`SolveError` instead of a
#: biclique.  ``aborted`` — the engine gave up on the request from the
#: outside (watchdog deadline) rather than the solve failing inside.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_ABORTED = "aborted"

_STATUSES = (STATUS_OK, STATUS_ERROR, STATUS_ABORTED)

#: ``SolveError.kind`` taxonomy.  The engine's retry policy keys on
#: these, so they are part of the wire contract, not free-form text.
ERROR_KIND_INVALID_PARAMETER = "invalid_parameter"
ERROR_KIND_INVALID_REQUEST = "invalid_request"
ERROR_KIND_INJECTED_FAULT = "injected_fault"
ERROR_KIND_WORKER_CRASH = "worker_crash"
ERROR_KIND_TIMEOUT = "timeout"
ERROR_KIND_RESOURCE = "resource"
ERROR_KIND_INTERNAL = "internal"

ERROR_KINDS = (
    ERROR_KIND_INVALID_PARAMETER,
    ERROR_KIND_INVALID_REQUEST,
    ERROR_KIND_INJECTED_FAULT,
    ERROR_KIND_WORKER_CRASH,
    ERROR_KIND_TIMEOUT,
    ERROR_KIND_RESOURCE,
    ERROR_KIND_INTERNAL,
)


def _require_object(payload: object, what: str) -> None:
    """Reject a payload that is not a JSON object (a ``dict``)."""
    if not isinstance(payload, dict):
        raise InvalidParameterError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )


#: Python types accepted for each JSON scalar type.  ``bool`` subclasses
#: ``int`` but is rejected separately: ``true`` is never a number.
_WIRE_TYPES = {"an integer": (int,), "a number": (int, float), "a string": (str,)}


#: JSON types of the scalar :class:`GraphSpec` fields.
_SPEC_FIELD_TYPES = {
    "kind": "a string",
    "name": "a string",
    "path": "a string",
    "n_left": "an integer",
    "n_right": "an integer",
    "density": "a number",
    "avg_degree": "a number",
    "seed": "an integer",
}


#: JSON types of the scalar :class:`SolveRequest` fields.
_REQUEST_FIELD_TYPES = {
    "backend": "a string",
    "kernel": "a string",
    "node_budget": "an integer",
    "time_budget": "a number",
    "seed": "an integer",
    "tag": "a string",
}


def _check_scalar_fields(
    cls: type, data: Dict[str, object], types: Dict[str, str], what: str
) -> None:
    """Reject scalar fields of ``data`` whose JSON type is wrong.

    ``types`` maps a field name to a key of :data:`_WIRE_TYPES`.  ``null``
    passes only for fields of ``cls`` whose default is ``None``.  A number
    must be finite: ``NaN``, ``Infinity`` and overflowing literals such
    as ``1e400`` are rejected.
    """
    nullable = {cls_field.name for cls_field in fields(cls) if cls_field.default is None}
    for name, wire_type in types.items():
        value = data.get(name)
        if value is None and (name not in data or name in nullable):
            continue
        if isinstance(value, bool) or not isinstance(value, _WIRE_TYPES[wire_type]):
            raise InvalidParameterError(
                f"{what} field {name!r} must be {wire_type}, got {value!r}"
            )
        if wire_type == "a number" and not is_finite_number(value):
            raise InvalidParameterError(
                f"{what} field {name!r} must be a finite number, got {value!r}"
            )


def _edges_from_wire(edges: object) -> Tuple[Tuple[Vertex, Vertex], ...]:
    """Parse inline ``edges``: a list of ``[left, right]`` int/str pairs."""
    expected = "a list of [left, right] pairs of integer or string labels"
    if not isinstance(edges, (list, tuple)):
        raise InvalidParameterError(f"graph spec 'edges' must be {expected}")
    for edge in edges:
        if not (
            isinstance(edge, (list, tuple))
            and len(edge) == 2
            and all(
                isinstance(label, (int, str)) and not isinstance(label, bool)
                for label in edge
            )
        ):
            raise InvalidParameterError(
                f"graph spec 'edges' must be {expected}, got entry {edge!r}"
            )
    return tuple((u, v) for u, v in edges)


@dataclass(frozen=True)
class SolveError:
    """Structured failure attached to a non-``ok`` :class:`SolveReport`.

    ``kind`` is one of :data:`ERROR_KINDS` (machine-matchable — the
    retry policy and the CLI exit code dispatch on it), ``message`` is
    the human-readable cause, and ``attempts`` counts how many times the
    engine submitted the request before giving up (1 = failed on the
    first and only try).
    """

    kind: str
    message: str
    attempts: int = 1

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SolveError":
        """Inverse of :meth:`to_dict`."""
        known = {error_field.name for error_field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown error fields {sorted(unknown)}; expected {sorted(known)}"
            )
        return cls(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class GraphSpec:
    """A JSON-serialisable description of where a graph comes from."""

    kind: str
    #: ``dataset``: registry name of a built-in KONECT stand-in.
    name: Optional[str] = None
    #: ``path``: edge-list file (KONECT-style ``left right`` lines).
    path: Optional[str] = None
    #: ``edges``: inline edge list.
    edges: Optional[Tuple[Tuple[Vertex, Vertex], ...]] = None
    #: ``random`` / ``power_law``: generator parameters.
    n_left: Optional[int] = None
    n_right: Optional[int] = None
    density: Optional[float] = None
    avg_degree: Optional[float] = None
    seed: int = 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def dataset(cls, name: str) -> "GraphSpec":
        """A built-in dataset stand-in by name."""
        return cls(kind=SOURCE_DATASET, name=name)

    @classmethod
    def from_path(cls, path: str) -> "GraphSpec":
        """An edge-list file on disk."""
        return cls(kind=SOURCE_PATH, path=str(path))

    @classmethod
    def inline(cls, edges) -> "GraphSpec":
        """An inline edge list (labels must be JSON-representable)."""
        return cls(kind=SOURCE_EDGES, edges=tuple((u, v) for u, v in edges))

    @classmethod
    def random(
        cls, n_left: int, n_right: int, density: float, *, seed: int = 0
    ) -> "GraphSpec":
        """A uniform random bipartite graph."""
        return cls(
            kind=SOURCE_RANDOM,
            n_left=n_left,
            n_right=n_right,
            density=density,
            seed=seed,
        )

    @classmethod
    def power_law(
        cls, n_left: int, n_right: int, avg_degree: float, *, seed: int = 0
    ) -> "GraphSpec":
        """A power-law (Chung-Lu) sparse bipartite graph."""
        return cls(
            kind=SOURCE_POWER_LAW,
            n_left=n_left,
            n_right=n_right,
            avg_degree=avg_degree,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # materialisation and (de)serialisation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Apply :meth:`from_dict`'s field type checks to this spec.

        A spec built in Python skips the wire checks, so
        :meth:`materialise` and the engine's spec-keyed lookup run these
        first: a float size, a string density or a float seed is then an
        :class:`~repro.exceptions.InvalidParameterError`, as it is on the
        wire.  ``None`` passes for every field: from Python,
        ``seed=None`` asks the generators for a fresh graph on every
        materialise.
        """
        present = {
            name: value
            for name in _SPEC_FIELD_TYPES
            if (value := getattr(self, name)) is not None
        }
        _check_scalar_fields(type(self), present, _SPEC_FIELD_TYPES, "graph spec")

    def materialise(self) -> BipartiteGraph:
        """Build the described :class:`BipartiteGraph` (after :meth:`validate`)."""
        self.validate()
        if self.kind == SOURCE_DATASET:
            from repro.workloads.datasets import load_dataset

            if self.name is None:
                raise InvalidParameterError("dataset graph spec requires 'name'")
            try:
                return load_dataset(self.name)
            except DatasetError as exc:
                raise InvalidParameterError(str(exc)) from None
        if self.kind == SOURCE_PATH:
            from repro.graph.io import read_edge_list

            if self.path is None:
                raise InvalidParameterError("path graph spec requires 'path'")
            try:
                return read_edge_list(self.path)
            except GraphFormatError as exc:
                raise InvalidParameterError(f"{self.path}: {exc}") from None
        if self.kind == SOURCE_EDGES:
            return BipartiteGraph(edges=self.edges or ())
        if self.kind == SOURCE_RANDOM:
            from repro.graph.generators import random_bipartite

            if self.n_left is None or self.n_right is None or self.density is None:
                raise InvalidParameterError(
                    "random graph spec requires n_left, n_right and density"
                )
            return random_bipartite(
                self.n_left, self.n_right, self.density, seed=self.seed
            )
        if self.kind == SOURCE_POWER_LAW:
            from repro.graph.generators import random_power_law_bipartite

            if self.n_left is None or self.n_right is None or self.avg_degree is None:
                raise InvalidParameterError(
                    "power_law graph spec requires n_left, n_right and avg_degree"
                )
            return random_power_law_bipartite(
                self.n_left, self.n_right, self.avg_degree, seed=self.seed
            )
        raise InvalidParameterError(
            f"unknown graph source kind {self.kind!r}; expected one of {_SOURCE_KINDS}"
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form with ``None`` fields omitted."""
        payload: Dict[str, object] = {"kind": self.kind}
        for spec_field in fields(self):
            if spec_field.name == "kind":
                continue
            value = getattr(self, spec_field.name)
            if value is None:
                continue
            if spec_field.name == "edges":
                value = [[u, v] for u, v in value]
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GraphSpec":
        """Inverse of :meth:`to_dict`."""
        _require_object(payload, "graph spec")
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown graph spec fields {sorted(unknown)}; expected {sorted(known)}"
            )
        if "kind" not in payload:
            raise InvalidParameterError("graph spec requires a 'kind'")
        _check_scalar_fields(cls, payload, _SPEC_FIELD_TYPES, "graph spec")
        data = dict(payload)
        if data.get("edges") is not None:
            data["edges"] = _edges_from_wire(data["edges"])
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SolveRequest:
    """One solve: a graph source plus backend, kernel, budgets and seed."""

    graph: GraphSpec
    backend: str = "auto"
    kernel: str = KERNEL_BITS
    node_budget: Optional[int] = None
    time_budget: Optional[float] = None
    #: Seed forwarded to randomised backends (local search, adp1..adp4).
    seed: int = 0
    #: Free-form caller label, echoed back in the report (batch bookkeeping).
    tag: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form with ``None`` fields omitted."""
        payload: Dict[str, object] = {"graph": self.graph.to_dict()}
        for request_field in fields(self):
            if request_field.name == "graph":
                continue
            value = getattr(self, request_field.name)
            if value is not None:
                payload[request_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SolveRequest":
        """Inverse of :meth:`to_dict`."""
        _require_object(payload, "solve request")
        if "graph" not in payload:
            raise InvalidParameterError("solve request requires a 'graph' spec")
        known = {request_field.name for request_field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown request fields {sorted(unknown)}; expected {sorted(known)}"
            )
        _check_scalar_fields(cls, payload, _REQUEST_FIELD_TYPES, "solve request")
        data = dict(payload)
        data["graph"] = GraphSpec.from_dict(data["graph"])  # type: ignore[arg-type]
        return cls(**data)  # type: ignore[arg-type]

    def validate(self) -> None:
        """Apply :meth:`from_dict`'s field type checks to this request.

        A request built in Python skips the wire checks, so
        :meth:`~repro.api.engine.MBBEngine.solve` and ``solve_many`` run
        these first: a float budget or seed, or a string budget, is then
        an :class:`~repro.exceptions.InvalidParameterError`, as it is on
        the wire, whichever path the request takes.  The graph spec is
        checked with :meth:`GraphSpec.validate`.  ``None`` passes for
        every field, as it does in :meth:`to_dict`.
        """
        present = {
            name: value
            for name in _REQUEST_FIELD_TYPES
            if (value := getattr(self, name)) is not None
        }
        _check_scalar_fields(type(self), present, _REQUEST_FIELD_TYPES, "solve request")
        self.graph.validate()

    def to_json(self) -> str:
        """Serialise to a JSON string (lossless; see :meth:`from_json`)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "SolveRequest":
        """Parse a request serialised with :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one :class:`SolveRequest`, JSON round-trippable."""

    request: SolveRequest
    side_size: int
    #: The biclique's vertices, sorted by ``repr`` for determinism.
    left: Tuple[Vertex, ...]
    right: Tuple[Vertex, ...]
    optimal: bool
    terminated_at: Optional[str]
    elapsed_seconds: float
    #: Full :class:`~repro.mbb.result.SearchStats` counters (ints, plus
    #: the float ``order_seconds`` ordering-overhead stage stat).
    stats: Dict[str, float] = field(default_factory=dict)
    #: Backend that actually ran (``auto`` resolves to ``dense``/``sparse``).
    backend: str = "auto"
    kernel: str = KERNEL_BITS
    #: Shape of the solved graph (|L|, |R|, |E|) — provenance for batch
    #: consumers that never materialise the graph themselves.
    num_left: int = 0
    num_right: int = 0
    num_edges: int = 0
    #: Library version that produced the report (provenance).
    version: str = ""
    #: One of :data:`STATUS_OK` / :data:`STATUS_ERROR` /
    #: :data:`STATUS_ABORTED`; non-``ok`` reports carry :attr:`error`.
    status: str = STATUS_OK
    #: Structured failure cause for non-``ok`` reports, ``None`` otherwise.
    error: Optional[SolveError] = None

    @classmethod
    def from_result(
        cls,
        request: SolveRequest,
        result: MBBResult,
        *,
        backend: str,
        kernel: str,
        graph: Optional[BipartiteGraph] = None,
    ) -> "SolveReport":
        """Build a report from a solver's :class:`MBBResult`."""
        from repro import __version__

        biclique = result.biclique
        return cls(
            request=request,
            side_size=result.side_size,
            left=tuple(sorted(biclique.left, key=repr)),
            right=tuple(sorted(biclique.right, key=repr)),
            optimal=result.optimal,
            terminated_at=result.terminated_at,
            elapsed_seconds=result.elapsed_seconds,
            stats=asdict(result.stats),
            backend=backend,
            kernel=kernel,
            num_left=graph.num_left if graph is not None else 0,
            num_right=graph.num_right if graph is not None else 0,
            num_edges=graph.num_edges if graph is not None else 0,
            version=__version__,
        )

    @classmethod
    def from_error(
        cls,
        request: SolveRequest,
        error: SolveError,
        *,
        status: str = STATUS_ERROR,
        stats: Optional[Dict[str, float]] = None,
    ) -> "SolveReport":
        """Build a non-``ok`` report for a request that produced no result.

        The report keeps the request's backend/kernel as provenance (no
        resolution happened) and an empty biclique; ``stats`` lets the
        engine attach retry accounting (``worker_retries`` etc.) even to
        failed requests.
        """
        from repro import __version__

        if status not in (STATUS_ERROR, STATUS_ABORTED):
            raise InvalidParameterError(
                f"error reports must have status 'error' or 'aborted', got {status!r}"
            )
        return cls(
            request=request,
            side_size=0,
            left=(),
            right=(),
            optimal=False,
            terminated_at=None,
            elapsed_seconds=0.0,
            stats=dict(stats or {}),
            backend=request.backend,
            kernel=request.kernel,
            version=__version__,
            status=status,
            error=error,
        )

    @property
    def ok(self) -> bool:
        """``True`` when the solve produced a result (status ``ok``)."""
        return self.status == STATUS_OK

    @property
    def biclique(self) -> Biclique:
        """The reported biclique as a :class:`Biclique` object."""
        return Biclique.of(self.left, self.right)

    def to_result(self) -> MBBResult:
        """Reconstruct the :class:`MBBResult` the report was built from."""
        return MBBResult(
            biclique=self.biclique,
            optimal=self.optimal,
            terminated_at=self.terminated_at,
            stats=SearchStats(**self.stats),
            elapsed_seconds=self.elapsed_seconds,
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (request nested via :meth:`SolveRequest.to_dict`)."""
        return {
            "request": self.request.to_dict(),
            "side_size": self.side_size,
            "left": list(self.left),
            "right": list(self.right),
            "optimal": self.optimal,
            "terminated_at": self.terminated_at,
            "elapsed_seconds": self.elapsed_seconds,
            "stats": dict(self.stats),
            "backend": self.backend,
            "kernel": self.kernel,
            "num_left": self.num_left,
            "num_right": self.num_right,
            "num_edges": self.num_edges,
            "version": self.version,
            "status": self.status,
            "error": self.error.to_dict() if self.error is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SolveReport":
        """Inverse of :meth:`to_dict`."""
        if "request" not in payload:
            raise InvalidParameterError("solve report requires a 'request'")
        known = {report_field.name for report_field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown report fields {sorted(unknown)}; expected {sorted(known)}"
            )
        data = dict(payload)
        data["request"] = SolveRequest.from_dict(dict(data["request"]))  # type: ignore[arg-type]
        data["left"] = tuple(data.get("left", ()))  # type: ignore[arg-type]
        data["right"] = tuple(data.get("right", ()))  # type: ignore[arg-type]
        data["stats"] = dict(data.get("stats", {}))  # type: ignore[arg-type]
        known_stats = {stat.name for stat in fields(SearchStats)}
        unknown_stats = set(data["stats"]) - known_stats
        if unknown_stats:
            raise InvalidParameterError(
                f"unknown report stats {sorted(unknown_stats)}; "
                f"not SearchStats fields"
            )
        status = data.get("status", STATUS_OK)
        if status not in _STATUSES:
            raise InvalidParameterError(
                f"unknown report status {status!r}; expected one of {_STATUSES}"
            )
        if data.get("error") is not None:
            data["error"] = SolveError.from_dict(dict(data["error"]))  # type: ignore[arg-type]
        return cls(**data)  # type: ignore[arg-type]

    def to_json(self) -> str:
        """Serialise to a JSON string (lossless; see :meth:`from_json`)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "SolveReport":
        """Parse a report serialised with :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))


def sweep_requests(
    datasets,
    backends,
    *,
    kernel: str = KERNEL_BITS,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    seed: int = 0,
) -> list:
    """Expand ``datasets x backends`` into a list of :class:`SolveRequest`.

    This is the generator behind ``repro-mbb sweep``: it turns "all the
    stand-ins with these backends" into the request array that
    ``repro-mbb batch`` (and :meth:`MBBEngine.solve_many
    <repro.api.engine.MBBEngine.solve_many>`) consume, so a fleet-style
    dataset sweep is one command instead of a hand-written JSON file.
    Every request is tagged ``"<dataset>:<backend>"`` so the reports
    identify their cell without consulting the request's graph spec.

    Dataset names are validated against the stand-in registry, backend
    names against the solver registry, the kernel, budgets and seed
    against the request field types (:meth:`SolveRequest.validate`), and
    the budgets as the engine checks them (a non-negative node budget, a
    finite non-negative time budget) up front, so a typo fails with
    :class:`~repro.exceptions.InvalidParameterError` before a single
    (potentially long) solve starts and no request file holds a value
    ``batch`` rejects.  Budgets are only attached to
    requests whose backend supports them (``supports_budgets`` in the
    registry metadata): a sweep mixing exact solvers with budget-less
    heuristics like ``mvb`` must not have every heuristic cell rejected —
    and the whole batch with it — because of a budget meant for the
    solvers.
    """
    from repro.api.registry import available_backends, get_backend
    from repro.workloads.datasets import DATASETS

    # The request field types first, as SolveRequest.validate applies them,
    # so the range checks below only ever compare numbers.
    present = {
        name: value
        for name, value in (
            ("kernel", kernel),
            ("node_budget", node_budget),
            ("time_budget", time_budget),
            ("seed", seed),
        )
        if value is not None
    }
    _check_scalar_fields(SolveRequest, present, _REQUEST_FIELD_TYPES, "sweep")
    if node_budget is not None and node_budget < 0:
        raise InvalidParameterError(
            f"node_budget must be non-negative, got {node_budget}"
        )
    if time_budget is not None and not (
        is_finite_number(time_budget) and time_budget >= 0
    ):
        raise InvalidParameterError(
            f"time_budget must be a finite non-negative number, got {time_budget}"
        )
    dataset_names = list(datasets)
    backend_names = list(backends)
    unknown_datasets = sorted(set(dataset_names) - set(DATASETS))
    if unknown_datasets:
        raise InvalidParameterError(
            f"unknown datasets {unknown_datasets}; see 'repro-mbb datasets'"
        )
    unknown_backends = sorted(set(backend_names) - set(available_backends()))
    if unknown_backends:
        raise InvalidParameterError(
            f"unknown backends {unknown_backends}; see 'repro-mbb backends'"
        )
    if not dataset_names or not backend_names:
        raise InvalidParameterError(
            "sweep needs at least one dataset and one backend"
        )
    budgeted = {
        backend: get_backend(backend).info.supports_budgets
        for backend in backend_names
    }
    return [
        SolveRequest(
            graph=GraphSpec.dataset(dataset),
            backend=backend,
            kernel=kernel,
            node_budget=node_budget if budgeted[backend] else None,
            time_budget=time_budget if budgeted[backend] else None,
            seed=seed,
            tag=f"{dataset}:{backend}",
        )
        for dataset in dataset_names
        for backend in backend_names
    ]
