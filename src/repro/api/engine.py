"""The :class:`MBBEngine` service facade: one solve, or a parallel batch.

The engine is the single entry point everything else is a wrapper around:

* :meth:`MBBEngine.solve_graph` — solve an in-memory graph with a named
  backend (what :func:`repro.solve_mbb` delegates to);
* :meth:`MBBEngine.solve` — execute one :class:`~repro.api.request.SolveRequest`
  end to end (find or materialise the graph, run the backend, build the
  report);
* :meth:`MBBEngine.solve_many` — execute a batch of requests over owned
  worker processes, one request per worker at a time, with results
  returned in request order regardless of completion order.  Requests
  cross the process boundary as their JSON wire form, so every batch run
  also exercises the serialisation path a future network server would use.
  Dispatch has spec affinity (:func:`_choose_request`): a repeated graph
  goes back to the worker that already prepared it.

Budgets flow through one mechanism: the engine builds a single
:class:`~repro.mbb.context.SearchContext` per request carrying the node
budget, the time budget and an absolute deadline, and hands it to the
backend; solvers abort cooperatively through the context instead of each
plumbing its own budget arguments.

The engine also owns the :class:`PreparedGraphCache`: a bounded LRU of
:class:`~repro.graph.prepared.PreparedGraph` snapshots keyed by graph
content fingerprint, fronted by an exact index from ``dataset`` request
specs to those bundles.  Backends that declare ``supports_prepared`` (the
sparse framework and ``auto``) receive the cached snapshot, so repeated
``solve()`` calls, ``solve_many`` batches over one graph and
``repro-mbb sweep`` parameter sweeps amortise the whole
CSR + ``N_{<=2}`` + peel pipeline across solves; a repeated dataset
request also skips materialisation, the fingerprint and the ``==``
check that guards every fingerprint hit.  Every engine shares
one process-wide cache by default — which is exactly what makes the
amortisation reach the batch workers, each of which constructs a
fresh engine per request — and each solve reports its hit/miss and
``prepare_seconds`` through :class:`~repro.mbb.result.SearchStats`.

Batches are **fault-tolerant**: every worker entry point is a fault
boundary (:func:`_guarded_solve`) converting exceptions into
``status="error"`` reports with a structured
:class:`~repro.api.request.SolveError`.  A batch runs on lanes, each one
worker process holding at most one request, so a worker death is the
crash of the request it was running and a lane past its deadline is that
request's timeout: only that lane's worker is killed and restarted, under
a bounded :class:`RetryPolicy`, and no other request is touched.  A
request that keeps killing its worker is finished as a ``worker_crash``
report (or re-run in-process on explicit opt-in), and one whose worker
produces nothing by its deadline is marked ``aborted``.  A worker also
exits once its parent is gone, so a parent killed mid-batch leaves no
worker behind.  The deterministic chaos harness in
:mod:`repro.devtools.faults` arms the injection points compiled into
these boundaries, and reprolint RPL009 keeps every worker entry point
behind one.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from multiprocessing.connection import Connection, wait
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from repro._util import is_finite_number
from repro.api.registry import SolverBackend, get_backend
from repro.api.request import (
    ERROR_KIND_INJECTED_FAULT,
    ERROR_KIND_INTERNAL,
    ERROR_KIND_INVALID_PARAMETER,
    ERROR_KIND_INVALID_REQUEST,
    ERROR_KIND_RESOURCE,
    ERROR_KIND_TIMEOUT,
    ERROR_KIND_WORKER_CRASH,
    SOURCE_DATASET,
    STATUS_ABORTED,
    GraphSpec,
    SolveError,
    SolveReport,
    SolveRequest,
)
from repro.devtools import faults
from repro.devtools.faults import InjectedFault
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.prepared import PreparedGraph, graph_fingerprint
from repro.mbb import solver as _solver
from repro.mbb.context import SearchContext
from repro.mbb.dense import KERNEL_BITS, KERNEL_SETS
from repro.mbb.result import MBBResult

_KERNELS = (KERNEL_BITS, KERNEL_SETS)


@dataclass(frozen=True)
class RetryPolicy:
    """How :meth:`MBBEngine.solve_many` reacts to failing requests.

    ``max_attempts`` bounds how many times one request is sent to a
    worker (1 = never retry); a request that kills its worker on every
    attempt is finished as a ``worker_crash`` error report.  A worker
    runs one request at a time, so its death implicates exactly that
    request, and no other request ever spends an attempt on it.
    ``max_pool_rebuilds`` bounds how many worker processes one batch
    restarts after crashes and watchdog kills; once it is spent, a lane
    whose worker dies stays down.  A request that no lane will run — its
    attempts are spent, or no lane is left — runs in-process only if it
    never killed a worker or ``in_process_fallback`` is set, and is
    otherwise finished as a ``worker_crash`` report.  The fallback is
    opt-in because a request that genuinely segfaults or OOMs a worker
    would then take the parent (and every collected report) with it.
    Backoff before the n-th restart grows exponentially from
    ``backoff_seconds`` and is capped at ``backoff_cap_seconds``.
    ``watchdog_grace_seconds`` is added to a request's ``time_budget`` to
    form its completion deadline; the clock starts when the request is
    sent to an idle worker, which starts it at once, so a queued request
    burns none of its budget waiting.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_cap_seconds: float = 1.0
    max_pool_rebuilds: int = 3
    watchdog_grace_seconds: float = 5.0
    in_process_fallback: bool = False

    def __post_init__(self) -> None:
        _check_finite("backoff_seconds", self.backoff_seconds)
        _check_finite("backoff_cap_seconds", self.backoff_cap_seconds)
        _check_finite("watchdog_grace_seconds", self.watchdog_grace_seconds)
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_pool_rebuilds < 0:
            raise InvalidParameterError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )
        if self.backoff_seconds < 0 or self.backoff_cap_seconds < 0:
            raise InvalidParameterError("backoff seconds must be non-negative")
        if self.watchdog_grace_seconds < 0:
            raise InvalidParameterError("watchdog grace must be non-negative")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """No retries, no restarts: fail fast into error reports."""
        return cls(max_attempts=1, max_pool_rebuilds=0)

    def backoff_for(self, restart: int) -> float:
        """Seconds to back off before the ``restart``-th restart (1-based)."""
        exponent = max(restart - 1, 0)
        return min(self.backoff_seconds * (2**exponent), self.backoff_cap_seconds)


class PreparedGraphCache:
    """Bounded LRU of :class:`PreparedGraph` snapshots, keyed two ways.

    The bundle key is the graph's
    :func:`~repro.graph.prepared.graph_fingerprint` — content, not object
    identity, so two materialisations of the same request spec (e.g.
    across ``solve()`` calls or sweep cells) share one snapshot.  A
    fingerprint is a cache key, not a proof: every fingerprint hit
    re-verifies ``cached.graph == graph`` and a mismatch (a ``repr``
    collision between distinct graphs) is handled as a miss that
    overwrites the colliding entry — a collision can cost a
    re-preparation but never leaks one graph's arrays into another
    graph's solve.

    The second key is exact: the name of a ``dataset``
    :class:`~repro.api.request.GraphSpec`, mapped to the fingerprint of
    the bundle that spec produced.  A dataset materialises as a pure
    function of its name, so a spec hit hands out the bundle's own graph
    and a repeated request skips materialisation, the fingerprint and
    the ``==`` alike.  A spec key only ever names a bundle holding a
    graph the engine materialised itself, never a caller's graph, which
    the caller could still mutate.  A key leaves the index with the
    bundle it names, so the index holds one key per cached dataset
    bundle (no two stand-ins are equal graphs) and never outgrows the
    bundles.  ``hits``/``misses`` count every :meth:`get`;
    ``spec_hits``/``spec_misses`` count the gets that carried a spec key.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                f"cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.spec_hits = 0
        self.spec_misses = 0
        #: Always 0: batches no longer hand snapshots to workers, so there
        #: is no handoff left to degrade.  Kept because existing callers
        #: read it after each batch.
        self.handoff_degradations = 0
        self._entries: "OrderedDict[str, PreparedGraph]" = OrderedDict()
        #: Dataset name -> fingerprint of a bundle in ``_entries``.
        self._specs: Dict[str, str] = {}

    def _graph_for_spec(self, spec_key: str) -> Optional[BipartiteGraph]:
        """The cached graph a spec key produced, or ``None``.

        A peek: it counts nothing and moves nothing.  Solving that graph
        through :meth:`get` with the same key is what counts the hit.
        """
        fingerprint = self._specs.get(spec_key)
        return None if fingerprint is None else self._entries[fingerprint].graph

    def get(
        self, graph: BipartiteGraph, *, spec_key: Optional[str] = None
    ) -> Tuple[PreparedGraph, bool]:
        """Return ``(prepared, hit)`` for ``graph``, preparing on a miss.

        ``spec_key`` may only come with a graph materialised from that
        spec and handed over to the cache, or with the graph
        :meth:`_graph_for_spec` handed out for it.  In the second case
        the bundle recorded under the key is a spec hit: no fingerprint,
        no ``==``.  Otherwise the fingerprint path runs and records the
        key for the bundle it returns, which then holds ``graph``.
        """
        if spec_key is not None:
            fingerprint = self._specs.get(spec_key)
            if fingerprint is not None:
                cached = self._entries[fingerprint]
                if cached.graph is graph:
                    self._entries.move_to_end(fingerprint)
                    self.spec_hits += 1
                    self.hits += 1
                    return cached, True
            self.spec_misses += 1
        fingerprint = graph_fingerprint(graph)
        cached = self._entries.get(fingerprint)
        if cached is not None and cached.graph == graph:
            if spec_key is not None:
                # Spec hits trust the bundle's graph unchecked, and this
                # bundle may hold a caller's graph (from ``solve_graph`` or
                # ``solve(request, graph=g)``), which the caller can still
                # mutate.  Wrap the shared CSR around the materialised
                # graph just proven equal instead.
                cached = self._entries[fingerprint] = PreparedGraph(graph, cached.csr)
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            prepared, hit = cached, True
        else:
            self.misses += 1
            if cached is not None:
                self._forget_specs(fingerprint)
            prepared, hit = PreparedGraph.prepare(graph), False
            self._entries[fingerprint] = prepared
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._forget_specs(evicted)
        if spec_key is not None:
            self._specs[spec_key] = fingerprint
        return prepared, hit

    def _forget_specs(self, fingerprint: str) -> None:
        """Drop the spec keys of a bundle that is leaving the cache."""
        for key in [key for key, value in self._specs.items() if value == fingerprint]:
            del self._specs[key]

    def clear(self) -> None:
        """Drop every cached snapshot and spec key (counters are kept)."""
        self._entries.clear()
        self._specs.clear()

    def stats(self) -> Dict[str, int]:
        """Cumulative counters plus the current size, for observability."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "spec_hits": self.spec_hits,
            "spec_misses": self.spec_misses,
            "size": len(self._entries),
            "capacity": self.capacity,
        }

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide default cache shared by every engine that is not given a
#: private one.  Sharing at module level is what lets batch workers —
#: which build a fresh ``MBBEngine`` per request — amortise
#: preparation across the requests they each execute.
_SHARED_PREPARED_CACHE = PreparedGraphCache()


def _check_max_workers(max_workers: Optional[int]) -> None:
    """Reject a worker count that is not an int of at least one.

    ``None`` means the default.  A bool is not a count, although
    ``True`` compares equal to 1.
    """
    if max_workers is None:
        return
    if isinstance(max_workers, bool) or not isinstance(max_workers, int) or max_workers < 1:
        raise InvalidParameterError(
            f"max_workers must be a positive integer, got {max_workers!r}"
        )


def _check_finite(name: str, seconds: Optional[float]) -> None:
    """Reject a duration that is not a finite number (``None`` means unset)."""
    if seconds is not None and (isinstance(seconds, bool) or not is_finite_number(seconds)):
        raise InvalidParameterError(f"{name} must be a finite number, got {seconds!r}")


def _classify_error(exc: BaseException) -> str:
    """Map an exception to its wire-format ``SolveError.kind``."""
    if isinstance(exc, InjectedFault):
        return ERROR_KIND_INJECTED_FAULT
    if isinstance(exc, InvalidParameterError):
        return ERROR_KIND_INVALID_PARAMETER
    if isinstance(exc, (MemoryError, OSError)):
        return ERROR_KIND_RESOURCE
    return ERROR_KIND_INTERNAL


def _error_report(
    request: SolveRequest, exc: BaseException, *, attempts: int = 1
) -> SolveReport:
    """Convert an exception into the error report the wire carries."""
    return SolveReport.from_error(
        request,
        SolveError(
            kind=_classify_error(exc),
            message=f"{type(exc).__name__}: {exc}",
            attempts=attempts,
        ),
    )


def _with_stat_increments(report: SolveReport, **increments: int) -> SolveReport:
    """Return ``report`` with stat counters bumped (reports are frozen)."""
    stats = dict(report.stats)
    for key, delta in increments.items():
        stats[key] = stats.get(key, 0) + delta
    return dataclass_replace(report, stats=stats)


def _guarded_solve(
    request: SolveRequest, *, engine: Optional["MBBEngine"] = None
) -> SolveReport:
    """The per-request fault boundary every execution path runs through.

    Any exception a solve raises — including an armed ``raise`` fault —
    becomes a ``status="error"`` report instead of propagating, so one
    failing request can never poison a batch.  The ``worker.hang`` and
    ``worker.solve`` injection points live here, keyed by the request
    tag, which is what makes chaos scenarios land on a chosen request
    whichever worker runs it.
    """
    try:
        tag = request.tag or ""
        faults.hit("worker.hang", key=tag)
        faults.hit("worker.solve", key=tag)
        return (engine if engine is not None else MBBEngine()).solve(request)
    except Exception as exc:
        return _error_report(request, exc)


def _invalid_request_report(payload: str, exc: Exception) -> SolveReport:
    """Error report for a payload that does not parse into a request.

    The placeholder request keeps the report wire-complete (a report
    requires a request) while making clear nothing was solved.
    """
    placeholder = SolveRequest(graph=GraphSpec.inline(()), tag="<unparseable>")
    return SolveReport.from_error(
        placeholder,
        SolveError(
            kind=ERROR_KIND_INVALID_REQUEST,
            message=f"{type(exc).__name__}: {exc}",
        ),
    )


def _solve_request_json(payload: str) -> str:
    """One request in a worker process: JSON request in, JSON report out.

    The worker reconstructs the request from its wire form, which keeps
    the batch path on the exact same format a network server would
    receive.  A fault boundary: every failure comes back as an error
    *report*, never an exception.
    """
    try:
        request = SolveRequest.from_json(payload)
    except Exception as exc:
        return _invalid_request_report(payload, exc).to_json()
    return _guarded_solve(request).to_json()


def _lane_main(conn: Connection) -> None:
    """A lane's worker process: serve JSON requests from ``conn`` in turn.

    Module-level so that every start method can run it.  The worker
    answers each payload with its :func:`_solve_request_json` report and
    exits on the stop message (``None``), when the pipe closes, or once
    its parent's sentinel is ready.  The pipe cannot show a dead parent:
    workers forked later hold copies of its parent end.  The sentinel
    can, once those later workers have exited too; the newest worker has
    no later sibling, so the workers of a killed parent exit newest
    first, each after the request it is running.  Between requests the
    worker keeps the graphs it prepared in its process-wide
    :class:`PreparedGraphCache`, and :func:`_choose_request` routes
    repeats back to it.  Only a worker death ends a request without a
    report.
    """
    parent = multiprocessing.parent_process()
    while True:
        if parent is not None and parent.sentinel in wait([conn, parent.sentinel]):
            return  # nobody is left to read a report
        try:
            payload = conn.recv()
        except EOFError:
            return
        if payload is None:
            return
        conn.send(_solve_request_json(payload))


def _choose_request(
    pending: Sequence[int],
    keys: Mapping[int, int],
    lane: int,
    ran: Sequence[Optional[AbstractSet[int]]],
) -> int:
    """The position in ``pending`` of the request idle lane ``lane`` runs next.

    ``keys`` maps a request's batch index to its interned graph spec, and
    ``ran[slot]`` holds the specs lane ``slot``'s current worker has run,
    or is ``None`` for a dead lane.  The lane takes the first pending
    request whose spec it has run, or whose spec no live lane has run:
    a repeat goes back to the worker that prepared its graph, and is
    left for that worker while it is busy.  When no request qualifies
    the lane takes the head of the queue, so no lane idles while work is
    pending.  Every spec of an all-distinct batch qualifies, so such a
    batch dispatches in FIFO order.  A record only steers: a worker
    whose cache no longer holds the graph prepares it again, and its
    cache checks every hit against the spec key or the fingerprint.
    """
    own = ran[lane]
    others: Set[int] = set()
    for slot, specs in enumerate(ran):
        if slot != lane and specs is not None:
            others |= specs
    for position, idx in enumerate(pending):
        key = keys[idx]
        if key in own or key not in others:
            return position
    return 0


class _Lane:
    """One owned worker process, the parent's end of its pipe, and the
    batch index of the request in flight (``None`` while idle).

    ``deadline`` is that request's watchdog deadline.  It is stamped at
    send: an idle worker starts a request at once.  ``specs`` holds the
    interned graph specs this worker has been sent.  A restarted lane is
    a new ``_Lane``, so its record starts empty, like its new worker's
    cache.
    """

    def __init__(self, process: multiprocessing.Process, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.idx: Optional[int] = None
        self.deadline: Optional[float] = None
        self.specs: Set[int] = set()

    @classmethod
    def start(cls) -> Optional["_Lane"]:
        """Start a worker, or return ``None`` where the platform refuses."""
        try:
            conn, child_end = multiprocessing.Pipe()
        except OSError:
            return None
        process = multiprocessing.Process(target=_lane_main, args=(child_end,), daemon=True)
        try:
            process.start()
        except OSError:
            conn.close()
            return None
        finally:
            # Only the worker keeps its end, so a dead worker reads as EOF.
            child_end.close()
        return cls(process, conn)

    def stop(self) -> None:
        """Reap the worker: an idle one is told to exit, a busy one killed.

        Closing ``conn`` would not stop an idle worker: workers forked
        later hold copies of it, so the worker would never read EOF.
        """
        if self.idx is None:
            try:
                self.conn.send(None)
            except OSError:
                pass  # the worker is already gone
        else:
            self.process.kill()
        self.process.join()
        self.conn.close()


class MBBEngine:
    """Facade dispatching solves to registered backends.

    Parameters
    ----------
    max_workers:
        Default number of worker processes for :meth:`solve_many`
        (defaults to the CPU count, capped by the requests to run).
    prepared_cache:
        The :class:`PreparedGraphCache` this engine threads through
        backends that declare ``supports_prepared``.  Defaults to one
        process-wide shared cache; pass a private instance to isolate a
        workload (or size the LRU differently).
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        prepared_cache: Optional[PreparedGraphCache] = None,
    ) -> None:
        _check_max_workers(max_workers)
        self.max_workers = max_workers
        self.prepared_cache = (
            prepared_cache if prepared_cache is not None else _SHARED_PREPARED_CACHE
        )

    # ------------------------------------------------------------------
    # single solves
    # ------------------------------------------------------------------
    def solve_graph(
        self,
        graph: BipartiteGraph,
        *,
        backend: str = "auto",
        kernel: str = KERNEL_BITS,
        node_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
        seed: int = 0,
        **backend_options: object,
    ) -> MBBResult:
        """Solve an in-memory graph with a named backend.

        This is the programmatic fast path used by :func:`repro.solve_mbb`;
        it skips the request/report wire format but runs the exact same
        validation and dispatch.
        """
        result, _, _ = self._dispatch(
            graph,
            backend=backend,
            kernel=kernel,
            node_budget=node_budget,
            time_budget=time_budget,
            seed=seed,
            spec_key=None,
            **backend_options,
        )
        return result

    def solve(
        self, request: SolveRequest, *, graph: Optional[BipartiteGraph] = None
    ) -> SolveReport:
        """Execute one request end to end and return its report.

        When the backend takes prepared snapshots, a ``dataset`` spec is
        first looked up by name in the :class:`PreparedGraphCache`'s spec
        index: a repeated request solves the cached bundle's own graph
        and materialises nothing.  Other spec kinds always materialise.
        ``graph`` lets a caller that already materialised the request's
        graph (e.g. to print its shape) skip a second materialisation; it
        must be the graph the request's spec describes.  Nothing proves
        that, so such a solve neither reads nor records the spec memo.
        """
        request.validate()
        spec_key = None
        if (
            graph is None
            and request.graph.kind == SOURCE_DATASET
            and get_backend(request.backend).info.supports_prepared
        ):
            spec_key = request.graph.name
            graph = self.prepared_cache._graph_for_spec(spec_key)
        if graph is None:
            graph = request.graph.materialise()
        result, resolved, kernel = self._dispatch(
            graph,
            backend=request.backend,
            kernel=request.kernel,
            node_budget=request.node_budget,
            time_budget=request.time_budget,
            seed=request.seed,
            spec_key=spec_key,
        )
        return SolveReport.from_result(
            request, result, backend=resolved, kernel=kernel, graph=graph
        )

    # ------------------------------------------------------------------
    # batch solves
    # ------------------------------------------------------------------
    def solve_many(
        self,
        requests: Iterable[SolveRequest],
        *,
        max_workers: Optional[int] = None,
        parallel: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        watchdog_seconds: Optional[float] = None,
    ) -> List[SolveReport]:
        """Execute a batch of requests, one per worker process at a time.

        Results are returned in request order regardless of which worker
        finishes first, so a batch is deterministic given deterministic
        backends.  The batch runs on up to ``max_workers`` lanes, each
        one owned worker process holding at most one request.  Each
        request crosses to its worker as its JSON wire form only; the
        worker materialises, fingerprints and prepares the graph itself,
        through its process-wide :class:`PreparedGraphCache`, so a graph
        repeated in a batch is prepared once per lane that runs it, and
        repeats go back to that lane: an idle lane takes the first
        pending request whose spec it has run or no live lane has run,
        and the head of the queue when none qualifies
        (:func:`_choose_request`).  No lane idles while work is pending,
        and a batch of distinct specs dispatches in request order.  The
        parent does no per-request graph work.  Each request enforces
        its own budgets inside its worker.  With ``parallel=False`` (or fewer
        than two requests to run) the batch runs serially in-process and
        produces the same reports apart from timings; so does a batch on
        a platform that refuses to start worker processes.

        Before any solve, on both paths, each request is checked with
        :meth:`SolveRequest.validate` and must survive its wire form
        (:meth:`SolveRequest.wire_json`).  A request that fails either
        check is an ``invalid_parameter`` report carrying the caller's
        own request, and a worker receives exactly the payload that was
        checked.

        **Fault tolerance.**  Every request is executed behind a fault
        boundary: a failing solve yields a ``status="error"`` report
        carrying a structured :class:`~repro.api.request.SolveError`
        instead of poisoning the batch.  A worker death (SIGKILL, OOM)
        costs only the request it was running: the lane's worker is
        restarted under ``retry_policy`` (defaults to
        :class:`RetryPolicy`'s bounded exponential backoff) and the
        request is sent again, up to ``RetryPolicy.max_attempts`` times.
        A request that keeps killing its worker, or that killed one and
        finds no lane left once ``RetryPolicy.max_pool_rebuilds`` is
        spent, is finished as a ``worker_crash`` error report (or re-run
        in-process when the policy opts into ``in_process_fallback``);
        a request that killed no worker and finds no lane left runs
        in-process.  A request whose worker produces nothing by its
        deadline — ``time_budget`` plus
        ``RetryPolicy.watchdog_grace_seconds``, further clamped by
        ``watchdog_seconds`` for the whole batch, with the clock
        starting when the request is sent to an idle worker — is marked
        ``status="aborted"`` and its worker is killed.  A wedged solve
        therefore cannot hang ``solve_many`` *provided it has a
        deadline*: a request with no ``time_budget`` in a batch run
        without ``watchdog_seconds`` is waited on indefinitely.  The
        accounting lands in each report's stats: ``worker_retries``
        counts the runs beyond the first and ``pool_rebuilds`` the
        worker deaths the request itself caused (a watchdog kill shows
        as ``aborted`` instead).
        """
        batch: Sequence[SolveRequest] = list(requests)
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        _check_max_workers(max_workers)
        _check_finite("watchdog_seconds", watchdog_seconds)
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise InvalidParameterError(
                f"watchdog_seconds must be positive, got {watchdog_seconds}"
            )
        reports: List[Optional[SolveReport]] = [None] * len(batch)
        payloads: List[Optional[str]] = [None] * len(batch)
        for idx, request in enumerate(batch):
            try:
                # Checked here, in the parent: a worker that rejected the
                # wire form could only report a placeholder request, and
                # the watchdog limit is ``time_budget`` plus grace, so a
                # non-finite or non-number budget must not reach the
                # deadline arithmetic.
                request.validate()
                payloads[idx] = request.wire_json()
            except InvalidParameterError as exc:
                reports[idx] = _error_report(request, exc)
        runnable = [idx for idx, payload in enumerate(payloads) if payload is not None]
        if not parallel or len(runnable) < 2:
            for idx in runnable:
                reports[idx] = _guarded_solve(batch[idx], engine=self)
        else:
            self._run_lanes(
                batch,
                payloads,
                reports,
                min(max_workers or self.max_workers or os.cpu_count() or 1, len(runnable)),
                policy=policy,
                watchdog_seconds=watchdog_seconds,
            )
        return cast(List[SolveReport], reports)

    def _run_lanes(
        self,
        batch: Sequence[SolveRequest],
        payloads: Sequence[Optional[str]],
        reports: List[Optional[SolveReport]],
        workers: int,
        *,
        policy: RetryPolicy,
        watchdog_seconds: Optional[float],
    ) -> None:
        """Run every checked payload on ``workers`` lanes into ``reports``."""
        attempts = [0] * len(batch)  # runs, on a worker or in-process
        crashes = [0] * len(batch)  # worker deaths each request caused
        pending = deque(idx for idx, payload in enumerate(payloads) if payload is not None)
        restarts = 0
        # Each request's graph spec as a small int, interned once here: the
        # dispatch scans compare ints, where hashing an inline-edge spec
        # would cost O(E) per scan.  Keyed by the spec's JSON form, which
        # is what the worker reads and which hashes even where the spec
        # does not (list edges pass the wire check).
        spec_ids: Dict[str, int] = {}
        keys = {
            idx: spec_ids.setdefault(json.dumps(batch[idx].graph.to_dict()), len(spec_ids))
            for idx in pending
        }

        def take(slot: int) -> int:
            """Pop the pending request idle lane ``slot`` runs next."""
            ran = [None if lane is None else lane.specs for lane in lanes]
            position = _choose_request(pending, keys, slot, ran)
            idx = pending[position]
            del pending[position]
            return idx

        def send(lane: _Lane, idx: int) -> None:
            request = batch[idx]
            limit = None
            if request.time_budget is not None:
                limit = request.time_budget + policy.watchdog_grace_seconds
            if watchdog_seconds is not None:
                limit = watchdog_seconds if limit is None else min(limit, watchdog_seconds)
            attempts[idx] += 1
            lane.idx = idx
            lane.specs.add(keys[idx])
            lane.deadline = None if limit is None else time.perf_counter() + limit
            try:
                lane.conn.send(payloads[idx])
            except OSError:
                pass  # a worker that died idle reads as EOF below: a crash

        def finish(idx: int, report: SolveReport) -> None:
            if report.error is not None and report.error.attempts != attempts[idx]:
                report = dataclass_replace(
                    report,
                    error=dataclass_replace(report.error, attempts=attempts[idx]),
                )
            increments = {}
            if attempts[idx] > 1:
                increments["worker_retries"] = attempts[idx] - 1
            if crashes[idx]:
                increments["pool_rebuilds"] = crashes[idx]
            if increments:
                report = _with_stat_increments(report, **increments)
            reports[idx] = report

        def give_up(idx: int) -> None:
            """Finish a request that no lane will run.

            In-process only if it never killed a worker or the policy
            opts in: a request that genuinely segfaults or OOMs a worker
            would take the parent, and every collected report, with it.
            """
            if crashes[idx] and not policy.in_process_fallback:
                finish(
                    idx,
                    SolveReport.from_error(
                        batch[idx],
                        SolveError(
                            kind=ERROR_KIND_WORKER_CRASH,
                            message=(
                                f"worker process died executing this request "
                                f"({crashes[idx]} of {attempts[idx]} runs)"
                            ),
                        ),
                    ),
                )
            else:
                attempts[idx] += 1
                finish(idx, _guarded_solve(batch[idx], engine=self))

        lanes: List[Optional[_Lane]] = []

        def reap(lane: _Lane) -> None:
            lane.stop()
            lanes[lanes.index(lane)] = None

        try:
            # A platform that refuses worker processes starts no lane, and
            # every request then runs in-process through give_up.
            lanes = [lane for lane in (_Lane.start() for _ in range(workers)) if lane is not None]
            while True:
                for slot, lane in enumerate(lanes):
                    if lane is not None and lane.idx is None and pending:
                        send(lane, take(slot))
                # Restart a dead lane only for work no live lane can take.
                for slot, lane in enumerate(lanes):
                    if lane is None and pending and restarts < policy.max_pool_rebuilds:
                        restarts += 1
                        time.sleep(policy.backoff_for(restarts))
                        lane = lanes[slot] = _Lane.start()
                        if lane is not None:
                            send(lane, take(slot))
                busy = [lane for lane in lanes if lane is not None and lane.idx is not None]
                if not busy:
                    break
                deadlines = [lane.deadline for lane in busy if lane.deadline is not None]
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.perf_counter())
                ready = wait([lane.conn for lane in busy], timeout)
                now = time.perf_counter()
                for lane in busy:
                    idx = cast(int, lane.idx)
                    if lane.conn in ready:
                        try:
                            text = lane.conn.recv()
                        except (EOFError, OSError):
                            # The worker died running this request, and
                            # only this request.
                            crashes[idx] += 1
                            reap(lane)
                            if attempts[idx] < policy.max_attempts:
                                pending.appendleft(idx)
                            else:
                                give_up(idx)
                        else:
                            lane.idx = None
                            finish(idx, SolveReport.from_json(text))
                    elif lane.deadline is not None and now > lane.deadline:
                        reap(lane)
                        finish(
                            idx,
                            SolveReport.from_error(
                                batch[idx],
                                SolveError(
                                    kind=ERROR_KIND_TIMEOUT,
                                    message=(
                                        "watchdog: worker produced no report "
                                        "before the request deadline"
                                    ),
                                ),
                                status=STATUS_ABORTED,
                            ),
                        )
            while pending:
                give_up(pending.popleft())
        finally:
            # Also the abort path: a raised exception kills busy workers
            # and never leaves a worker behind.
            for lane in lanes:
                if lane is not None:
                    lane.stop()

    def shutdown(self) -> None:
        """Release engine resources; a no-op kept for existing callers.

        Every batch stops its own worker processes before
        :meth:`solve_many` returns, and cached snapshots are plain
        in-process objects, so the engine holds nothing to release.
        """

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        graph: BipartiteGraph,
        *,
        backend: str,
        kernel: str,
        node_budget: Optional[int],
        time_budget: Optional[float],
        seed: int,
        spec_key: Optional[str],
        **backend_options: object,
    ) -> Tuple[MBBResult, str, str]:
        """Validate, build the shared context, run the backend.

        ``spec_key`` is the request's dataset name when :meth:`solve`
        materialised or peeked ``graph`` for it, or ``None`` for a graph
        no spec vouches for; the prepared cache uses it to recognise a
        spec hit and to record a miss.
        """
        solver = get_backend(backend)
        self._validate(solver, kernel, node_budget, time_budget)
        # The time budget is expressed solely as an absolute deadline so
        # enter_node pays one clock read per search node, and so the
        # cutoff survives the context being handed across solver stages.
        context = SearchContext(node_budget=node_budget)
        if time_budget is not None:
            context.deadline = time.perf_counter() + time_budget
        resolved = backend
        if backend == "auto":
            from repro.api.backends import resolve_auto

            resolved = resolve_auto(graph)
        if (
            solver.info.supports_prepared
            and "prepared" not in backend_options
            # ``auto`` resolving to the dense solver would drop the
            # snapshot unused — don't pollute the cache for it.
            and resolved != "dense"
        ):
            prepare_start = time.perf_counter()
            prepared, hit = self.prepared_cache.get(graph, spec_key=spec_key)
            context.stats.prepare_seconds += time.perf_counter() - prepare_start
            if hit:
                context.stats.prepared_cache_hits += 1
            else:
                context.stats.prepared_cache_misses += 1
            backend_options["prepared"] = prepared
            # The cache has just proven the bundle's graph identical or
            # equal to ``graph``; solving that object lets the backend's
            # ensure_prepared_for take its identity fast path.
            graph = prepared.graph
        result = solver.run(graph, context, kernel=kernel, seed=seed, **backend_options)
        return result, resolved, kernel

    @staticmethod
    def _validate(
        solver: SolverBackend,
        kernel: str,
        node_budget: Optional[int],
        time_budget: Optional[float],
    ) -> None:
        if kernel not in _KERNELS:
            raise InvalidParameterError(
                f"unknown kernel {kernel!r}; expected one of {_KERNELS}"
            )
        info = solver.info
        if info.kernels and kernel not in info.kernels:
            raise InvalidParameterError(
                f"backend {info.name!r} supports kernels {info.kernels}, got {kernel!r}"
            )
        if not info.supports_budgets and (
            node_budget is not None or time_budget is not None
        ):
            raise InvalidParameterError(
                f"backend {info.name!r} does not support node/time budgets"
            )
        if node_budget is not None and node_budget < 0:
            raise InvalidParameterError(
                f"node_budget must be non-negative, got {node_budget}"
            )
        _check_finite("time_budget", time_budget)
        if time_budget is not None and time_budget < 0:
            raise InvalidParameterError(
                f"time_budget must be non-negative, got {time_budget}"
            )


def _solve_graph_with_default_engine(
    graph: BipartiteGraph, **options: object
) -> MBBResult:
    """Module-level engine entry point for :func:`repro.mbb.solver.solve_mbb`.

    A fresh :class:`MBBEngine` per call is cheap — the expensive state
    (the prepared-graph cache) is process-wide and shared by default.
    Module-level (not a lambda/closure) so the reference stays picklable
    if it ever crosses a process boundary (RPL004 discipline).
    """
    return MBBEngine().solve_graph(graph, **options)


# Dependency inversion for the layering contract (RPL007): the kernel
# layer's solve_mbb must not import this service module, so the engine
# installs itself into the solver's registration hook at import time.
_solver.register_engine(_solve_graph_with_default_engine)
