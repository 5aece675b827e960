"""The :class:`MBBEngine` service facade: one solve, or a parallel batch.

The engine is the single entry point everything else is a wrapper around:

* :meth:`MBBEngine.solve_graph` — solve an in-memory graph with a named
  backend (what :func:`repro.solve_mbb` delegates to);
* :meth:`MBBEngine.solve` — execute one :class:`~repro.api.request.SolveRequest`
  end to end (find or materialise the graph, run the backend, build the
  report);
* :meth:`MBBEngine.solve_many` — execute a batch of requests over a
  :class:`~concurrent.futures.ProcessPoolExecutor`, with results returned
  in request order regardless of completion order.  Requests cross the
  process boundary as their JSON wire form, so every batch run also
  exercises the serialisation path a future network server would use.

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
amortisation reach the process-pool workers, each of which constructs a
fresh engine per request — and each solve reports its hit/miss and
``prepare_seconds`` through :class:`~repro.mbb.result.SearchStats`.

Batches are **fault-tolerant**: every worker entry point is a fault
boundary (:func:`_guarded_solve`) converting exceptions into
``status="error"`` reports with a structured
:class:`~repro.api.request.SolveError`, worker deaths rebuild the pool
under a bounded :class:`RetryPolicy` (re-submitting only the unfinished
requests — crash suspects one at a time, so blame can never land on an
innocent co-flier — and finishing reproducible crashers as
``worker_crash`` reports, or isolating them in-process on explicit
opt-in), and a per-request
deadline watchdog — whose clock starts when a worker picks the request
up — terminates hung workers and marks their requests ``aborted``.  The
deterministic chaos harness in :mod:`repro.devtools.faults` arms the
injection points compiled into these boundaries, and reprolint RPL009
keeps every pool-submitted callable behind one.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    STATUS_ERROR,
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

#: How often the batch loop re-polls while some submitted request is
#: still waiting for a worker slot: its watchdog deadline can only be
#: stamped once its future reports ``running()``, and ``wait()`` would
#: otherwise block indefinitely on a deadline-less future.
_WATCHDOG_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """How :meth:`MBBEngine.solve_many` reacts to failing requests.

    ``max_attempts`` bounds *submissions* per request (1 = never retry);
    a request whose submissions are exhausted while it keeps crashing
    the pool is finished as a ``worker_crash`` error report.  Requests
    implicated in a crash are re-submitted one at a time with nothing
    else in flight, so only the actual crasher can repeatedly burn
    attempts — a request that merely shared the pool with it is
    implicated at most once.  Setting
    ``in_process_fallback`` instead re-runs such a poison request — and
    a batch whose pool-rebuild budget ran out — in-process behind the
    same fault boundary; it is opt-in because a request that genuinely
    segfaults or OOMs a worker would then take the parent (and every
    collected report) with it.  ``max_pool_rebuilds`` bounds how many
    times a broken pool is rebuilt before the remainder of the batch
    stops being retried (or, with ``in_process_fallback``, degrades to
    serial in-process execution).  Backoff before the n-th rebuild
    grows exponentially from ``backoff_seconds`` and is capped at
    ``backoff_cap_seconds``.  ``retryable_kinds`` names the
    :data:`~repro.api.request.ERROR_KINDS` worth resubmitting when a
    worker returns an error *report*; it is empty by default because
    worker crashes never produce a report to inspect — they surface as
    ``BrokenProcessPool`` and are always re-submitted up to
    ``max_attempts`` through that path.  ``watchdog_grace_seconds`` is
    added to a request's ``time_budget`` to form its completion
    deadline; the deadline clock starts when a worker actually picks
    the request up, not at submission, so queued requests do not burn
    their budget waiting for a slot.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_cap_seconds: float = 1.0
    max_pool_rebuilds: int = 3
    retryable_kinds: Tuple[str, ...] = ()
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
        """No retries, no rebuilds: fail fast into error reports."""
        return cls(max_attempts=1, max_pool_rebuilds=0, retryable_kinds=())

    def backoff_for(self, rebuild: int) -> float:
        """Seconds to back off before the ``rebuild``-th rebuild (1-based)."""
        exponent = max(rebuild - 1, 0)
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
#: private one.  Sharing at module level is what lets process-pool
#: workers — which build a fresh ``MBBEngine`` per request — amortise
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
    independent of pool scheduling.
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
    """Worker-process entry point: JSON request in, JSON report out.

    Module-level so it pickles by reference; the worker reconstructs the
    request from its wire form, which keeps the process-pool path on the
    exact same format a network server would receive.  A fault boundary:
    every failure comes back as an error *report*, never an exception.
    """
    try:
        request = SolveRequest.from_json(payload)
    except Exception as exc:
        return _invalid_request_report(payload, exc).to_json()
    return _guarded_solve(request).to_json()


class MBBEngine:
    """Facade dispatching solves to registered backends.

    Parameters
    ----------
    max_workers:
        Default process-pool size for :meth:`solve_many` (defaults to the
        CPU count, capped by the batch size).
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
        """Execute a batch of requests, in a process pool when possible.

        Results are returned in request order regardless of which worker
        finishes first, so a batch is deterministic given deterministic
        backends.  Each request crosses to its worker as its JSON wire
        form only; the worker materialises, fingerprints and prepares the
        graph itself, through its process-wide :class:`PreparedGraphCache`,
        so a graph repeated in a batch is prepared once per worker and the
        parent does no per-request graph work.  Each request enforces its
        own budgets inside its worker.  With ``parallel=False`` (or a single-request batch, or a
        platform where process pools are unavailable) the batch runs
        serially in-process and produces the same reports apart from
        timings.

        **Fault tolerance.**  Every request is executed behind a fault
        boundary: a failing solve yields a ``status="error"`` report
        carrying a structured :class:`~repro.api.request.SolveError`
        instead of poisoning the batch.  A worker death
        (``BrokenProcessPool`` — SIGKILL, OOM) costs only the in-flight
        requests: the pool is rebuilt under ``retry_policy`` (defaults
        to :class:`RetryPolicy`'s bounded exponential backoff) and the
        unfinished requests are re-submitted, up to
        ``RetryPolicy.max_attempts`` submissions each; a request that
        keeps crashing the pool — and the whole crash cohort once
        ``RetryPolicy.max_pool_rebuilds`` is exhausted — is finished as
        a ``worker_crash`` error report (or re-run in-process when the
        policy opts into ``in_process_fallback``).  A request whose
        worker produces nothing by its deadline — ``time_budget`` plus
        ``RetryPolicy.watchdog_grace_seconds``, further clamped by
        ``watchdog_seconds`` for the whole batch, with the clock
        starting when a worker actually picks the request up — is
        marked ``status="aborted"`` and its hung worker is terminated.
        A wedged solve therefore cannot hang ``solve_many`` *provided
        it has a deadline*: a request with no ``time_budget`` in a
        batch run without ``watchdog_seconds`` is waited on
        indefinitely.  The accounting lands in each report's stats
        (``worker_retries``, ``pool_rebuilds``).
        """
        batch: Sequence[SolveRequest] = list(requests)
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        _check_max_workers(max_workers)
        _check_finite("watchdog_seconds", watchdog_seconds)
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise InvalidParameterError(
                f"watchdog_seconds must be positive, got {watchdog_seconds}"
            )
        if not batch:
            return []
        if not parallel or len(batch) == 1:
            return [self._solve_isolated(request) for request in batch]
        workers = min(max_workers or self.max_workers or os.cpu_count() or 1, len(batch))
        pool = self._make_pool(workers)
        if pool is None:
            # Process pools need working semaphores/fork support; fall
            # back to a serial batch on platforms that refuse them.
            return [self._solve_isolated(request) for request in batch]
        return self._run_pool_batch(
            batch,
            pool,
            workers,
            policy=policy,
            watchdog_seconds=watchdog_seconds,
        )

    def _run_pool_batch(
        self,
        batch: Sequence[SolveRequest],
        pool: ProcessPoolExecutor,
        workers: int,
        *,
        policy: RetryPolicy,
        watchdog_seconds: Optional[float],
    ) -> List[SolveReport]:
        """The deadline-aware collection loop behind :meth:`solve_many`."""
        reports: List[Optional[SolveReport]] = [None] * len(batch)
        attempts = [0] * len(batch)  # submissions (pool or in-process)
        rebuilds_seen = [0] * len(batch)  # crash events each request lived through
        limits: List[Optional[float]] = [None] * len(batch)  # relative budgets
        deadlines: List[Optional[float]] = [None] * len(batch)  # stamped at start
        index_of: Dict[Future, int] = {}
        rebuilds = 0

        #: Requests waiting for a worker slot, as ``(idx, count_attempt)``.
        #: At most ``workers`` futures are ever outstanding (see ``pump``),
        #: so a queued request is held *here* — with no future and no
        #: deadline clock — never inside the executor's call queue, where
        #: its future would be marked running while it merely waits.
        pending: "deque[Tuple[int, bool]]" = deque()

        def submit(idx: int, *, count_attempt: bool = True) -> None:
            request = batch[idx]
            future = pool.submit(_solve_request_json, request.to_json())
            if count_attempt:
                attempts[idx] += 1
            index_of[future] = idx
            limit = None
            if request.time_budget is not None:
                limit = request.time_budget + policy.watchdog_grace_seconds
            if watchdog_seconds is not None:
                limit = (
                    watchdog_seconds if limit is None else min(limit, watchdog_seconds)
                )
            limits[idx] = limit
            # The deadline is *not* stamped here: the clock starts when a
            # worker actually picks the request up (see stamp_deadlines),
            # so a queued request cannot be declared overdue — and its
            # batch falsely aborted — just for waiting out earlier waves.
            deadlines[idx] = None

        def pump() -> None:
            """Feed pending requests to the pool, one per free worker slot.

            A crash *suspect* — a request that already lived through a
            pool crash and has not finished — is only ever submitted
            alone, with nothing else in flight: a further crash then
            implicates exactly that request, so poison attribution can
            never burn an innocent co-flier's attempts and declare it a
            crasher.  Quarantine serialises only the post-crash recovery
            wave; a healthy batch pumps at full width.
            """
            if any(rebuilds_seen[idx] for idx in index_of.values()):
                return  # a suspect is in flight alone; let it finish
            while pending and len(index_of) < workers:
                idx, count_attempt = pending[0]
                if rebuilds_seen[idx] and index_of:
                    return  # quarantine: wait for the pool to drain first
                try:
                    submit(idx, count_attempt=count_attempt)
                except (BrokenProcessPool, RuntimeError):
                    # The pool died (BrokenProcessPool) or was already
                    # terminated (submit-after-shutdown RuntimeError); leave
                    # the queue intact — the loop rebuilds before pumping
                    # again, via the crash path or the empty-pool guard.
                    return
                pending.popleft()
                if rebuilds_seen[idx]:
                    return  # the suspect flies solo

        def drain_pending_in_process() -> None:
            # No pool left to run them.  Pending requests were never in
            # flight during a crash, so serial in-process execution is as
            # safe for them as the documented ``parallel=False`` path.
            while pending:
                idx, _ = pending.popleft()
                solve_in_process(idx)

        def stamp_deadlines() -> None:
            now = time.perf_counter()
            for future, idx in index_of.items():
                if (
                    deadlines[idx] is None
                    and limits[idx] is not None
                    and future.running()
                ):
                    deadlines[idx] = now + limits[idx]

        def solve_in_process(idx: int) -> None:
            attempts[idx] += 1
            finish(idx, self._solve_isolated(batch[idx], attempts=attempts[idx]))

        def finish_crashed(idx: int, why: str) -> None:
            finish(
                idx,
                SolveReport.from_error(
                    batch[idx],
                    SolveError(
                        kind=ERROR_KIND_WORKER_CRASH,
                        message=f"worker process died executing this request ({why})",
                        attempts=attempts[idx],
                    ),
                ),
            )

        def finish(idx: int, report: SolveReport) -> None:
            if report.error is not None and report.error.attempts != attempts[idx]:
                report = dataclass_replace(
                    report,
                    error=dataclass_replace(report.error, attempts=attempts[idx]),
                )
            increments = {}
            if attempts[idx] > 1:
                increments["worker_retries"] = attempts[idx] - 1
            if rebuilds_seen[idx]:
                increments["pool_rebuilds"] = rebuilds_seen[idx]
            if increments:
                report = _with_stat_increments(report, **increments)
            reports[idx] = report

        def next_timeout() -> Optional[float]:
            stamped = [
                deadlines[idx]
                for idx in index_of.values()
                if deadlines[idx] is not None
            ]
            timeout = None
            if stamped:
                timeout = max(0.0, min(stamped) - time.perf_counter())
            if any(
                deadlines[idx] is None and limits[idx] is not None
                for idx in index_of.values()
            ):
                # Some budgeted request has not been stamped yet: poll so
                # its deadline starts promptly once a worker picks it up.
                timeout = (
                    _WATCHDOG_POLL_SECONDS
                    if timeout is None
                    else min(timeout, _WATCHDOG_POLL_SECONDS)
                )
            return timeout

        try:
            for idx, request in enumerate(batch):
                try:
                    # Checked here, in the parent: a worker that rejected
                    # the wire form could only report a placeholder
                    # request, and the watchdog limit is ``time_budget``
                    # plus grace, so a non-finite or non-number budget
                    # must not reach the deadline arithmetic.
                    request.validate()
                except InvalidParameterError as exc:
                    attempts[idx] = 1
                    finish(idx, _error_report(request, exc))
                else:
                    pending.append((idx, True))
            while index_of or pending:
                pump()
                if not index_of:
                    # The pool refused every submission (it broke before
                    # accepting work): rebuild it or finish the remainder.
                    self._terminate_pool(pool)
                    rebuilds += 1
                    rebuilt = (
                        self._make_pool(workers)
                        if rebuilds <= policy.max_pool_rebuilds
                        else None
                    )
                    if rebuilt is None:
                        drain_pending_in_process()
                    else:
                        pool = rebuilt
                    continue
                stamp_deadlines()
                done, _ = wait(
                    frozenset(index_of),
                    timeout=next_timeout(),
                    return_when=FIRST_COMPLETED,
                )
                crashed: List[int] = []
                for future in done:
                    idx = index_of.pop(future)
                    failure = future.exception()
                    if failure is None:
                        report = SolveReport.from_json(future.result())
                        if (
                            report.status == STATUS_ERROR
                            and report.error is not None
                            and report.error.kind in policy.retryable_kinds
                            and attempts[idx] < policy.max_attempts
                        ):
                            pending.append((idx, True))
                        else:
                            finish(idx, report)
                    elif isinstance(failure, BrokenProcessPool):
                        crashed.append(idx)
                    else:
                        # The worker boundary should make this unreachable
                        # (cancellation, pickling failures); keep the batch
                        # alive regardless.
                        finish(
                            idx,
                            _error_report(batch[idx], failure, attempts=attempts[idx]),
                        )
                if crashed:
                    # A dead worker breaks the whole executor: every future
                    # not already done is lost with it.
                    for future in list(index_of):
                        crashed.append(index_of.pop(future))
                    crashed.sort()
                    self._terminate_pool(pool)
                    for idx in crashed:
                        rebuilds_seen[idx] += 1
                    retry = [
                        idx for idx in crashed if attempts[idx] < policy.max_attempts
                    ]
                    isolate = [
                        idx for idx in crashed if attempts[idx] >= policy.max_attempts
                    ]
                    if retry:
                        rebuilds += 1
                        if rebuilds > policy.max_pool_rebuilds:
                            # Rebuild budget exhausted: finish the crash
                            # cohort without a pool — in-process only on
                            # explicit opt-in, because one of these requests
                            # is likely the crasher and a genuine
                            # segfault/OOM would take the parent (and every
                            # collected report) with it.  Queued requests
                            # were never implicated; run them serially.
                            for idx in crashed:
                                if policy.in_process_fallback:
                                    solve_in_process(idx)
                                else:
                                    finish_crashed(
                                        idx, "pool rebuild budget exhausted"
                                    )
                            drain_pending_in_process()
                            continue
                        time.sleep(policy.backoff_for(rebuilds))
                        rebuilt = self._make_pool(workers)
                        if rebuilt is None:
                            for idx in crashed:
                                if policy.in_process_fallback:
                                    solve_in_process(idx)
                                else:
                                    finish_crashed(idx, "pool rebuild refused")
                            drain_pending_in_process()
                            continue
                        pool = rebuilt
                        pending.extendleft((idx, True) for idx in reversed(retry))
                    # Poison isolation: a request out of pool submissions is
                    # finished as a worker_crash error report — or, on
                    # explicit opt-in, gets one final in-process run through
                    # the same fault boundary (worker-scoped injected faults
                    # are inert there; real crashers are not).
                    for idx in isolate:
                        if policy.in_process_fallback:
                            solve_in_process(idx)
                        else:
                            finish_crashed(idx, "pool submissions exhausted")
                    continue
                # Watchdog: requests overdue past their *started* deadline
                # (stamped only once their future was running) are aborted
                # and their (presumed hung) workers reclaimed by terminating
                # the pool — a running task cannot be cancelled.
                now = time.perf_counter()
                overdue = [
                    (future, idx)
                    for future, idx in index_of.items()
                    if deadlines[idx] is not None
                    and now > deadlines[idx]
                    and not future.done()
                ]
                if overdue:
                    hung: List[int] = []
                    requeue: List[int] = []
                    for future, idx in overdue:
                        index_of.pop(future)
                        if future.cancel():
                            # The future never actually ran (its deadline
                            # was stamped while it sat prefetched in the
                            # call queue): nothing to abort — requeue it.
                            requeue.append(idx)
                            continue
                        hung.append(idx)
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
                                    attempts=attempts[idx],
                                ),
                                status=STATUS_ABORTED,
                            ),
                        )
                    if not hung:
                        # Nothing actually hung — the pool is healthy.
                        pending.extendleft(
                            (idx, False) for idx in sorted(requeue, reverse=True)
                        )
                        continue
                    self._terminate_pool(pool)
                    survivors = sorted(set(index_of.values()) | set(requeue))
                    index_of.clear()
                    if survivors:
                        # Innocent bystanders of the termination: their
                        # resubmission neither burns an attempt nor accrues
                        # retry/rebuild stats in their reports — the
                        # batch-level rebuild budget still bounds the loop.
                        rebuilds += 1
                        rebuilt = (
                            self._make_pool(workers)
                            if rebuilds <= policy.max_pool_rebuilds
                            else None
                        )
                        if rebuilt is None:
                            for idx in survivors:
                                solve_in_process(idx)
                            drain_pending_in_process()
                        else:
                            pool = rebuilt
                            pending.extendleft(
                                (idx, False) for idx in reversed(survivors)
                            )
        finally:
            # Abort path: never leave submitted work running behind a
            # raised exception — cancel what has not started and drop the
            # queue without blocking on in-flight solves.
            if index_of:
                for future in list(index_of):
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        for idx, report in enumerate(reports):
            if report is None:  # pragma: no cover - loop invariant backstop
                reports[idx] = SolveReport.from_error(
                    batch[idx],
                    SolveError(
                        kind=ERROR_KIND_INTERNAL,
                        message="batch loop lost this request",
                        attempts=attempts[idx],
                    ),
                )
        return [report for report in reports if report is not None]

    def _solve_isolated(self, request: SolveRequest, *, attempts: int = 1) -> SolveReport:
        """In-process execution behind the same fault boundary as workers."""
        report = _guarded_solve(request, engine=self)
        if report.error is not None and report.error.attempts != attempts:
            report = dataclass_replace(
                report, error=dataclass_replace(report.error, attempts=attempts)
            )
        return report

    @staticmethod
    def _make_pool(workers: int) -> Optional[ProcessPoolExecutor]:
        """Build a process pool, or ``None`` where the platform refuses."""
        try:
            return ProcessPoolExecutor(max_workers=workers)
        except (OSError, PermissionError):
            return None

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a pool: kill its workers and drop queued work.

        ``Future.cancel`` cannot reclaim a *running* task and a hung or
        poisoned worker never returns, so the only way to get the slot
        back is to terminate the worker processes.  ``_processes`` is
        stdlib-private, hence the guarded access: when it is missing the
        shutdown below still prevents new work, we just cannot reclaim
        the stuck process early.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError, AttributeError):
                continue
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Release engine resources; a no-op kept for existing callers.

        Every batch shuts its own worker pool down before
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
    if it ever crosses a pool boundary (RPL004 discipline).
    """
    return MBBEngine().solve_graph(graph, **options)


# Dependency inversion for the layering contract (RPL007): the kernel
# layer's solve_mbb must not import this service module, so the engine
# installs itself into the solver's registration hook at import time.
_solver.register_engine(_solve_graph_with_default_engine)
