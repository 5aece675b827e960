"""Shared mutable state for a single MBB search.

Every solver in the library (the paper's algorithms as well as the
baselines) threads a :class:`SearchContext` through its recursion.  The
context owns:

* the incumbent — the best balanced biclique found so far, shared across
  the heuristic, bridging and verification stages so that later stages
  prune with the bound established by earlier ones;
* search statistics (node counts, depths) for the breakdown experiments;
* optional node and wall-clock budgets, so benchmark runs of exponential
  baselines terminate gracefully instead of hanging the harness (this
  plays the role of the paper's 4-hour timeout);
* a cooperative cancellation/deadline hook, so external drivers — most
  importantly :class:`repro.api.engine.MBBEngine`, which enforces
  per-request budgets across batch solves — can stop a running search
  through one mechanism instead of per-solver plumbing.

Two polling granularities exist.  :meth:`SearchContext.enter_node` is the
per-search-node probe: it records node statistics and enforces *every*
budget, including the node budget.  :meth:`SearchContext.checkpoint` is the
lightweight probe for the stages that do no branch-and-bound of their own —
the heuristic stage polls it once per greedy seed and the bridging stage
once per vertex-centred subgraph.  ``checkpoint()`` enforces the
cancellation hook, the wall-clock budget and the absolute deadline but
deliberately does **not** touch node statistics (node counts keep measuring
exhaustive-search work only) and does not test the node budget (no node is
being entered).  Both raise :class:`SearchAborted` with ``aborted`` set, so
a budget blown during S1/S2 aborts the solve just like one blown inside the
dense kernel, and ``hbvMBB`` reports ``optimal=False`` instead of claiming
exhaustion.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.mbb.result import Biclique, SearchStats


class SearchAborted(Exception):
    """Internal control-flow exception raised when a budget is exhausted.

    Solvers catch it at their top level and return the incumbent with
    ``optimal=False``; it never escapes the public API.
    """


@dataclass
class SearchContext:
    """Mutable incumbent + budget + statistics for one solver invocation.

    ``best_side`` is a plain int, the side size of :attr:`best`: the dense
    kernel reads it several times per search node.  Every write of
    :attr:`best` (the offers, a seeded bound, a caller's assignment, the
    generated ``__init__``) goes through :meth:`__setattr__`, which keeps
    it in step, so none can leave it stale.
    """

    best: Biclique = field(default_factory=Biclique.empty)
    stats: SearchStats = field(default_factory=SearchStats)
    node_budget: Optional[int] = None
    time_budget: Optional[float] = None
    #: Absolute deadline on the :func:`time.perf_counter` clock.  Unlike
    #: ``time_budget`` (which is relative to the context's creation) a
    #: deadline survives being handed from one solver stage to the next,
    #: which is how the engine enforces one per-request budget end to end.
    deadline: Optional[float] = None
    #: Optional cooperative cancellation hook, polled at every search node.
    #: Returning ``True`` aborts the search exactly like an exhausted
    #: budget; the incumbent found so far is still reported.
    cancel_hook: Optional[Callable[[], bool]] = None
    _start_time: float = field(default_factory=time.perf_counter)
    aborted: bool = False
    cancelled: bool = False

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name == "best":
            object.__setattr__(self, "best_side", value.side_size)

    @property
    def best_total(self) -> int:
        """Total vertex count of the incumbent after balancing."""
        return 2 * self.best_side

    @property
    def elapsed(self) -> float:
        """Seconds since the context was created."""
        return time.perf_counter() - self._start_time

    def offer(
        self,
        left: Iterable[Vertex],
        right: Iterable[Vertex],
    ) -> bool:
        """Offer a biclique as a new incumbent.

        The offered pair is balanced by trimming the larger side.  Returns
        ``True`` when the incumbent improved.
        """
        candidate = Biclique.of(left, right).balanced()
        if candidate.side_size > self.best_side:
            self.best = candidate
            return True
        return False

    def offer_biclique(self, biclique: Biclique) -> bool:
        """Offer an already-built :class:`Biclique` as a new incumbent."""
        balanced = biclique.balanced()
        if balanced.side_size > self.best_side:
            self.best = balanced
            return True
        return False

    def cancel(self) -> None:
        """Request cooperative cancellation of the running search.

        The next :meth:`enter_node` call raises :class:`SearchAborted`,
        which solvers translate into an ``optimal=False`` result carrying
        the incumbent found so far.
        """
        self.cancelled = True

    def checkpoint(self, *, enforce_node_budget: bool = False) -> None:
        """Enforce cancellation and wall-clock budgets outside the kernel.

        The lightweight counterpart of :meth:`enter_node` for stages that
        are not branch-and-bound searches (greedy seeds in S1, centred
        subgraphs in S2): polls the cancellation hook, the relative time
        budget and the absolute deadline, raising :class:`SearchAborted`
        with ``aborted`` set when any fires.  Node statistics are *not*
        recorded and by default the node budget is *not* tested — no
        search node is being entered, and inflating the counters would
        distort the breakdown experiments.

        ``enforce_node_budget=True`` additionally aborts once the node
        budget has no headroom left (``stats.nodes >= node_budget``,
        still without recording a node).  Drivers that fan out child
        searches — the size-constrained ``(k, k)`` ladder — poll this
        form between children instead of re-deriving the budget
        arithmetic themselves.
        """
        if self.cancelled or self._poll_cancel_hook():
            self.cancelled = True
            self.aborted = True
            raise SearchAborted("search cancelled")
        if self.time_budget is not None and self.elapsed > self.time_budget:
            self.aborted = True
            raise SearchAborted(f"time budget {self.time_budget}s exhausted")
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.aborted = True
            raise SearchAborted("deadline exceeded")
        if (
            enforce_node_budget
            and self.node_budget is not None
            and self.stats.nodes >= self.node_budget
        ):
            self.aborted = True
            raise SearchAborted(f"node budget {self.node_budget} exhausted")

    def _poll_cancel_hook(self) -> bool:
        """Poll :attr:`cancel_hook`, treating a *crashing* hook as a cancel.

        The hook is supervision plumbing (a cross-process flag reader, a
        server's disconnect probe): if it raises, supervision is broken
        and the search can no longer be stopped from outside.  Aborting
        cleanly — incumbent preserved, ``optimal=False`` — is strictly
        safer than letting an arbitrary exception destroy the solve from
        a hot loop, and it is the same contract a ``True`` return has.
        ``SearchAborted`` from a hook that cancels by raising is passed
        through untouched.
        """
        if self.cancel_hook is None:
            return False
        try:
            return bool(self.cancel_hook())
        except SearchAborted:
            raise
        except Exception:
            return True

    def remaining_node_budget(self) -> Optional[int]:
        """Search nodes left before the node budget trips (``None`` = unbounded).

        The canonical way to forward a budget slice into a child search:
        solvers must not re-derive ``node_budget - stats.nodes`` by hand
        (reprolint RPL001 flags the pattern outside this module).
        """
        if self.node_budget is None:
            return None
        return max(0, self.node_budget - self.stats.nodes)

    def remaining_time_budget(self) -> Optional[float]:
        """Seconds left on the relative time budget (``None`` = unbounded).

        Like :meth:`remaining_node_budget`, this is the sanctioned form
        of ``time_budget - elapsed`` for handing a shrinking wall-clock
        allowance to a child search.  The absolute :attr:`deadline` needs
        no such slicing — it is simply copied to the child.
        """
        if self.time_budget is None:
            return None
        return max(0.0, self.time_budget - self.elapsed)

    @contextmanager
    def timed_stat(self, stat: str) -> Iterator[None]:
        """Accumulate a block's wall time into ``stats.<stat>``.

        Stage code must not read :func:`time.perf_counter` directly
        (reprolint RPL002 confines wall clocks to this module, the
        engine and the bench harness); wrapping the block keeps stage
        timings flowing into :class:`~repro.mbb.result.SearchStats`
        through one audited clock.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            setattr(
                self.stats, stat, getattr(self.stats, stat) + time.perf_counter() - start
            )

    def enter_node(self, depth: int) -> None:
        """Record entry into a branch-and-bound node and enforce budgets.

        The node is recorded inline (what :meth:`SearchStats.record_node`
        does), and :meth:`checkpoint` runs only when it has something to
        poll: a cancellation, a hook, a time budget or a deadline.  All
        four are read at every node, so one assigned after construction
        (as :class:`~repro.api.engine.MBBEngine` assigns ``deadline``)
        fires at the next node.
        """
        stats = self.stats
        stats.nodes += 1
        stats.depth_sum += depth
        if depth > stats.max_depth:
            stats.max_depth = depth
        if (
            self.cancelled
            or self.cancel_hook is not None
            or self.time_budget is not None
            or self.deadline is not None
        ):
            self.checkpoint()
        if self.node_budget is not None and stats.nodes > self.node_budget:
            self.aborted = True
            raise SearchAborted(f"node budget {self.node_budget} exhausted")

    def record_leaf(self, depth: int) -> None:
        """Record that the node at ``depth`` was a leaf of the search tree."""
        self.stats.record_leaf(depth)

    def verify_incumbent(self, graph: BipartiteGraph) -> bool:
        """Check the incumbent against the graph (used by tests/examples)."""
        return self.best.is_valid_in(graph) and self.best.is_balanced
