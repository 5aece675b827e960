"""The size-constrained ``(a, b)`` biclique problem (paper §4.2).

The paper's polynomial case is built on the *size-constrained biclique
problem*: given integers ``(a, b)``, decide whether the graph contains a
biclique ``(A, B)`` with ``|A| >= a`` and ``|B| >= b``, and the *maximal
instances* of that problem — the Pareto frontier of achievable ``(a, b)``
pairs.  This module exposes both as a small public API:

* :func:`find_biclique_of_size` / :func:`has_biclique_of_size` solve one
  ``(a, b)`` instance exactly with a dedicated branch and bound;
* :func:`maximal_biclique_profile` computes the full Pareto frontier of
  maximal ``(a, b)`` pairs (the object Observation 2 enumerates in closed
  form for complement paths and cycles), which is useful in its own right
  for co-clustering applications that trade rows for columns;
* :func:`size_constrained_mbb` solves the MBB problem through a sequence
  of ``(k, k)`` decisions — the ``size-constrained`` backend of the
  :mod:`repro.api` registry.

Both are exponential in the worst case (the problems are NP-hard for
general ``a = b``) and intended for moderate graphs or pruned subgraphs;
they accept the same node/time budgets as every other solver.

Kernels
-------
With the default :data:`~repro.mbb.dense.KERNEL_BITS` an ``(a, b)``
instance is decided by the bitset ``denseMBB`` kernel
(:func:`~repro.mbb.dense.dense_mbb_on_bitgraph`) through a padding
reduction: assuming ``a >= b``, add ``a - b`` universal right vertices
(adjacent to every left vertex); the padded graph has a balanced biclique
of side ``a`` iff the original graph has an ``(a, b)`` biclique, because
any ``a`` right vertices of the padded graph include at least ``b`` real
ones.  The decision search seeds the incumbent bound at ``a - 1`` so the
kernel prunes everything that cannot reach the target, and a cooperative
cancellation hook (:attr:`~repro.mbb.context.SearchContext.cancel_hook`)
stops it at the first witness.  ``kernel="sets"`` keeps the original
dedicated adjacency-set search for ablations.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro._util import ensure_recursion_limit, recursion_headroom_for
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph, Vertex
from repro.graph.bitset import IndexedBitGraph
from repro.mbb.context import SearchAborted, SearchContext
from repro.mbb.dense import KERNEL_BITS, KERNEL_SETS, dense_mbb_on_bitgraph
from repro.mbb.result import Biclique, MBBResult, SearchStats


def _search(
    graph: BipartiteGraph,
    context: SearchContext,
    a_target: int,
    b_target: int,
    a: Set[Vertex],
    b: Set[Vertex],
    ca: Set[Vertex],
    cb: Set[Vertex],
    depth: int,
) -> Optional[Biclique]:
    """Depth-first search for a biclique with ``|A| >= a_target, |B| >= b_target``.

    The invariant is the usual one: every candidate in ``ca`` is adjacent to
    all of ``b`` and every candidate in ``cb`` to all of ``a``.  The search
    succeeds as soon as both targets are reachable by one-sided completion.
    """
    context.enter_node(depth)
    if len(a) + len(ca) < a_target or len(b) + len(cb) < b_target:
        context.record_leaf(depth)
        return None
    if len(a) >= a_target and len(b) >= b_target:
        context.record_leaf(depth)
        return Biclique.of(a, b)

    # One-sided completions: candidates are adjacent to the whole opposite
    # partial side, so either side can be topped up for free.
    if len(a) >= a_target and len(b) + len(cb) >= b_target:
        needed = b_target - len(b)
        extra = sorted(cb, key=repr)[:needed]
        context.record_leaf(depth)
        return Biclique.of(a, set(b) | set(extra))
    if len(b) >= b_target and len(a) + len(ca) >= a_target:
        needed = a_target - len(a)
        extra = sorted(ca, key=repr)[:needed]
        context.record_leaf(depth)
        return Biclique.of(set(a) | set(extra), b)

    # Branch on the side that is still short, preferring the candidate with
    # the largest surviving neighbourhood.
    extend_left = (a_target - len(a)) >= (b_target - len(b))
    if extend_left and ca:
        vertex = max(ca, key=lambda u: (len(graph.neighbors_left(u) & cb), repr(u)))
        include = _search(
            graph,
            context,
            a_target,
            b_target,
            a | {vertex},
            b,
            ca - {vertex},
            cb & graph.neighbors_left(vertex),
            depth + 1,
        )
        if include is not None:
            return include
        return _search(
            graph, context, a_target, b_target, a, b, ca - {vertex}, cb, depth + 1
        )
    if cb:
        vertex = max(cb, key=lambda v: (len(graph.neighbors_right(v) & ca), repr(v)))
        include = _search(
            graph,
            context,
            a_target,
            b_target,
            a,
            b | {vertex},
            ca & graph.neighbors_right(vertex),
            cb - {vertex},
            depth + 1,
        )
        if include is not None:
            return include
        return _search(
            graph, context, a_target, b_target, a, b, ca, cb - {vertex}, depth + 1
        )
    context.record_leaf(depth)
    return None


# Tag making padding vertex labels collision-proof against user labels
# while keeping a deterministic ``repr`` (the bitset indexing and the
# balancing trim both order vertices by ``repr``).
_PAD_TAG = "repro.size_constrained.pad"


def _padded_graph(
    graph: BipartiteGraph, a: int, b: int
) -> Tuple[BipartiteGraph, Set[Vertex]]:
    """Copy ``graph`` and add ``|a - b|`` universal vertices on the short side.

    Assuming WLOG ``a >= b``: every set of ``a`` right vertices of the
    padded graph contains at least ``a - (a - b) = b`` real ones, so the
    padded graph has a balanced biclique of side ``a`` iff the original
    graph has an ``(a, b)`` biclique.
    """
    padded = BipartiteGraph(
        left=graph.left_vertices(), right=graph.right_vertices(), edges=graph.edges()
    )
    pad_labels: Set[Vertex] = {(_PAD_TAG, i) for i in range(abs(a - b))}
    if a >= b:
        for pad in sorted(pad_labels, key=repr):
            padded.add_right_vertex(pad)
            for u in graph.left_vertices():
                padded.add_edge(u, pad)
    else:
        for pad in sorted(pad_labels, key=repr):
            padded.add_left_vertex(pad)
            for v in graph.right_vertices():
                padded.add_edge(pad, v)
    return padded, pad_labels


def _seed_bound(context: SearchContext, side: int) -> None:
    """Seed the incumbent bound at ``side`` with sentinel vertices.

    The sentinels never touch the graph; they only make ``best_side``
    equal ``side`` so the kernel's bound prunes everything that cannot
    beat it.  Callers must treat a final ``best_side <= side`` as "no
    witness found".
    """
    if side > 0:
        context.best = Biclique.of(
            [(_PAD_TAG, "seed-left", i) for i in range(side)],
            [(_PAD_TAG, "seed-right", i) for i in range(side)],
        )


class _ParentCancelled:
    """Hook polling a parent context's cooperative-cancellation state.

    A module-level callable object (not a closure) so a child context
    carrying it stays picklable, as everything that may cross into a
    pool worker must (reprolint RPL004).
    """

    __slots__ = ("parent",)

    def __init__(self, parent: SearchContext) -> None:
        self.parent = parent

    def __call__(self) -> bool:
        parent = self.parent
        return parent.cancelled or (
            parent.cancel_hook is not None and parent.cancel_hook()
        )


class _AnyHook:
    """Hook firing when any of its member hooks fires (picklable compose)."""

    __slots__ = ("hooks",)

    def __init__(self, *hooks: Optional[Callable[[], bool]]) -> None:
        self.hooks = tuple(hook for hook in hooks if hook is not None)

    def __call__(self) -> bool:
        return any(hook() for hook in self.hooks)


class _TargetSideReached:
    """Hook stopping a decision search at its first ``(a, b)`` witness."""

    __slots__ = ("context", "target")

    def __init__(self, context: SearchContext, target: int) -> None:
        self.context = context
        self.target = target

    def __call__(self) -> bool:
        return self.context.best_side >= self.target


def _parent_cancelled(parent: Optional[SearchContext]):
    """Predicate polling a parent context's cooperative-cancellation state."""
    if parent is None:
        return None
    return _ParentCancelled(parent)


def _inherit_cancellation(
    child: SearchContext, parent: Optional[SearchContext]
) -> None:
    """Forward a parent's deadline and cancellation into a child context."""
    if parent is None:
        return
    child.deadline = parent.deadline
    hook = _parent_cancelled(parent)
    own = child.cancel_hook
    if own is None:
        child.cancel_hook = hook
    else:
        child.cancel_hook = _AnyHook(own, hook)


def _decide_sets(
    graph: BipartiteGraph,
    a: int,
    b: int,
    *,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    parent: Optional[SearchContext] = None,
) -> Tuple[Optional[Biclique], bool, SearchStats]:
    """Decide one ``(a, b)`` instance with the dedicated adjacency-set search."""
    ensure_recursion_limit(recursion_headroom_for(graph.num_vertices))
    context = SearchContext(node_budget=node_budget, time_budget=time_budget)
    _inherit_cancellation(context, parent)
    try:
        witness = _search(
            graph, context, a, b, set(), set(), graph.left, graph.right, 0
        )
    except SearchAborted:
        witness = None
    return witness, context.aborted, context.stats


def _decide_bits(
    graph: BipartiteGraph,
    a: int,
    b: int,
    *,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    parent: Optional[SearchContext] = None,
) -> Optional[Tuple[Optional[Biclique], bool, SearchStats]]:
    """Decide one ``(a, b)`` instance on the bitset ``denseMBB`` kernel.

    Returns ``None`` when the graph's labels resist bitset indexing, in
    which case the caller falls back to the adjacency-set search.
    """
    target = max(a, b)
    padded, pad_labels = _padded_graph(graph, a, b)
    try:
        bitgraph = IndexedBitGraph.from_bipartite(padded)
    except (TypeError, OverflowError):
        return None
    ensure_recursion_limit(recursion_headroom_for(padded.num_vertices))
    context = SearchContext(node_budget=node_budget, time_budget=time_budget)
    _seed_bound(context, target - 1)
    # Stop at the first witness: the hook is polled at every node entry.
    context.cancel_hook = _TargetSideReached(context, target)
    _inherit_cancellation(context, parent)
    dense_mbb_on_bitgraph(
        bitgraph,
        context,
        0,
        0,
        bitgraph.all_left_mask,
        bitgraph.all_right_mask,
    )
    if context.best_side < target:
        # ``aborted`` distinguishes an exhausted budget from a proven "no".
        # A cancellation can only have been triggered by reaching the
        # target, so any abort seen here came from a budget.
        return None, context.aborted, context.stats
    best = context.best
    if a >= b:
        witness = Biclique.of(best.left, set(best.right) - pad_labels)
    else:
        witness = Biclique.of(set(best.left) - pad_labels, best.right)
    return witness, False, context.stats


def _decide(
    graph: BipartiteGraph,
    a: int,
    b: int,
    *,
    kernel: str = KERNEL_BITS,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    parent: Optional[SearchContext] = None,
) -> Tuple[Optional[Biclique], bool, SearchStats]:
    """Dispatch one nontrivial ``(a, b)`` decision to the requested kernel."""
    if kernel not in (KERNEL_BITS, KERNEL_SETS):
        raise InvalidParameterError(
            f"unknown kernel {kernel!r}; expected one of {(KERNEL_BITS, KERNEL_SETS)}"
        )
    if kernel == KERNEL_BITS:
        outcome = _decide_bits(
            graph, a, b, node_budget=node_budget, time_budget=time_budget, parent=parent
        )
        if outcome is not None:
            return outcome
    return _decide_sets(
        graph, a, b, node_budget=node_budget, time_budget=time_budget, parent=parent
    )


def find_biclique_of_size(
    graph: BipartiteGraph,
    a: int,
    b: int,
    *,
    kernel: str = KERNEL_BITS,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> Optional[Biclique]:
    """Return a biclique with ``|A| >= a`` and ``|B| >= b``, or ``None``.

    Raises :class:`InvalidParameterError` for negative targets.  A ``(0, 0)``
    instance is satisfied by the empty biclique.  When a budget is exhausted
    before a witness is found the function returns ``None`` (the caller can
    inspect the budget through its own :class:`SearchContext` if needed).

    ``kernel`` selects :data:`~repro.mbb.dense.KERNEL_BITS` (default, the
    padding reduction onto the bitset ``denseMBB`` kernel) or
    :data:`~repro.mbb.dense.KERNEL_SETS` (the dedicated adjacency-set
    search, kept for ablation).
    """
    if a < 0 or b < 0:
        raise InvalidParameterError(f"size targets must be non-negative, got ({a}, {b})")
    if a == 0 and b == 0:
        return Biclique.empty()
    if a > graph.num_left or b > graph.num_right:
        return None
    if a == 0:
        return Biclique.of((), sorted(graph.right, key=repr)[:b])
    if b == 0:
        return Biclique.of(sorted(graph.left, key=repr)[:a], ())
    witness, _, _ = _decide(
        graph, a, b, kernel=kernel, node_budget=node_budget, time_budget=time_budget
    )
    return witness


def has_biclique_of_size(graph: BipartiteGraph, a: int, b: int, **kwargs) -> bool:
    """Decision version of :func:`find_biclique_of_size`."""
    return find_biclique_of_size(graph, a, b, **kwargs) is not None


def size_constrained_mbb(
    graph: BipartiteGraph,
    *,
    kernel: str = KERNEL_BITS,
    context: Optional[SearchContext] = None,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> MBBResult:
    """Solve the MBB problem through a rising sequence of ``(k, k)`` decisions.

    This is the ``size-constrained`` backend of the :mod:`repro.api`
    registry: starting from the incumbent (if ``context`` carries one) it
    asks :func:`find_biclique_of_size` for a ``(k, k)`` biclique with
    ``k`` increasing until a decision comes back negative, which proves
    optimality.  Exact but slower than ``denseMBB`` — each decision
    re-explores the graph — and registered mainly for ablation and as an
    independent cross-check of the dense kernel.
    """
    if context is None:
        context = SearchContext(node_budget=node_budget, time_budget=time_budget)
    max_side = min(graph.num_left, graph.num_right)
    optimal = True
    k = context.best_side + 1
    while k <= max_side:
        # One checkpoint covers cancellation, the deadline and both
        # budgets between (k, k) decisions; an abort leaves the incumbent
        # as a best-effort answer exactly like a budget blown mid-kernel.
        try:
            context.checkpoint(enforce_node_budget=True)
        except SearchAborted:
            optimal = False
            break
        witness, aborted, stats = _decide(
            graph,
            k,
            k,
            kernel=kernel,
            node_budget=context.remaining_node_budget(),
            time_budget=context.remaining_time_budget(),
            parent=context,
        )
        context.stats.merge(stats)
        if witness is None:
            optimal = not aborted
            break
        context.offer_biclique(witness)
        k = context.best_side + 1
    return MBBResult(
        biclique=context.best,
        optimal=optimal,
        stats=context.stats,
        elapsed_seconds=context.elapsed,
    )


def maximal_biclique_profile(
    graph: BipartiteGraph,
    *,
    max_side: Optional[int] = None,
    kernel: str = KERNEL_BITS,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
) -> List[Tuple[int, int]]:
    """Pareto frontier of achievable ``(|A|, |B|)`` biclique sizes.

    The returned list contains every *maximal instance* in the paper's sense:
    pairs ``(a, b)`` such that an ``(a, b)`` biclique exists but neither
    ``(a + 1, b)`` nor ``(a, b + 1)`` does.  Pairs are sorted by decreasing
    ``a``.  Trivial instances with an empty side are included (``(a_max, 0)``
    and ``(0, b_max)``) because the combination DP of Algorithm 2 consumes
    them.

    ``max_side`` caps the explored ``a`` range (useful on larger graphs when
    only small profiles are of interest).
    """
    a_cap = graph.num_left if max_side is None else min(max_side, graph.num_left)
    b_cap = graph.num_right if max_side is None else min(max_side, graph.num_right)

    # For each a in 0..a_cap find the largest b such that an (a, b) biclique
    # exists; b is monotonically non-increasing in a, which the loop exploits
    # by starting each scan from the previous best.
    frontier: Dict[int, int] = {}
    previous_best = b_cap
    for a in range(0, a_cap + 1):
        best_b = -1
        for b in range(previous_best, -1, -1):
            witness = find_biclique_of_size(
                graph,
                a,
                b,
                kernel=kernel,
                node_budget=node_budget,
                time_budget=time_budget,
            )
            if witness is not None:
                best_b = b
                break
        if best_b < 0:
            break
        frontier[a] = best_b
        previous_best = best_b

    # Keep only Pareto-maximal pairs.
    result: List[Tuple[int, int]] = []
    best_seen_b = -1
    for a in sorted(frontier, reverse=True):
        b = frontier[a]
        if b > best_seen_b:
            result.append((a, b))
            best_seen_b = b
    result.sort(key=lambda pair: -pair[0])
    return result


def balanced_side_from_profile(profile: List[Tuple[int, int]]) -> int:
    """Largest balanced side implied by a profile (``max min(a, b)``)."""
    return max((min(a, b) for a, b in profile), default=0)
