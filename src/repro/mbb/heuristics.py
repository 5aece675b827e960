"""Greedy heuristics and the ``hMBB`` stage (Algorithm 5).

The sparse framework separates heuristics from exhaustive search: a cheap
but effective heuristic finds a large balanced biclique first, the graph is
shrunk with the core-based reduction of Lemma 4, and — when the incumbent
already matches the degeneracy bound of Lemma 5 — the search terminates
without any exhaustive stage at all (the "S1" rows of Table 5).

Two greedy seeds are provided, following the paper: the global maximum
*degree* and the maximum *core number*.  Both feed the same greedy
extension routine, which grows the lagging side of the biclique by the
candidate that preserves the most opposite-side candidates.

:func:`h_mbb` runs on the :class:`~repro.graph.prepared.PreparedGraph`
snapshot the engine already holds.  One memoised core peel answers the
core seeds, the Lemma 5 degeneracy test and every Lemma 4 residual, and
each residual is a snapshot memoised by ``k`` on its parent, so a warm
solve runs no peel and builds no graph in S1.  The greedy itself stays on
the label-keyed graph's C-level set intersections (:func:`greedy_extend`),
for both kernels.  The label-keyed seed helpers (:func:`degree_heuristic`,
:func:`core_heuristic`) rank seeds the same way and serve the ``sets``
ablation of the bridging stage, the adapted baselines and the benches.

The greedy extension and the core-seeded heuristic also exist in a
mask-native form (:func:`greedy_extend_bits` / :func:`core_heuristic_bits`)
operating on :class:`~repro.graph.bitset.IndexedBitGraph` rows; the
bridging stage runs its per-subgraph local heuristic through them so S2
never falls back to hash sets.  Both forms break ties identically (lowest
``repr``-ordered vertex wins), so the two kernels trace the same greedy
extensions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from operator import neg, sub
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.graph.bitset import IndexedBitGraph, core_numbers_masks, iter_bits
from repro.graph.prepared import PreparedGraph, ensure_prepared_for
from repro.cores.core import core_numbers
from repro.mbb.context import SearchAborted, SearchContext
from repro.mbb.result import Biclique

VertexKey = Tuple[str, Vertex]


def greedy_extend(
    graph: BipartiteGraph,
    seed_side: str,
    seed_vertex: Vertex,
) -> Biclique:
    """Greedily grow a balanced biclique around a seed vertex.

    Starting from ``A = {seed}`` the routine alternately extends the
    lagging side, always choosing the candidate that keeps the largest
    number of candidates alive on the other side.  This is the standard
    maximum-degree greedy rule the paper uses inside ``hMBB``; it runs in
    ``O(d^2)`` around the seed where ``d`` is the seed's degree, so seeding
    it from a handful of top vertices stays near-linear overall.
    """
    if seed_side == LEFT:
        a = {seed_vertex}
        b: set = set()
        cb = set(graph.neighbors_left(seed_vertex))
        ca: set = set()
        for v in cb:
            ca.update(graph.neighbors_right(v))
        ca.discard(seed_vertex)
    else:
        b = {seed_vertex}
        a = set()
        ca = set(graph.neighbors_right(seed_vertex))
        cb = set()
        for u in ca:
            cb.update(graph.neighbors_left(u))
        cb.discard(seed_vertex)

    while True:
        extend_left = len(a) <= len(b)
        if extend_left:
            candidates, others = ca, cb
        else:
            candidates, others = cb, ca
        if not candidates:
            # Cannot extend the lagging side any further; try the other side
            # only if it is the lagging one next iteration (it will not be),
            # so stop.
            break
        best_vertex = None
        best_kept = -1
        best_repr = ""
        # Ties break on the smallest ``repr`` so the choice is deterministic
        # across interpreter runs (set order is hash order for string
        # labels) and identical to the bitset variant's index-order scan —
        # a single pass, no sorted copy of the candidate set per step.
        for vertex in candidates:
            if extend_left:
                kept = len(graph.neighbors_left(vertex) & others)
            else:
                kept = len(graph.neighbors_right(vertex) & others)
            if kept < best_kept:
                continue
            vertex_repr = repr(vertex)
            if kept > best_kept or vertex_repr < best_repr:
                best_kept = kept
                best_vertex = vertex
                best_repr = vertex_repr
        if best_vertex is None:
            break
        if extend_left:
            a.add(best_vertex)
            ca.discard(best_vertex)
            cb &= graph.neighbors_left(best_vertex)
        else:
            b.add(best_vertex)
            cb.discard(best_vertex)
            ca &= graph.neighbors_right(best_vertex)
    return Biclique.of(a, b).balanced()


def greedy_extend_bits(
    graph: IndexedBitGraph,
    seed_side: str,
    seed_index: int,
) -> Biclique:
    """Mask-native :func:`greedy_extend` over an :class:`IndexedBitGraph`.

    Same greedy rule, same tie-breaking (ascending index order equals
    ascending ``repr`` order of the labels), but candidate bookkeeping is
    four integer masks and "kept candidates" is one ``&``/``bit_count``
    per scanned vertex.  Used by the bridging stage's local heuristic.
    """
    a, b = _greedy_masks(graph, seed_side, seed_index)
    return Biclique.of(
        graph.left_labels_of(a), graph.right_labels_of(b)
    ).balanced()


def _greedy_masks(
    graph: IndexedBitGraph, seed_side: str, seed_index: int
) -> Tuple[int, int]:
    """The ``(a, b)`` masks :func:`greedy_extend_bits` grows, unbalanced."""
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    if seed_side == LEFT:
        a = 1 << seed_index
        b = 0
        cb = adj_left[seed_index]
        ca = 0
        for j in iter_bits(cb):
            ca |= adj_right[j]
        ca &= ~a
    else:
        b = 1 << seed_index
        a = 0
        ca = adj_right[seed_index]
        cb = 0
        for i in iter_bits(ca):
            cb |= adj_left[i]
        cb &= ~b

    while True:
        extend_left = a.bit_count() <= b.bit_count()
        if extend_left:
            candidates, others, adj = ca, cb, adj_left
        else:
            candidates, others, adj = cb, ca, adj_right
        if not candidates:
            break
        best_bit = 0
        best_neighbours = 0
        best_kept = -1
        remaining = candidates
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            neighbours = adj[low.bit_length() - 1] & others
            kept = neighbours.bit_count()
            if kept > best_kept:
                best_kept = kept
                best_bit = low
                best_neighbours = neighbours
        if extend_left:
            a |= best_bit
            ca &= ~best_bit
            cb = best_neighbours
        else:
            b |= best_bit
            cb &= ~best_bit
            ca = best_neighbours
    return a, b


def _top_vertices(
    graph: BipartiteGraph,
    score: Callable[[str, Vertex], float],
    top_r: int,
) -> Iterable[Tuple[str, Vertex]]:
    """The ``top_r`` vertices of the graph ranked by ``score`` (descending)."""
    keys = [(LEFT, u) for u in graph.left_vertices()]
    keys.extend((RIGHT, v) for v in graph.right_vertices())
    keys.sort(key=lambda key: (-score(*key), key[0], repr(key[1])))
    return keys[:top_r]


def degree_heuristic(
    graph: BipartiteGraph,
    *,
    top_r: int = 5,
    context: Optional[SearchContext] = None,
) -> Biclique:
    """Maximum-degree seeded greedy balanced biclique (first half of hMBB).

    When ``context`` is given, :meth:`~repro.mbb.context.SearchContext.
    checkpoint` is polled before every seed extension so engine deadlines
    and cancellation hooks cut the heuristic stage short, and every seed's
    result is offered to the incumbent as soon as it is found — work done
    by completed seeds survives an abort on a later one.
    """

    def score(side: str, label: Vertex) -> float:
        return graph.degree_left(label) if side == LEFT else graph.degree_right(label)

    best = Biclique.empty()
    for side, label in _top_vertices(graph, score, top_r):
        if context is not None:
            context.checkpoint()
        candidate = greedy_extend(graph, side, label)
        if candidate.side_size > best.side_size:
            best = candidate
        if context is not None:
            context.offer_biclique(candidate)
    return best


def core_heuristic(
    graph: BipartiteGraph,
    *,
    top_r: int = 5,
    cores: Optional[Dict[VertexKey, int]] = None,
    context: Optional[SearchContext] = None,
) -> Biclique:
    """Maximum-core-number seeded greedy balanced biclique (second half of hMBB)."""
    if cores is None:
        cores = core_numbers(graph)

    def score(side: str, label: Vertex) -> float:
        return cores.get((side, label), 0)

    best = Biclique.empty()
    for side, label in _top_vertices(graph, score, top_r):
        if context is not None:
            context.checkpoint()
        candidate = greedy_extend(graph, side, label)
        if candidate.side_size > best.side_size:
            best = candidate
        if context is not None:
            context.offer_biclique(candidate)
    return best


def core_heuristic_bits(
    graph: IndexedBitGraph,
    *,
    top_r: int = 5,
    cores: Optional[Tuple[List[int], List[int]]] = None,
) -> Biclique:
    """Mask-native :func:`core_heuristic` over a whole :class:`IndexedBitGraph`.

    ``cores`` is the ``(core_left, core_right)`` pair produced by
    :func:`~repro.graph.bitset.core_numbers_masks`; passing the pair the
    caller already computed for its degeneracy test avoids a second peel.
    Seeds are ranked exactly like the set-based version — descending core
    number, left side first, then ``repr`` of the label — so both kernels
    extend the same seeds.  The seeds' greedy runs stay masks; only the
    winner becomes a :class:`Biclique`.

    Core numbers restricted to a ``k``-core (zero outside it, as
    :func:`~repro.graph.bitset.core_numbers_masks` leaves them) rank the
    same ``top_r`` seeds as the full ones when the core holds at least
    ``top_r`` vertices: every core vertex outranks every other vertex
    either way, and inside the core the numbers agree.
    """
    if cores is None:
        cores = core_numbers_masks(graph)
    core_left, core_right = cores
    # A bitgraph's indices are already ``repr``-sorted per side and the
    # side markers compare as "L" < "R", so ``(-core, side, index)`` ranks
    # exactly like the set-based ``(-score, side, repr(label))`` key
    # without building a repr string per vertex.
    keys = [(-core, LEFT, i) for i, core in enumerate(core_left)]
    keys.extend((-core, RIGHT, j) for j, core in enumerate(core_right))
    keys.sort()
    best_side = 0
    best_masks = (0, 0)
    for _, side, index in keys[:top_r]:
        a, b = _greedy_masks(graph, side, index)
        side_size = min(a.bit_count(), b.bit_count())
        if side_size > best_side:
            best_side = side_size
            best_masks = (a, b)
    a, b = best_masks
    return Biclique.of(
        graph.left_labels_of(a), graph.right_labels_of(b)
    ).balanced()


@dataclass
class HMBBOutcome:
    """Result of the heuristic-and-reduction stage (Algorithm 5)."""

    best: Biclique
    #: Prepared snapshot of the residual graph after the Lemma 4
    #: reductions (the input's own snapshot when nothing was removed).
    residual: PreparedGraph
    proven_optimal: bool

    @property
    def reduced_graph(self) -> BipartiteGraph:
        """The residual graph itself (the label-keyed graph of :attr:`residual`)."""
        return self.residual.graph

    @property
    def exhausted(self) -> bool:
        """True when the reduction removed the entire residual graph."""
        return self.residual.csr.num_vertices == 0


def h_mbb(
    graph: BipartiteGraph,
    *,
    top_r: int = 5,
    context: Optional[SearchContext] = None,
    prepared: Optional[PreparedGraph] = None,
) -> HMBBOutcome:
    """Algorithm 5: heuristics, Lemma 4 reductions and Lemma 5 early exit.

    Returns the best balanced biclique found, the prepared snapshot of the
    residual graph after the core-based reductions, and whether the
    Lemma 5 condition already proves the incumbent optimal.

    Lemma 5 states that a balanced biclique with side size ``k`` forces
    degeneracy at least ``k``, so ``δ(G) <= |A*|`` certifies the incumbent
    ``(A*, B*)`` optimal.  Crucially the degeneracy must be taken on the
    graph *before* it is shrunk to the ``(best_side + 1)``-core: a nonempty
    ``(k + 1)``-core always has degeneracy at least ``k + 1``, so comparing
    the post-reduction degeneracy against ``best_side`` (as an earlier
    revision of this function did) can never succeed and the early exit was
    dead code.  With the pre-reduction comparison, S1 can terminate the
    whole search while the residual graph is still nonempty.

    The stage runs on ``prepared`` (prepared here when not given, and
    charged to the ``prepare_seconds`` stat): one memoised core peel
    (:meth:`~repro.graph.prepared.PreparedGraph.core_numbers`) gives the
    degeneracy and the core seeds, and each Lemma 4 residual is the
    memoised :meth:`~repro.graph.prepared.PreparedGraph.for_subgraph`
    snapshot, so a repeated solve of one graph re-derives nothing here.
    Seeds rank by ``(-degree, id)`` and ``(-core, id)``; dense ids are the
    ``(side, repr(label))`` order, the tie-break of :func:`degree_heuristic`
    and :func:`core_heuristic`.  Each seed is grown by the set-based
    :func:`greedy_extend` on the label-keyed graph of its snapshot.

    Budgets are enforced: every greedy seed polls ``context.checkpoint()``,
    so an engine deadline or cancellation hook stops the stage between two
    seed extensions, and every seed's biclique is offered to the incumbent
    as soon as it is found.  On abort the incumbent found so far is
    returned with ``proven_optimal=False`` and ``context.aborted`` set —
    callers such as :func:`repro.mbb.sparse.hbv_mbb` report
    ``optimal=False`` from it.
    """
    if top_r < 0:
        raise InvalidParameterError(f"top_r must be non-negative, got {top_r}")
    if context is None:
        context = SearchContext()
    if prepared is None:
        with context.timed_stat("prepare_seconds"):
            prepared = PreparedGraph.prepare(graph)
    else:
        ensure_prepared_for(prepared, graph)
    try:
        return _h_mbb(prepared, top_r, context)
    except SearchAborted:
        return HMBBOutcome(context.best, prepared, False)


def _extend_seeds(
    prepared: PreparedGraph,
    negated_scores: Iterable[int],
    top_r: int,
    context: SearchContext,
) -> None:
    """Grow a greedy biclique from each of the ``top_r`` best-scored ids.

    ``negated_scores`` holds ``-score`` per dense id, so plain
    ``(-score, id)`` tuple order ranks seeds by descending score with ties
    to the smallest id, with no per-vertex key function.  Each seed polls
    the checkpoint first and offers its biclique as soon as it is found.
    """
    graph = prepared.graph
    keys = prepared.csr.keys
    ranked = zip(negated_scores, range(len(keys)), strict=True)
    for _, seed in heapq.nsmallest(top_r, ranked):
        context.checkpoint()
        side, label = keys[seed]
        context.offer_biclique(greedy_extend(graph, side, label))


def _reduce(
    prepared: PreparedGraph, context: SearchContext
) -> PreparedGraph:
    """Lemma 4: the ``(best_side + 1)``-core snapshot of ``prepared``."""
    with context.timed_stat("prepare_seconds"):
        return prepared.for_subgraph(context.best_side + 1)


def _h_mbb(
    prepared: PreparedGraph, top_r: int, context: SearchContext
) -> HMBBOutcome:
    """Budget-unaware body of :func:`h_mbb` (checkpoints may raise)."""
    # Degree-seeded heuristic; Lemma 5 check on the *input* graph, whose
    # degeneracy is its maximum core number.
    indptr = prepared.csr.indptr
    _extend_seeds(
        prepared, map(sub, indptr, islice(indptr, 1, None)), top_r, context
    )
    context.stats.heuristic_side = max(
        context.stats.heuristic_side, context.best_side
    )
    degeneracy = max(prepared.core_numbers(), default=0)
    if context.best_side > 0 and degeneracy <= context.best_side:
        return HMBBOutcome(context.best, prepared, True)
    residual = _reduce(prepared, context)
    if residual.csr.num_vertices == 0:
        return HMBBOutcome(context.best, residual, True)

    # Core-seeded heuristic on the residual.  A nonempty residual keeps the
    # vertices of maximum core number, so its degeneracy is still
    # ``degeneracy``: the Lemma 5 check is repeated against the improved
    # incumbent before the second reduction.
    side_before = context.best_side
    _extend_seeds(residual, map(neg, residual.core_numbers()), top_r, context)
    if context.best_side > side_before:
        context.stats.heuristic_side = max(
            context.stats.heuristic_side, context.best_side
        )
        if degeneracy <= context.best_side:
            return HMBBOutcome(context.best, residual, True)
        residual = _reduce(residual, context)
        if residual.csr.num_vertices == 0:
            return HMBBOutcome(context.best, residual, True)

    return HMBBOutcome(context.best, residual, False)
