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
for both kernels.  Every seed grows on the input's own graph: a residual's
core seeds are restricted to the residual's labels, which gives the picks
the residual graph would give without building that graph.  The greedy
makes the picks of the textbook full-scan loop with a fraction of its
intersections: its first step needs no two-hop union, and later steps
stop scanning once no remaining candidate can reach the best count.  The
label-keyed seed helpers (:func:`degree_heuristic`,
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
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.graph.bitset import CHUNK_BITS, IndexedBitGraph, core_numbers_masks
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
    number of candidates alive on the other side (ties to the smallest
    ``repr``).  This is the standard maximum-degree greedy rule the paper
    uses inside ``hMBB``; it runs in ``O(d^2)`` around the seed where
    ``d`` is the seed's degree, so seeding it from a handful of top
    vertices stays near-linear overall.

    The picks are those of the textbook loop, which scans every candidate
    against the other side's candidates at each step, but two facts make
    most of that loop's set intersections unnecessary:

    * The first step never builds the seed's two-hop union.  Its
      candidates are the seed's neighbours, and each keeps exactly its
      own degree minus one (the seed) of that union, so the pick is the
      neighbour of largest degree and the two candidate sets follow from
      its row and the seed's.
    * Candidate sets only shrink, so a candidate's kept count from its
      side's previous scan (before its first scan, its degree) bounds its
      count now.  Each step evaluates candidates in descending bound order
      and stops once the bound falls below the best count found: every
      candidate that could tie is still evaluated, so the tie-break picks
      the same vertex.
    """
    return _greedy_sets(graph, seed_side, seed_vertex, None, None)


def _greedy_sets(
    graph: BipartiteGraph,
    seed_side: str,
    seed_vertex: Vertex,
    left: Optional[Set[Vertex]],
    right: Optional[Set[Vertex]],
) -> Biclique:
    """:func:`greedy_extend` on the subgraph of ``graph`` induced by ``left`` and ``right``.

    ``None`` for both means the whole graph.  Only the first step reads
    the restriction: it cuts the seed's row and the first pick's row down
    to it, and "degree" there means the degree inside it.  Every later
    candidate set is an intersection with those two, so later steps make
    the pick the induced subgraph's greedy makes without looking at the
    restriction again.
    """
    neighbors_left = graph.neighbors_left
    neighbors_right = graph.neighbors_right
    if seed_side == LEFT:
        seed_rows, first_rows = neighbors_left, neighbors_right
        seed_allowed, first_allowed = left, right
    else:
        seed_rows, first_rows = neighbors_right, neighbors_left
        seed_allowed, first_allowed = right, left
    first = seed_rows(seed_vertex)
    first = set(first) if first_allowed is None else first & first_allowed
    if not first:
        return Biclique.empty()
    # A neighbour ``v`` keeps its degree minus one (the seed) of the
    # seed's two-hop union, so the pick is the neighbour of largest degree.
    first_bound = {v: len(first_rows(v)) for v in first}
    if seed_allowed is None:
        top = max(first_bound.values())
        pick = min((v for v in first if first_bound[v] == top), key=repr)
        pick_row = set(first_rows(pick))
    else:
        pick = _best_kept(first, seed_allowed, first_rows, first_bound)
        pick_row = first_rows(pick) & seed_allowed
    pick_row.discard(seed_vertex)
    first.discard(pick)
    # Every first-step count included the seed, which is no candidate.
    first_bound = {v: first_bound[v] - 1 for v in first}
    # A seed-side candidate ``u`` is a neighbour of ``pick``, which is no
    # longer a candidate, so its degree minus one bounds its count.
    seed_bound = {u: len(seed_rows(u)) - 1 for u in pick_row}
    if seed_side == LEFT:
        a, b = {seed_vertex}, {pick}
        ca, cb = pick_row, first
        bound_left, bound_right = seed_bound, first_bound
    else:
        a, b = {pick}, {seed_vertex}
        ca, cb = first, pick_row
        bound_left, bound_right = first_bound, seed_bound

    while True:
        extend_left = len(a) <= len(b)
        if extend_left:
            candidates, others, rows, bound = ca, cb, neighbors_left, bound_left
        else:
            candidates, others, rows, bound = cb, ca, neighbors_right, bound_right
        if not candidates:
            break
        best_vertex = _best_kept(candidates, others, rows, bound)
        if extend_left:
            a.add(best_vertex)
            ca.discard(best_vertex)
            cb &= neighbors_left(best_vertex)
        else:
            b.add(best_vertex)
            cb.discard(best_vertex)
            ca &= neighbors_right(best_vertex)
    return Biclique.of(a, b).balanced()


def _best_kept(
    candidates: Set[Vertex],
    others: Set[Vertex],
    rows: Callable[[Vertex], Set[Vertex]],
    bound: Dict[Vertex, int],
) -> Vertex:
    """The candidate whose row keeps the most of ``others``.

    ``bound[v]`` must be an upper bound of ``v``'s count; each evaluated
    candidate's entry is lowered to its exact count, which bounds it at
    the next scan because ``others`` only shrinks.  Candidates run in
    descending bound order until the bound drops below the best count, so
    every candidate that could tie is evaluated and ties go to the
    smallest ``repr``, whatever the set's (hash) iteration order.
    """
    best_vertex = None
    best_kept = -1
    best_repr = ""
    for vertex in sorted(candidates, key=bound.__getitem__, reverse=True):
        if bound[vertex] < best_kept:
            break
        kept = len(rows(vertex) & others)
        bound[vertex] = kept
        if kept < best_kept:
            continue
        vertex_repr = repr(vertex)
        if kept > best_kept or vertex_repr < best_repr:
            best_kept = kept
            best_vertex = vertex
            best_repr = vertex_repr
    return best_vertex


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
    """The ``(a, b)`` masks :func:`greedy_extend_bits` grows, unbalanced.

    The first step is :func:`greedy_extend`'s: no two-hop union, the
    seed's neighbour with the fullest row is the pick.  Later steps scan
    every candidate, since one ``&`` and one ``bit_count`` per candidate
    leave lazy bounds nothing to save.  Both scans walk their masks in
    12-bit chunks (:data:`~repro.graph.bitset.CHUNK_BITS`), in ascending
    index order, so ties still go to the lowest index.
    """
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    seed_bit = 1 << seed_index
    if seed_side == LEFT:
        first, first_rows = adj_left[seed_index], adj_right
    else:
        first, first_rows = adj_right[seed_index], adj_left
    if not first:
        return (seed_bit, 0) if seed_side == LEFT else (0, seed_bit)
    best_index = 0
    best_count = -1
    remaining = first
    base = 0
    while remaining:
        for i in CHUNK_BITS[remaining & 0xFFF]:
            i += base
            count = first_rows[i].bit_count()
            if count > best_count:
                best_count = count
                best_index = i
        remaining >>= 12
        base += 12
    best_bit = 1 << best_index
    pick_row = first_rows[best_index] & ~seed_bit
    if seed_side == LEFT:
        a, b = seed_bit, best_bit
        ca, cb = pick_row, first ^ best_bit
    else:
        a, b = best_bit, seed_bit
        ca, cb = first ^ best_bit, pick_row

    while True:
        extend_left = a.bit_count() <= b.bit_count()
        if extend_left:
            candidates, others, adj = ca, cb, adj_left
        else:
            candidates, others, adj = cb, ca, adj_right
        if not candidates:
            break
        best_index = 0
        best_neighbours = 0
        best_kept = -1
        remaining = candidates
        base = 0
        while remaining:
            for i in CHUNK_BITS[remaining & 0xFFF]:
                i += base
                neighbours = adj[i] & others
                kept = neighbours.bit_count()
                if kept > best_kept:
                    best_kept = kept
                    best_index = i
                    best_neighbours = neighbours
            remaining >>= 12
            base += 12
        best_bit = 1 << best_index
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
    greedy on ``graph``, restricted to the residual's labels for the core
    seeds, so no residual's label graph is built here.

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
    root: PreparedGraph,
    snapshot: PreparedGraph,
    negated_scores: Iterable[int],
    top_r: int,
    context: SearchContext,
) -> None:
    """Grow a greedy biclique from each of the ``top_r`` best-scored ids.

    ``negated_scores`` holds ``-score`` per dense id of ``snapshot``, so
    plain ``(-score, id)`` tuple order ranks seeds by descending score
    with ties to the smallest id, with no per-vertex key function.  Each
    seed polls the checkpoint first and offers its biclique as soon as it
    is found.

    Seeds grow on ``root``'s label graph.  When ``snapshot`` is one of
    its residuals the greedy is restricted to the residual's labels,
    which makes the picks the residual's own graph would give, so no
    residual graph is built for S1.
    """
    graph = root.graph
    within = (None, None)
    if snapshot is not root:
        labels = snapshot.labels
        num_left = snapshot.csr.num_left
        within = (set(labels[:num_left]), set(labels[num_left:]))
    keys = snapshot.csr.keys
    ranked = zip(negated_scores, range(len(keys)), strict=True)
    for _, seed in heapq.nsmallest(top_r, ranked):
        context.checkpoint()
        side, label = keys[seed]
        context.offer_biclique(_greedy_sets(graph, side, label, *within))


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
        prepared,
        prepared,
        map(sub, indptr, islice(indptr, 1, None)),
        top_r,
        context,
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
    _extend_seeds(
        prepared, residual, map(neg, residual.core_numbers()), top_r, context
    )
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
