"""Vertex-centred subgraphs (Definition 6, Observations 4-5, Lemmas 6-8).

Given a total search order ``o = (v_1, ..., v_{|L|+|R|})``, the subgraph
centred at ``v_i`` is induced by ``v_i`` together with those of its 1-hop
and 2-hop neighbours that appear *after* it in the order.  Every maximal
biclique is contained in the subgraph centred at its earliest vertex, so
searching each centred subgraph (with the centre forced into the result)
covers the whole graph without duplication.

The quality of the order determines how small and how dense the centred
subgraphs are; the bidegeneracy order bounds their total size by
``O((|L|+|R|) * δ̈)`` (Lemma 8), which is what makes the sparse framework
practical.

:func:`iter_vertex_centred_subgraphs_csr` is the one production
generator.  It walks the position-space adjacency of a
:class:`~repro.graph.prepared.PreparedGraph` snapshot's
:class:`~repro.graph.prepared.OrderView`, whose rows are sorted by order
position, so the neighbours *after* the centre are a contiguous tail
found by one binary search per visited row.  A
:class:`VertexCentredSubgraph` lives in that position space: it holds
the centre's later tail (the other-side members), the later tail of each
of them (whose union is the own-side members) and the view.  Counts, the
size test, the other-side degree test of the bridging stage and the
:class:`~repro.graph.bitset.IndexedBitGraph` of a survivor all come from
those position lists; no label is touched until a consumer asks for one.
The label member sets, the label-keyed :attr:`~VertexCentredSubgraph.
graph` (read only by the ``sets`` ablation) and the bitgraph are lazy,
and each is built at most once: the bitgraph the bridging stage builds
for its core prunes is the very object the verification stage searches.

:func:`iter_vertex_centred_subgraphs` is the historical label-keyed
generator.  It hashes every visited neighbour label against per-side
position dicts and yields only the member label sets
(:class:`CentredMembers`).  No solve runs it: it is the oracle the tests
check the production generator against.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.graph.bipartite import LEFT, BipartiteGraph, Vertex
from repro.graph.bitset import IndexedBitGraph
from repro.graph.prepared import OrderView, PreparedGraph, ensure_prepared_for

VertexKey = Tuple[str, Vertex]


class VertexCentredSubgraph:
    """One centred subgraph in the position space of an order view.

    ``other_positions`` is the centre's later tail: the positions of its
    neighbours after it, ascending.  ``tails[k]`` is the later tail of
    ``other_positions[k]``; every entry is an own-side member, and the
    union of the tails plus the centre is ``own_positions``.  An
    other-side member's degree inside the subgraph is therefore
    ``len(tails[k]) + 1`` (the tail plus the centre), and the tails are
    its adjacency rows with no filtering.
    """

    __slots__ = (
        "center",
        "position",
        "own_positions",
        "other_positions",
        "tails",
        "view",
        "prepared",
        "degeneracy",
        "center_index",
        "_members",
        "_graph",
        "_bitgraph",
    )

    def __init__(
        self,
        center: VertexKey,
        position: int,
        own_positions: Set[int],
        other_positions: List[int],
        tails: List[List[int]],
        view: OrderView,
        prepared: PreparedGraph,
    ) -> None:
        self.center = center
        self.position = position
        self.own_positions = own_positions
        self.other_positions = other_positions
        self.tails = tails
        self.view = view
        #: The snapshot the view belongs to; its label graph is read only
        #: when a consumer asks for labels or for :attr:`graph`.
        self.prepared = prepared
        #: Degeneracy of the induced subgraph, cached by the bridging stage
        #: so its re-filter pass (and any later consumer) never re-peels.
        #: ``None`` until a stage that ran a core decomposition stores it.
        self.degeneracy: Optional[int] = None
        #: The centre's index on its side of :meth:`to_bitgraph`, set by
        #: the build so the verification stage needs no label lookup.
        self.center_index: Optional[int] = None
        self._members: Optional[Tuple[Set[Vertex], Set[Vertex]]] = None
        self._graph: Optional[BipartiteGraph] = None
        self._bitgraph: Optional[IndexedBitGraph] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VertexCentredSubgraph(center={self.center!r}, "
            f"position={self.position}, |L|={self.num_left}, "
            f"|R|={self.num_right})"
        )

    @property
    def num_left(self) -> int:
        """Number of left-side member vertices (a count, nothing built)."""
        if self.center[0] == LEFT:
            return len(self.own_positions)
        return len(self.other_positions)

    @property
    def num_right(self) -> int:
        """Number of right-side member vertices (a count, nothing built)."""
        if self.center[0] == LEFT:
            return len(self.other_positions)
        return len(self.own_positions)

    @property
    def min_side(self) -> int:
        """``min(|L|, |R|)`` of the members — the Lemma size-test input."""
        return min(len(self.own_positions), len(self.other_positions))

    @property
    def size(self) -> int:
        """Number of vertices of the centred subgraph."""
        return len(self.own_positions) + len(self.other_positions)

    @property
    def num_edges(self) -> int:
        """Number of edges: each other-side member's tail plus the centre."""
        return len(self.other_positions) + sum(map(len, self.tails))

    @property
    def density(self) -> float:
        """Edge density of the centred subgraph (Figure 6 metric).

        Counted from the tail lengths, so profiling the family — most of
        which no search will ever touch — builds nothing per subgraph.
        """
        product = len(self.own_positions) * len(self.other_positions)
        return self.num_edges / product if product else 0.0

    def count_other_degrees_at_least(self, k: int) -> int:
        """How many other-side members have degree ``>= k`` in the subgraph.

        A nonempty ``k``-core needs at least ``k`` of them (each own-side
        core vertex has ``k`` core neighbours on the other side, all of
        degree ``>= k``), so a count below ``k`` proves the degeneracy is
        below ``k`` from the tail lengths alone.
        """
        return sum(map((k - 1).__le__, map(len, self.tails)))

    @property
    def left_members(self) -> Set[Vertex]:
        """Labels of the left-side members (lazy, cached)."""
        return self._label_members()[0]

    @property
    def right_members(self) -> Set[Vertex]:
        """Labels of the right-side members (lazy, cached)."""
        return self._label_members()[1]

    def _label_members(self) -> Tuple[Set[Vertex], Set[Vertex]]:
        """Both member label sets, built once from the position lists.

        The sets are filled in the order the label-keyed generator fills
        them (the parent's adjacency-set order, filtered by membership):
        the ``sets`` kernel's counters depend on set iteration order, and
        this keeps them what that generator gave.
        """
        if self._members is None:
            labels = self.view.labels
            later_other = set(map(labels.__getitem__, self.other_positions))
            own = set(map(labels.__getitem__, self.own_positions))
            side, label = self.center
            parent = self.prepared.graph
            if side == LEFT:
                neighbours_of_center = parent.neighbors_left(label)
                neighbours_of_other = parent.neighbors_right
            else:
                neighbours_of_center = parent.neighbors_right(label)
                neighbours_of_other = parent.neighbors_left
            other_members = {v for v in neighbours_of_center if v in later_other}
            own_members = {label}
            for v in other_members:
                for u in neighbours_of_other(v):
                    if u != label and u in own:
                        own_members.add(u)
            if side == LEFT:
                self._members = (own_members, other_members)
            else:
                self._members = (other_members, own_members)
        return self._members

    @property
    def graph(self) -> BipartiteGraph:
        """The centred subgraph as a :class:`BipartiteGraph` (lazy, cached).

        Only the ``sets`` ablation reads it; the default bitset pipeline
        goes straight to :meth:`to_bitgraph`.
        """
        if self._graph is None:
            left, right = self._label_members()
            self._graph = self.prepared.graph.induced_subgraph(left, right)
        return self._graph

    def to_bitgraph(self) -> IndexedBitGraph:
        """The centred subgraph as an :class:`IndexedBitGraph` (cached).

        Built from the position lists.  Both sides are sorted by dense
        id, which is the ``(side, repr(label))`` order, so the result
        equals ``IndexedBitGraph.from_bipartite(parent, left_members,
        right_members)`` — labels, rows, index maps and so every
        tie-break.  One pass over the ranked tails fills both sides'
        rows: other-side member ``r``'s row is the centre plus its tail,
        and every own member in that tail gains bit ``r``.  The centre's
        own row is every other-side bit, and the edge count is the tail
        lengths plus one edge per other-side member, so nothing is
        transposed.  The bridging stage (Algorithm 6) runs its core
        prunes and local heuristic on this object and the verification
        stage (Algorithm 8) searches the *same* instance.
        """
        if self._bitgraph is None:
            view = self.view
            order_ids = view.order_ids
            labels = view.labels
            own = sorted(self.own_positions, key=order_ids.__getitem__)
            bit_of: Dict[int, int] = {p: 1 << i for i, p in enumerate(own)}
            center_bit = bit_of[self.position]
            self.center_index = center_bit.bit_length() - 1
            other = self.other_positions
            tails = self.tails
            ranked = sorted(
                range(len(other)), key=[order_ids[q] for q in other].__getitem__
            )
            bit = bit_of.__getitem__
            # Own rows by position, in ``own`` order.
            own_rows = dict.fromkeys(own, 0)
            other_rows: List[int] = []
            edges = len(other)
            for r, k in enumerate(ranked):
                tail = tails[k]
                edges += len(tail)
                other_rows.append(sum(map(bit, tail)) | center_bit)
                other_bit = 1 << r
                for p in tail:
                    own_rows[p] |= other_bit
            own_rows[self.position] = (1 << len(other)) - 1
            own_labels = [labels[p] for p in own]
            other_labels = [labels[other[k]] for k in ranked]
            own_adj = list(own_rows.values())
            if self.center[0] == LEFT:
                self._bitgraph = IndexedBitGraph._assemble(
                    own_labels, other_labels, own_adj, other_rows, edges
                )
            else:
                self._bitgraph = IndexedBitGraph._assemble(
                    other_labels, own_labels, other_rows, own_adj, edges
                )
        return self._bitgraph


def iter_vertex_centred_subgraphs_csr(
    prepared: PreparedGraph,
    order: Sequence[VertexKey],
) -> Iterator[VertexCentredSubgraph]:
    """Yield the centred subgraph of every vertex, following ``order``.

    Walks the flat position-space adjacency of the snapshot's
    :class:`~repro.graph.prepared.OrderView`: every row is sorted
    ascending by order position, so the neighbours *after* the centre —
    the only vertices a centred subgraph may contain — are a contiguous
    tail found by one :func:`bisect.bisect_right` per visited row.  Per
    centre the generator slices the centre's later tail and the later
    tail of each vertex in it, and unions those tails into the own-side
    member set, all in C-level list and set operations.  Subgraphs are
    produced lazily, so callers (``bridgeMBB``) prune them one by one
    from counts; the member sets, positions and iteration order equal
    the label-keyed :func:`iter_vertex_centred_subgraphs` oracle's
    (property-tested).
    """
    view = prepared.order_view(order if isinstance(order, list) else list(order))
    rows = view.flat_positions
    row_ptr = view.row_ptr
    order_ids = view.order_ids
    keys = prepared.csr.keys
    make_subgraph = VertexCentredSubgraph
    end = 0
    for position in range(len(order_ids)):
        start = end
        end = row_ptr[position + 1]
        cut = bisect_right(rows, position, start, end)
        other = rows[cut:end]
        # Per later neighbour, one binary search bounded to its row inside
        # the flat positions list and one slice of the later part.
        tails = [
            rows[bisect_right(rows, position, row_ptr[q], stop) : stop]
            for q in other
            for stop in (row_ptr[q + 1],)
        ]
        own = set().union(*tails)
        own.add(position)
        yield make_subgraph(
            keys[order_ids[position]], position, own, other, tails, view, prepared
        )


class CentredMembers(NamedTuple):
    """One centred subgraph as member label sets (the oracle's record)."""

    center: VertexKey
    position: int
    left_members: Set[Vertex]
    right_members: Set[Vertex]


def iter_vertex_centred_subgraphs(
    graph: BipartiteGraph,
    order: Sequence[VertexKey],
) -> Iterator[CentredMembers]:
    """Label-keyed oracle of :func:`iter_vertex_centred_subgraphs_csr`.

    Splits the position map by side so the inner-loop lookup is a plain
    label lookup, then per centre filters the centre's neighbours and
    their neighbours by position.  Tests compare the production
    generator against it.
    """
    left_pos: Dict[Vertex, int] = {}
    right_pos: Dict[Vertex, int] = {}
    for index, (side, label) in enumerate(order):
        if side == LEFT:
            left_pos[label] = index
        else:
            right_pos[label] = index
    for position, center in enumerate(order):
        side, label = center
        if side == LEFT:
            right_members = {
                v for v in graph.neighbors_left(label) if right_pos[v] > position
            }
            left_members = {label}
            for v in right_members:
                for u in graph.neighbors_right(v):
                    if u != label and left_pos[u] > position:
                        left_members.add(u)
        else:
            left_members = {
                u for u in graph.neighbors_right(label) if left_pos[u] > position
            }
            right_members = {label}
            for u in left_members:
                for v in graph.neighbors_left(u):
                    if v != label and right_pos[v] > position:
                        right_members.add(v)
        yield CentredMembers(center, position, left_members, right_members)


def total_subgraph_size(
    graph: BipartiteGraph,
    order: Sequence[VertexKey],
    *,
    prepared: Optional[PreparedGraph] = None,
) -> int:
    """Total number of vertices over all centred subgraphs (Lemmas 6-8).

    Pass the ``prepared`` snapshot when the caller already holds one (the
    Figure 6 metrics share a single snapshot across all three orders) to
    skip re-indexing.
    """
    if prepared is None:
        prepared = PreparedGraph.prepare(graph)
    else:
        ensure_prepared_for(prepared, graph)
    return sum(
        sub.size for sub in iter_vertex_centred_subgraphs_csr(prepared, order)
    )


def subgraph_density_profile(
    graph: BipartiteGraph,
    order: Sequence[VertexKey],
    *,
    prepared: Optional[PreparedGraph] = None,
) -> List[float]:
    """Densities of all centred subgraphs with at least one edge candidate.

    Subgraphs whose centre has no later neighbours are skipped, matching
    how the paper reports the *average density of vertex centred
    subgraphs* in Figure 6 (empty slices would otherwise dominate the
    average with zeros).  Like :func:`total_subgraph_size` this accepts a
    shared ``prepared`` snapshot.
    """
    if prepared is None:
        prepared = PreparedGraph.prepare(graph)
    else:
        ensure_prepared_for(prepared, graph)
    densities: List[float] = []
    for sub in iter_vertex_centred_subgraphs_csr(prepared, order):
        if sub.num_left > 0 and sub.num_right > 0:
            density = sub.density
            if density > 0.0:
                densities.append(density)
    return densities
