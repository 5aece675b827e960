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

A :class:`VertexCentredSubgraph` is deliberately *lazy*: generation only
computes the member vertex sets, which is all the bridging stage needs for
its trivial size test.  Neither representation of the induced subgraph — the
:class:`~repro.graph.bitset.IndexedBitGraph` used by the default bitset
pipeline nor the :class:`~repro.graph.bipartite.BipartiteGraph` used by the
``sets`` ablation — is materialised until a consumer asks for it, and each
is built at most once: the bitgraph the bridging stage builds for its core
prunes is the very object the verification stage searches.

Two generators produce the family.  :func:`iter_vertex_centred_subgraphs`
is the historical label-keyed one: per centre it hashes every visited
neighbour label against per-side position dicts.  The default pipeline
uses :func:`iter_vertex_centred_subgraphs_csr` instead, which walks the
position-space adjacency view of a :class:`~repro.graph.prepared.
PreparedGraph` snapshot (flat arrays derived from CSR ``indptr``/
``indices``, re-indexed and sorted along the order) — later members are
binary-searched contiguous tails and labels appear only at the
member-set boundary, so the yielded subgraphs (and everything downstream
of them) are byte-identical to the label-keyed generator's, which stays
selectable as the ``sets``-kernel ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.graph.bitset import IndexedBitGraph
from repro.graph.prepared import PreparedGraph, ensure_prepared_for

VertexKey = Tuple[str, Vertex]


@dataclass
class VertexCentredSubgraph:
    """One centred subgraph: member sets first, graph forms on demand."""

    center: VertexKey
    position: int
    left_members: Set[Vertex]
    right_members: Set[Vertex]
    parent: BipartiteGraph = field(repr=False)
    #: Degeneracy of the induced subgraph, cached by the bridging stage so
    #: its re-filter pass (and any later consumer) never re-peels.  ``None``
    #: until a stage that ran a core decomposition stores it.
    degeneracy: Optional[int] = field(default=None, compare=False)
    _graph: Optional[BipartiteGraph] = field(
        default=None, repr=False, compare=False
    )
    _bitgraph: Optional[IndexedBitGraph] = field(
        default=None, repr=False, compare=False
    )

    @property
    def center_side(self) -> str:
        """Which side (:data:`LEFT` / :data:`RIGHT`) the centre lies on."""
        return self.center[0]

    @property
    def center_label(self) -> Vertex:
        """The centre's vertex label."""
        return self.center[1]

    @property
    def num_left(self) -> int:
        """Number of left-side member vertices (no materialisation)."""
        return len(self.left_members)

    @property
    def num_right(self) -> int:
        """Number of right-side member vertices (no materialisation)."""
        return len(self.right_members)

    @property
    def min_side(self) -> int:
        """``min(|L|, |R|)`` of the member sets — the Lemma size-test input."""
        return min(len(self.left_members), len(self.right_members))

    @property
    def size(self) -> int:
        """Number of vertices of the centred subgraph."""
        return len(self.left_members) + len(self.right_members)

    @property
    def density(self) -> float:
        """Edge density of the centred subgraph (Figure 6 metric).

        Counted directly from the member sets against the parent's
        adjacency (iterating the smaller side), so profiling the family —
        most of which no search will ever touch — does not pay the full
        bitset indexing of :meth:`to_bitgraph` per subgraph.  A bitgraph
        that some stage already materialised is reused instead.
        """
        if self._bitgraph is not None:
            return self._bitgraph.density
        num_left = len(self.left_members)
        num_right = len(self.right_members)
        if not num_left or not num_right:
            return 0.0
        parent = self.parent
        if num_left <= num_right:
            edges = sum(
                len(parent.neighbors_left(u) & self.right_members)
                for u in self.left_members
            )
        else:
            edges = sum(
                len(parent.neighbors_right(v) & self.left_members)
                for v in self.right_members
            )
        return edges / (num_left * num_right)

    @property
    def graph(self) -> BipartiteGraph:
        """The centred subgraph as a :class:`BipartiteGraph` (lazy, cached).

        Only the ``sets`` ablation path pays for this materialisation; the
        default bitset pipeline goes straight to :meth:`to_bitgraph`.
        """
        if self._graph is None:
            self._graph = self.parent.induced_subgraph(
                self.left_members, self.right_members
            )
        return self._graph

    def to_bitgraph(self) -> IndexedBitGraph:
        """The centred subgraph as an :class:`IndexedBitGraph` (cached).

        Built directly from the parent graph restricted to the member sets
        — no intermediate :class:`BipartiteGraph` copy.  The bridging stage
        (Algorithm 6) runs its core prunes and local heuristic on this
        object and the verification stage (Algorithm 8) then searches the
        *same* cached instance, so each surviving subgraph is indexed
        exactly once per solve.
        """
        if self._bitgraph is None:
            self._bitgraph = IndexedBitGraph.from_bipartite(
                self.parent, self.left_members, self.right_members
            )
        return self._bitgraph


def vertex_centred_subgraph(
    graph: BipartiteGraph,
    center: VertexKey,
    later: Dict[VertexKey, int],
    position: int,
) -> VertexCentredSubgraph:
    """Build the subgraph centred at ``center`` restricted to later vertices.

    ``later`` maps every vertex key to its position in the total order; a
    vertex participates when its position is strictly greater than
    ``position`` (the centre's own position).  Only the member sets are
    computed here; see :class:`VertexCentredSubgraph` for the lazy graph
    forms.
    """
    left_pos = {label: pos for (side, label), pos in later.items() if side == LEFT}
    right_pos = {label: pos for (side, label), pos in later.items() if side == RIGHT}
    return _vertex_centred_subgraph(graph, center, left_pos, right_pos, position)


def _vertex_centred_subgraph(
    graph: BipartiteGraph,
    center: VertexKey,
    left_pos: Dict[Vertex, int],
    right_pos: Dict[Vertex, int],
    position: int,
) -> VertexCentredSubgraph:
    """Member-set construction with per-side position tables.

    Splitting the position map by side turns the hot inner-loop lookup
    from a tuple-key hash (build the tuple, hash two elements) into a
    plain label lookup; generation runs once per vertex of the residual
    graph, so this shows up in the S2 profile.
    """
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
    return VertexCentredSubgraph(
        center=center,
        position=position,
        left_members=left_members,
        right_members=right_members,
        parent=graph,
    )


def iter_vertex_centred_subgraphs(
    graph: BipartiteGraph,
    order: Sequence[VertexKey],
) -> Iterator[VertexCentredSubgraph]:
    """Yield the centred subgraph of every vertex, following ``order``.

    Subgraphs are produced lazily so callers (``bridgeMBB``) can prune them
    one by one without materialising the whole family — and, since each
    yielded object carries only its member sets, a subgraph killed by the
    trivial size test never materialises any induced-subgraph form at all.
    """
    left_pos: Dict[Vertex, int] = {}
    right_pos: Dict[Vertex, int] = {}
    for index, (side, label) in enumerate(order):
        if side == LEFT:
            left_pos[label] = index
        else:
            right_pos[label] = index
    for index, key in enumerate(order):
        yield _vertex_centred_subgraph(graph, key, left_pos, right_pos, index)


def iter_vertex_centred_subgraphs_csr(
    prepared: PreparedGraph,
    order: Sequence[VertexKey],
) -> Iterator[VertexCentredSubgraph]:
    """CSR counterpart of :func:`iter_vertex_centred_subgraphs`.

    Walks the flat position-space adjacency of the snapshot's
    :class:`~repro.graph.prepared.OrderView`: every row is sorted
    ascending by order position, so the neighbours *after* the centre —
    the only vertices a centred subgraph may contain — are a contiguous
    tail found by one :func:`bisect.bisect_right` per visited row.  The
    generator therefore touches later vertices only (no per-neighbour
    position test), and the member sets are built by C-level set unions
    over the element-aligned label-row tails, so positions cross back to
    labels at the member-set boundary with no Python-level inner loop at
    all.  The yielded :class:`VertexCentredSubgraph` objects — member
    sets, positions and iteration order — are identical to the
    label-keyed generator's (property-tested), so both kernels consume
    them unchanged.
    """
    from bisect import bisect_right

    view = prepared.order_view(order if isinstance(order, list) else list(order))
    rows = view.flat_positions
    row_ptr = view.row_ptr
    flat_labels = view.flat_labels
    is_left = view.is_left
    order_ids = view.order_ids
    labels = view.labels
    keys = prepared.csr.keys
    total = len(order_ids)
    make_subgraph = VertexCentredSubgraph
    parent = prepared.graph
    end = 0
    for position in range(total):
        start = end
        end = row_ptr[position + 1]
        cut = bisect_right(rows, position, start, end)
        if cut == end:
            # No later neighbours: the centred subgraph is the bare
            # centre.  Late-order centres hit this constantly, so skip
            # the set machinery entirely.
            own_members = {labels[position]}
            other_members: Set[Vertex] = set()
        else:
            other_members = set(flat_labels[cut:end])
            # The 2-hop union runs entirely in C: per later neighbour,
            # one binary search bounded to the neighbour's row inside the
            # flat positions list (the row itself is never sliced out)
            # plus one set.update over the later-tail slice of the
            # element-aligned label array.
            own_members = set()
            update = own_members.update
            for neighbour in rows[cut:end]:
                neighbour_start = row_ptr[neighbour]
                neighbour_end = row_ptr[neighbour + 1]
                update(
                    flat_labels[
                        bisect_right(
                            rows, position, neighbour_start, neighbour_end
                        ) : neighbour_end
                    ]
                )
            own_members.add(labels[position])
        if is_left[position]:
            left_members, right_members = own_members, other_members
        else:
            left_members, right_members = other_members, own_members
        yield make_subgraph(
            center=keys[order_ids[position]],
            position=position,
            left_members=left_members,
            right_members=right_members,
            parent=parent,
        )


def total_subgraph_size(
    graph: BipartiteGraph,
    order: Sequence[VertexKey],
    *,
    prepared: Optional[PreparedGraph] = None,
) -> int:
    """Total number of vertices over all centred subgraphs (Lemmas 6-8).

    Runs on the CSR generator; pass the ``prepared`` snapshot when the
    caller already holds one (the Figure 6 metrics share a single
    snapshot across all three orders) to skip re-indexing.
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
    average with zeros).  Like :func:`total_subgraph_size` this runs on
    the CSR generator and accepts a shared ``prepared`` snapshot.
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
