"""Indexed bitset representation of a bipartite graph.

:class:`IndexedBitGraph` maps each side of a :class:`~repro.graph.bipartite.
BipartiteGraph` onto contiguous integer indices and stores the adjacency of
every vertex as a single Python integer bitmask over the opposite side.
Candidate-set intersections — the single hottest operation of every
branch-and-bound solver in this library — then become one ``&`` between two
machine-word-packed integers, and cardinalities become one
:meth:`int.bit_count` call, instead of hash-set intersections proportional
to the set sizes.  This is the classical adjacency-matrix trick of exact
biclique/clique solvers (cf. the ExtBBClq baseline's description), applied
to the paper's ``denseMBB`` kernel.

The representation is immutable: branch-and-bound nodes carry plain ``int``
masks, so branching needs no set copying at all (``include``/``exclude``
children are derived with ``&``/``|``/``^`` on immutable integers).

Vertex labels are preserved through ``left_labels`` / ``right_labels`` (index
to label) and ``left_index`` / ``right_index`` (label to index) so results
can be reported in the caller's label space.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.graph.bipartite import BipartiteGraph, Vertex


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: List[int], width: int) -> Tuple[List[int], int]:
    """The transpose of bitmask ``rows`` over ``width`` columns, and the bit total.

    The bit loop is inlined: the constructors run once per
    vertex-centred subgraph, so generator overhead would add up.
    """
    transposed = [0] * width
    edges = 0
    for i, row in enumerate(rows):
        bit = 1 << i
        edges += row.bit_count()
        while row:
            low = row & -row
            row ^= low
            transposed[low.bit_length() - 1] |= bit
    return transposed, edges


class IndexedBitGraph:
    """A bipartite graph over contiguous indices with bitmask adjacency rows.

    Parameters
    ----------
    left_labels, right_labels:
        The original vertex labels; index ``i`` of a side corresponds to bit
        ``i`` in the masks of the opposite side's adjacency rows.
    adj_left:
        ``adj_left[i]`` is a bitmask over right indices; bit ``j`` is set
        iff ``(left_labels[i], right_labels[j])`` is an edge.  ``adj_right``
        is the transpose and is derived automatically
        (:meth:`from_right_rows` takes the rows of the other side).
    """

    __slots__ = (
        "left_labels",
        "right_labels",
        "left_index",
        "right_index",
        "adj_left",
        "adj_right",
        "_num_edges",
    )

    def __init__(
        self,
        left_labels: List[Vertex],
        right_labels: List[Vertex],
        adj_left: List[int],
    ) -> None:
        adj_right, edges = _transpose(adj_left, len(right_labels))
        self._assemble(left_labels, right_labels, adj_left, adj_right, edges)

    def _assemble(
        self,
        left_labels: List[Vertex],
        right_labels: List[Vertex],
        adj_left: List[int],
        adj_right: List[int],
        edges: int,
    ) -> None:
        self.left_labels = left_labels
        self.right_labels = right_labels
        self.left_index = {label: i for i, label in enumerate(left_labels)}
        self.right_index = {label: j for j, label in enumerate(right_labels)}
        self.adj_left = adj_left
        self.adj_right = adj_right
        self._num_edges = edges

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_right_rows(
        cls,
        left_labels: List[Vertex],
        right_labels: List[Vertex],
        adj_right: List[int],
    ) -> "IndexedBitGraph":
        """The graph whose right vertex ``j`` has the left-index row ``adj_right[j]``.

        The mirror of the constructor: ``adj_left`` is the derived
        transpose.  A vertex-centred subgraph whose centre is on the left
        knows its right side's rows, so it is built through here.
        """
        graph = cls.__new__(cls)
        adj_left, edges = _transpose(adj_right, len(left_labels))
        graph._assemble(left_labels, right_labels, adj_left, adj_right, edges)
        return graph

    @classmethod
    def from_bipartite(
        cls,
        graph: BipartiteGraph,
        left: Optional[Iterable[Vertex]] = None,
        right: Optional[Iterable[Vertex]] = None,
    ) -> "IndexedBitGraph":
        """Index a :class:`BipartiteGraph`, optionally restricted to subsets.

        When ``left`` / ``right`` are given the result is the *induced*
        subgraph on those vertices, built directly in bitset form without
        materialising an intermediate :class:`BipartiteGraph` — this is how
        the sparse framework's verification stage consumes vertex-centred
        subgraphs.  Labels are ordered by ``repr`` so the indexing (and
        therefore every branching tie-break) is deterministic.
        """
        if left is None:
            left_labels = sorted(graph.left_vertices(), key=repr)
        else:
            left_labels = sorted(
                (u for u in left if graph.has_left_vertex(u)), key=repr
            )
        if right is None:
            right_labels = sorted(graph.right_vertices(), key=repr)
        else:
            right_labels = sorted(
                (v for v in right if graph.has_right_vertex(v)), key=repr
            )
        right_index = {label: j for j, label in enumerate(right_labels)}
        adj_left: List[int] = []
        for u in left_labels:
            row = 0
            neighbours = graph.neighbors_left(u)
            if len(neighbours) <= len(right_index):
                for v in neighbours:
                    j = right_index.get(v)
                    if j is not None:
                        row |= 1 << j
            else:
                for v, j in right_index.items():
                    if v in neighbours:
                        row |= 1 << j
            adj_left.append(row)
        return cls(left_labels, right_labels, adj_left)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_left(self) -> int:
        """Number of left-side vertices."""
        return len(self.left_labels)

    @property
    def n_right(self) -> int:
        """Number of right-side vertices."""
        return len(self.right_labels)

    @property
    def num_vertices(self) -> int:
        """Total number of vertices."""
        return len(self.left_labels) + len(self.right_labels)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return self._num_edges

    @property
    def density(self) -> float:
        """Edge density ``|E| / (|L| * |R|)``; zero for an empty side."""
        if not self.left_labels or not self.right_labels:
            return 0.0
        return self._num_edges / (len(self.left_labels) * len(self.right_labels))

    @property
    def all_left_mask(self) -> int:
        """Mask with one bit per left vertex."""
        return (1 << len(self.left_labels)) - 1

    @property
    def all_right_mask(self) -> int:
        """Mask with one bit per right vertex."""
        return (1 << len(self.right_labels)) - 1

    # ------------------------------------------------------------------
    # label <-> mask translation
    # ------------------------------------------------------------------
    def left_mask(self, labels: Iterable[Vertex]) -> int:
        """Bitmask of the given left labels (all must be present)."""
        mask = 0
        index = self.left_index
        for label in labels:
            mask |= 1 << index[label]
        return mask

    def right_mask(self, labels: Iterable[Vertex]) -> int:
        """Bitmask of the given right labels (all must be present)."""
        mask = 0
        index = self.right_index
        for label in labels:
            mask |= 1 << index[label]
        return mask

    def left_labels_of(self, mask: int) -> List[Vertex]:
        """Original left labels of the set bits of ``mask``."""
        labels = self.left_labels
        return [labels[i] for i in iter_bits(mask)]

    def right_labels_of(self, mask: int) -> List[Vertex]:
        """Original right labels of the set bits of ``mask``."""
        labels = self.right_labels
        return [labels[j] for j in iter_bits(mask)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexedBitGraph(|L|={self.n_left}, |R|={self.n_right}, "
            f"|E|={self.num_edges})"
        )


def core_numbers_masks(
    graph: IndexedBitGraph,
    left_mask: Optional[int] = None,
    right_mask: Optional[int] = None,
) -> Tuple[List[int], List[int]]:
    """Core numbers of (a restriction of) ``graph``, per side index.

    The bitset counterpart of :func:`repro.cores.core.core_numbers`: the
    same linear-time Batagelj-Zaveršnik bucket peel, but degrees are
    ``bit_count`` calls on masked adjacency rows and the removed set is a
    pair of bitmasks, so no hash sets are ever built.  Returns
    ``(core_left, core_right)`` lists aligned with ``left_labels`` /
    ``right_labels``; entries for vertices outside the restriction are 0
    and carry no meaning.
    """
    left = graph.all_left_mask if left_mask is None else left_mask
    right = graph.all_right_mask if right_mask is None else right_mask
    n_left = graph.n_left
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    core_left = [0] * n_left
    core_right = [0] * graph.n_right

    # Vertices are encoded as ``i`` (left) and ``n_left + j`` (right) so the
    # peel works one flat, list-indexed degree table; bit loops are inlined
    # because this function runs once per vertex-centred subgraph.
    degree = [0] * (n_left + graph.n_right)
    total = 0
    max_degree = 0
    remaining = left
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        i = low.bit_length() - 1
        d = (adj_left[i] & right).bit_count()
        degree[i] = d
        if d > max_degree:
            max_degree = d
        total += 1
    remaining = right
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        j = low.bit_length() - 1
        d = (adj_right[j] & left).bit_count()
        degree[n_left + j] = d
        if d > max_degree:
            max_degree = d
        total += 1
    if total == 0:
        return core_left, core_right
    buckets: List[List[int]] = [[] for _ in range(max_degree + 1)]
    remaining = left
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        i = low.bit_length() - 1
        buckets[degree[i]].append(i)
    remaining = right
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        j = low.bit_length() - 1
        buckets[degree[n_left + j]].append(n_left + j)

    remaining_left = left
    remaining_right = right
    current = 0
    processed = 0
    pointer = 0
    while processed < total:
        while pointer <= max_degree and not buckets[pointer]:
            pointer += 1
        if pointer > max_degree:
            break
        node = buckets[pointer].pop()
        if node < n_left:
            bit = 1 << node
            if not remaining_left & bit or degree[node] != pointer:
                continue
            remaining_left ^= bit
            if pointer > current:
                current = pointer
            core_left[node] = current
            neighbours = adj_left[node] & remaining_right
            offset = n_left
        else:
            j = node - n_left
            bit = 1 << j
            if not remaining_right & bit or degree[node] != pointer:
                continue
            remaining_right ^= bit
            if pointer > current:
                current = pointer
            core_right[j] = current
            neighbours = adj_right[j] & remaining_left
            offset = 0
        processed += 1
        while neighbours:
            low = neighbours & -neighbours
            neighbours ^= low
            key = offset + low.bit_length() - 1
            d = degree[key]
            if d > pointer:
                degree[key] = d - 1
                buckets[d - 1].append(key)
        if pointer > 0:
            pointer -= 1
    return core_left, core_right


def degeneracy_of_mask(
    graph: IndexedBitGraph,
    left_mask: Optional[int] = None,
    right_mask: Optional[int] = None,
) -> int:
    """Degeneracy of (a restriction of) ``graph`` (0 when empty).

    Equals ``max(core numbers)`` over the restricted vertices, computed by
    one :func:`core_numbers_masks` peel.
    """
    left = graph.all_left_mask if left_mask is None else left_mask
    right = graph.all_right_mask if right_mask is None else right_mask
    core_left, core_right = core_numbers_masks(graph, left, right)
    best = 0
    for i in iter_bits(left):
        if core_left[i] > best:
            best = core_left[i]
    for j in iter_bits(right):
        if core_right[j] > best:
            best = core_right[j]
    return best


def k_core_masks(
    graph: IndexedBitGraph,
    k: int,
    left_mask: Optional[int] = None,
    right_mask: Optional[int] = None,
) -> Tuple[int, int]:
    """Vertex masks of the ``k``-core of (a restriction of) ``graph``.

    This is the bitset counterpart of :func:`repro.cores.core.k_core`
    (Lemma 4): iteratively peel vertices with fewer than ``k`` surviving
    neighbours until a fixpoint.  Unlike the set-based version it never
    materialises a subgraph copy — the core is returned as a pair of
    ``(left, right)`` masks that callers intersect into their candidate
    sets.
    """
    left = graph.all_left_mask if left_mask is None else left_mask
    right = graph.all_right_mask if right_mask is None else right_mask
    if k <= 0:
        return left, right
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    changed = True
    while changed:
        changed = False
        remaining = left
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            i = low.bit_length() - 1
            if (adj_left[i] & right).bit_count() < k:
                left ^= low
                changed = True
        remaining = right
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            j = low.bit_length() - 1
            if (adj_right[j] & left).bit_count() < k:
                right ^= low
                changed = True
    return left, right
