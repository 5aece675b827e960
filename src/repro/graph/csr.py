"""Flat CSR adjacency snapshot of a :class:`BipartiteGraph`.

The label-keyed adjacency sets of :class:`~repro.graph.bipartite.
BipartiteGraph` are the right shape for the solvers (set intersections,
membership tests), but they throttle the *decomposition* algorithms whose
inner loops only ever walk neighbourhoods: every visited neighbour costs a
hash lookup on a ``(side, label)`` tuple.  :class:`CSRBipartite` is the
flat counterpart — the whole graph mapped once onto dense integer vertex
ids with the adjacency lists packed into two flat int arrays in the
classic compressed-sparse-row layout:

* vertex ids are ``0 .. n-1`` with the left side first: left labels get
  ``0 .. num_left-1`` and right labels get ``num_left .. n-1``, each side
  sorted by ``repr(label)`` so the id assignment is deterministic for any
  mix of label types (the same convention as
  :meth:`~repro.graph.bipartite.BipartiteGraph.to_biadjacency`);
* ``indices[indptr[i]:indptr[i + 1]]`` holds the neighbour ids of vertex
  ``i`` in ascending order, so walking a neighbourhood is a flat slice of
  small ints — no tuples, no hashing.

The id order doubles as the canonical deterministic tie-break of the
bicore engine (:mod:`repro.cores.bicore`): comparing two vertices by id is
exactly comparing them by ``(side, repr(label))``, which is what lets the
bucket, heap and oracle peels agree on one total order.

The arrays are flat int buffers from :mod:`repro.graph.buffers` —
``array('q')`` by default, numpy or plain lists by backend selection.
The typed backends store eight bytes per element in one contiguous
allocation, ship through :mod:`multiprocessing.shared_memory` as raw
bytes, and make :meth:`CSRBipartite.neighbors` a zero-copy
``memoryview`` window instead of a fresh list per call.  The pure-list
backend (``REPRO_BUFFER_BACKEND=list``) keeps the historical
representation as the no-deps fallback.

A snapshot is immutable by convention: it does not track later mutations
of the source graph, exactly like :class:`~repro.graph.bitset.
IndexedBitGraph` (and by machine check — RPL005).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.graph.buffers import (
    IntBuffer,
    as_int_list,
    buffer_view,
    freeze_buffer,
    pickleable_buffer,
)

VertexKey = Tuple[str, Vertex]


def sorted_vertex_keys(
    left: Iterable[Vertex], right: Iterable[Vertex]
) -> Tuple[List[VertexKey], int]:
    """The canonical dense-id key order: left side first, repr-sorted.

    Shared by :meth:`CSRBipartite.from_bipartite` and the shared-memory
    rebuild path so both produce the same id assignment for the same
    graph.  Returns ``(keys, num_left)``.
    """
    left_sorted = sorted(left, key=repr)
    right_sorted = sorted(right, key=repr)
    keys: List[VertexKey] = [(LEFT, u) for u in left_sorted]
    keys.extend((RIGHT, v) for v in right_sorted)
    return keys, len(left_sorted)


class CSRBipartite:
    """Immutable CSR view of a bipartite graph over dense vertex ids."""

    __slots__ = (
        "keys",
        "indptr",
        "indices",
        "num_left",
        "num_right",
        "_index",
        "_rows",
    )

    def __init__(
        self,
        keys: List[VertexKey],
        indptr: Sequence[int],
        indices: Sequence[int],
        num_left: int,
        *,
        backend: Optional[str] = None,
    ) -> None:
        self.keys = keys
        self.indptr: IntBuffer = freeze_buffer(indptr, backend)
        self.indices: IntBuffer = freeze_buffer(indices, backend)
        self.num_left = num_left
        self.num_right = len(keys) - num_left
        self._index: Dict[VertexKey, int] = {key: i for i, key in enumerate(keys)}
        # One cached slice-cheap view over the neighbour array: typed
        # backends slice it zero-copy, the list backend falls back to
        # list-slice semantics.
        self._rows = buffer_view(self.indices)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bipartite(cls, graph: BipartiteGraph) -> "CSRBipartite":
        """Index ``graph`` once into the flat CSR form."""
        keys, num_left = sorted_vertex_keys(
            graph.left_vertices(), graph.right_vertices()
        )
        left = [label for _, label in keys[:num_left]]
        right = [label for _, label in keys[num_left:]]
        left_id = {u: i for i, u in enumerate(left)}
        right_id = {v: num_left + j for j, v in enumerate(right)}
        indptr = [0] * (len(keys) + 1)
        indices: List[int] = []
        for i, u in enumerate(left):
            indices.extend(sorted(right_id[v] for v in graph.neighbors_left(u)))
            indptr[i + 1] = len(indices)
        for j, v in enumerate(right):
            indices.extend(sorted(left_id[u] for u in graph.neighbors_right(v)))
            indptr[num_left + j + 1] = len(indices)
        return cls(keys, indptr, indices, num_left)

    def induced(self, keep: Sequence[bool]) -> "CSRBipartite":
        """The snapshot of the subgraph induced by the ids flagged in ``keep``.

        Kept ids are renumbered in ascending order, so the child's id
        order is the parent's restricted to the survivors — exactly the
        ``(side, repr(label))`` order :meth:`from_bipartite` would assign
        to the induced subgraph — and every row stays sorted because the
        renumbering is monotone.  One pass over the flat arrays; nothing
        is re-sorted or hashed.
        """
        indptr = as_int_list(self.indptr)
        rows = as_int_list(self.indices)
        new_id = [-1] * len(self.keys)
        kept = [i for i, flag in enumerate(keep) if flag]
        for new, old in enumerate(kept):
            new_id[old] = new
        child_indptr = [0] * (len(kept) + 1)
        child_indices: List[int] = []
        for new, old in enumerate(kept):
            child_indices.extend(
                new_id[j] for j in rows[indptr[old] : indptr[old + 1]] if keep[j]
            )
            child_indptr[new + 1] = len(child_indices)
        keys = self.keys
        return CSRBipartite(
            [keys[i] for i in kept],
            child_indptr,
            child_indices,
            bisect_left(kept, self.num_left),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Total number of vertices ``|L| + |R|``."""
        return len(self.keys)

    @property
    def num_edges(self) -> int:
        """Number of edges (each contributes one entry per direction)."""
        return len(self.indices) // 2

    def index_of(self, key: VertexKey) -> int:
        """Dense id of a ``(side, label)`` key."""
        return self._index[key]

    def key_of(self, vertex: int) -> VertexKey:
        """``(side, label)`` key of a dense id."""
        return self.keys[vertex]

    def is_left(self, vertex: int) -> bool:
        """``True`` when the id belongs to the left side."""
        return vertex < self.num_left

    def degree(self, vertex: int) -> int:
        """Degree of the vertex with the given dense id."""
        return int(self.indptr[vertex + 1]) - int(self.indptr[vertex])

    def neighbors(self, vertex: int) -> Sequence[int]:
        """Neighbour ids of ``vertex``, ascending.

        Under the typed backends this is a zero-copy view into the flat
        neighbour array (a ``memoryview``/ndarray slice) — iterate,
        index or ``list(...)`` it, but do not assume list identity or
        mutate it.  Under the list backend it is a fresh list slice, the
        historical semantics.
        """
        return self._rows[int(self.indptr[vertex]) : int(self.indptr[vertex + 1])]

    def __len__(self) -> int:
        return len(self.keys)

    # ------------------------------------------------------------------
    # pickling — drops the derived index/view state and converts any
    # zero-copy shared-memory views back to owned arrays, so a snapshot
    # attached via shm still crosses process boundaries when it must.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (
            self.keys,
            pickleable_buffer(self.indptr),
            pickleable_buffer(self.indices),
            self.num_left,
        )

    def __setstate__(self, state) -> None:
        keys, indptr, indices, num_left = state
        self.__init__(keys, indptr, indices, num_left)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRBipartite(|L|={self.num_left}, |R|={self.num_right}, "
            f"|E|={self.num_edges})"
        )
