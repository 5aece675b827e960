"""2-hop neighbourhoods ``N_2`` and ``N_{<=2}`` (Definitions 1 and 2).

In a bipartite graph the 2-hop neighbours of a vertex are on its *own* side
(they share at least one common neighbour), while its 1-hop neighbours are
on the other side.  The union ``N_{<=2}(u) = N(u) ∪ N_2(u)`` is the search
scope of every biclique containing ``u`` (Observation 4) and is the degree
notion underlying bicore numbers and bidegeneracy.

Two materialisations of the full ``N_{<=2}`` adjacency are provided.
:func:`n_le2_adjacency` keeps the historical dict-of-sets form keyed by
``(side, label)`` tuples; :func:`n_le2_flat` packs the same relation into
two flat int arrays in CSR layout over the dense vertex ids of a
:class:`~repro.graph.csr.CSRBipartite` snapshot.  The flat form is what
the default bucket peel of :mod:`repro.cores.bicore` consumes: walking a
2-hop neighbourhood becomes a slice of small ints instead of a set of
tuples, which removes the per-entry hashing that dominated the set-keyed
peel.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.graph.csr import CSRBipartite

VertexKey = Tuple[str, Vertex]


def n2_neighbors(graph: BipartiteGraph, side: str, label: Vertex) -> Set[VertexKey]:
    """Vertices at distance exactly two from ``(side, label)``.

    These are same-side vertices that share at least one neighbour with the
    given vertex, excluding the vertex itself.
    """
    result: Set[VertexKey] = set()
    if side == LEFT:
        for v in graph.neighbors_left(label):
            for u in graph.neighbors_right(v):
                if u != label:
                    result.add((LEFT, u))
    else:
        for u in graph.neighbors_right(label):
            for v in graph.neighbors_left(u):
                if v != label:
                    result.add((RIGHT, v))
    return result


def n_le2_neighbors(graph: BipartiteGraph, side: str, label: Vertex) -> Set[VertexKey]:
    """``N_{<=2}(u)``: 1-hop plus 2-hop neighbours as ``(side, label)`` keys."""
    result = n2_neighbors(graph, side, label)
    if side == LEFT:
        result.update((RIGHT, v) for v in graph.neighbors_left(label))
    else:
        result.update((LEFT, u) for u in graph.neighbors_right(label))
    return result


def n_le2_sizes(graph: BipartiteGraph) -> Dict[VertexKey, int]:
    """``|N_{<=2}(u)|`` for every vertex of the graph.

    Computed side by side so the inner loops stay over adjacency sets only;
    the total work is ``O(sum_u |N_{<=2}(u)|)`` which matches the bound the
    paper claims for the bicore decomposition preprocessing.
    """
    sizes: Dict[VertexKey, int] = {}
    for u in graph.left_vertices():
        two_hop: Set[Vertex] = set()
        for v in graph.neighbors_left(u):
            two_hop.update(graph.neighbors_right(v))
        two_hop.discard(u)
        sizes[(LEFT, u)] = len(two_hop) + graph.degree_left(u)
    for v in graph.right_vertices():
        two_hop = set()
        for u in graph.neighbors_right(v):
            two_hop.update(graph.neighbors_left(u))
        two_hop.discard(v)
        sizes[(RIGHT, v)] = len(two_hop) + graph.degree_right(v)
    return sizes


def n_le2_flat(csr: CSRBipartite) -> Tuple[List[int], List[int]]:
    """The ``N_{<=2}`` adjacency as flat CSR int lists ``(indptr, indices)``.

    ``indices[indptr[u]:indptr[u + 1]]`` holds the dense ids of
    ``N_{<=2}(u)`` for every vertex id ``u`` of the snapshot — 1-hop
    neighbours and 2-hop neighbours interleaved in discovery order, each
    id exactly once.  Deduplication uses a single reusable ``mark`` array
    stamped with the current centre instead of a per-vertex set, so the
    whole materialisation allocates nothing but the output arrays.

    Time is ``O(sum_u sum_{w in N(u)} |N(w)|)`` — the common-neighbour
    multiplicity bound the paper charges for the bicore preprocessing —
    and memory is ``O(M)`` with ``M = sum_u |N_{<=2}(u)|``.
    """
    n = csr.num_vertices
    indptr = csr.indptr
    indices = csr.indices
    out_ptr = [0] * (n + 1)
    out: List[int] = []
    mark = [-1] * n
    for u in range(n):
        mark[u] = u
        for w in indices[indptr[u] : indptr[u + 1]]:
            if mark[w] != u:
                mark[w] = u
                out.append(w)
            for z in indices[indptr[w] : indptr[w + 1]]:
                if mark[z] != u:
                    mark[z] = u
                    out.append(z)
        out_ptr[u + 1] = len(out)
    return out_ptr, out


def n_le2_adjacency(graph: BipartiteGraph) -> Dict[VertexKey, Set[VertexKey]]:
    """The full ``N_{<=2}`` adjacency map for every vertex.

    This materialises what Algorithm 7 peels; memory is
    ``O(sum_u |N_{<=2}(u)|)`` which is affordable for the sparse graphs the
    sparse solver targets (the quantity is what δ̈ bounds).
    """
    adjacency: Dict[VertexKey, Set[VertexKey]] = {}
    for u in graph.left_vertices():
        adjacency[(LEFT, u)] = n_le2_neighbors(graph, LEFT, u)
    for v in graph.right_vertices():
        adjacency[(RIGHT, v)] = n_le2_neighbors(graph, RIGHT, v)
    return adjacency
