"""Classical core decomposition on bipartite graphs.

The decomposition treats the bipartite graph as an ordinary graph: the core
number of a vertex is the largest ``k`` such that the vertex survives in a
subgraph of minimum degree ``k``.  The implementation is the linear-time
bucket-peeling algorithm of Batagelj and Zaveršnik, which the paper relies
on for its Lemma 4/5 reductions and its degeneracy-order ablation (``bd5``).

Vertices are addressed as ``(side, label)`` pairs in the label-keyed
functions so left/right label collisions cannot occur.
:func:`flat_core_numbers` runs the same peel over the dense ids of a
:class:`~repro.graph.csr.CSRBipartite` snapshot instead; it is what
:meth:`repro.graph.prepared.PreparedGraph.core_numbers` memoises for the
sparse framework's S1 stage.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.graph.csr import CSRBipartite

VertexKey = Tuple[str, Vertex]


def _all_vertex_keys(graph: BipartiteGraph) -> List[VertexKey]:
    keys: List[VertexKey] = [(LEFT, u) for u in graph.left_vertices()]
    keys.extend((RIGHT, v) for v in graph.right_vertices())
    return keys


def _degree(graph: BipartiteGraph, key: VertexKey) -> int:
    side, label = key
    if side == LEFT:
        return graph.degree_left(label)
    return graph.degree_right(label)


def _neighbors(graph: BipartiteGraph, key: VertexKey) -> List[VertexKey]:
    side, label = key
    if side == LEFT:
        return [(RIGHT, v) for v in graph.neighbors_left(label)]
    return [(LEFT, u) for u in graph.neighbors_right(label)]


def core_numbers(graph: BipartiteGraph) -> Dict[VertexKey, int]:
    """Core number of every vertex, keyed by ``(side, label)``.

    Runs in ``O(|V| + |E|)`` using bucket peeling: repeatedly remove a
    vertex of minimum remaining degree; its core number is the largest
    minimum degree seen up to that point.
    """
    keys = _all_vertex_keys(graph)
    if not keys:
        return {}
    degree = {key: _degree(graph, key) for key in keys}
    max_degree = max(degree.values(), default=0)
    buckets: List[List[VertexKey]] = [[] for _ in range(max_degree + 1)]
    for key, d in degree.items():
        buckets[d].append(key)

    core: Dict[VertexKey, int] = {}
    removed = set()
    current = 0
    processed = 0
    pointer = 0
    total = len(keys)
    while processed < total:
        # Find the lowest non-empty bucket at or below `pointer`; degrees can
        # only decrease, so the scan is amortised linear.
        while pointer <= max_degree and not buckets[pointer]:
            pointer += 1
        if pointer > max_degree:
            break
        key = buckets[pointer].pop()
        if key in removed or degree[key] != pointer:
            # Stale bucket entry (vertex moved to a lower bucket after a
            # neighbour was peeled); skip it.
            continue
        current = max(current, pointer)
        core[key] = current
        removed.add(key)
        processed += 1
        for neighbour in _neighbors(graph, key):
            if neighbour in removed:
                continue
            d = degree[neighbour]
            if d > pointer:
                degree[neighbour] = d - 1
                buckets[d - 1].append(neighbour)
        if pointer > 0:
            pointer -= 1
    return core


def flat_core_numbers(csr: CSRBipartite) -> List[int]:
    """Core number of every dense id of a CSR snapshot, as an id-indexed list.

    The flat counterpart of :func:`core_numbers`: the same linear-time
    peel, with the buckets kept as one id array ``vert`` sorted by
    remaining degree, each id's slot ``pos`` in it and each bucket's
    first slot ``start``.  Lowering a neighbour's degree swaps it to the
    front of its bucket and moves that bucket's start one slot right, so
    every update is O(1) list work: no tuple keys, no hashing, no stale
    bucket entries.  Core numbers are unique, so the result equals
    :func:`core_numbers` read in ``csr.keys`` order.
    """
    n = csr.num_vertices
    indptr = csr.indptr
    indices = csr.indices
    degree = [indptr[i + 1] - indptr[i] for i in range(n)]
    max_degree = max(degree, default=0)
    start = [0] * (max_degree + 2)
    for d in degree:
        start[d + 1] += 1
    for d in range(max_degree + 1):
        start[d + 1] += start[d]
    free = start[:]
    pos = [0] * n
    vert = [0] * n
    for v, d in enumerate(degree):
        slot = free[d]
        free[d] = slot + 1
        pos[v] = slot
        vert[slot] = v
    for v in vert:
        # ``vert`` is rearranged only at slots after the one being read,
        # so iterating it in place visits the ids in peel order.
        dv = degree[v]
        for u in indices[indptr[v] : indptr[v + 1]]:
            du = degree[u]
            if du > dv:
                slot = pos[u]
                first = start[du]
                w = vert[first]
                if w != u:
                    vert[first] = u
                    pos[u] = first
                    vert[slot] = w
                    pos[w] = slot
                start[du] = first + 1
                degree[u] = du - 1
    return degree


def degeneracy(graph: BipartiteGraph) -> int:
    """Degeneracy ``δ(G)``: the maximum core number (0 for an empty graph)."""
    numbers = core_numbers(graph)
    return max(numbers.values(), default=0)


def degeneracy_order(graph: BipartiteGraph) -> List[VertexKey]:
    """A degeneracy (smallest-degree-last peeling) order of all vertices.

    The returned list is a permutation of all ``(side, label)`` keys such
    that each vertex has the minimum degree in the subgraph induced by
    itself and the vertices after it.
    """
    keys = _all_vertex_keys(graph)
    if not keys:
        return []
    degree = {key: _degree(graph, key) for key in keys}
    max_degree = max(degree.values(), default=0)
    buckets: List[List[VertexKey]] = [[] for _ in range(max_degree + 1)]
    for key, d in degree.items():
        buckets[d].append(key)
    order: List[VertexKey] = []
    removed = set()
    pointer = 0
    total = len(keys)
    while len(order) < total:
        while pointer <= max_degree and not buckets[pointer]:
            pointer += 1
        if pointer > max_degree:
            break
        key = buckets[pointer].pop()
        if key in removed or degree[key] != pointer:
            continue
        order.append(key)
        removed.add(key)
        for neighbour in _neighbors(graph, key):
            if neighbour in removed:
                continue
            d = degree[neighbour]
            if d > 0:
                degree[neighbour] = d - 1
                buckets[d - 1].append(neighbour)
        if pointer > 0:
            pointer -= 1
    return order


def k_core(graph: BipartiteGraph, k: int) -> BipartiteGraph:
    """The maximal subgraph in which every vertex has degree at least ``k``.

    This is the reduction of Lemma 4: a balanced biclique with side size
    ``>= k`` can only live inside the ``k``-core, so vertices outside it can
    be discarded without losing the optimum.
    """
    if k <= 0:
        return graph.copy()
    numbers = core_numbers(graph)
    left = {u for u in graph.left_vertices() if numbers.get((LEFT, u), 0) >= k}
    right = {v for v in graph.right_vertices() if numbers.get((RIGHT, v), 0) >= k}
    return graph.induced_subgraph(left, right)
