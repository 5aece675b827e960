"""Bicore decomposition, bidegeneracy and the bidegeneracy order.

These implement the paper's novel sparsity machinery (Definitions 3-5,
Algorithm 7, Lemma 10):

* the **bicore number** ``bc(u)`` is the core number computed with respect
  to ``N_{<=2}`` neighbourhoods instead of plain neighbourhoods;
* the **bidegeneracy** ``δ̈(G)`` is the maximum bicore number;
* the **bidegeneracy order** peels vertices by smallest remaining
  ``|N_{<=2}|``, breaking ties by smallest remaining 1-hop degree — the
  tie-break of Lemma 10, which keeps the decomposition linear in
  ``M = sum_u |N_{<=2}(u)|``.

Two interchangeable implementations sit behind the ``impl=`` switch;
both peel the *materialised* ``N_{<=2}`` graph with the identical
priority ``(|N_{<=2}|, 1-hop degree, vertex id)`` — the id being the
position in the deterministic :class:`~repro.graph.csr.CSRBipartite`
ordering (left before right, ``repr``-sorted per side) — so they produce
the *same bicore numbers and the same peel order*:

* :data:`IMPL_BUCKET` (the default): the flat engine of Algorithm 7.  The
  graph is indexed once into CSR form, ``N_{<=2}`` is materialised as flat
  int arrays (:func:`~repro.cores.two_hop.n_le2_flat`) and the peel runs
  on a two-level bucket structure — level one a list indexed by remaining
  ``|N_{<=2}|``, level two a per-level dict keyed by remaining 1-hop
  degree — so every update is O(1) bucket bookkeeping instead of a heap
  push.  Each ``(size, degree)`` cell is a vertex bitmask: clearing the
  lowest set bit pops the smallest-id member, which is what realises the
  deterministic third-level tie-break in one C-level integer operation,
  in the same packed-integer idiom as the branch-and-bound kernels of
  :mod:`repro.graph.bitset` (see :func:`_peel_bucket_flat` for the exact
  cost model).
* :data:`IMPL_EXACT`: the test oracle.  No decremented counters and no
  selection structure: each step recounts every remaining
  ``|N_{<=2}(u)|`` and 1-hop degree among the survivors from scratch and
  takes the minimum, ``O(n * M)``.  Because it shares the selection rule
  bit for bit, it validates the bucket peel's *order*, not just its
  bicore numbers.

Semantics note: the peel removes vertices from the ``N_{<=2}`` graph
materialised once up front (each removal lowers a neighbour's count by
exactly one).  Re-deriving 2-hop neighbourhoods on the *residual bipartite
graph* instead is a subtly different process — removing a vertex can also
sever 2-hop pairs it was the only common neighbour of, lowering a count by
more than one — and can legitimately peel ties in a different order.  The
two agree on bicore numbers and bidegeneracy on every graph we test;
:func:`residual_bicore_numbers` keeps that re-deriving reference around
precisely for that cross-check.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.graph.csr import CSRBipartite
from repro.cores.two_hop import n_le2_adjacency, n_le2_flat

VertexKey = Tuple[str, Vertex]

#: Flat two-level bucket peel (Algorithm 7), the default.
IMPL_BUCKET = "bucket"
#: Naive recount-everything oracle (tests only, ``O(n * M)``).
IMPL_EXACT = "exact"

#: All peel implementations, fastest first.
ALL_IMPLS = (IMPL_BUCKET, IMPL_EXACT)


def _tie_break(key: VertexKey) -> Tuple[str, str]:
    """The canonical deterministic tie-break: ``(side, repr(label))``.

    Comparing two keys by this tuple is exactly comparing their dense
    :class:`CSRBipartite` ids, so the label-keyed
    :func:`residual_bicore_numbers` breaks ties exactly as the id-space
    peels (bucket, exact) do.
    """
    side, label = key
    return (side, repr(label))


# ----------------------------------------------------------------------
# the flat engine (bucket peel and the id-space oracle)
# ----------------------------------------------------------------------
def _peel_bucket_flat(
    csr: CSRBipartite, le2_ptr: List[int], le2: List[int]
) -> Tuple[List[int], List[int]]:
    """Two-level bucket peel over flat arrays; returns id-space results.

    ``cells[s]`` maps a remaining 1-hop degree ``d`` to the bitmask of
    alive vertices with remaining ``|N_{<=2}| == s`` and degree ``d``;
    ``deg_mask[s]`` is a bitmask over ``d`` marking the non-empty cells
    of level ``s``, so the minimum occupied ``(s, d)`` cell is one
    lowest-set-bit extraction away.  Both are lists indexed by ``s``
    (sizes only fall, so the initial maximum bounds them), and the
    per-level dicts hold only the degrees that ever occurred: memory is
    ``O(n + occupied cells)``.  A bit known to be set is cleared with
    ``^``.  The level-one pointer ``s_ptr`` only ever backs up by one per
    pop (a removal lowers a neighbour's size by exactly one), which is
    the classic Batagelj-Zaveršnik amortisation: total pointer movement
    is ``O(n + max |N_{<=2}|)``.

    The vertex bitmasks are what buy the deterministic smallest-id
    tie-break in O(1) *selections*; the price is that each cell update is
    an ``n``-bit integer operation — ``O(n / 64)`` machine words in a
    single C-level pass — so total work is ``O(M * n / 64)`` rather than
    strictly ``O(M)``.  At the scales a pure-Python reproduction runs
    (thousands of vertices, so a handful of words per update) the masks
    are far cheaper than per-update heap pushes or linked-list cells with
    an extra ordering structure; a production implementation at ``n`` in
    the millions would swap the cells for intrusive doubly-linked lists
    and give up the cross-impl order equality.
    """
    n = csr.num_vertices
    num_left = csr.num_left
    indptr = csr.indptr
    size = [le2_ptr[i + 1] - le2_ptr[i] for i in range(n)]
    deg = [indptr[i + 1] - indptr[i] for i in range(n)]

    levels = max(size, default=0) + 1
    cells: List[Dict[int, int]] = [{} for _ in range(levels)]
    deg_mask = [0] * levels
    for i in range(n):
        s, d = size[i], deg[i]
        level = cells[s]
        cell = level.get(d, 0)
        if not cell:
            deg_mask[s] |= 1 << d
        level[d] = cell | (1 << i)

    alive = bytearray([1]) * n
    bicore = [0] * n
    order: List[int] = []
    current = 0
    s_ptr = 0
    processed = 0
    while processed < n:
        mask = deg_mask[s_ptr]
        while not mask:
            s_ptr += 1
            mask = deg_mask[s_ptr]
        s = s_ptr
        low = mask & -mask
        d = low.bit_length() - 1
        level = cells[s]
        cell = level[d]
        first = cell & -cell  # smallest alive id in the cell
        i = first.bit_length() - 1
        cell ^= first
        level[d] = cell
        if not cell:
            deg_mask[s] = mask ^ low
        if s > current:
            current = s
        bicore[i] = current
        order.append(i)
        alive[i] = 0
        processed += 1
        i_left = i < num_left
        for j in le2[le2_ptr[i] : le2_ptr[i + 1]]:
            if not alive[j]:
                continue
            sj = size[j]
            dj = deg[j]
            bit = 1 << j
            level = cells[sj]
            cell = level[dj] ^ bit
            level[dj] = cell
            if not cell:
                deg_mask[sj] ^= 1 << dj
            sj -= 1
            size[j] = sj
            if i_left != (j < num_left):
                dj -= 1
                deg[j] = dj
            level = cells[sj]
            cell = level.get(dj, 0)
            if not cell:
                deg_mask[sj] |= 1 << dj
            level[dj] = cell | bit
        if s_ptr > 0:
            s_ptr -= 1
    return bicore, order


def _peel_exact_flat(
    csr: CSRBipartite, le2_ptr: List[int], le2: List[int]
) -> Tuple[List[int], List[int]]:
    """Oracle peel: recount every remaining key from scratch per step.

    Recounting needs no side information, no decremented counters and no
    selection structure, which is what makes it an independent oracle of
    the bucket peel.
    """
    n = csr.num_vertices
    indptr = csr.indptr
    indices = csr.indices
    alive = bytearray([1]) * n
    bicore = [0] * n
    order: List[int] = []
    current = 0
    for _ in range(n):
        best = None
        for i in range(n):
            if not alive[i]:
                continue
            s = sum(alive[j] for j in le2[le2_ptr[i] : le2_ptr[i + 1]])
            d = sum(alive[j] for j in indices[indptr[i] : indptr[i + 1]])
            candidate = (s, d, i)
            if best is None or candidate < best:
                best = candidate
        assert best is not None
        s, _, i = best
        if s > current:
            current = s
        bicore[i] = current
        order.append(i)
        alive[i] = 0
    return bicore, order


def _peel_flat(
    graph: BipartiteGraph, peel, prepared=None
) -> Tuple[Dict[VertexKey, int], List[VertexKey]]:
    """Run a flat-engine peel and translate ids back to vertex keys.

    When a :class:`~repro.graph.prepared.PreparedGraph` is supplied its
    CSR snapshot and flat ``N_{<=2}`` arrays are reused instead of being
    re-derived — the whole point of preparing a graph once.
    """
    if prepared is not None:
        csr = prepared.csr
        le2_ptr, le2 = prepared.n_le2
    else:
        csr = CSRBipartite.from_bipartite(graph)
        le2_ptr, le2 = n_le2_flat(csr)
    bicore, order = peel(csr, le2_ptr, le2)
    keys = csr.keys
    return (
        {keys[i]: value for i, value in enumerate(bicore)},
        [keys[i] for i in order],
    )


def flat_bicore_decomposition(
    prepared,
) -> Tuple[Dict[VertexKey, int], List[VertexKey]]:
    """Bucket peel over an existing prepared snapshot (no re-indexing).

    This is the entry point :meth:`repro.graph.prepared.PreparedGraph.
    bicore_decomposition` memoises; calling it directly always re-peels.
    """
    return _peel_flat(prepared.graph, _peel_bucket_flat, prepared=prepared)


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def bicore_decomposition(
    graph: BipartiteGraph, *, impl: str = IMPL_BUCKET, prepared=None
) -> Tuple[Dict[VertexKey, int], List[VertexKey]]:
    """Bicore numbers and peel order in one pass.

    Parameters
    ----------
    impl:
        :data:`IMPL_BUCKET` (default) or :data:`IMPL_EXACT`.  Both
        return identical results; they differ only in speed (see the
        module docstring).
    prepared:
        Optional :class:`~repro.graph.prepared.PreparedGraph` of exactly
        this graph.  Both engines then reuse its CSR snapshot and
        ``N_{<=2}`` arrays instead of re-indexing, and the default bucket
        peel reuses the bundle's memoised decomposition (returned as
        fresh containers, safe from caller mutation).  A snapshot built
        from a different graph is rejected.
    """
    if prepared is not None:
        from repro.graph.prepared import ensure_prepared_for

        ensure_prepared_for(prepared, graph)
    if impl == IMPL_BUCKET:
        if prepared is not None:
            numbers, order = prepared.bicore_decomposition()
            return dict(numbers), list(order)
        return _peel_flat(graph, _peel_bucket_flat)
    if impl == IMPL_EXACT:
        return _peel_flat(graph, _peel_exact_flat, prepared=prepared)
    raise InvalidParameterError(
        f"unknown bicore impl {impl!r}; expected one of {ALL_IMPLS}"
    )


def bicore_numbers(
    graph: BipartiteGraph, *, impl: str = IMPL_BUCKET, prepared=None
) -> Dict[VertexKey, int]:
    """Bicore number of every vertex, keyed by ``(side, label)``."""
    bicore, _ = bicore_decomposition(graph, impl=impl, prepared=prepared)
    return bicore


def bidegeneracy(
    graph: BipartiteGraph, *, impl: str = IMPL_BUCKET, prepared=None
) -> int:
    """Bidegeneracy ``δ̈(G)``: the maximum bicore number (0 if empty)."""
    numbers = bicore_numbers(graph, impl=impl, prepared=prepared)
    return max(numbers.values(), default=0)


def bidegeneracy_order(
    graph: BipartiteGraph, *, impl: str = IMPL_BUCKET, prepared=None
) -> List[VertexKey]:
    """A bidegeneracy order (Definition 5) of all vertices.

    Every vertex has the smallest remaining ``|N_{<=2}|`` in the subgraph
    induced by itself and the vertices after it in the returned list.
    """
    _, order = bicore_decomposition(graph, impl=impl, prepared=prepared)
    return order


def _one_hop_degrees(graph: BipartiteGraph) -> Dict[VertexKey, int]:
    degrees: Dict[VertexKey, int] = {}
    for u in graph.left_vertices():
        degrees[(LEFT, u)] = graph.degree_left(u)
    for v in graph.right_vertices():
        degrees[(RIGHT, v)] = graph.degree_right(v)
    return degrees


def residual_bicore_numbers(graph: BipartiteGraph) -> Dict[VertexKey, int]:
    """Definition-level reference that re-derives ``N_{<=2}`` per step.

    Unlike the ``impl=`` peels (which remove vertices from the
    ``N_{<=2}`` graph materialised once), this recomputes every 2-hop
    neighbourhood on the residual *bipartite* graph after each removal —
    ``O(n * M)`` and only intended as a semantic cross-check on small
    graphs.  It uses the same canonical tie-break, but because a removal
    can sever 2-hop pairs bridged solely by the removed vertex, its peel
    *order* may differ from the materialised peels on ties; its bicore
    numbers are what tests compare.
    """
    working = graph.copy()
    bicore: Dict[VertexKey, int] = {}
    current = 0
    while working.num_vertices:
        adjacency = n_le2_adjacency(working)
        one_hop = _one_hop_degrees(working)
        key = min(
            adjacency,
            key=lambda k: (len(adjacency[k]), one_hop[k], _tie_break(k)),
        )
        current = max(current, len(adjacency[key]))
        bicore[key] = current
        side, label = key
        if side == LEFT:
            working.remove_left_vertex(label)
        else:
            working.remove_right_vertex(label)
    return bicore
