"""Total search orders compared in the paper (Lemmas 6-8).

The sparse framework turns a graph into vertex-centred subgraphs along a
total order of the vertices.  The paper compares three orders:

* **degree order** (non-increasing global degree, as used by ExtBBClq) —
  total subgraph size ``O((|L|+|R|) * dmax^2)`` (Lemma 6);
* **degeneracy order** — ``O((|L|+|R|) * δ(G) * dmax)`` (Lemma 7);
* **bidegeneracy order** — ``O((|L|+|R|) * δ̈(G))`` (Lemma 8), the winner.

:func:`search_order` provides a single entry point used by the sparse
solver and by the ``bd4``/``bd5`` ablations and the Figure 5/6 benches.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.cores.bicore import bidegeneracy_order
from repro.cores.core import degeneracy_order

VertexKey = Tuple[str, Vertex]

ORDER_DEGREE = "degree"
ORDER_DEGENERACY = "degeneracy"
ORDER_BIDEGENERACY = "bidegeneracy"

#: All supported order names, in the order the paper introduces them.
ALL_ORDERS = (ORDER_DEGREE, ORDER_DEGENERACY, ORDER_BIDEGENERACY)


def degree_order(graph: BipartiteGraph) -> List[VertexKey]:
    """Vertices sorted by non-increasing degree (ExtBBClq's total order).

    For vertex-centred subgraph generation the order is consumed front to
    back, so placing high-degree vertices first mirrors the branching order
    of the existing exact algorithm the paper compares against.  Ties are
    broken deterministically by side and label representation.
    """
    keys: List[VertexKey] = [(LEFT, u) for u in graph.left_vertices()]
    keys.extend((RIGHT, v) for v in graph.right_vertices())

    def sort_key(key: VertexKey):
        side, label = key
        degree = (
            graph.degree_left(label) if side == LEFT else graph.degree_right(label)
        )
        return (-degree, side, repr(label))

    return sorted(keys, key=sort_key)


def search_order(
    graph: BipartiteGraph, order: str, *, prepared=None
) -> List[VertexKey]:
    """Return the requested total search order over all vertices.

    The bidegeneracy order runs on the default flat bucket engine; tests
    that want the ``exact`` oracle call
    :func:`~repro.cores.bicore.bidegeneracy_order` with ``impl=``
    directly.

    Parameters
    ----------
    order:
        One of :data:`ORDER_DEGREE`, :data:`ORDER_DEGENERACY`,
        :data:`ORDER_BIDEGENERACY`.
    prepared:
        Optional :class:`~repro.graph.prepared.PreparedGraph` of exactly
        this graph; the order is then computed from (and memoised on) the
        snapshot, so a repeated solve never re-peels.  A fresh list is
        returned (the memoised one stays private to the snapshot, safe
        from caller mutation), and a snapshot built from a different
        graph is rejected.  Unknown order names are still rejected here
        either way.
    """
    if prepared is not None and order in ALL_ORDERS:
        from repro.graph.prepared import ensure_prepared_for

        ensure_prepared_for(prepared, graph)
        return list(prepared.search_order(order))
    if order == ORDER_DEGREE:
        return degree_order(graph)
    if order == ORDER_DEGENERACY:
        return degeneracy_order(graph)
    if order == ORDER_BIDEGENERACY:
        return bidegeneracy_order(graph)
    raise InvalidParameterError(
        f"unknown search order {order!r}; expected one of {ALL_ORDERS}"
    )
