"""Bounding conditions and candidate-set completions.

The branch-and-bound solvers maintain the invariant

* every candidate in ``CA`` is adjacent to every vertex already in ``B``,
* every candidate in ``CB`` is adjacent to every vertex already in ``A``.

Under that invariant two simple facts drive both the pruning rule of
Algorithm 1 (the *bounding condition*) and the "make the result balance"
step: any subset of ``CA`` can be appended to ``A`` and any subset of ``CB``
can be appended to ``B`` (but not both simultaneously, because candidates
on opposite sides need not be adjacent to each other).
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.graph.bipartite import Vertex
from repro.mbb.context import SearchContext


def upper_bound_side(
    a_size: int, b_size: int, ca_size: int, cb_size: int
) -> int:
    """Upper bound on the side size of any balanced biclique below this node.

    The final left side is a subset of ``A ∪ CA`` and the final right side a
    subset of ``B ∪ CB``; balancing takes the minimum.
    """
    return min(a_size + ca_size, b_size + cb_size)


def is_bounded(
    context: SearchContext,
    a_size: int,
    b_size: int,
    ca_size: int,
    cb_size: int,
) -> bool:
    """The bounding condition of Algorithm 1.

    Returns ``True`` when the subtree rooted at this node cannot contain a
    balanced biclique *strictly larger* than the incumbent, i.e. when
    ``min(|A| + |CA|, |B| + |CB|) <= best side size``.
    """
    return upper_bound_side(a_size, b_size, ca_size, cb_size) <= context.best_side


def offer_completions(
    context: SearchContext,
    a: Set[Vertex],
    b: Set[Vertex],
    ca: Iterable[Vertex],
    cb: Iterable[Vertex],
) -> None:
    """Offer the two one-sided completions of the current node as incumbents.

    ``(A, B ∪ CB)`` and ``(A ∪ CA, B)`` are both bicliques under the solver
    invariant; after balancing they realise side sizes
    ``min(|A|, |B| + |CB|)`` and ``min(|A| + |CA|, |B|)``.  Offering them at
    every node gives the search good incumbents early, which is what makes
    the near-balanced enumeration of Algorithm 1 effective.
    """
    ca_list = list(ca)
    cb_list = list(cb)
    if min(len(a), len(b) + len(cb_list)) > context.best_side:
        context.offer(a, set(b) | set(cb_list))
    if min(len(a) + len(ca_list), len(b)) > context.best_side:
        context.offer(set(a) | set(ca_list), b)


def trivial_upper_bound(num_left: int, num_right: int) -> int:
    """Side-size upper bound from the graph dimensions alone."""
    return min(num_left, num_right)


def degree_upper_bound(degrees: Iterable[int]) -> int:
    """Upper bound from a degree sequence.

    A balanced biclique with side ``k`` needs at least ``k`` vertices of
    degree at least ``k`` on each side; applied to one side's degree
    sequence this yields the largest ``k`` such that ``k`` vertices have
    degree ``>= k`` (an h-index).
    """
    sorted_degrees = sorted(degrees, reverse=True)
    bound = 0
    for index, degree in enumerate(sorted_degrees, start=1):
        if degree >= index:
            bound = index
        else:
            break
    return bound


def common_neighbour_upper_bound(
    counts: Iterable[int],
) -> int:
    """h-index style bound used by the ExtBBClq baseline.

    Given, for a fixed vertex ``v``, the number of common neighbours it has
    with every same-side vertex, the largest ``i`` such that ``i`` vertices
    share at least ``i`` common neighbours with ``v`` bounds the side size
    of any balanced biclique containing ``v``.
    """
    return degree_upper_bound(counts)
