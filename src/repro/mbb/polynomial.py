"""Polynomial-time solver for near-complete bipartite subgraphs.

This module implements the heart of the dense-graph algorithm
(Observations 1-3, Lemma 3 and Algorithm 2 of the paper): when every
candidate vertex misses at most two neighbours on the other side, the
bipartite complement of the candidate subgraph has maximum degree at most
two and therefore decomposes into disjoint paths and cycles.  Picking a
biclique in the original subgraph is then equivalent to picking an
*independent set* in that complement — the forbidden pairs are exactly the
complement edges — and independent sets on paths and cycles are polynomial.

The solver computes, for each complement component, the Pareto frontier of
``(left vertices chosen, right vertices chosen)`` over its independent
sets, combines the components with a dynamic program over the frontier
(the paper's table ``t``), adds back the "trivial" vertices with no missing
neighbour, and returns the best achievable balanced biclique.

The bitset solver bounds a node before any of that work, in two steps.
By König's theorem an independent set of a bipartite graph has at most
``|V| - nu`` vertices, ``nu`` being the maximum matching: ``ceil(n/2)`` on
an ``n``-vertex complement path and ``n/2`` on an (even) cycle.  With
``alpha`` the sum of these over the components, no extension of the node
has a side above ``(base_left + base_right + alpha) // 2``, where the bases
count the partial sides plus the trivial candidates.

The first step needs no walk.  Let ``n`` count the candidates and ``E`` the
complement edges between them.  Each non-trivial component is a path (one
edge fewer than vertices) or a cycle (as many), so the ``n_H`` non-trivial
candidates form exactly ``n_H - E`` paths and ``alpha <= (n_H + n_H - E) /
2``.  Adding the ``n - n_H`` trivial candidates back, no side exceeds
``(|A| + |B| + (2n - E) // 2) // 2``, which is never below the König
bound.  ``E`` is one popcount per left candidate, so most nodes the search
hands over are rejected before a single miss mask is stored.  The second
step walks the components and applies the König bound itself.

Every frontier point picks an independent set, so no point exceeds either
bound: a node an exit rejects would have returned ``None`` anyway, and
every other node runs the unchanged program.  The label-keyed
:func:`solve_polynomial_case` always runs the full program and serves as
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph, Vertex
from repro.graph.bitset import CHUNK_BITS, IndexedBitGraph, iter_bits
from repro.mbb.context import SearchContext
from repro.mbb.reductions import BitNodeState, NodeState
from repro.mbb.result import Biclique

VertexKey = Tuple[str, Vertex]


@dataclass(frozen=True)
class _Choice:
    """One Pareto point: how many vertices of each side and which ones."""

    a: int
    b: int
    witness: FrozenSet[VertexKey]

    def extend(self, key: VertexKey) -> "_Choice":
        """Return a new choice with ``key`` added to the selection."""
        if key[0] == LEFT:
            return _Choice(self.a + 1, self.b, self.witness | {key})
        return _Choice(self.a, self.b + 1, self.witness | {key})


_EMPTY_CHOICE = _Choice(0, 0, frozenset())


def _pareto(choices: Sequence[_Choice]) -> List[_Choice]:
    """Keep only Pareto-maximal ``(a, b)`` choices (ties keep one witness)."""
    best_b_for_a: Dict[int, _Choice] = {}
    for choice in choices:
        incumbent = best_b_for_a.get(choice.a)
        if incumbent is None or choice.b > incumbent.b:
            best_b_for_a[choice.a] = choice
    result: List[_Choice] = []
    best_b = -1
    for a in sorted(best_b_for_a, reverse=True):
        choice = best_b_for_a[a]
        if choice.b > best_b:
            result.append(choice)
            best_b = choice.b
    return result


def missing_neighbors(
    graph: BipartiteGraph, state: NodeState
) -> Dict[VertexKey, Set[VertexKey]]:
    """Complement adjacency restricted to the candidate sets of ``state``."""
    complement: Dict[VertexKey, Set[VertexKey]] = {}
    for u in state.ca:
        missing = state.cb - graph.neighbors_left(u)
        complement[(LEFT, u)] = {(RIGHT, v) for v in missing}
    for v in state.cb:
        missing = state.ca - graph.neighbors_right(v)
        complement[(RIGHT, v)] = {(LEFT, u) for u in missing}
    return complement


def is_polynomially_solvable(graph: BipartiteGraph, state: NodeState) -> bool:
    """Lemma 3 precondition: every candidate misses at most two neighbours."""
    for u in state.ca:
        if len(state.cb - graph.neighbors_left(u)) > 2:
            return False
    for v in state.cb:
        if len(state.ca - graph.neighbors_right(v)) > 2:
            return False
    return True


def _component_sequences(
    complement: Dict[VertexKey, Set[VertexKey]],
) -> List[Tuple[List[VertexKey], bool]]:
    """Split the complement into components and linearise each one.

    Returns a list of ``(sequence, is_cycle)`` pairs.  Every component of a
    graph with maximum degree two is a simple path or a simple cycle, so a
    walk from an endpoint (or from an arbitrary vertex for cycles) visits
    each vertex exactly once.
    """
    non_trivial = {key for key, misses in complement.items() if misses}
    seen: Set[VertexKey] = set()
    components: List[Tuple[List[VertexKey], bool]] = []
    for start in sorted(non_trivial, key=repr):
        if start in seen:
            continue
        # Collect the whole component first.
        stack = [start]
        members: Set[VertexKey] = {start}
        while stack:
            current = stack.pop()
            for neighbour in complement[current]:
                if neighbour not in members:
                    members.add(neighbour)
                    stack.append(neighbour)
        seen |= members
        endpoints = sorted(
            (key for key in members if len(complement[key] & members) <= 1),
            key=repr,
        )
        is_cycle = not endpoints
        first = endpoints[0] if endpoints else sorted(members, key=repr)[0]
        # Walk along the path/cycle.
        sequence = [first]
        visited = {first}
        current = first
        while True:
            next_candidates = [
                key for key in complement[current] if key in members and key not in visited
            ]
            if not next_candidates:
                break
            current = sorted(next_candidates, key=repr)[0]
            sequence.append(current)
            visited.add(current)
        components.append((sequence, is_cycle))
    return components


def _path_choices(sequence: Sequence[VertexKey]) -> List[_Choice]:
    """Pareto frontier of independent-set selections along a path."""
    if not sequence:
        return [_EMPTY_CHOICE]
    taken: List[_Choice] = []
    not_taken: List[_Choice] = [_EMPTY_CHOICE]
    for key in sequence:
        new_taken = _pareto([choice.extend(key) for choice in not_taken])
        new_not_taken = _pareto(taken + not_taken)
        taken, not_taken = new_taken, new_not_taken
    return _pareto(taken + not_taken)


def _cycle_choices(sequence: Sequence[VertexKey]) -> List[_Choice]:
    """Pareto frontier of independent-set selections around a cycle."""
    if len(sequence) <= 2:
        # Complement multi-edges cannot occur in a simple bipartite graph;
        # a "cycle" this short degenerates to a path.
        return _path_choices(sequence)
    first = sequence[0]
    without_first = _path_choices(sequence[1:])
    inner = _path_choices(sequence[2:-1])
    with_first = [choice.extend(first) for choice in inner]
    return _pareto(without_first + with_first)


def component_choices(
    sequence: Sequence[VertexKey], is_cycle: bool
) -> List[_Choice]:
    """Pareto ``(a, b)`` selections for one complement path or cycle."""
    if is_cycle:
        return _cycle_choices(sequence)
    return _path_choices(sequence)


def _best_improving_choice(
    complement: Dict[VertexKey, Set[VertexKey]],
    base_left: int,
    base_right: int,
    context: SearchContext,
) -> Optional[_Choice]:
    """Run the component DP and pick the best incumbent-beating choice.

    ``base_left`` / ``base_right`` count the vertices that are selected
    unconditionally (the partial sides plus the trivial candidates with no
    missing neighbour).  Returns ``None`` when even the unconstrained
    optimum of the node does not improve on the incumbent.
    """
    frontier: List[_Choice] = [_EMPTY_CHOICE]
    for sequence, is_cycle in _component_sequences(complement):
        options = component_choices(sequence, is_cycle)
        combined: List[_Choice] = []
        for base in frontier:
            for option in options:
                combined.append(
                    _Choice(
                        base.a + option.a,
                        base.b + option.b,
                        base.witness | option.witness,
                    )
                )
        frontier = _pareto(combined)

    best_choice: Optional[_Choice] = None
    best_side = context.best_side
    for choice in frontier:
        side = min(base_left + choice.a, base_right + choice.b)
        if side > best_side:
            best_side = side
            best_choice = choice
    return best_choice


def _assemble(
    left: Set[Vertex],
    right: Set[Vertex],
    choice: _Choice,
) -> Biclique:
    """Materialise the selected witness on top of the unconditional picks."""
    for side_tag, label in choice.witness:
        if side_tag == LEFT:
            left.add(label)
        else:
            right.add(label)
    return Biclique.of(left, right).balanced()


def solve_polynomial_case(
    graph: BipartiteGraph,
    state: NodeState,
    context: SearchContext,
) -> Optional[Biclique]:
    """Solve a node whose candidate subgraph satisfies Lemma 3 exactly.

    Returns the best balanced biclique extending ``(A, B)`` inside the
    candidate sets, or ``None`` when even the best extension does not beat
    the incumbent stored in ``context``.  The caller is responsible for
    offering the returned biclique to the context.
    """
    complement = missing_neighbors(graph, state)
    trivial_left = [u for u in state.ca if not complement[(LEFT, u)]]
    trivial_right = [v for v in state.cb if not complement[(RIGHT, v)]]

    best_choice = _best_improving_choice(
        complement,
        len(state.a) + len(trivial_left),
        len(state.b) + len(trivial_right),
        context,
    )
    if best_choice is None:
        return None
    left = set(state.a) | set(trivial_left)
    right = set(state.b) | set(trivial_right)
    return _assemble(left, right, best_choice)


#: Mask-based Pareto point used by the bitset polynomial solver: ``(left
#: count, right count, left witness mask, right witness mask)``.  Witness
#: union is two integer ``|`` operations, which is what makes the bitset
#: DP markedly cheaper than the frozenset-witness version above.
_MaskChoice = Tuple[int, int, int, int]

_EMPTY_MASK_CHOICE: _MaskChoice = (0, 0, 0, 0)


def _pareto_masks(choices: List[_MaskChoice]) -> List[_MaskChoice]:
    """Keep only Pareto-maximal ``(a, b)`` mask choices."""
    if len(choices) <= 1:
        return choices
    best_b_for_a: Dict[int, _MaskChoice] = {}
    for choice in choices:
        incumbent = best_b_for_a.get(choice[0])
        if incumbent is None or choice[1] > incumbent[1]:
            best_b_for_a[choice[0]] = choice
    result: List[_MaskChoice] = []
    best_b = -1
    for a in sorted(best_b_for_a, reverse=True):
        choice = best_b_for_a[a]
        if choice[1] > best_b:
            result.append(choice)
            best_b = choice[1]
    return result


def _path_frontier_masks(sequence: List[Tuple[bool, int]]) -> List[_MaskChoice]:
    """Pareto frontier along a complement path of ``(is_left, index)`` steps."""
    taken: List[_MaskChoice] = []
    not_taken: List[_MaskChoice] = [_EMPTY_MASK_CHOICE]
    for is_left, index in sequence:
        bit = 1 << index
        # Extending every element of a Pareto frontier by the same vertex
        # preserves Pareto-maximality, so ``new_taken`` needs no filtering.
        if is_left:
            new_taken = [(a + 1, b, lm | bit, rm) for a, b, lm, rm in not_taken]
        else:
            new_taken = [(a, b + 1, lm, rm | bit) for a, b, lm, rm in not_taken]
        not_taken = _pareto_masks(taken + not_taken) if taken else not_taken
        taken = new_taken
    return _pareto_masks(taken + not_taken)


def _cycle_frontier_masks(sequence: List[Tuple[bool, int]]) -> List[_MaskChoice]:
    """Pareto frontier around a complement cycle of ``(is_left, index)`` steps."""
    if len(sequence) <= 2:
        return _path_frontier_masks(sequence)
    is_left, index = sequence[0]
    bit = 1 << index
    without_first = _path_frontier_masks(sequence[1:])
    inner = _path_frontier_masks(sequence[2:-1])
    if is_left:
        with_first = [(a + 1, b, lm | bit, rm) for a, b, lm, rm in inner]
    else:
        with_first = [(a, b + 1, lm, rm | bit) for a, b, lm, rm in inner]
    return _pareto_masks(without_first + with_first)


def solve_polynomial_case_bits(
    graph: IndexedBitGraph,
    state: BitNodeState,
    context: SearchContext,
) -> Optional[Biclique]:
    """Bitset counterpart of :func:`solve_polynomial_case`.

    The complement of the candidate subgraph is read straight off the
    adjacency masks (``cb & ~adj[u]``), its path/cycle components are
    walked on masks, and the Pareto dynamic program carries its witnesses
    as two integer masks.  No per-vertex hash sets or label tuples are
    built, which matters because dense searches spend a large share of
    their time in this polynomial case.

    Before the dynamic program runs, the node is bounded twice (see the
    module docstring).  It returns ``None`` when ``(|A| + |B| + (2n - E)
    // 2) // 2`` does not beat the incumbent, ``n`` counting the
    candidates and ``E`` the complement edges between them (one popcount
    per left candidate, walked in 12-bit chunks), before any miss mask
    is stored or any component walked.  Otherwise it walks the
    components and returns ``None`` when ``(base_left + base_right +
    alpha) // 2`` does not, ``alpha`` being the König independence number
    of the complement.  No frontier point exceeds either bound, so the
    result, witness included, is the one the full program gives; the
    exits only skip the work of nodes that cannot win.
    """
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    ca = state.ca
    cb = state.cb
    best_side = context.best_side

    # Walk-free exit: the complement's paths number n_H - E, so the
    # candidates contribute at most (2n - E) // 2 independent vertices.
    ca_size = ca.bit_count()
    cb_size = cb.bit_count()
    complement_edges = ca_size * cb_size
    remaining = ca
    base = 0
    while remaining:
        for i in CHUNK_BITS[remaining & 0xFFF]:
            complement_edges -= (adj_left[base + i] & cb).bit_count()
        remaining >>= 12
        base += 12
    independent = (2 * (ca_size + cb_size) - complement_edges) // 2
    if (state.a.bit_count() + state.b.bit_count() + independent) // 2 <= best_side:
        return None

    miss_left: Dict[int, int] = {}
    miss_right: Dict[int, int] = {}
    trivial_left_mask = 0
    trivial_right_mask = 0
    for i in iter_bits(ca):
        missing = cb & ~adj_left[i]
        if missing:
            miss_left[i] = missing
        else:
            trivial_left_mask |= 1 << i
    for j in iter_bits(cb):
        missing = ca & ~adj_right[j]
        if missing:
            miss_right[j] = missing
        else:
            trivial_right_mask |= 1 << j

    # Walk the complement's components.  Max degree two means every
    # component is a simple path (start from a degree-<=1 endpoint) or a
    # simple cycle (whatever remains afterwards).
    visited_left = 0
    visited_right = 0

    def walk(is_left: bool, index: int) -> List[Tuple[bool, int]]:
        nonlocal visited_left, visited_right
        sequence: List[Tuple[bool, int]] = []
        while True:
            sequence.append((is_left, index))
            if is_left:
                visited_left |= 1 << index
                next_mask = miss_left[index] & ~visited_right
            else:
                visited_right |= 1 << index
                next_mask = miss_right[index] & ~visited_left
            if not next_mask:
                return sequence
            low = next_mask & -next_mask
            index = low.bit_length() - 1
            is_left = not is_left
        # unreachable

    paths: List[List[Tuple[bool, int]]] = []
    for i, missing in miss_left.items():
        if visited_left >> i & 1 or missing.bit_count() > 1:
            continue
        paths.append(walk(True, i))
    for j, missing in miss_right.items():
        if visited_right >> j & 1 or missing.bit_count() > 1:
            continue
        paths.append(walk(False, j))
    cycles: List[List[Tuple[bool, int]]] = []
    for i in miss_left:
        if not visited_left >> i & 1:
            cycles.append(walk(True, i))
    for j in miss_right:
        if not visited_right >> j & 1:
            cycles.append(walk(False, j))

    base_left_mask = state.a | trivial_left_mask
    base_right_mask = state.b | trivial_right_mask
    base_left = base_left_mask.bit_count()
    base_right = base_right_mask.bit_count()
    # König exit: an independent set holds at most ceil(n/2) vertices of
    # an n-vertex complement path and n/2 of an (even) cycle, and the
    # balanced side is at most half the vertices picked.
    independent = sum((len(path) + 1) // 2 for path in paths)
    independent += sum(len(cycle) // 2 for cycle in cycles)
    if (base_left + base_right + independent) // 2 <= best_side:
        return None

    frontier: List[_MaskChoice] = [_EMPTY_MASK_CHOICE]

    def fold(options: List[_MaskChoice]) -> None:
        nonlocal frontier
        frontier = _pareto_masks(
            [
                (a1 + a2, b1 + b2, l1 | l2, r1 | r2)
                for a1, b1, l1, r1 in frontier
                for a2, b2, l2, r2 in options
            ]
        )

    for path in paths:
        fold(_path_frontier_masks(path))
    for cycle in cycles:
        fold(_cycle_frontier_masks(cycle))

    best_choice: Optional[_MaskChoice] = None
    for choice in frontier:
        side = min(base_left + choice[0], base_right + choice[1])
        if side > best_side:
            best_side = side
            best_choice = choice
    if best_choice is None:
        # Even the unconstrained optimum of this node does not improve on
        # the incumbent.
        return None
    return Biclique.of(
        graph.left_labels_of(base_left_mask | best_choice[2]),
        graph.right_labels_of(base_right_mask | best_choice[3]),
    ).balanced()


def maximum_balanced_biclique_near_complete(
    graph: BipartiteGraph,
) -> Biclique:
    """Convenience wrapper: solve a whole near-complete graph directly.

    The graph must satisfy the Lemma 3 condition globally (every vertex
    misses at most two neighbours on the other side); this is the
    "sufficiently dense, solvable in polynomial time directly" case the
    paper highlights for VLSI-style instances.
    """
    state = NodeState(set(), set(), graph.left, graph.right)
    context = SearchContext()
    if not is_polynomially_solvable(graph, state):
        raise ValueError(
            "graph is not near-complete: some vertex misses more than two "
            "neighbours; use dense_mbb instead"
        )
    # The polynomial case is a single bounded pass, so one budget poll at
    # the boundary keeps deadlines and cancel hooks honoured even when
    # this wrapper is driven with an externally-shared context.
    context.checkpoint()
    result = solve_polynomial_case(graph, state, context)
    return result if result is not None else Biclique.empty()
