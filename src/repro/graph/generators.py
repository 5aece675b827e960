"""Random and structured bipartite graph generators.

Three families of generators are provided:

* **Dense uniform graphs** (:func:`random_bipartite`) mirror the synthetic
  dense workload of Table 4 in the paper (edge density 0.7-0.95, as in the
  defect-tolerance / VLSI application).
* **Sparse skewed graphs** (:func:`random_power_law_bipartite`) mirror the
  KONECT web-scale datasets of Table 5: heavy-tailed degree distributions,
  very low density, unbalanced side sizes.
* **Structured graphs** (complete, crown, paths, cycles, planted bicliques)
  are used as test oracles because their maximum balanced biclique is known
  in closed form.

All generators accept either an integer ``seed`` or a pre-built
:class:`random.Random` instance so experiments are reproducible.
"""

from __future__ import annotations

import math
import random
from typing import Sequence, Union

from repro._util import is_finite_number
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph

RandomLike = Union[int, random.Random, None]


def _resolve_rng(seed: RandomLike) -> random.Random:
    """Return a :class:`random.Random` for ``seed`` (int, Random, or None)."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _check_sizes(n_left: int, n_right: int) -> None:
    if n_left < 0 or n_right < 0:
        raise InvalidParameterError(
            f"side sizes must be non-negative, got ({n_left}, {n_right})"
        )


# ----------------------------------------------------------------------
# random graphs
# ----------------------------------------------------------------------
def random_bipartite(
    n_left: int,
    n_right: int,
    density: float,
    seed: RandomLike = None,
) -> BipartiteGraph:
    """Uniform random bipartite graph with the given edge density.

    Every pair ``(u, v)`` is an edge independently with probability
    ``density``.  This is the generator used for the dense suite (Table 4),
    following the construction of the defect-tolerance literature the paper
    cites: a random biadjacency matrix with a fixed fraction of ones.

    Parameters
    ----------
    n_left, n_right:
        Side sizes.
    density:
        Edge probability in ``[0, 1]``.
    seed:
        Seed or random generator for reproducibility.
    """
    _check_sizes(n_left, n_right)
    if not 0.0 <= density <= 1.0:
        raise InvalidParameterError(f"density must be in [0, 1], got {density}")
    rng = _resolve_rng(seed)
    graph = BipartiteGraph(left=range(n_left), right=range(n_right))
    for u in range(n_left):
        for v in range(n_right):
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


def random_bipartite_with_edge_count(
    n_left: int,
    n_right: int,
    n_edges: int,
    seed: RandomLike = None,
) -> BipartiteGraph:
    """Random bipartite graph with exactly ``n_edges`` distinct edges."""
    _check_sizes(n_left, n_right)
    max_edges = n_left * n_right
    if not 0 <= n_edges <= max_edges:
        raise InvalidParameterError(
            f"n_edges must be in [0, {max_edges}], got {n_edges}"
        )
    rng = _resolve_rng(seed)
    graph = BipartiteGraph(left=range(n_left), right=range(n_right))
    if n_edges > max_edges // 2:
        # Sample the complement when the graph is dense to avoid rejection.
        missing = set()
        while len(missing) < max_edges - n_edges:
            missing.add((rng.randrange(n_left), rng.randrange(n_right)))
        for u in range(n_left):
            for v in range(n_right):
                if (u, v) not in missing:
                    graph.add_edge(u, v)
        return graph
    chosen = set()
    while len(chosen) < n_edges:
        chosen.add((rng.randrange(n_left), rng.randrange(n_right)))
    for u, v in chosen:
        graph.add_edge(u, v)
    return graph


def random_power_law_bipartite(
    n_left: int,
    n_right: int,
    avg_degree: float,
    exponent: float = 2.1,
    seed: RandomLike = None,
) -> BipartiteGraph:
    """Sparse bipartite graph with heavy-tailed degrees on both sides.

    The generator draws a Zipf-like weight ``w_i ~ i^(-1/(exponent-1))`` for
    every vertex on each side and places edges by sampling endpoints
    proportionally to those weights (a bipartite Chung-Lu construction).
    The result mimics the KONECT interaction networks used in Table 5:
    most vertices have a handful of edges, a few hubs have thousands.

    Parameters
    ----------
    avg_degree:
        Target average left-side degree; the number of sampled edges is
        ``round(n_left * avg_degree)`` (duplicates are discarded so the
        realised average is slightly lower, as in real trace data).
    exponent:
        Power-law exponent of the weight sequence; 2.0-2.5 matches the
        datasets the paper evaluates.
    """
    _check_sizes(n_left, n_right)
    if not is_finite_number(avg_degree) or avg_degree < 0:
        raise InvalidParameterError(
            f"avg_degree must be a finite number >= 0, got {avg_degree}"
        )
    if not exponent > 1.0:  # also rejects NaN
        raise InvalidParameterError(f"exponent must be > 1, got {exponent}")
    rng = _resolve_rng(seed)
    graph = BipartiteGraph(left=range(n_left), right=range(n_right))
    if n_left == 0 or n_right == 0 or avg_degree == 0:
        return graph

    def weights(count: int) -> Sequence[float]:
        alpha = 1.0 / (exponent - 1.0)
        return [(i + 1) ** (-alpha) for i in range(count)]

    left_weights = weights(n_left)
    right_weights = weights(n_right)
    # Cap before rounding: a huge finite avg_degree overflows the product.
    target_edges = int(round(min(n_left * avg_degree, n_left * n_right)))
    left_choices = rng.choices(range(n_left), weights=left_weights, k=target_edges)
    right_choices = rng.choices(range(n_right), weights=right_weights, k=target_edges)
    for u, v in zip(left_choices, right_choices, strict=True):
        graph.add_edge(u, v)
    return graph


def planted_balanced_biclique(
    n_left: int,
    n_right: int,
    planted_size: int,
    background_density: float = 0.05,
    seed: RandomLike = None,
) -> BipartiteGraph:
    """Random background graph with a planted balanced biclique.

    A ``planted_size`` × ``planted_size`` complete biclique is embedded on
    the first vertices of each side and the remaining pairs are filled
    uniformly at random with probability ``background_density``.  When the
    background density is low the planted biclique is (with overwhelming
    probability) the unique maximum balanced biclique, which makes this
    generator the workhorse of the heuristic-gap experiments (Figure 4) and
    of property tests that need graphs with a known optimum lower bound.
    """
    _check_sizes(n_left, n_right)
    if planted_size < 0 or planted_size > min(n_left, n_right):
        raise InvalidParameterError(
            f"planted_size must be in [0, {min(n_left, n_right)}], got {planted_size}"
        )
    rng = _resolve_rng(seed)
    graph = random_bipartite(n_left, n_right, background_density, seed=rng)
    for u in range(planted_size):
        for v in range(planted_size):
            graph.add_edge(u, v)
    return graph


def random_near_complete_bipartite(
    n_left: int,
    n_right: int,
    max_missing: int = 2,
    seed: RandomLike = None,
) -> BipartiteGraph:
    """Complete bipartite graph with up to ``max_missing`` edges removed per vertex.

    Each vertex loses a uniformly random number (``0..max_missing``) of its
    incident edges, subject to the other endpoint also staying within its
    own missing budget.  With ``max_missing=2`` every instance satisfies the
    precondition of Lemma 3, which makes this the canonical workload for
    unit-testing the polynomial solver against brute force.
    """
    _check_sizes(n_left, n_right)
    if max_missing < 0:
        raise InvalidParameterError(f"max_missing must be >= 0, got {max_missing}")
    rng = _resolve_rng(seed)
    graph = complete_bipartite(n_left, n_right)
    missing_budget_left = {u: rng.randint(0, max_missing) for u in range(n_left)}
    missing_budget_right = {v: rng.randint(0, max_missing) for v in range(n_right)}
    removed_left = {u: 0 for u in range(n_left)}
    removed_right = {v: 0 for v in range(n_right)}
    pairs = [(u, v) for u in range(n_left) for v in range(n_right)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if (
            removed_left[u] < missing_budget_left[u]
            and removed_right[v] < missing_budget_right[v]
        ):
            graph.remove_edge(u, v)
            removed_left[u] += 1
            removed_right[v] += 1
    return graph


# ----------------------------------------------------------------------
# structured graphs with known optima
# ----------------------------------------------------------------------
def complete_bipartite(n_left: int, n_right: int) -> BipartiteGraph:
    """The complete bipartite graph ``K_{n_left, n_right}``.

    Its maximum balanced biclique has side size ``min(n_left, n_right)``.
    """
    _check_sizes(n_left, n_right)
    graph = BipartiteGraph(left=range(n_left), right=range(n_right))
    for u in range(n_left):
        for v in range(n_right):
            graph.add_edge(u, v)
    return graph


def crown_graph(n: int) -> BipartiteGraph:
    """Complete bipartite graph ``K_{n,n}`` minus a perfect matching.

    The bipartite complement is a perfect matching, so the crown graph is
    the extreme instance of the "missing at most one neighbour" regime.  A
    biclique may contain at most one endpoint of every complement matching
    edge, i.e. the chosen left indices and right indices must be disjoint
    subsets of ``{0, .., n-1}``.  The maximum balanced biclique therefore
    has side size exactly ``n // 2`` — a closed-form oracle used by the
    tests of the polynomial-case solver.
    """
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    graph = BipartiteGraph(left=range(n), right=range(n))
    for u in range(n):
        for v in range(n):
            if u != v:
                graph.add_edge(u, v)
    return graph


def path_bipartite(length: int) -> BipartiteGraph:
    """A path with ``length`` edges, 2-coloured into a bipartite graph.

    Vertices at even positions go to the left side, odd positions to the
    right side.  Left labels are ``0, 1, ...`` and right labels are
    ``0, 1, ...`` in path order.
    """
    if length < 0:
        raise InvalidParameterError(f"length must be >= 0, got {length}")
    graph = BipartiteGraph()
    graph.add_left_vertex(0, exist_ok=True)
    for i in range(length):
        if i % 2 == 0:
            # edge between path vertex i (left, index i//2) and i+1 (right).
            graph.add_edge(i // 2, i // 2)
        else:
            # edge between path vertex i (right, index i//2) and i+1 (left).
            graph.add_edge((i + 1) // 2, i // 2)
    return graph


def cycle_bipartite(length: int) -> BipartiteGraph:
    """An even cycle with ``length`` edges as a bipartite graph.

    ``length`` must be even and at least 4.  Left vertices are
    ``0..length/2-1`` and right vertices likewise; edges connect ``i`` with
    ``i`` and ``i`` with ``(i+1) mod length/2``.
    """
    if length < 4 or length % 2 != 0:
        raise InvalidParameterError(
            f"cycle length must be an even integer >= 4, got {length}"
        )
    half = length // 2
    graph = BipartiteGraph(left=range(half), right=range(half))
    for i in range(half):
        graph.add_edge(i, i)
        graph.add_edge((i + 1) % half, i)
    return graph


def star_bipartite(n_leaves: int) -> BipartiteGraph:
    """A star: one left vertex connected to ``n_leaves`` right vertices.

    Its maximum balanced biclique is a single edge (side size 1) whenever
    ``n_leaves >= 1``.
    """
    if n_leaves < 0:
        raise InvalidParameterError(f"n_leaves must be >= 0, got {n_leaves}")
    graph = BipartiteGraph(left=[0], right=range(n_leaves))
    for v in range(n_leaves):
        graph.add_edge(0, v)
    return graph


def grid_union_of_bicliques(
    block_sizes: Sequence[int],
    seed: RandomLike = None,
    noise_edges: int = 0,
) -> BipartiteGraph:
    """Disjoint union of complete bicliques plus optional random noise edges.

    The optimum balanced biclique side size is ``max(block_sizes)`` as long
    as the noise does not merge blocks into something larger, which is the
    case for the small noise levels used in tests.  Blocks are laid out on
    consecutive vertex ranges.
    """
    rng = _resolve_rng(seed)
    graph = BipartiteGraph()
    offset_left = 0
    offset_right = 0
    for size in block_sizes:
        if size < 0:
            raise InvalidParameterError(f"block sizes must be >= 0, got {size}")
        for u in range(offset_left, offset_left + size):
            for v in range(offset_right, offset_right + size):
                graph.add_edge(u, v)
        offset_left += size
        offset_right += size
    total_left = max(offset_left, 1)
    total_right = max(offset_right, 1)
    for _ in range(noise_edges):
        graph.add_edge(rng.randrange(total_left), rng.randrange(total_right))
    return graph


def expected_dense_mbb_side(n: int, density: float) -> int:
    """Rough analytic estimate of the MBB side size in a random dense graph.

    For a uniform random bipartite graph ``G(n, n, p)`` the expected number
    of balanced bicliques with side ``k`` is ``C(n,k)^2 * p^(k*k)``; the
    largest ``k`` for which this exceeds one is a standard first-moment
    estimate of the optimum.  The benchmark harness uses it only to label
    table rows, never for correctness.
    """
    if n <= 0 or density <= 0.0:
        return 0
    if density >= 1.0:
        return n
    best = 0
    for k in range(1, n + 1):
        log_count = 2 * (
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        ) + k * k * math.log(density)
        if log_count >= 0:
            best = k
        else:
            break
    return best
