"""Tests for bicore decomposition, bidegeneracy and the bidegeneracy order."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph
from repro.graph.generators import (
    complete_bipartite,
    crown_graph,
    cycle_bipartite,
    grid_union_of_bicliques,
    path_bipartite,
    random_bipartite,
    random_power_law_bipartite,
    star_bipartite,
)
from repro.cores.bicore import (
    ALL_IMPLS,
    IMPL_BUCKET,
    IMPL_EXACT,
    bicore_decomposition,
    bicore_numbers,
    bidegeneracy,
    bidegeneracy_order,
    residual_bicore_numbers,
)
from repro.cores.two_hop import n_le2_adjacency, n_le2_neighbors, n_le2_sizes
from repro.workloads.datasets import load_dataset


def _build_corpus():
    graphs = []
    for seed in range(6):
        graphs.append(random_bipartite(6, 6, 0.35, seed=seed))
        graphs.append(random_bipartite(5, 9, 0.25, seed=seed))
        graphs.append(random_power_law_bipartite(12, 12, 2.0, seed=seed))
    return tuple(graphs)


#: Random-graph corpus shared by the impl-equivalence properties — built
#: once; every consumer only reads the graphs.
GRAPH_CORPUS = _build_corpus()

#: Families where many vertices share ``(|N_<=2|, degree)`` at every step,
#: so the bucket peel's heaps hold many stale entries and the id
#: tie-break decides almost every pop.
TIE_HEAVY = {
    "complete": lambda: complete_bipartite(5, 7),
    "crown": lambda: crown_graph(7),
    "star": lambda: star_bipartite(9),
    "path": lambda: path_bipartite(13),
    "cycle": lambda: cycle_bipartite(16),
    "bicliques": lambda: grid_union_of_bicliques([3, 4, 4, 2], seed=5, noise_edges=6),
}


class TestBicoreNumbers:
    def test_complete_bipartite(self):
        graph = complete_bipartite(3, 4)
        numbers = bicore_numbers(graph)
        # Every vertex sees the whole graph within two hops: |N_<=2| = 6.
        assert all(value == 6 for value in numbers.values())

    def test_star_graph(self):
        graph = star_bipartite(5)
        numbers = bicore_numbers(graph)
        # The centre sees its 5 leaves; every leaf sees the centre plus the
        # other 4 leaves, so all |N_<=2| values are 5 and never drop below
        # the final peel value.
        assert numbers[(LEFT, 0)] == 5
        assert all(numbers[(RIGHT, v)] == 5 for v in range(5))

    def test_single_edge(self):
        graph = BipartiteGraph(edges=[(0, 0)])
        numbers = bicore_numbers(graph)
        assert numbers == {(LEFT, 0): 1, (RIGHT, 0): 1}

    @pytest.mark.parametrize("impl", ALL_IMPLS)
    def test_empty_graph(self, impl):
        assert bicore_numbers(BipartiteGraph(), impl=impl) == {}
        assert bidegeneracy_order(BipartiteGraph(), impl=impl) == []

    # "heap" named the deleted heap peel.
    @pytest.mark.parametrize("impl", ["quantum", "heap"])
    def test_unknown_impl_raises(self, impl):
        with pytest.raises(InvalidParameterError):
            bicore_numbers(random_bipartite(3, 3, 0.5, seed=0), impl=impl)

    @pytest.mark.parametrize("seed", range(4))
    def test_bicore_at_least_core_like_lower_bounds(self, seed):
        graph = random_bipartite(8, 8, 0.3, seed=seed)
        numbers = bicore_numbers(graph)
        sizes = n_le2_sizes(graph)
        for key, value in numbers.items():
            # A vertex's bicore number can never exceed its |N_<=2| in the
            # full graph, and is never negative.
            assert 0 <= value <= sizes[key]


class TestImplEquivalence:
    """Bucket peel ≡ exact oracle, numbers *and* order."""

    @pytest.mark.parametrize("index", range(18))
    def test_all_impls_agree_exactly(self, index):
        graph = GRAPH_CORPUS[index]
        bucket = bicore_decomposition(graph, impl=IMPL_BUCKET)
        exact = bicore_decomposition(graph, impl=IMPL_EXACT)
        # Same bicore numbers AND the identical peel order: both share
        # the (|N_<=2|, 1-hop degree, id) priority bit for bit.
        assert bucket == exact

    @pytest.mark.parametrize("family", sorted(TIE_HEAVY))
    def test_impls_agree_on_tie_heavy_families(self, family):
        graph = TIE_HEAVY[family]()
        bucket = bicore_decomposition(graph, impl=IMPL_BUCKET)
        exact = bicore_decomposition(graph, impl=IMPL_EXACT)
        assert bucket == exact

    def test_impls_agree_on_a_stand_in(self):
        # A KONECT stand-in: heavy-tailed degrees and a planted block,
        # far larger than the random corpus.
        graph = load_dataset("unicodelang")
        bucket = bicore_decomposition(graph, impl=IMPL_BUCKET)
        exact = bicore_decomposition(graph, impl=IMPL_EXACT)
        assert bucket == exact

    def test_impls_agree_on_mixed_label_types(self):
        # int and str labels cannot be compared directly; the repr-based
        # tie-break (= the CSR id order) must still give one total order.
        graph = BipartiteGraph(
            edges=[(1, "a"), ("x", "a"), (1, "b"), ("x", "b"), (2, "a"), (10, "b")]
        )
        bucket = bicore_decomposition(graph, impl=IMPL_BUCKET)
        exact = bicore_decomposition(graph, impl=IMPL_EXACT)
        assert bucket == exact

    @pytest.mark.parametrize("index", range(0, 18, 3))
    def test_order_validity_invariant(self, index):
        """Each peeled vertex has minimum remaining |N_<=2| at its step.

        "Remaining" means within the materialised N_<=2 graph restricted
        to the survivors — the graph the peel removes vertices from.
        """
        graph = GRAPH_CORPUS[index]
        adjacency = n_le2_adjacency(graph)
        order = bidegeneracy_order(graph)
        alive = set(adjacency)
        for key in order:
            remaining = {k: len(adjacency[k] & alive) for k in alive}
            assert remaining[key] == min(remaining.values())
            alive.discard(key)

    @pytest.mark.parametrize("index", range(0, 18, 2))
    def test_residual_reference_agrees_on_numbers(self, index):
        """Cross-check against the Definition-level residual recompute.

        Re-deriving N_<=2 on the residual bipartite graph can peel ties in
        a different order (a removal may sever 2-hop pairs it bridged),
        but the bicore numbers — the quantities δ̈ and Lemma 8 depend on —
        must match the materialised peel's.
        """
        graph = GRAPH_CORPUS[index]
        assert bicore_numbers(graph) == residual_bicore_numbers(graph)

    def test_decomposition_number_is_running_max_of_order(self):
        graph = random_bipartite(8, 8, 0.35, seed=11)
        numbers, order = bicore_decomposition(graph)
        assert list(numbers) != []
        values = [numbers[key] for key in order]
        # Peel order yields non-decreasing bicore numbers (running max).
        assert values == sorted(values)


class TestBidegeneracy:
    def test_monotone_under_edge_addition(self):
        graph = random_bipartite(8, 8, 0.2, seed=3)
        before = bidegeneracy(graph)
        denser = graph.copy()
        for u in range(4):
            for v in range(4):
                denser.add_edge(u, v)
        assert bidegeneracy(denser) >= before

    def test_path_bidegeneracy_small(self):
        assert bidegeneracy(path_bipartite(6)) <= 4

    def test_empty_graph(self):
        assert bidegeneracy(BipartiteGraph()) == 0

    def test_bidegeneracy_at_least_balanced_biclique_bound(self):
        # A planted K_{4,4} forces every planted vertex to have |N_<=2| >= 7
        # inside the block, so the bidegeneracy is at least 7.
        graph = complete_bipartite(4, 4)
        assert bidegeneracy(graph) == 7


class TestBidegeneracyOrder:
    @pytest.mark.parametrize("seed", range(5))
    def test_is_permutation(self, seed):
        graph = random_bipartite(7, 7, 0.35, seed=seed)
        order = bidegeneracy_order(graph)
        assert len(order) == graph.num_vertices
        assert len(set(order)) == graph.num_vertices

    @pytest.mark.parametrize("seed", range(5))
    def test_suffix_n_le2_bounded_by_bidegeneracy(self, seed):
        """Definition 5: each vertex minimises |N_<=2| in its suffix subgraph."""
        graph = random_bipartite(7, 7, 0.35, seed=seed)
        order = bidegeneracy_order(graph)
        delta = bidegeneracy(graph)
        for index, key in enumerate(order):
            suffix = order[index:]
            left = [label for side, label in suffix if side == LEFT]
            right = [label for side, label in suffix if side == RIGHT]
            sub = graph.induced_subgraph(left, right)
            side, label = key
            if side == LEFT and not sub.has_left_vertex(label):
                continue
            if side == RIGHT and not sub.has_right_vertex(label):
                continue
            size = len(n_le2_neighbors(sub, side, label))
            assert size <= delta
