"""Tests for vertex-centred subgraph generation (Definition 6)."""

from __future__ import annotations

import pytest

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph
from repro.graph.bitset import IndexedBitGraph
from repro.graph.generators import (
    complete_bipartite,
    planted_balanced_biclique,
    random_bipartite,
    random_power_law_bipartite,
)
from repro.graph.prepared import PreparedGraph
from repro.cores.orders import ALL_ORDERS, ORDER_BIDEGENERACY, search_order
from repro.cores.bicore import bidegeneracy
from repro.mbb.vertex_centred import (
    iter_vertex_centred_subgraphs,
    iter_vertex_centred_subgraphs_csr,
    subgraph_density_profile,
    total_subgraph_size,
)
from repro.baselines.brute_force import brute_force_side_size


def family(graph, order):
    """The production generator's subgraphs of ``graph`` along ``order``."""
    return iter_vertex_centred_subgraphs_csr(PreparedGraph.prepare(graph), order)


def relabelled(graph: BipartiteGraph, left_label, right_label) -> BipartiteGraph:
    """A copy of ``graph`` with every label passed through the two maps."""
    result = BipartiteGraph()
    for u, v in graph.edges():
        result.add_edge(left_label(u), right_label(v))
    return result


def string_label_graph(seed: int) -> BipartiteGraph:
    return relabelled(
        random_power_law_bipartite(30, 30, 3.0, seed=seed),
        lambda u: f"u{u}",
        lambda v: f"v{v}",
    )


def mixed_label_graph(seed: int) -> BipartiteGraph:
    """Int and str labels on both sides, sharing labels across sides."""
    graph = relabelled(
        random_bipartite(12, 12, 0.35, seed=seed),
        lambda u: u if u % 2 == 0 else f"u{u}",
        lambda v: v if v % 2 == 1 else f"v{v}",
    )
    graph.add_left_vertex("lonely", exist_ok=True)
    graph.add_right_vertex(3, exist_ok=True)
    return graph


#: Graph families the position-space bitgraph build is checked on.
BITGRAPH_FAMILIES = {
    "random": lambda seed: random_bipartite(14, 12, 0.35, seed=seed),
    "power_law": lambda seed: random_power_law_bipartite(40, 40, 3.0, seed=seed),
    "planted": lambda seed: planted_balanced_biclique(
        30, 30, 6, background_density=0.08, seed=seed
    ),
    "string_labels": string_label_graph,
    "mixed_labels": mixed_label_graph,
}


class TestSubgraphConstruction:
    def test_one_subgraph_per_vertex(self):
        graph = random_bipartite(6, 6, 0.4, seed=1)
        order = search_order(graph, ORDER_BIDEGENERACY)
        subs = list(iter_vertex_centred_subgraphs(graph, order))
        assert len(subs) == graph.num_vertices

    def test_center_is_inside_its_subgraph(self):
        graph = random_bipartite(6, 6, 0.4, seed=2)
        order = search_order(graph, ORDER_BIDEGENERACY)
        for sub in family(graph, order):
            side, label = sub.center
            if side == LEFT:
                assert sub.graph.has_left_vertex(label)
            else:
                assert sub.graph.has_right_vertex(label)

    def test_subgraphs_only_contain_later_vertices(self):
        graph = random_bipartite(7, 7, 0.4, seed=3)
        order = search_order(graph, ORDER_BIDEGENERACY)
        positions = {key: index for index, key in enumerate(order)}
        for sub in family(graph, order):
            for u in sub.graph.left_vertices():
                assert positions[(LEFT, u)] >= sub.position
            for v in sub.graph.right_vertices():
                assert positions[(RIGHT, v)] >= sub.position
            assert min(sub.own_positions) == sub.position
            assert all(q > sub.position for q in sub.other_positions)

    def test_last_vertex_subgraph_is_just_itself(self):
        graph = complete_bipartite(3, 3)
        order = search_order(graph, ORDER_BIDEGENERACY)
        subs = list(family(graph, order))
        assert subs[-1].size == 1


class TestCoveringProperty:
    @pytest.mark.parametrize("order_name", ALL_ORDERS)
    @pytest.mark.parametrize("seed", range(5))
    def test_optimum_is_preserved_by_the_family(self, order_name, seed):
        """Observations 4-5: some centred subgraph contains an optimum MBB."""
        graph = random_bipartite(7, 7, 0.5, seed=seed)
        optimum = brute_force_side_size(graph)
        if optimum == 0:
            return
        order = search_order(graph, order_name)
        best_in_family = 0
        for sub in family(graph, order):
            if min(sub.graph.num_left, sub.graph.num_right) < optimum:
                continue
            best_in_family = max(
                best_in_family, brute_force_side_size(sub.graph)
            )
        assert best_in_family == optimum


class TestLaziness:
    def test_generation_materialises_nothing(self):
        graph = random_bipartite(10, 10, 0.4, seed=6)
        order = search_order(graph, ORDER_BIDEGENERACY)
        for sub in family(graph, order):
            # Member counts and the size test must build no labels and
            # neither graph form.
            assert sub.min_side == min(sub.num_left, sub.num_right)
            assert sub.size == sub.num_left + sub.num_right
            assert sub._members is None
            assert sub._graph is None
            assert sub._bitgraph is None

    def test_graph_property_matches_members_and_caches(self):
        graph = random_bipartite(8, 8, 0.5, seed=7)
        order = search_order(graph, ORDER_BIDEGENERACY)
        for sub in family(graph, order):
            materialised = sub.graph
            assert materialised is sub.graph  # cached
            assert materialised.left == sub.left_members
            assert materialised.right == sub.right_members
            assert len(sub.left_members) == sub.num_left
            assert len(sub.right_members) == sub.num_right

    def test_bitgraph_matches_graph_and_caches(self):
        graph = random_bipartite(8, 8, 0.5, seed=8)
        order = search_order(graph, ORDER_BIDEGENERACY)
        for sub in family(graph, order):
            bitgraph = sub.to_bitgraph()
            assert sub.to_bitgraph() is bitgraph  # cached; S3 reuses S2's copy
            assert sub._graph is None  # built from positions, not labels
            assert set(bitgraph.left_labels) == sub.left_members
            assert set(bitgraph.right_labels) == sub.right_members
            assert bitgraph.num_edges == sub.graph.num_edges == sub.num_edges
            assert sub.density == sub.graph.density


class TestBitgraphFromRows:
    """``to_bitgraph`` equals the label-set build, field by field."""

    @pytest.mark.parametrize("order_name", ALL_ORDERS)
    @pytest.mark.parametrize("kind", sorted(BITGRAPH_FAMILIES))
    @pytest.mark.parametrize("seed", range(2))
    def test_equals_from_bipartite(self, kind, order_name, seed):
        graph = BITGRAPH_FAMILIES[kind](seed)
        order = search_order(graph, order_name)
        checked = 0
        for sub in family(graph, order):
            built = sub.to_bitgraph()
            expected = IndexedBitGraph.from_bipartite(
                graph, sub.left_members, sub.right_members
            )
            assert built.left_labels == expected.left_labels
            assert built.right_labels == expected.right_labels
            assert built.adj_left == expected.adj_left
            assert built.adj_right == expected.adj_right
            assert built.num_edges == expected.num_edges
            assert built.left_index == expected.left_index
            assert built.right_index == expected.right_index
            side, label = sub.center
            index = expected.left_index if side == LEFT else expected.right_index
            assert sub.center_index == index[label]
            checked += 1
        assert checked == graph.num_vertices

    @pytest.mark.parametrize("kind", sorted(BITGRAPH_FAMILIES))
    def test_other_degree_count_matches_the_bitgraph(self, kind):
        graph = BITGRAPH_FAMILIES[kind](3)
        order = search_order(graph, ORDER_BIDEGENERACY)
        for sub in family(graph, order):
            bitgraph = sub.to_bitgraph()
            other_rows = (
                bitgraph.adj_right if sub.center[0] == LEFT else bitgraph.adj_left
            )
            degrees = [row.bit_count() for row in other_rows]
            for k in range(1, 6):
                assert sub.count_other_degrees_at_least(k) == sum(
                    d >= k for d in degrees
                )


class TestDensity:
    def test_density_does_not_materialise_any_graph_form(self):
        # Regression: density used to call to_bitgraph(), paying the full
        # bitset indexing for subgraphs no search would ever touch.
        graph = random_bipartite(9, 9, 0.4, seed=11)
        order = search_order(graph, ORDER_BIDEGENERACY)
        for sub in family(graph, order):
            assert 0.0 <= sub.density <= 1.0
            assert sub._members is None
            assert sub._graph is None
            assert sub._bitgraph is None

    def test_density_matches_both_materialised_forms(self):
        graph = random_bipartite(9, 9, 0.5, seed=12)
        order = search_order(graph, ORDER_BIDEGENERACY)
        for sub in family(graph, order):
            direct = sub.density
            assert direct == pytest.approx(sub.graph.density)
            assert direct == pytest.approx(sub.to_bitgraph().density)

    def test_empty_other_side_has_zero_density(self):
        graph = random_bipartite(5, 5, 0.3, seed=13)
        order = search_order(graph, ORDER_BIDEGENERACY)
        last = list(family(graph, order))[-1]
        assert last.size == 1
        assert last.density == 0.0


class TestSizeBounds:
    def test_total_size_bound_for_bidegeneracy_order(self):
        """Lemma 8: total size is O((|L|+|R|) * bidegeneracy)."""
        graph = random_bipartite(15, 15, 0.2, seed=4)
        order = search_order(graph, ORDER_BIDEGENERACY)
        total = total_subgraph_size(graph, order)
        delta = bidegeneracy(graph)
        assert total <= graph.num_vertices * (delta + 1)

    def test_density_profile_values_are_valid(self):
        graph = random_bipartite(10, 10, 0.3, seed=5)
        for order_name in ALL_ORDERS:
            profile = subgraph_density_profile(graph, search_order(graph, order_name))
            assert all(0.0 < value <= 1.0 for value in profile)
