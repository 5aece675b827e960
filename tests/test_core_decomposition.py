"""Tests for the classical core decomposition, cross-checked against NetworkX."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import repro

from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph
from repro.graph.csr import CSRBipartite
from repro.graph.generators import (
    complete_bipartite,
    path_bipartite,
    random_bipartite,
    random_power_law_bipartite,
    star_bipartite,
)
from repro.cores.core import (
    core_numbers,
    degeneracy,
    degeneracy_order,
    flat_core_numbers,
    k_core,
)


def _to_networkx(graph: BipartiteGraph) -> nx.Graph:
    nx_graph = nx.Graph()
    for u in graph.left_vertices():
        nx_graph.add_node((LEFT, u))
    for v in graph.right_vertices():
        nx_graph.add_node((RIGHT, v))
    for u, v in graph.edges():
        nx_graph.add_edge((LEFT, u), (RIGHT, v))
    return nx_graph


class TestCoreNumbers:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_on_random_graphs(self, seed):
        graph = random_bipartite(8, 9, 0.35, seed=seed)
        expected = nx.core_number(_to_networkx(graph))
        assert core_numbers(graph) == expected

    def test_complete_bipartite(self):
        graph = complete_bipartite(3, 5)
        numbers = core_numbers(graph)
        assert all(value == 3 for value in numbers.values())

    def test_star_graph(self):
        graph = star_bipartite(6)
        numbers = core_numbers(graph)
        assert numbers[(LEFT, 0)] == 1
        assert all(numbers[(RIGHT, v)] == 1 for v in range(6))

    def test_path_graph_core_is_one(self):
        numbers = core_numbers(path_bipartite(6))
        assert set(numbers.values()) == {1}

    def test_empty_graph(self):
        assert core_numbers(BipartiteGraph()) == {}

    def test_isolated_vertices_have_core_zero(self):
        graph = BipartiteGraph(left=[1], right=[2])
        numbers = core_numbers(graph)
        assert numbers == {(LEFT, 1): 0, (RIGHT, 2): 0}


def _assert_flat_matches(graph: BipartiteGraph) -> None:
    csr = CSRBipartite.from_bipartite(graph)
    numbers = core_numbers(graph)
    assert flat_core_numbers(csr) == [numbers[key] for key in csr.keys]


class TestFlatCoreNumbers:
    """The CSR bucket peel equals the label-keyed peel, id by id."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        _assert_flat_matches(random_bipartite(12, 15, 0.3, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_power_law_graphs(self, seed):
        _assert_flat_matches(random_power_law_bipartite(80, 60, 4.0, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_label_graphs(self, seed):
        base = random_bipartite(10, 10, 0.35, seed=seed)
        graph = BipartiteGraph()
        for u, v in base.edges():
            left = u if u % 3 == 0 else (f"u{u}" if u % 3 == 1 else ("t", u))
            # Labels shared across sides must not collide.
            right = v if v % 2 else f"u{v}"
            graph.add_edge(left, right)
        _assert_flat_matches(graph)

    def test_edgeless_and_empty_graphs(self):
        _assert_flat_matches(BipartiteGraph(left=[1, 2, 3], right=["a"]))
        assert flat_core_numbers(CSRBipartite.from_bipartite(BipartiteGraph())) == []

    def test_isolated_vertices_next_to_a_dense_block(self):
        graph = complete_bipartite(4, 4)
        graph.add_left_vertex("lonely")
        graph.add_right_vertex(99)
        graph.add_edge("lonely", 0)
        _assert_flat_matches(graph)


class TestDegeneracy:
    def test_complete_bipartite_degeneracy(self):
        assert degeneracy(complete_bipartite(4, 7)) == 4

    def test_empty_graph_degeneracy_is_zero(self):
        assert degeneracy(BipartiteGraph()) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_degeneracy_equals_max_core_number(self, seed):
        graph = random_bipartite(10, 10, 0.3, seed=seed)
        assert degeneracy(graph) == max(core_numbers(graph).values())


class TestDegeneracyOrder:
    @pytest.mark.parametrize("seed", range(6))
    def test_is_a_permutation_of_all_vertices(self, seed):
        graph = random_bipartite(7, 8, 0.4, seed=seed)
        order = degeneracy_order(graph)
        assert len(order) == graph.num_vertices
        assert len(set(order)) == graph.num_vertices

    @pytest.mark.parametrize("seed", range(6))
    def test_smallest_degree_last_property(self, seed):
        graph = random_bipartite(7, 7, 0.4, seed=seed)
        order = degeneracy_order(graph)
        delta = degeneracy(graph)
        remaining_left = set(graph.left)
        remaining_right = set(graph.right)
        for side, label in order:
            if side == LEFT:
                degree = len(graph.neighbors_left(label) & remaining_right)
            else:
                degree = len(graph.neighbors_right(label) & remaining_left)
            # The defining property of a degeneracy order: each vertex has
            # residual degree at most the degeneracy when it is peeled.
            assert degree <= delta
            if side == LEFT:
                remaining_left.discard(label)
            else:
                remaining_right.discard(label)

    @pytest.mark.parametrize("seed", range(6))
    def test_each_vertex_has_the_minimum_residual_degree(self, seed):
        # Smallest-last, strictly: every peeled vertex has the least
        # degree in the subgraph induced by itself and the later ones.
        graph = random_power_law_bipartite(15, 15, 3.0, seed=seed)
        remaining = set(degeneracy_order(graph))

        def residual(key):
            side, label = key
            if side == LEFT:
                return sum((RIGHT, v) in remaining for v in graph.neighbors_left(label))
            return sum((LEFT, u) in remaining for u in graph.neighbors_right(label))

        for key in degeneracy_order(graph):
            assert residual(key) == min(map(residual, remaining))
            remaining.discard(key)


#: Run in a child process: the degeneracy order and a ``bd5`` solve of
#: string-labelled planted graphs, printed as JSON.  String hashes depend
#: on ``PYTHONHASHSEED``, so any set-order dependence shows up as a
#: difference between two children.
_HASH_SEED_PROBE = """
import json, random
from dataclasses import asdict, replace
from repro.cores.orders import search_order
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_power_law_bipartite
from repro.mbb.sparse import hbv_mbb, variant

config = replace(variant("bd5"), kernel="bits")
out = []
for seed in range(30):
    rng = random.Random(seed)
    base = random_power_law_bipartite(60, 60, 3.0, seed=rng)
    edges = set(base.edges())
    for _ in range(3):
        left, right = rng.sample(range(60), 8), rng.sample(range(60), 8)
        edges.update((u, v) for u in left for v in right if rng.random() < 0.75)
    graph = BipartiteGraph(edges=[(f"u{u}", f"v{v}") for u, v in sorted(edges)])
    result = hbv_mbb(graph, config=config)
    stats = asdict(result.stats)
    out.append({
        "order": search_order(graph, "degeneracy"),
        "witness": [sorted(result.biclique.left), sorted(result.biclique.right)],
        "terminated_at": result.terminated_at,
        "counters": {key: value for key, value in stats.items()
                     if not key.endswith("_seconds")},
    })
print(json.dumps(out))
"""


def _run_probe(hash_seed: str) -> list:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(completed.stdout)


class TestHashSeedIndependence:
    def test_degeneracy_order_and_bd5_solve_ignore_the_hash_seed(self):
        first, second = _run_probe("1"), _run_probe("2")
        assert len(first) == len(second) == 30
        for index, (a, b) in enumerate(zip(first, second, strict=True)):
            assert a["order"] == b["order"], index
            assert a["witness"] == b["witness"], index
            assert a["terminated_at"] == b["terminated_at"], index
            assert a["counters"] == b["counters"], index


class TestKCore:
    def test_k_core_of_complete_graph(self):
        graph = complete_bipartite(4, 4)
        assert k_core(graph, 4).num_vertices == 8
        assert k_core(graph, 5).num_vertices == 0

    def test_k_core_zero_returns_copy(self):
        graph = random_bipartite(5, 5, 0.3, seed=1)
        core = k_core(graph, 0)
        assert core == graph
        assert core is not graph

    def test_k_core_minimum_degree_property(self):
        graph = random_bipartite(12, 12, 0.3, seed=3)
        for k in range(1, 4):
            core = k_core(graph, k)
            for u in core.left_vertices():
                assert core.degree_left(u) >= k
            for v in core.right_vertices():
                assert core.degree_right(v) >= k

    def test_k_core_matches_networkx(self):
        graph = random_bipartite(10, 10, 0.35, seed=9)
        for k in range(1, 4):
            ours = k_core(graph, k)
            theirs = nx.k_core(_to_networkx(graph), k)
            expected_left = {n[1] for n in theirs.nodes if n[0] == LEFT}
            expected_right = {n[1] for n in theirs.nodes if n[0] == RIGHT}
            assert ours.left == expected_left
            assert ours.right == expected_right
