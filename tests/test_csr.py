"""Tests for the flat CSR adjacency snapshot."""

from __future__ import annotations

import pickle

import pytest

from repro.cores.two_hop import n_le2_flat
from repro.graph.bipartite import LEFT, RIGHT, BipartiteGraph
from repro.graph.csr import CSRBipartite
from repro.graph.generators import random_bipartite
from repro.graph.prepared import PreparedGraph


class TestConstruction:
    def test_empty_graph(self):
        csr = CSRBipartite.from_bipartite(BipartiteGraph())
        assert csr.num_vertices == 0
        assert csr.num_edges == 0
        assert list(csr.indptr) == [0]

    def test_id_assignment_is_left_first_then_repr_sorted(self):
        graph = BipartiteGraph(edges=[(2, "b"), (10, "a"), (3, "a")])
        csr = CSRBipartite.from_bipartite(graph)
        # Left ids 0..|L|-1 sorted by repr ("10" < "2" < "3"), then right.
        assert csr.keys == [
            (LEFT, 10),
            (LEFT, 2),
            (LEFT, 3),
            (RIGHT, "a"),
            (RIGHT, "b"),
        ]
        assert csr.num_left == 3 and csr.num_right == 2
        assert csr.is_left(2) and not csr.is_left(3)

    def test_index_of_inverts_key_of(self):
        graph = random_bipartite(6, 8, 0.4, seed=1)
        csr = CSRBipartite.from_bipartite(graph)
        for i in range(csr.num_vertices):
            assert csr.index_of(csr.key_of(i)) == i

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trips_every_edge(self, seed):
        graph = random_bipartite(7, 9, 0.35, seed=seed)
        csr = CSRBipartite.from_bipartite(graph)
        assert csr.num_edges == graph.num_edges
        edges = set()
        for i in range(csr.num_left):
            _, u = csr.key_of(i)
            for j in csr.neighbors(i):
                side, v = csr.key_of(j)
                assert side == RIGHT
                edges.add((u, v))
        assert edges == set(graph.edges())

    def test_adjacency_is_symmetric_and_sorted(self):
        graph = random_bipartite(6, 6, 0.5, seed=2)
        csr = CSRBipartite.from_bipartite(graph)
        for i in range(csr.num_vertices):
            neighbours = list(csr.neighbors(i))
            assert neighbours == sorted(neighbours)
            for j in neighbours:
                assert i in csr.neighbors(j)

    def test_degrees_match_graph(self):
        graph = random_bipartite(5, 7, 0.4, seed=3)
        csr = CSRBipartite.from_bipartite(graph)
        for i in range(csr.num_vertices):
            side, label = csr.key_of(i)
            expected = (
                graph.degree_left(label)
                if side == LEFT
                else graph.degree_right(label)
            )
            assert csr.degree(i) == expected
        assert len(csr) == graph.num_vertices

    def test_isolated_vertices_are_indexed(self):
        graph = BipartiteGraph(left=[1, 2], right=["a"], edges=[(1, "a")])
        csr = CSRBipartite.from_bipartite(graph)
        assert csr.num_vertices == 3
        assert list(csr.neighbors(csr.index_of((LEFT, 2)))) == []


class TestImmutability:
    def test_neighbors_cannot_write_into_a_cached_snapshot(self):
        graph = random_bipartite(6, 6, 0.5, seed=2)
        prepared = PreparedGraph.prepare(graph)
        csr = prepared.csr
        vertex = next(i for i in range(len(csr)) if csr.degree(i))
        row = csr.neighbors(vertex)
        row[0] = 999
        assert csr.neighbors(vertex)[0] != 999
        fresh = CSRBipartite.from_bipartite(graph)
        assert prepared.n_le2 == n_le2_flat(fresh)

    def test_pickle_round_trip_rebuilds_the_index(self):
        csr = CSRBipartite.from_bipartite(random_bipartite(6, 7, 0.5, seed=3))
        loaded = pickle.loads(pickle.dumps(csr))
        assert (loaded.keys, loaded.indptr, loaded.indices) == (
            csr.keys,
            csr.indptr,
            csr.indices,
        )
        assert (loaded.num_left, loaded.num_right) == (csr.num_left, csr.num_right)
        assert all(loaded.index_of(key) == i for i, key in enumerate(csr.keys))
