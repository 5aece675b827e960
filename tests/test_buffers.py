"""Flat int arrays are plain lists; the shared-memory round trip copies them."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.buffers import (
    attach_shared_memory,
    available_backends,
    buffer_to_bytes,
    default_backend,
    ints_from_buffer,
)
from repro.graph.generators import random_bipartite, random_power_law_bipartite
from repro.graph.prepared import PreparedGraph
from repro.cores.bicore import bicore_decomposition
from repro.cores.orders import ORDER_BIDEGENERACY
from repro.mbb.vertex_centred import iter_vertex_centred_subgraphs_csr


def mixed_label_graph(seed: int) -> BipartiteGraph:
    """A graph mixing int and str labels (and sharing labels across sides)."""
    base = random_bipartite(7, 7, 0.4, seed=seed)
    graph = BipartiteGraph()
    for u, v in base.edges():
        left = u if u % 2 == 0 else f"u{u}"
        right = v if v % 2 == 1 else f"v{v}"
        graph.add_edge(left, right)
    graph.add_left_vertex("lonely", exist_ok=True)
    graph.add_right_vertex(3, exist_ok=True)
    return graph


PROPERTY_GRAPHS = [
    random_bipartite(12, 10, 0.3, seed=11),
    random_bipartite(9, 9, 0.6, seed=5),
    random_power_law_bipartite(14, 12, 40, exponent=2.2, seed=3),
    mixed_label_graph(seed=8),
]


def _flat_signature(prepared: PreparedGraph) -> dict:
    """The flat arrays of a bundle and everything the pipeline derives."""
    numbers, order = bicore_decomposition(prepared.graph, prepared=prepared)
    subgraphs = [
        (sub.center, sub.position, sub.left_members, sub.right_members)
        for sub in iter_vertex_centred_subgraphs_csr(
            prepared, prepared.search_order(ORDER_BIDEGENERACY)
        )
    ]
    return {
        "indptr": prepared.csr.indptr,
        "indices": prepared.csr.indices,
        "n_le2": prepared.n_le2,
        "numbers": numbers,
        "order": order,
        "subgraphs": subgraphs,
    }


def test_flat_arrays_are_lists():
    for graph in PROPERTY_GRAPHS:
        prepared = PreparedGraph.prepare(graph)
        view = prepared.order_view(prepared.search_order(ORDER_BIDEGENERACY))
        arrays = (
            prepared.csr.indptr,
            prepared.csr.indices,
            *prepared.n_le2,
            view.row_ptr,
            view.flat_positions,
        )
        assert all(type(array) is list for array in arrays)


def test_storage_stamp_names_only_lists():
    assert default_backend() == "list"
    assert available_backends() == ("list",)


def test_int64_bytes_round_trip():
    values = [0, 1, 7, -3, 2**40, -(2**40)]
    raw = buffer_to_bytes(values)
    assert len(raw) == 8 * len(values)
    rebuilt = ints_from_buffer(memoryview(raw))
    assert type(rebuilt) is list and rebuilt == values


class TestShmRoundTrip:
    def test_attached_bundle_matches_in_process(self):
        """A bundle attached from shared memory equals the in-process one."""
        for graph in PROPERTY_GRAPHS:
            producer = PreparedGraph.prepare(graph)
            producer.n_le2
            handle = producer.to_shm()
            try:
                attached = PreparedGraph.from_shm(handle.name, handle.fingerprint)
            finally:
                handle.destroy()
            reference = _flat_signature(PreparedGraph.prepare(graph))
            assert _flat_signature(attached) == reference

    def test_round_trip_identity_and_verification(self):
        graph = mixed_label_graph(seed=2)
        prepared = PreparedGraph.prepare(graph)
        prepared.n_le2
        handle = prepared.to_shm()
        try:
            attached = PreparedGraph.from_shm(
                handle.name, handle.fingerprint, verify_content=True
            )
            assert attached.fingerprint == prepared.fingerprint
            assert attached.csr.keys == prepared.csr.keys
            assert attached.graph == graph
            with pytest.raises(InvalidParameterError):
                PreparedGraph.from_shm(handle.name, "0" * 32)
        finally:
            handle.destroy()

    def test_attach_copies_and_detaches(self):
        prepared = PreparedGraph.prepare(random_bipartite(8, 8, 0.4, seed=1))
        prepared.n_le2
        handle = prepared.to_shm()
        try:
            attached = PreparedGraph.from_shm(handle.name, handle.fingerprint)
        finally:
            handle.destroy()
        arrays = (attached.csr.indptr, attached.csr.indices, *attached.n_le2)
        assert all(type(array) is list for array in arrays)
        # The copy owns its data: usable after the segment is gone.
        assert bicore_decomposition(attached.graph, prepared=attached)

    def test_destroy_is_idempotent_and_final(self):
        prepared = PreparedGraph.prepare(random_bipartite(6, 6, 0.5, seed=4))
        handle = prepared.to_shm()
        name = handle.name
        handle.destroy()
        handle.destroy()
        with pytest.raises(FileNotFoundError):
            attach_shared_memory(name)
