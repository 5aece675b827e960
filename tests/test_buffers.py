"""Flat-buffer backends: selection, round-trips, equivalence, shm round trips."""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.api import MBBEngine, PreparedGraphCache
from repro.exceptions import InvalidParameterError
from repro.graph import buffers
from repro.graph.bipartite import BipartiteGraph
from repro.graph.buffers import (
    BACKEND_ARRAY,
    BACKEND_LIST,
    BACKEND_NUMPY,
    attach_shared_memory,
    available_backends,
    as_int_list,
    buffer_backend,
    buffer_nbytes,
    buffer_to_bytes,
    buffer_view,
    default_backend,
    freeze_buffer,
    ints_from_buffer,
    mutable_int_buffer,
    pickleable_buffer,
    set_default_backend,
)
from repro.graph.generators import random_bipartite, random_power_law_bipartite
from repro.graph.prepared import PreparedGraph
from repro.cores.bicore import bicore_decomposition
from repro.cores.orders import ORDER_BIDEGENERACY
from repro.cores.two_hop import n_le2_flat
from repro.mbb.vertex_centred import iter_vertex_centred_subgraphs_csr


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide default backend untouched."""
    yield
    set_default_backend(None)


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


class TestBackendSelection:
    def test_available_backends_default_first(self):
        backends = available_backends()
        assert backends[0] == BACKEND_ARRAY
        assert BACKEND_LIST in backends

    def test_default_backend_resolution_order(self, monkeypatch):
        monkeypatch.delenv(buffers.BACKEND_ENV_VAR, raising=False)
        assert default_backend() == BACKEND_ARRAY
        monkeypatch.setenv(buffers.BACKEND_ENV_VAR, BACKEND_LIST)
        assert default_backend() == BACKEND_LIST
        # An explicit override outranks the environment.
        set_default_backend(BACKEND_ARRAY)
        assert default_backend() == BACKEND_ARRAY
        set_default_backend(None)
        assert default_backend() == BACKEND_LIST

    def test_invalid_backend_rejected(self, monkeypatch):
        with pytest.raises(InvalidParameterError):
            set_default_backend("rope")
        monkeypatch.setenv(buffers.BACKEND_ENV_VAR, "rope")
        with pytest.raises(InvalidParameterError):
            default_backend()

    def test_numpy_backend_requires_numpy(self):
        if BACKEND_NUMPY in available_backends():
            set_default_backend(BACKEND_NUMPY)
            assert default_backend() == BACKEND_NUMPY
        else:
            with pytest.raises(InvalidParameterError):
                set_default_backend(BACKEND_NUMPY)


class TestBufferRoundTrips:
    VALUES = [0, 1, 7, -3, 2**40, -(2**40)]

    def test_freeze_and_read_back_per_backend(self):
        for backend in available_backends():
            frozen = freeze_buffer(list(self.VALUES), backend=backend)
            assert as_int_list(frozen) == self.VALUES
            assert len(frozen) == len(self.VALUES)
            assert buffer_nbytes(frozen) == 8 * len(self.VALUES)
            assert buffer_to_bytes(frozen) == array("q", self.VALUES).tobytes()

    def test_typed_containers_pass_through_freeze(self):
        typed = array("q", self.VALUES)
        assert freeze_buffer(typed) is typed
        view = memoryview(typed)
        assert freeze_buffer(view) is view

    def test_mutable_buffer_is_owned_and_writable(self):
        for backend in available_backends():
            source = freeze_buffer(list(self.VALUES), backend=backend)
            working = mutable_int_buffer(source, backend=backend)
            assert not isinstance(working, memoryview)
            working[0] = 99
            assert int(working[0]) == 99
            assert as_int_list(source) == self.VALUES

    def test_buffer_view_is_zero_copy_for_arrays(self):
        typed = array("q", self.VALUES)
        view = buffer_view(typed)
        assert isinstance(view, memoryview)
        assert view.tolist() == self.VALUES
        plain = list(self.VALUES)
        assert buffer_view(plain) is plain

    def test_ints_from_buffer_round_trips_raw_bytes(self):
        raw = memoryview(bytearray(array("q", self.VALUES).tobytes()))
        for backend in available_backends():
            rebuilt = ints_from_buffer(raw, backend)
            assert as_int_list(rebuilt) == self.VALUES
            assert buffer_backend(rebuilt) == backend
        # The array backend is a window over the same memory, not a copy.
        window = ints_from_buffer(raw, BACKEND_ARRAY)
        raw[:8] = array("q", [123]).tobytes()
        assert int(window[0]) == 123

    def test_pickleable_buffer_materialises_views(self):
        view = memoryview(array("q", self.VALUES))
        safe = pickleable_buffer(view)
        assert as_int_list(pickle.loads(pickle.dumps(safe))) == self.VALUES
        plain = list(self.VALUES)
        assert pickleable_buffer(plain) is plain

    def test_buffer_backend_rejects_non_buffers(self):
        with pytest.raises(InvalidParameterError):
            buffer_backend("not a buffer")


def _flat_signature(graph: BipartiteGraph) -> dict:
    """Everything the flat pipeline computes, in backend-neutral form."""
    prepared = PreparedGraph.prepare(graph)
    le2_ptr, le2 = prepared.n_le2
    numbers, order = bicore_decomposition(graph, prepared=prepared)
    raw_ptr, raw_le2 = n_le2_flat(prepared.csr)
    subgraphs = [
        (sub.center, sub.position, sub.left_members, sub.right_members)
        for sub in iter_vertex_centred_subgraphs_csr(
            prepared, prepared.search_order(ORDER_BIDEGENERACY)
        )
    ]
    result = MBBEngine(prepared_cache=PreparedGraphCache()).solve_graph(
        graph, backend="sparse"
    )
    return {
        "indptr": buffer_to_bytes(prepared.csr.indptr),
        "indices": buffer_to_bytes(prepared.csr.indices),
        "le2_ptr": buffer_to_bytes(le2_ptr),
        "le2": buffer_to_bytes(le2),
        "raw_le2": (buffer_to_bytes(raw_ptr), buffer_to_bytes(raw_le2)),
        "numbers": numbers,
        "order": order,
        "subgraphs": subgraphs,
        "solve": (
            result.side_size,
            sorted(map(repr, result.biclique.left)),
            sorted(map(repr, result.biclique.right)),
        ),
    }


class TestBackendEquivalence:
    def test_all_backends_byte_identical_pipeline(self):
        """Peel orders, N<=2, subgraph streams and solve results agree."""
        for graph in PROPERTY_GRAPHS:
            set_default_backend(BACKEND_LIST)
            reference = _flat_signature(graph)
            for backend in available_backends():
                set_default_backend(backend)
                assert _flat_signature(graph) == reference, backend

    def test_shm_attached_backends_byte_identical_pipeline(self):
        """Bundles attached from shared memory match the in-process ones."""
        for graph in PROPERTY_GRAPHS:
            set_default_backend(BACKEND_LIST)
            reference = _flat_signature(graph)
            producer = PreparedGraph.prepare(graph)
            producer.n_le2
            handle = producer.to_shm()
            try:
                for backend in available_backends():
                    set_default_backend(backend)
                    attached = PreparedGraph.from_shm(
                        handle.name, handle.fingerprint, backend=backend
                    )
                    le2_ptr, le2 = attached.n_le2
                    numbers, order = bicore_decomposition(
                        attached.graph, prepared=attached
                    )
                    subgraphs = [
                        (s.center, s.position, s.left_members, s.right_members)
                        for s in iter_vertex_centred_subgraphs_csr(
                            attached,
                            attached.search_order(ORDER_BIDEGENERACY),
                        )
                    ]
                    assert buffer_to_bytes(attached.csr.indptr) == reference["indptr"]
                    assert buffer_to_bytes(attached.csr.indices) == reference["indices"]
                    assert buffer_to_bytes(le2_ptr) == reference["le2_ptr"]
                    assert buffer_to_bytes(le2) == reference["le2"]
                    assert (numbers, order) == (
                        reference["numbers"],
                        reference["order"],
                    )
                    assert subgraphs == reference["subgraphs"]
            finally:
                handle.destroy()


class TestShmRoundTrip:
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

    def test_list_backend_copies_and_detaches(self):
        prepared = PreparedGraph.prepare(random_bipartite(8, 8, 0.4, seed=1))
        prepared.n_le2
        handle = prepared.to_shm()
        try:
            attached = PreparedGraph.from_shm(
                handle.name, handle.fingerprint, backend=BACKEND_LIST
            )
            assert isinstance(attached.csr.indptr, list)
        finally:
            handle.destroy()
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
