"""PreparedGraph bundle, CSR subgraph generator and engine cache tests."""

from __future__ import annotations

import enum
import os
from dataclasses import replace

import pytest

from repro.api import (
    GraphSpec,
    MBBEngine,
    PreparedGraphCache,
    SolveRequest,
    get_backend,
)
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    complete_bipartite,
    random_bipartite,
    random_power_law_bipartite,
)
from repro.graph.prepared import _MAX_CHILDREN, PreparedGraph, graph_fingerprint
from repro.cores.core import flat_core_numbers, k_core
from repro.cores.bicore import (
    ALL_IMPLS,
    bicore_decomposition,
    bidegeneracy_order,
)
from repro.cores.orders import ALL_ORDERS, ORDER_BIDEGENERACY, search_order
from repro.mbb.bridge import bridge_mbb
from repro.mbb.context import SearchContext
from repro.mbb.sparse import hbv_mbb
from repro.mbb.vertex_centred import (
    iter_vertex_centred_subgraphs,
    iter_vertex_centred_subgraphs_csr,
    subgraph_density_profile,
    total_subgraph_size,
)
from repro.workloads.datasets import load_dataset


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


class TestPreparedGraph:
    def test_orders_match_unprepared_computation(self):
        for seed in range(4):
            graph = random_bipartite(9, 8, 0.35, seed=seed)
            prepared = PreparedGraph.prepare(graph)
            for order_name in ALL_ORDERS:
                assert prepared.search_order(order_name) == search_order(
                    graph, order_name
                )

    def test_orders_are_memoised(self):
        prepared = PreparedGraph.prepare(random_bipartite(6, 6, 0.5, seed=1))
        for order_name in ALL_ORDERS:
            assert prepared.search_order(order_name) is prepared.search_order(
                order_name
            )

    def test_search_order_prepared_delegation_returns_safe_copies(self):
        graph = random_bipartite(8, 8, 0.4, seed=2)
        prepared = PreparedGraph.prepare(graph)
        for order_name in ALL_ORDERS:
            public = search_order(graph, order_name, prepared=prepared)
            memoised = prepared.search_order(order_name)
            assert public == memoised
            # The public wrapper hands out a copy: mutating it must not
            # corrupt the snapshot (which outlives the call in the
            # engine cache).
            assert public is not memoised
            public.reverse()
            assert prepared.search_order(order_name) == memoised

    def test_cores_apis_reject_foreign_snapshot(self):
        graph = random_bipartite(8, 8, 0.4, seed=1)
        foreign = PreparedGraph.prepare(random_bipartite(6, 6, 0.4, seed=2))
        with pytest.raises(InvalidParameterError):
            bicore_decomposition(graph, prepared=foreign)
        with pytest.raises(InvalidParameterError):
            search_order(graph, ORDER_BIDEGENERACY, prepared=foreign)
        order = search_order(graph, ORDER_BIDEGENERACY)
        with pytest.raises(InvalidParameterError):
            total_subgraph_size(graph, order, prepared=foreign)
        with pytest.raises(InvalidParameterError):
            subgraph_density_profile(graph, order, prepared=foreign)

    def test_unknown_order_rejected(self):
        prepared = PreparedGraph.prepare(random_bipartite(4, 4, 0.5, seed=3))
        with pytest.raises(InvalidParameterError):
            prepared.search_order("zigzag")
        with pytest.raises(InvalidParameterError):
            search_order(prepared.graph, "zigzag", prepared=prepared)

    def test_bicore_decomposition_reuses_snapshot(self):
        graph = mixed_label_graph(seed=4)
        prepared = PreparedGraph.prepare(graph)
        plain = bicore_decomposition(graph)
        via_prepared = bicore_decomposition(graph, prepared=prepared)
        assert via_prepared == plain
        # The bundle memoises the decomposition; the public wrapper
        # hands out copies of it, so caller mutation cannot corrupt the
        # snapshot.
        assert (
            prepared.bicore_decomposition()
            is prepared.bicore_decomposition()
        )
        via_prepared[1].clear()
        assert bicore_decomposition(graph, prepared=prepared) == plain
        for impl in ALL_IMPLS:
            assert (
                bidegeneracy_order(graph, impl=impl, prepared=prepared)
                == plain[1]
            )

    def test_for_subgraph_returns_self_on_identical_shape(self):
        # A k-core that removes nothing has the graph's own shape: the
        # bundle itself is the residual snapshot.
        graph = complete_bipartite(3, 4)
        prepared = PreparedGraph.prepare(graph)
        for k in (0, 1, 3):
            assert prepared.for_subgraph(k) is prepared
        assert prepared.for_subgraph(4).csr.num_vertices == 0

    def test_for_subgraph_prepares_and_memoises_residuals(self):
        graph = random_bipartite(10, 10, 0.4, seed=6)
        prepared = PreparedGraph.prepare(graph)
        child = prepared.for_subgraph(2)
        assert child is not prepared
        assert child.graph == k_core(graph, 2)
        # A later solve asking for the same k reuses the child.
        assert prepared.for_subgraph(2) is child

    def test_for_subgraph_memo_is_keyed_by_k(self):
        # A k-core of one graph is unique, so k alone keys the memo: each
        # k gets the snapshot of exactly its own core, and the memo stays
        # bounded however many k a caller asks for.
        graph = random_power_law_bipartite(60, 60, 6, seed=3)
        prepared = PreparedGraph.prepare(graph)
        top = max(prepared.core_numbers())
        assert top + 1 > _MAX_CHILDREN
        children = {k: prepared.for_subgraph(k) for k in range(1, top + 2)}
        for k, child in children.items():
            assert child.graph == k_core(graph, k)
        assert len(prepared._children) <= _MAX_CHILDREN


    @pytest.mark.parametrize("seed", range(4))
    def test_residual_inherits_cores_and_csr_of_a_fresh_prepare(self, seed):
        # A residual snapshot's CSR and inherited core numbers equal what
        # preparing and peeling its graph from scratch gives, down a chain
        # of two reductions, on int- and mixed-labelled graphs alike.
        for graph in (
            random_power_law_bipartite(70, 50, 5.0, seed=seed),
            mixed_label_graph(seed),
        ):
            bundle = PreparedGraph.prepare(graph)
            for k in (2, 3):
                child = bundle.for_subgraph(k)
                if child is bundle:
                    continue
                fresh = PreparedGraph.prepare(child.graph)
                assert child.csr.keys == fresh.csr.keys
                assert list(child.csr.indptr) == list(fresh.csr.indptr)
                assert list(child.csr.indices) == list(fresh.csr.indices)
                assert child.core_numbers() == flat_core_numbers(fresh.csr)
                bundle = child


class TestFingerprint:
    def test_insertion_order_invariance(self):
        edges = [(1, "a"), (2, "b"), (1, "b"), (3, "a")]
        forward = BipartiteGraph(edges=edges)
        backward = BipartiteGraph(edges=list(reversed(edges)))
        assert forward == backward
        assert graph_fingerprint(forward) == graph_fingerprint(backward)

    def test_content_differences_change_the_digest(self):
        base = BipartiteGraph(edges=[(1, "a"), (2, "b")])
        fewer = BipartiteGraph(edges=[(1, "a")])
        extra_vertex = BipartiteGraph(edges=[(1, "a"), (2, "b")])
        extra_vertex.add_left_vertex(9)
        swapped = BipartiteGraph(edges=[(1, "b"), (2, "a")])
        digests = {
            graph_fingerprint(g)
            for g in (base, fewer, extra_vertex, swapped)
        }
        assert len(digests) == 4

    def test_mixed_label_types_fingerprint(self):
        a = mixed_label_graph(seed=7)
        b = mixed_label_graph(seed=7)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(mixed_label_graph(seed=8))


class TestCrossGeneratorProperty:
    @pytest.mark.parametrize("order_name", ALL_ORDERS)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, order_name, seed):
        graph = random_bipartite(11, 9, 0.35, seed=seed)
        self._assert_identical_families(graph, order_name)

    @pytest.mark.parametrize("order_name", ALL_ORDERS)
    @pytest.mark.parametrize("seed", range(3))
    def test_power_law_graphs(self, order_name, seed):
        graph = random_power_law_bipartite(30, 30, 3.0, seed=seed)
        self._assert_identical_families(graph, order_name)

    @pytest.mark.parametrize("order_name", ALL_ORDERS)
    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_label_graphs(self, order_name, seed):
        self._assert_identical_families(mixed_label_graph(seed), order_name)

    @pytest.mark.parametrize("order_name", ALL_ORDERS)
    def test_stand_in(self, order_name):
        self._assert_identical_families(load_dataset("unicodelang"), order_name)

    @staticmethod
    def _assert_identical_families(graph, order_name):
        prepared = PreparedGraph.prepare(graph)
        order = search_order(graph, order_name)
        label_family = list(iter_vertex_centred_subgraphs(graph, order))
        csr_family = list(iter_vertex_centred_subgraphs_csr(prepared, order))
        assert len(label_family) == len(csr_family) == graph.num_vertices
        for expected, actual in zip(label_family, csr_family, strict=True):
            assert actual.center == expected.center
            assert actual.position == expected.position
            assert actual.left_members == expected.left_members
            assert actual.right_members == expected.right_members

    def test_profiles_share_one_snapshot(self):
        graph = random_bipartite(10, 10, 0.3, seed=9)
        prepared = PreparedGraph.prepare(graph)
        order = search_order(graph, ORDER_BIDEGENERACY)
        induced = [
            graph.induced_subgraph(sub.left_members, sub.right_members)
            for sub in iter_vertex_centred_subgraphs(graph, order)
        ]
        assert total_subgraph_size(graph, order, prepared=prepared) == sum(
            sub.num_vertices for sub in induced
        )
        expected_profile = [
            sub.density
            for sub in induced
            if sub.num_left and sub.num_right and sub.density > 0.0
        ]
        assert (
            subgraph_density_profile(graph, order, prepared=prepared)
            == expected_profile
        )


class TestBridgePrepared:
    def test_bridge_kernels_agree_from_one_snapshot(self):
        for seed in range(4):
            graph = random_power_law_bipartite(25, 25, 3.0, seed=seed)
            prepared = PreparedGraph.prepare(graph)
            order = prepared.search_order(ORDER_BIDEGENERACY)
            outcomes = {}
            for kernel in ("bits", "sets"):
                context = SearchContext()
                outcomes[kernel] = bridge_mbb(
                    graph,
                    context,
                    kernel=kernel,
                    total_order=order,
                    prepared=prepared,
                )
            bits, sets_ = outcomes["bits"], outcomes["sets"]
            assert [s.center for s in bits.surviving] == [
                s.center for s in sets_.surviving
            ]
            assert bits.best.side_size == sets_.best.side_size

    def test_bridge_rejects_mismatched_snapshot(self):
        graph = random_bipartite(8, 8, 0.4, seed=1)
        other = random_bipartite(6, 6, 0.4, seed=2)
        with pytest.raises(InvalidParameterError):
            bridge_mbb(
                graph,
                SearchContext(),
                prepared=PreparedGraph.prepare(other),
            )

    def test_bridge_rejects_same_shape_different_content_snapshot(self):
        # Same labels, same |E|, different edges: shape comparison alone
        # would wave this through and solve the wrong graph.
        graph = BipartiteGraph(edges=[(1, "a"), (2, "b"), (3, "c")])
        imposter = BipartiteGraph(edges=[(1, "b"), (2, "c"), (3, "a")])
        with pytest.raises(InvalidParameterError):
            bridge_mbb(
                graph,
                SearchContext(),
                prepared=PreparedGraph.prepare(imposter),
            )

    def test_hbv_rejects_foreign_snapshot(self):
        graph = random_bipartite(8, 8, 0.4, seed=3)
        other = random_bipartite(8, 8, 0.4, seed=4)
        with pytest.raises(InvalidParameterError):
            hbv_mbb(graph, prepared=PreparedGraph.prepare(other))

    def test_hbv_accepts_content_equal_snapshot_object(self):
        graph = random_bipartite(8, 8, 0.4, seed=5)
        prepared = PreparedGraph.prepare(graph.copy())
        assert (
            hbv_mbb(graph, prepared=prepared).side_size
            == hbv_mbb(graph).side_size
        )

    def test_hbv_accepts_prepared(self):
        for seed in range(3):
            graph = random_power_law_bipartite(30, 30, 3.0, seed=seed)
            plain = hbv_mbb(graph)
            prepped = hbv_mbb(graph, prepared=PreparedGraph.prepare(graph))
            assert prepped.side_size == plain.side_size
            assert prepped.biclique == plain.biclique


class TestPreparedGraphCache:
    def test_hit_returns_same_bundle(self):
        cache = PreparedGraphCache()
        graph = random_bipartite(8, 8, 0.5, seed=1)
        first, hit_first = cache.get(graph)
        second, hit_second = cache.get(graph.copy())
        assert not hit_first and hit_second
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_graphs_get_distinct_bundles(self):
        cache = PreparedGraphCache()
        a, _ = cache.get(random_bipartite(8, 8, 0.5, seed=1))
        b, _ = cache.get(random_bipartite(8, 8, 0.5, seed=2))
        assert a is not b
        assert a.graph != b.graph
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = PreparedGraphCache(capacity=2)
        graphs = [random_bipartite(6, 6, 0.5, seed=s) for s in range(3)]
        first, _ = cache.get(graphs[0])
        cache.get(graphs[1])
        cache.get(graphs[2])  # evicts graphs[0]
        assert len(cache) == 2
        again, hit = cache.get(graphs[0])
        assert not hit and again is not first

    def test_lru_recency_is_updated_on_hit(self):
        cache = PreparedGraphCache(capacity=2)
        graphs = [random_bipartite(6, 6, 0.5, seed=s) for s in range(3)]
        kept, _ = cache.get(graphs[0])
        cache.get(graphs[1])
        cache.get(graphs[0])  # refresh recency: graphs[1] is now oldest
        cache.get(graphs[2])  # evicts graphs[1], not graphs[0]
        again, hit = cache.get(graphs[0])
        assert hit and again is kept

    def test_fingerprint_collision_never_leaks_state(self, monkeypatch):
        # Force every graph onto one cache key: the equality re-check
        # must detect the mismatch, re-prepare, and keep results correct.
        import repro.api.engine as engine_module

        monkeypatch.setattr(
            engine_module, "graph_fingerprint", lambda graph: "collision"
        )
        cache = PreparedGraphCache()
        graph_a = random_bipartite(8, 8, 0.5, seed=1)
        graph_b = random_bipartite(9, 7, 0.4, seed=2)
        prepared_a, hit_a = cache.get(graph_a)
        prepared_b, hit_b = cache.get(graph_b)
        assert not hit_a and not hit_b
        assert prepared_a.graph == graph_a
        assert prepared_b.graph == graph_b
        assert len(cache) == 1  # b overwrote the colliding entry
        # A re-request of the overwritten graph re-prepares, again
        # without leaking b's arrays.
        prepared_a2, hit_a2 = cache.get(graph_a)
        assert not hit_a2
        assert prepared_a2.graph == graph_a

    def test_invalid_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            PreparedGraphCache(capacity=0)


class TestEngineCacheIntegration:
    def _request(self, seed=3):
        return SolveRequest(
            graph=GraphSpec.power_law(40, 40, 3.0, seed=seed), backend="sparse"
        )

    def test_second_solve_hits_cache_with_near_zero_prepare(self):
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        cold = engine.solve(self._request())
        warm = engine.solve(self._request())
        assert cold.stats["prepared_cache_misses"] == 1
        assert cold.stats["prepared_cache_hits"] == 0
        assert warm.stats["prepared_cache_hits"] == 1
        assert warm.stats["prepared_cache_misses"] == 0
        # The memoised snapshot makes the warm solve's order free (only
        # the timer probe remains) and its prepare cost a cache probe.
        assert warm.stats["order_seconds"] < 0.005
        assert warm.stats["prepare_seconds"] < 0.05
        assert warm.side_size == cold.side_size
        assert warm.left == cold.left and warm.right == cold.right

    def test_warm_solve_rederives_nothing_in_s1(self, monkeypatch):
        # jester's S1 shrinks the graph to a residual that S2 and S3 then
        # search.  The second solve must reuse that residual snapshot
        # without peeling or building any graph.
        from repro.cores import core as core_module
        from repro.mbb import sparse

        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        request = SolveRequest(graph=GraphSpec.dataset("jester"), backend="sparse")
        residuals = []
        h_mbb = sparse.h_mbb

        def recording_h_mbb(*args, **kwargs):
            outcome = h_mbb(*args, **kwargs)
            residuals.append(outcome.residual)
            return outcome

        monkeypatch.setattr(sparse, "h_mbb", recording_h_mbb)
        cold = engine.solve(request)
        graph = request.graph.materialise()

        calls = []
        peel = core_module.flat_core_numbers
        induced = BipartiteGraph.induced_subgraph

        def counting_peel(csr):
            calls.append("peel")
            return peel(csr)

        def counting_induced(self, left, right):
            calls.append("induced_subgraph")
            return induced(self, left, right)

        monkeypatch.setattr(core_module, "flat_core_numbers", counting_peel)
        monkeypatch.setattr(BipartiteGraph, "induced_subgraph", counting_induced)
        warm = engine.solve(request, graph=graph)
        assert calls == []
        assert warm.stats["prepared_cache_hits"] == 1
        assert len(residuals) == 2 and residuals[1] is residuals[0]
        assert residuals[0].csr.num_vertices < graph.num_vertices
        assert warm.terminated_at == cold.terminated_at == "S3"
        assert (warm.left, warm.right) == (cold.left, cold.right)

    def test_cold_bundle_leaves_no_cyclic_garbage(self):
        # The search-order view is built in S2.  A bundle and its views
        # must be freed by reference counting alone when the engine goes,
        # not left for the cyclic collector.
        import gc

        request = SolveRequest(
            graph=GraphSpec.power_law(80, 80, 4.0, seed=2), backend="sparse"
        )
        MBBEngine(prepared_cache=PreparedGraphCache()).solve(request)
        gc.collect()
        gc.disable()
        try:
            engine = MBBEngine(prepared_cache=PreparedGraphCache())
            report = engine.solve(request)
            assert report.terminated_at in ("S2", "S3")
            del engine, report
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cache_does_not_leak_across_graphs(self):
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        reports = [
            engine.solve(self._request(seed)).side_size for seed in (1, 2, 1, 2)
        ]
        fresh = MBBEngine(prepared_cache=PreparedGraphCache())
        expected = [
            fresh.solve(self._request(seed)).side_size for seed in (1, 2)
        ]
        assert reports == [expected[0], expected[1], expected[0], expected[1]]

    def test_dense_backend_skips_the_cache(self):
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        report = engine.solve(
            SolveRequest(
                graph=GraphSpec.random(8, 8, 0.8, seed=1), backend="dense"
            )
        )
        assert report.stats["prepared_cache_hits"] == 0
        assert report.stats["prepared_cache_misses"] == 0
        assert len(cache) == 0

    def test_auto_resolving_dense_skips_the_cache(self):
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        report = engine.solve(
            SolveRequest(
                graph=GraphSpec.random(8, 8, 0.8, seed=1), backend="auto"
            )
        )
        assert report.backend == "dense"
        assert len(cache) == 0

    def test_supports_prepared_capability_is_declared(self):
        assert get_backend("sparse").info.supports_prepared
        assert get_backend("auto").info.supports_prepared
        assert not get_backend("dense").info.supports_prepared


def _timeless(report):
    """``report`` with its wall-clock fields zeroed, for equality checks."""
    stats = {
        key: value
        for key, value in report.stats.items()
        if not key.endswith("_seconds")
    }
    return replace(report, elapsed_seconds=0.0, stats=stats)


def _label_types(report):
    return [type(label) for label in report.left + report.right]


class _Label(enum.IntEnum):
    ONE = 1


class TestSpecMemo:
    """The exact dataset-name index in front of the fingerprint cache."""

    def _sparse(self, spec):
        return SolveRequest(graph=spec, backend="sparse")

    def _fresh(self, request, *, warm=False):
        """``request`` solved on a new engine, after a warm-up if ``warm``."""
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        if warm:
            engine.solve(request)
        return engine.solve(request)

    def test_warm_spec_hit_skips_materialise_fingerprint_and_eq(self, monkeypatch):
        import repro.api.engine as engine_module
        import repro.graph.prepared as prepared_module

        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        request = self._sparse(GraphSpec.dataset("jester"))
        cold = engine.solve(request)
        # The same warm solve through the fingerprint path, which the
        # caller's own graph forces.
        fingerprint_hit = engine.solve(request, graph=request.graph.materialise())

        def forbidden(*args, **kwargs):
            raise AssertionError("a spec hit must not reach this")

        monkeypatch.setattr(GraphSpec, "materialise", forbidden)
        monkeypatch.setattr(engine_module, "graph_fingerprint", forbidden)
        monkeypatch.setattr(prepared_module, "graph_fingerprint", forbidden)
        monkeypatch.setattr(BipartiteGraph, "__eq__", forbidden)
        warm = engine.solve(request)
        assert warm.stats["prepared_cache_hits"] == 1
        assert _timeless(warm) == _timeless(fingerprint_hit)
        assert (warm.left, warm.right) == (cold.left, cold.right)
        assert warm.terminated_at == cold.terminated_at == "S3"

    def test_rewritten_path_file_is_materialised_again(self, tmp_path):
        # Same byte size and, after utime, the same mtime: only the
        # content tells the two graphs apart, so path specs are never
        # memoised.
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n1 0\n1 1\n", encoding="utf-8")
        before = os.stat(path)
        request = self._sparse(GraphSpec.from_path(str(path)))
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        assert engine.solve(request).side_size == 2
        path.write_text("0 0\n0 1\n1 0\n2 2\n", encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        report = engine.solve(request)
        assert report.side_size == 1
        assert (report.num_left, report.num_right) == (3, 3)
        assert _timeless(report) == _timeless(self._fresh(request))

    def test_equal_labels_of_other_types_never_share_a_graph(self):
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        for label in (1, True, 1.0, _Label.ONE, 1):
            request = self._sparse(GraphSpec.inline([(label, 2)]))
            report = engine.solve(request)
            fresh = self._fresh(request)
            assert _label_types(report) == [type(label), int]
            assert _label_types(fresh) == [type(label), int]
            assert report.left == fresh.left

    def test_only_dataset_specs_are_keyed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n1 0\n", encoding="utf-8")
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        specs = [
            GraphSpec.inline([(1, "a"), (2, "a")]),
            GraphSpec.from_path(str(path)),
            GraphSpec.random(6, 6, 0.5, seed=1),
            # seed=None draws a new graph on every materialise.
            GraphSpec.random(6, 6, 0.5, seed=None),
            GraphSpec.power_law(30, 30, 3.0, seed=2),
        ]
        for spec in specs * 2:
            engine.solve(self._sparse(spec))
        assert (cache.spec_hits, cache.spec_misses) == (0, 0)
        assert not cache._specs
        engine.solve(self._sparse(GraphSpec.dataset("unicodelang")))
        assert list(cache._specs) == ["unicodelang"]
        # The wire accepts a name on any kind; only a dataset's is a key.
        named = self._sparse(
            GraphSpec.from_dict(
                {"kind": "random", "n_left": 6, "n_right": 6, "density": 0.5,
                 "seed": 7, "name": "unicodelang"}
            )
        )
        report = engine.solve(named)
        assert report.num_left == 6
        assert _timeless(report) == _timeless(self._fresh(named))
        assert cache.spec_hits == 0

    def test_callers_graph_is_neither_read_nor_recorded(self):
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        request = self._sparse(GraphSpec.dataset("unicodelang"))
        other = complete_bipartite(5, 5)
        assert engine.solve(request, graph=other).side_size == 5
        assert (cache.spec_hits, cache.spec_misses) == (0, 0)
        report = engine.solve(request)
        assert _timeless(report) == _timeless(self._fresh(request))
        assert report.side_size < 5
        # A cached spec does not answer for a caller's graph either.
        assert engine.solve(request, graph=other).side_size == 5

    @pytest.mark.parametrize("hand_over", ["solve_graph", "solve"])
    def test_callers_graph_never_backs_a_spec_key(self, hand_over):
        # The caller's graph is cached first, so the spec request finds
        # that bundle by fingerprint.  Editing the caller's graph
        # afterwards must not reach later spec hits.
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        request = self._sparse(GraphSpec.dataset("unicodelang"))
        mine = request.graph.materialise()
        if hand_over == "solve_graph":
            engine.solve_graph(mine, backend="sparse")
        else:
            engine.solve(request, graph=mine)
        engine.solve(request)
        assert cache._graph_for_spec("unicodelang") is not mine
        for left in range(10_000, 10_006):
            for right in range(10_000, 10_006):
                mine.add_edge(left, right)
        warm = engine.solve(request)
        assert cache.spec_hits == 1
        assert _timeless(warm) == _timeless(self._fresh(request, warm=True))
        assert warm.side_size == 3

    def test_spec_hit_needs_the_graph_the_cache_handed_out(self):
        cache = PreparedGraphCache()
        spec = GraphSpec.dataset("unicodelang")
        cache.get(spec.materialise(), spec_key="unicodelang")
        # Another materialisation of the spec takes the fingerprint path
        # and becomes the bundle's graph.
        again = spec.materialise()
        prepared, hit = cache.get(again, spec_key="unicodelang")
        assert hit and prepared.graph is again
        assert (cache.spec_hits, cache.spec_misses) == (0, 2)
        handed_out = cache._graph_for_spec("unicodelang")
        assert handed_out is again
        prepared, hit = cache.get(handed_out, spec_key="unicodelang")
        assert hit and prepared.graph is again
        assert (cache.spec_hits, cache.spec_misses) == (1, 2)

    def test_fingerprint_hit_compares_the_graphs_once(self, monkeypatch):
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        request = self._sparse(GraphSpec.dataset("unicodelang"))
        engine.solve(request)
        compared = []
        original = BipartiteGraph.__eq__

        def counting_eq(graph, other):
            compared.append(other)
            return original(graph, other)

        monkeypatch.setattr(BipartiteGraph, "__eq__", counting_eq)
        report = engine.solve(request, graph=request.graph.materialise())
        assert report.stats["prepared_cache_hits"] == 1
        assert len(compared) == 1

    def test_spec_index_is_bounded_by_capacity(self):
        cache = PreparedGraphCache(capacity=2)
        engine = MBBEngine(prepared_cache=cache)
        # A dataset spec ignores its seed: these specs all name one graph
        # and share one key.
        specs = [
            GraphSpec(kind="dataset", name="unicodelang", seed=seed)
            for seed in range(cache.capacity + 3)
        ]
        for spec in specs:
            engine.solve(self._sparse(spec))
        assert len(cache) == 1
        assert list(cache._specs) == ["unicodelang"]
        assert (cache.misses, cache.hits) == (1, len(specs) - 1)
        assert (cache.spec_misses, cache.spec_hits) == (1, len(specs) - 1)
        # Two more datasets evict the first bundle, and its key with it.
        for name in ("moreno-crime", "opsahl-ucforum"):
            engine.solve(self._sparse(GraphSpec.dataset(name)))
        assert len(cache) == 2
        assert list(cache._specs) == ["moreno-crime", "opsahl-ucforum"]
        assert engine.solve(self._sparse(specs[0])).stats["prepared_cache_misses"] == 1

    def test_evicted_bundle_takes_its_spec_keys_with_it(self):
        cache = PreparedGraphCache(capacity=1)
        engine = MBBEngine(prepared_cache=cache)
        first = self._sparse(GraphSpec.dataset("unicodelang"))
        second = self._sparse(GraphSpec.dataset("moreno-crime"))
        engine.solve(first)
        # A caller's graph records no key but still evicts the first
        # bundle, whose key must go with it.
        engine.solve(second, graph=second.graph.materialise())
        assert len(cache._specs) == 0
        report = engine.solve(first)
        assert report.stats["prepared_cache_misses"] == 1
        assert cache.stats()["spec_misses"] == 2
        assert list(cache._specs) == ["unicodelang"]

    def test_fingerprint_collision_drops_the_overwritten_spec_key(self, monkeypatch):
        import repro.api.engine as engine_module

        monkeypatch.setattr(
            engine_module, "graph_fingerprint", lambda graph: "collision"
        )
        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        first = self._sparse(GraphSpec.dataset("moreno-crime"))
        second = self._sparse(GraphSpec.dataset("unicodelang"))
        engine.solve(first)
        engine.solve(second)  # overwrites the colliding bundle
        report = engine.solve(first)
        assert report.stats["prepared_cache_misses"] == 1
        assert _timeless(report) == _timeless(self._fresh(first))

    def test_stats_count_spec_hits_and_misses(self):
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        request = self._sparse(GraphSpec.dataset("unicodelang"))
        cold = engine.solve(request)
        assert (cache.spec_hits, cache.spec_misses) == (0, 1)
        warm = engine.solve(request)
        assert (cache.spec_hits, cache.spec_misses) == (1, 1)
        batch = engine.solve_many([request, request], parallel=False)
        assert cache.stats() == {
            "hits": 3,
            "misses": 1,
            "spec_hits": 3,
            "spec_misses": 1,
            "size": 1,
            "capacity": cache.capacity,
        }
        assert [r.stats["prepared_cache_hits"] for r in [cold, warm, *batch]] == [
            0,
            1,
            1,
            1,
        ]

    def test_dense_request_leaves_the_spec_index_alone(self):
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        spec = GraphSpec.dataset("unicodelang")
        engine.solve(self._sparse(spec))
        before = (cache.stats(), list(cache._specs))
        report = engine.solve(SolveRequest(graph=spec, backend="dense"))
        assert report.stats["prepared_cache_hits"] == 0
        assert (cache.stats(), list(cache._specs)) == before

    def test_warm_solves_leave_the_cached_graph_intact(self):
        cache = PreparedGraphCache()
        engine = MBBEngine(prepared_cache=cache)
        requests = [
            self._sparse(GraphSpec.dataset("jester")),
            self._sparse(GraphSpec.dataset("unicodelang")),
            SolveRequest(graph=GraphSpec.dataset("moreno-crime"), backend="auto"),
        ]
        first = [engine.solve(request) for request in requests]
        cached = [cache._graph_for_spec(r.graph.name) for r in requests]
        for round_index in range(50):
            request = requests[round_index % len(requests)]
            report = engine.solve(request)
            assert report.left == first[round_index % len(requests)].left
        for request, graph in zip(requests, cached, strict=True):
            assert cache._graph_for_spec(request.graph.name) is graph
            assert graph == request.graph.materialise()
