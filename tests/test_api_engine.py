"""Engine tests: dispatch, budgets, cancellation, batch determinism."""

from __future__ import annotations

import math

import pytest

from repro import solve_mbb
from repro.api import GraphSpec, MBBEngine, RetryPolicy, SolveReport, SolveRequest
from repro.exceptions import InvalidParameterError
from repro.graph.generators import random_bipartite
from repro.mbb.context import SearchAborted, SearchContext
from repro.mbb.dense import dense_mbb


class TestSolveGraph:
    @pytest.mark.parametrize("backend", ["auto", "dense", "sparse", "basic"])
    def test_matches_solve_mbb(self, backend):
        engine = MBBEngine()
        for seed in range(4):
            graph = random_bipartite(8, 8, 0.5, seed=seed)
            via_engine = engine.solve_graph(graph, backend=backend)
            via_wrapper = solve_mbb(graph, method=backend)
            assert via_engine.side_size == via_wrapper.side_size

    def test_engine_and_wrapper_return_identical_bicliques(self):
        # Acceptance criterion: solve_mbb(g) and MBBEngine().solve(request)
        # agree on the cross-kernel property-test instances.
        engine = MBBEngine()
        for seed in range(8):
            graph = random_bipartite(9, 9, 0.55, seed=seed)
            report = engine.solve(
                SolveRequest(graph=GraphSpec.random(9, 9, 0.55, seed=seed))
            )
            wrapped = solve_mbb(graph)
            assert report.biclique == wrapped.biclique

    def test_unknown_backend_raises(self):
        with pytest.raises(InvalidParameterError):
            MBBEngine().solve_graph(random_bipartite(4, 4, 0.5, seed=1), backend="nope")

    def test_unknown_kernel_raises(self):
        with pytest.raises(InvalidParameterError):
            MBBEngine().solve_graph(
                random_bipartite(4, 4, 0.5, seed=1), kernel="quantum"
            )

    def test_budget_rejected_for_budgetless_backend(self):
        graph = random_bipartite(4, 4, 0.5, seed=1)
        with pytest.raises(InvalidParameterError):
            MBBEngine().solve_graph(graph, backend="brute_force", node_budget=10)
        with pytest.raises(InvalidParameterError):
            MBBEngine().solve_graph(graph, backend="mvb", time_budget=1.0)

    def test_negative_budget_rejected(self):
        graph = random_bipartite(4, 4, 0.5, seed=1)
        with pytest.raises(InvalidParameterError):
            MBBEngine().solve_graph(graph, node_budget=-1)
        for budget in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError):
                MBBEngine().solve_graph(graph, time_budget=budget)
        requests = [
            SolveRequest(graph=GraphSpec.random(4, 4, 0.5, seed=seed), backend="dense")
            for seed in range(2)
        ]
        for seconds in (math.nan, math.inf, "x", True):
            for field in ("watchdog_grace_seconds", "backoff_seconds", "backoff_cap_seconds"):
                with pytest.raises(InvalidParameterError):
                    RetryPolicy(**{field: seconds})
            with pytest.raises(InvalidParameterError):
                MBBEngine().solve_many(requests, watchdog_seconds=seconds)

    def test_node_budget_is_enforced(self):
        graph = random_bipartite(20, 20, 0.5, seed=2)
        result = MBBEngine().solve_graph(graph, backend="basic", node_budget=3)
        assert not result.optimal
        assert result.stats.nodes <= 4

    def test_invalid_max_workers_rejected(self):
        requests = [
            SolveRequest(graph=GraphSpec.random(4, 4, 0.5, seed=seed), backend="dense")
            for seed in range(2)
        ]
        # A bool is no count although True == 1, and neither is a float
        # or a string.
        for max_workers in (0, -3, 1.5, "2", True):
            with pytest.raises(InvalidParameterError):
                MBBEngine(max_workers=max_workers)
            with pytest.raises(InvalidParameterError):
                MBBEngine().solve_many(requests, max_workers=max_workers)


class TestCooperativeCancellation:
    def test_cancel_hook_aborts_search(self):
        graph = random_bipartite(18, 18, 0.6, seed=3)
        context = SearchContext()
        context.cancel_hook = lambda: context.stats.nodes >= 5
        result = dense_mbb(graph, context=context)
        assert not result.optimal
        assert context.cancelled and context.aborted
        assert context.stats.nodes <= 6

    def test_cancel_method_aborts_next_node(self):
        context = SearchContext()
        context.cancel()
        with pytest.raises(SearchAborted):
            context.enter_node(0)

    def test_cancel_propagates_into_size_constrained_backend(self):
        from repro.api import get_backend

        graph = random_bipartite(14, 14, 0.6, seed=6)
        context = SearchContext()
        context.cancel()
        result = get_backend("size-constrained").run(
            graph, context, kernel="bits", seed=0
        )
        assert not result.optimal
        assert context.stats.nodes == 0

    def test_deadline_propagates_into_size_constrained_backend(self):
        import time

        from repro.api import get_backend

        graph = random_bipartite(14, 14, 0.6, seed=7)
        context = SearchContext()
        context.deadline = time.perf_counter() - 1.0  # already expired
        result = get_backend("size-constrained").run(
            graph, context, kernel="bits", seed=0
        )
        assert not result.optimal

    def test_checkpoint_enforces_budgets_without_node_stats(self):
        import time

        context = SearchContext()
        context.checkpoint()  # no budgets set: a no-op
        assert context.stats.nodes == 0
        context.deadline = time.perf_counter() - 1.0
        with pytest.raises(SearchAborted):
            context.checkpoint()
        assert context.aborted
        assert context.stats.nodes == 0

    def test_engine_deadline_aborts_during_s2(self):
        # Regression: engine deadlines used to be polled only inside the
        # dense kernel (S3), so a request whose budget expired during the
        # bridging stage claimed optimality.  With the heuristic stage
        # disabled, the first checkpoint that can observe the expired
        # deadline is S2's.
        from repro.graph.generators import random_power_law_bipartite
        from repro.mbb.sparse import SparseConfig

        graph = random_power_law_bipartite(40, 40, 3.0, seed=2)
        result = MBBEngine().solve_graph(
            graph,
            backend="sparse",
            time_budget=0.0,
            sparse_config=SparseConfig(use_heuristic=False),
        )
        assert not result.optimal
        assert result.terminated_at == "S2"

    def test_engine_deadline_aborts_during_s1(self):
        result = MBBEngine().solve_graph(
            random_bipartite(20, 20, 0.4, seed=3),
            backend="sparse",
            time_budget=0.0,
        )
        assert not result.optimal
        assert result.terminated_at == "S1"

    def test_cancelled_search_keeps_incumbent(self):
        graph = random_bipartite(16, 16, 0.7, seed=4)
        baseline = solve_mbb(graph)
        context = SearchContext()
        context.cancel_hook = lambda: context.best_side >= 2
        result = dense_mbb(graph, context=context)
        assert result.side_size >= 2
        assert result.side_size <= baseline.side_size
        assert result.biclique.is_valid_in(graph)


class TestSolveMany:
    def _requests(self, count=8):
        return [
            SolveRequest(
                graph=GraphSpec.random(9, 9, 0.5, seed=seed),
                backend="dense",
                tag=f"req-{seed}",
            )
            for seed in range(count)
        ]

    def test_results_in_request_order(self):
        reports = MBBEngine().solve_many(self._requests())
        assert [report.request.tag for report in reports] == [
            f"req-{seed}" for seed in range(8)
        ]

    def _assert_pool_matches_serial(self, requests):
        engine = MBBEngine(max_workers=4)
        parallel = engine.solve_many(requests)
        serial = engine.solve_many(requests, parallel=False)
        assert len(parallel) == len(serial) == len(requests)
        for left, right in zip(parallel, serial, strict=True):
            assert left.request == right.request
            assert left.side_size == right.side_size
            assert left.left == right.left
            assert left.right == right.right
            assert left.optimal == right.optimal
            assert left.terminated_at == right.terminated_at
            assert left.backend == right.backend
            for stat in (
                "nodes",
                "subgraphs_generated",
                "subgraphs_pruned",
                "subgraphs_searched",
            ):
                assert left.stats[stat] == right.stats[stat], stat

    def test_pool_matches_serial(self):
        # Acceptance criterion: >= 8 requests through the process pool,
        # deterministic and identical to the serial execution.
        self._assert_pool_matches_serial(self._requests(8))

    def test_sparse_pool_matches_serial(self):
        # The same contract on the sparse backend, whose workers prepare
        # each graph through their own caches: every graph appears twice,
        # so some requests hit a snapshot an earlier request left behind.
        specs = [GraphSpec.power_law(40, 40, 3.0, seed=seed) for seed in range(3)]
        self._assert_pool_matches_serial(
            [
                SolveRequest(graph=spec, backend="sparse", tag=f"pl-{index}")
                for index, spec in enumerate(specs + specs)
            ]
        )

    def test_empty_batch(self):
        assert MBBEngine().solve_many([]) == []

    def test_mixed_backends_in_one_batch(self):
        requests = [
            SolveRequest(graph=GraphSpec.random(8, 8, 0.5, seed=1), backend="dense"),
            SolveRequest(graph=GraphSpec.random(8, 8, 0.5, seed=1), backend="basic"),
            SolveRequest(graph=GraphSpec.random(8, 8, 0.5, seed=1), backend="sparse"),
            SolveRequest(
                graph=GraphSpec.random(8, 8, 0.5, seed=1), backend="size-constrained"
            ),
        ]
        reports = MBBEngine().solve_many(requests)
        sides = {report.side_size for report in reports}
        assert len(sides) == 1
        assert [report.backend for report in reports] == [
            "dense",
            "basic",
            "sparse",
            "size-constrained",
        ]

    def test_worker_error_is_isolated_to_its_request(self):
        # An invalid request must surface as a structured error report on
        # that request alone — the rest of the batch still solves, and
        # nothing silently re-runs (PR 9 replaced the raise-on-first-error
        # contract with per-request isolation).
        from repro.api import STATUS_ERROR, STATUS_OK

        requests = [
            SolveRequest(graph=GraphSpec.random(6, 6, 0.5, seed=s), backend="dense")
            for s in range(2)
        ] + [
            SolveRequest(
                graph=GraphSpec.random(6, 6, 0.5, seed=9),
                backend="brute_force",
                node_budget=5,  # brute_force rejects budgets
            )
        ]
        reports = MBBEngine().solve_many(requests)
        assert [report.status for report in reports] == [
            STATUS_OK,
            STATUS_OK,
            STATUS_ERROR,
        ]
        failed = reports[2]
        assert failed.error is not None
        assert failed.error.kind == "invalid_parameter"
        assert "budget" in failed.error.message
        assert not failed.optimal and failed.side_size == 0
        # The wire codec carries the error losslessly (RPL008 contract).
        assert SolveReport.from_json(failed.to_json()) == failed

    def test_unknown_dataset_is_an_invalid_parameter(self):
        # A dataset spec that does not materialise is the caller's error,
        # not an internal one.
        requests = [
            SolveRequest(graph=GraphSpec.dataset("nope"), backend="sparse"),
            SolveRequest(graph=GraphSpec.random(6, 6, 0.5, seed=1), backend="dense"),
        ]
        reports = MBBEngine(max_workers=2).solve_many(requests)
        assert [report.status for report in reports] == ["error", "ok"]
        failed = reports[0]
        assert failed.error is not None
        assert failed.error.kind == "invalid_parameter"
        assert "nope" in failed.error.message

    def test_spec_that_does_not_materialise_is_an_invalid_parameter(
        self, unmaterialisable_spec
    ):
        requests = [
            SolveRequest(graph=unmaterialisable_spec, backend="sparse"),
            SolveRequest(graph=GraphSpec.random(6, 6, 0.5, seed=1), backend="dense"),
        ]
        reports = MBBEngine().solve_many(requests, parallel=False)
        assert [report.status for report in reports] == ["error", "ok"]
        assert reports[0].error is not None
        assert reports[0].error.kind == "invalid_parameter"

    def test_missing_path_spec_is_a_resource_error(self, tmp_path):
        spec = GraphSpec.from_path(str(tmp_path / "absent.txt"))
        request = SolveRequest(graph=spec, backend="sparse")
        (report,) = MBBEngine().solve_many([request], parallel=False)
        assert report.error is not None
        assert report.error.kind == "resource"

    def test_non_finite_budget_is_an_invalid_parameter_report(self):
        requests = [
            SolveRequest(
                graph=GraphSpec.random(6, 6, 0.5, seed=1),
                backend="dense",
                time_budget=math.inf,
            ),
            SolveRequest(graph=GraphSpec.random(6, 6, 0.5, seed=1), backend="dense"),
        ]
        reports = MBBEngine(max_workers=2).solve_many(requests)
        assert [report.status for report in reports] == ["error", "ok"]
        failed = reports[0]
        assert failed.error is not None
        assert failed.error.kind == "invalid_parameter"
        assert "time_budget" in failed.error.message
        assert reports[1].optimal

    def test_serial_batch_over_one_graph_amortises_preparation(self):
        from repro.api import PreparedGraphCache

        engine = MBBEngine(prepared_cache=PreparedGraphCache())
        requests = [
            SolveRequest(
                graph=GraphSpec.power_law(30, 30, 3.0, seed=7),
                backend="sparse",
                tag=str(index),
            )
            for index in range(3)
        ]
        reports = engine.solve_many(requests, parallel=False)
        assert [r.stats["prepared_cache_hits"] for r in reports] == [0, 1, 1]
        assert [r.stats["prepared_cache_misses"] for r in reports] == [1, 0, 0]
        assert len({r.side_size for r in reports}) == 1

    def test_per_request_budgets_are_enforced(self):
        requests = [
            SolveRequest(
                graph=GraphSpec.random(18, 18, 0.5, seed=5),
                backend="basic",
                node_budget=3,
            ),
            SolveRequest(graph=GraphSpec.random(6, 6, 0.5, seed=5), backend="basic"),
        ]
        reports = MBBEngine().solve_many(requests)
        assert not reports[0].optimal
        assert reports[1].optimal
