"""Wire-format tests: GraphSpec / SolveRequest / SolveReport round-trips."""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.api import GraphSpec, MBBEngine, SolveReport, SolveRequest
from repro.exceptions import InvalidParameterError
from repro.graph.generators import random_bipartite
from repro.graph.io import write_edge_list


class TestGraphSpec:
    def test_dataset_spec_materialises(self):
        graph = GraphSpec.dataset("unicodelang").materialise()
        assert graph.num_left == 180 and graph.num_right == 420

    def test_path_spec_materialises(self, tmp_path):
        graph = random_bipartite(8, 8, 0.5, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        assert GraphSpec.from_path(str(path)).materialise() == graph

    def test_inline_spec_materialises(self):
        spec = GraphSpec.inline([(0, "x"), (0, "y"), (1, "x")])
        graph = spec.materialise()
        assert graph.num_left == 2 and graph.num_right == 2 and graph.num_edges == 3

    def test_random_spec_is_deterministic(self):
        spec = GraphSpec.random(10, 12, 0.4, seed=7)
        assert spec.materialise() == spec.materialise()
        assert spec.materialise() == random_bipartite(10, 12, 0.4, seed=7)

    def test_power_law_spec_materialises(self):
        graph = GraphSpec.power_law(30, 30, 2.0, seed=3).materialise()
        assert graph.num_left == 30 and graph.num_right == 30

    @pytest.mark.parametrize(
        "spec",
        [
            GraphSpec.dataset("unicodelang"),
            GraphSpec.from_path("/tmp/some/graph.txt"),
            GraphSpec.inline([(0, "x"), (1, "y")]),
            GraphSpec.random(5, 6, 0.5, seed=2),
            GraphSpec.power_law(7, 8, 1.5, seed=4),
        ],
    )
    def test_dict_round_trip(self, spec):
        assert GraphSpec.from_dict(spec.to_dict()) == spec
        # And through an actual JSON encode/decode.
        assert GraphSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_unknown_kind_raises_on_materialise(self):
        with pytest.raises(InvalidParameterError):
            GraphSpec(kind="carrier-pigeon").materialise()

    def test_unknown_field_raises(self):
        with pytest.raises(InvalidParameterError):
            GraphSpec.from_dict({"kind": "dataset", "name": "x", "nope": 1})

    def test_missing_parameters_raise(self):
        with pytest.raises(InvalidParameterError):
            GraphSpec(kind="random", n_left=3).materialise()

    def test_spec_that_does_not_materialise_raises_invalid_parameter(
        self, unmaterialisable_spec
    ):
        with pytest.raises(InvalidParameterError):
            unmaterialisable_spec.materialise()

    def test_non_finite_parameter_raises(self):
        for value in (float("nan"), float("inf")):
            payload = {"kind": "power_law", "n_left": 4, "n_right": 4, "avg_degree": value}
            with pytest.raises(InvalidParameterError, match="finite"):
                GraphSpec.from_dict(payload)


class TestSolveRequestRoundTrip:
    @pytest.mark.parametrize(
        "request_",
        [
            SolveRequest(graph=GraphSpec.dataset("unicodelang")),
            SolveRequest(
                graph=GraphSpec.random(8, 8, 0.6, seed=1),
                backend="dense",
                kernel="sets",
                node_budget=500,
                time_budget=2.5,
                seed=11,
                tag="cell-3",
            ),
            SolveRequest(graph=GraphSpec.inline([(1, 2), (1, 3)]), backend="basic"),
        ],
    )
    def test_json_round_trip_is_lossless(self, request_):
        assert SolveRequest.from_json(request_.to_json()) == request_

    def test_none_fields_are_omitted_from_json(self):
        request = SolveRequest(graph=GraphSpec.dataset("unicodelang"))
        payload = json.loads(request.to_json())
        assert "node_budget" not in payload and "tag" not in payload

    def test_missing_graph_raises(self):
        # No graph, a non-object request, a non-object graph spec, a spec
        # without a kind, malformed inline edges and mistyped scalar fields
        # are all refused with the wire format's own error type.
        for payload in (
            {"backend": "dense"},
            5,
            [5],
            {"graph": 5},
            {"graph": {}},
            {"graph": {"kind": "edges", "edges": [5]}},
            {"graph": {"kind": "edges", "edges": [[1]]}},
            {"graph": {"kind": "random", "n_left": 4, "n_right": 4, "density": "x"}},
            {"graph": {"kind": "random", "n_left": True, "n_right": 4, "density": 0.5}},
            {"graph": {"kind": "dataset", "name": "unicodelang"}, "node_budget": "5"},
            {"graph": {"kind": "dataset", "name": "unicodelang"}, "time_budget": False},
        ):
            with pytest.raises(InvalidParameterError):
                SolveRequest.from_dict(payload)

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["NaN", "Infinity", "-Infinity", "1e400", "int-beyond-float"],
    )
    def test_non_finite_number_raises(self, literal):
        payload = '{"graph": {"kind": "dataset", "name": "unicodelang"}, "time_budget": %s}'
        with pytest.raises(InvalidParameterError, match="finite"):
            SolveRequest.from_json(payload % literal)

    def test_unknown_field_raises(self):
        with pytest.raises(InvalidParameterError):
            SolveRequest.from_dict(
                {"graph": {"kind": "dataset", "name": "x"}, "mystery": True}
            )


class TestSolveReportRoundTrip:
    def _report(self, **request_kwargs) -> SolveReport:
        request = SolveRequest(
            graph=GraphSpec.random(10, 10, 0.6, seed=5), **request_kwargs
        )
        return MBBEngine().solve(request)

    def test_json_round_trip_is_lossless(self):
        report = self._report(backend="dense")
        assert SolveReport.from_json(report.to_json()) == report

    def test_round_trip_through_generic_json(self):
        report = self._report(backend="sparse")
        clone = SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone == report
        assert clone.biclique == report.biclique

    def test_report_carries_provenance(self):
        report = self._report()
        assert report.version == __version__
        assert report.backend in ("dense", "sparse")
        assert report.kernel == "bits"

    def test_report_reconstructs_result(self):
        report = self._report(backend="basic")
        result = report.to_result()
        assert result.side_size == report.side_size
        assert result.stats.nodes == report.stats["nodes"]
        graph = report.request.graph.materialise()
        assert result.biclique.is_valid_in(graph)

    def test_stats_survive_round_trip(self):
        report = self._report(backend="dense")
        clone = SolveReport.from_json(report.to_json())
        assert clone.stats == report.stats
        assert clone.to_result().stats == report.to_result().stats

    def test_report_carries_graph_shape(self):
        report = self._report(backend="dense")
        assert (report.num_left, report.num_right) == (10, 10)
        assert report.num_edges > 0
        assert SolveReport.from_json(report.to_json()).num_edges == report.num_edges

    def test_unknown_report_field_raises(self):
        report = self._report(backend="basic")
        payload = report.to_dict()
        payload["mystery"] = 1
        with pytest.raises(InvalidParameterError):
            SolveReport.from_dict(payload)
        # An unknown stats key is refused too, naming the key, instead of
        # surfacing later as a TypeError from SearchStats(**stats).
        payload = report.to_dict()
        payload["stats"]["bogus"] = 1
        with pytest.raises(InvalidParameterError, match="bogus"):
            SolveReport.from_dict(payload)

    def test_missing_request_raises(self):
        payload = self._report(backend="basic").to_dict()
        del payload["request"]
        with pytest.raises(InvalidParameterError):
            SolveReport.from_dict(payload)


#: Specs built in Python with a field of the wrong type: each is an
#: ``invalid_parameter`` error, as the same field is on the wire.
_MISTYPED_SPECS = {
    "float-n_left": GraphSpec.random(6.5, 6, 0.5),
    "float-power-law-n_left": GraphSpec.power_law(20.5, 20, 2.0),
    "string-density": GraphSpec.random(6, 6, "x"),
    "float-seed": GraphSpec.random(6, 6, 0.5, seed=1.5),
    "bool-n_right": GraphSpec.random(6, True, 0.5),
    "float-seed-dataset": GraphSpec(kind="dataset", name="unicodelang", seed=1.5),
}


class TestPythonBuiltSpecChecks:
    @pytest.mark.parametrize("case", sorted(_MISTYPED_SPECS))
    def test_mistyped_field_is_an_invalid_parameter(self, case):
        spec = _MISTYPED_SPECS[case]
        with pytest.raises(InvalidParameterError):
            spec.materialise()
        (report,) = MBBEngine().solve_many(
            [SolveRequest(graph=spec, backend="sparse")], parallel=False
        )
        assert report.status == "error"
        assert report.error.kind == "invalid_parameter"

    def test_warm_dataset_spec_is_checked_too(self):
        # A repeated dataset request skips materialise; its spec is still
        # checked before the cached bundle is looked up.
        engine = MBBEngine()
        engine.solve(SolveRequest(graph=GraphSpec.dataset("unicodelang"), backend="sparse"))
        with pytest.raises(InvalidParameterError):
            engine.solve(
                SolveRequest(graph=_MISTYPED_SPECS["float-seed-dataset"], backend="sparse")
            )

    def test_python_only_values_still_pass(self):
        # From Python, seed=None draws a fresh graph on every materialise.
        assert GraphSpec.random(6, 6, 0.5, seed=None).materialise().num_left == 6
        assert GraphSpec.power_law(20, 20, 2, seed=3).materialise().num_left == 20


def _mistyped_requests():
    """Requests built in Python with a field of the wrong type."""
    spec = GraphSpec.random(6, 6, 0.5, seed=1)
    return {
        "float-node_budget": SolveRequest(graph=spec, backend="dense", node_budget=2.5),
        "float-seed": SolveRequest(graph=spec, backend="dense", seed=1.5),
        "string-node_budget": SolveRequest(graph=spec, backend="dense", node_budget="x"),
        "string-time_budget": SolveRequest(graph=spec, backend="dense", time_budget="x"),
        "float-n_left-spec": SolveRequest(
            graph=GraphSpec.random(6.5, 6, 0.5), backend="dense"
        ),
    }


class TestPythonBuiltRequestChecks:
    @pytest.mark.parametrize("case", sorted(_mistyped_requests()))
    def test_validate_rejects_what_the_wire_rejects(self, case):
        request = _mistyped_requests()[case]
        with pytest.raises(InvalidParameterError):
            request.validate()
        with pytest.raises(InvalidParameterError):
            SolveRequest.from_dict(request.to_dict())
        with pytest.raises(InvalidParameterError):
            MBBEngine().solve(request)
        # Also when the caller hands the graph in.
        with pytest.raises(InvalidParameterError):
            MBBEngine().solve(request, graph=random_bipartite(6, 6, 0.5, seed=1))

    def test_both_batch_paths_report_the_callers_request(self):
        cases = _mistyped_requests()
        good = SolveRequest(graph=GraphSpec.random(6, 6, 0.5, seed=1), backend="dense")
        batch = [*cases.values(), good]
        serial = MBBEngine().solve_many(batch, parallel=False)
        pooled = MBBEngine(max_workers=2).solve_many(batch)
        for reports in (serial, pooled):
            assert [report.status for report in reports] == ["error"] * len(cases) + ["ok"]
            for (case, request), report in zip(cases.items(), reports[:-1], strict=True):
                assert report.error.kind == "invalid_parameter", case
                assert report.request == request, case
        assert pooled[-1].side_size == serial[-1].side_size

    def test_python_only_values_still_pass(self):
        request = SolveRequest(
            graph=GraphSpec.random(6, 6, 0.5, seed=None), backend="dense", seed=None
        )
        request.validate()
        assert MBBEngine().solve(request).ok


class TestSweepRequests:
    def test_expands_cartesian_product_with_tags(self):
        from repro.api import sweep_requests

        requests = sweep_requests(
            ["unicodelang", "moreno-crime"],
            ["sparse", "mvb"],
            time_budget=2.5,
        )
        assert len(requests) == 4
        assert [request.tag for request in requests] == [
            "unicodelang:sparse",
            "unicodelang:mvb",
            "moreno-crime:sparse",
            "moreno-crime:mvb",
        ]
        assert all(request.graph.kind == "dataset" for request in requests)
        # The budget lands on the budget-capable backend only (mvb would
        # reject it at dispatch time).
        assert all(
            request.time_budget == 2.5
            for request in requests
            if request.backend == "sparse"
        )

    def test_requests_round_trip_through_json(self):
        from repro.api import sweep_requests

        requests = sweep_requests(["unicodelang"], ["sparse"], node_budget=100)
        clone = SolveRequest.from_json(requests[0].to_json())
        assert clone == requests[0]
        assert clone.node_budget == 100

    def test_unknown_dataset_rejected_up_front(self):
        from repro.api import sweep_requests

        with pytest.raises(InvalidParameterError):
            sweep_requests(["no-such-dataset"], ["sparse"])

    def test_unknown_backend_rejected_up_front(self):
        from repro.api import sweep_requests

        with pytest.raises(InvalidParameterError):
            sweep_requests(["unicodelang"], ["quantum"])

    def test_empty_axes_rejected(self):
        from repro.api import sweep_requests

        with pytest.raises(InvalidParameterError):
            sweep_requests([], ["sparse"])
        with pytest.raises(InvalidParameterError):
            sweep_requests(["unicodelang"], [])

    @pytest.mark.parametrize(
        "budgets",
        [
            {"time_budget": float("nan")},
            {"time_budget": float("inf")},
            {"time_budget": -1.0},
            {"node_budget": -1},
        ],
    )
    def test_unusable_budgets_rejected_up_front(self, budgets):
        # batch would reject each of these for the whole file; a NaN is
        # not even valid JSON.  Budget-less backends get no budget, but
        # the value is still wrong.
        from repro.api import sweep_requests

        for backends in (["sparse"], ["mvb"]):
            with pytest.raises(InvalidParameterError):
                sweep_requests(["unicodelang"], backends, **budgets)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"node_budget": "x"}, "node_budget"),
            ({"node_budget": 2.5}, "node_budget"),
            ({"node_budget": True}, "node_budget"),
            ({"time_budget": "x"}, "time_budget"),
            ({"time_budget": True}, "time_budget"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "1"}, "seed"),
            ({"kernel": 5}, "kernel"),
        ],
    )
    def test_mistyped_fields_rejected_up_front(self, fields, name):
        # Each of these would build requests that SolveRequest.validate
        # rejects; node_budget='x' used to raise TypeError from the range
        # check instead.
        from repro.api import sweep_requests

        for backends in (["sparse"], ["mvb"]):
            with pytest.raises(InvalidParameterError, match=name):
                sweep_requests(["unicodelang"], backends, **fields)

    @pytest.mark.parametrize(
        "fields",
        [{}, {"node_budget": 0, "time_budget": 0, "seed": 7}, {"time_budget": 3}],
    )
    def test_accepted_fields_build_valid_requests(self, fields):
        from repro.api import sweep_requests

        for request in sweep_requests(["unicodelang"], ["sparse", "mvb"], **fields):
            request.validate()
            assert SolveRequest.from_json(request.to_json()).to_json() == request.to_json()

    def test_budgets_omitted_for_budget_less_backends(self):
        from repro.api import sweep_requests

        # mvb rejects budgets at dispatch time; a mixed sweep must not
        # poison the batch, so only the sparse cell carries the budget.
        requests = sweep_requests(
            ["unicodelang"], ["sparse", "mvb"], time_budget=5.0, node_budget=10
        )
        by_backend = {request.backend: request for request in requests}
        assert by_backend["sparse"].time_budget == 5.0
        assert by_backend["sparse"].node_budget == 10
        assert by_backend["mvb"].time_budget is None
        assert by_backend["mvb"].node_budget is None
        # Every generated request must actually dispatch.
        reports = MBBEngine().solve_many(requests, parallel=False)
        assert [report.request.tag for report in reports] == [
            "unicodelang:sparse",
            "unicodelang:mvb",
        ]
