"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graph.generators import planted_balanced_biclique
from repro.graph.io import read_edge_list, write_edge_list


class TestSolveCommand:
    def test_solve_edge_list_file(self, tmp_path, capsys):
        graph = planted_balanced_biclique(15, 15, 4, background_density=0.05, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        exit_code = main(["solve", "--input", str(path), "--show-vertices"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "maximum balanced biclique side size: 4" in out
        assert "left" in out and "right" in out

    def test_solve_dataset_stand_in(self, capsys):
        exit_code = main(["solve", "--dataset", "unicodelang", "--method", "sparse"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "terminated at step" in out

    def test_solve_unknown_dataset_reports_error(self, capsys):
        exit_code = main(["solve", "--dataset", "does-not-exist"])
        err = capsys.readouterr().err
        assert exit_code == 1
        assert "error" in err

    def test_method_choices_are_validated(self):
        with pytest.raises(SystemExit):
            main(["solve", "--dataset", "unicodelang", "--method", "quantum"])

    def test_backend_flag_accepts_registry_names(self, tmp_path, capsys):
        graph = planted_balanced_biclique(10, 10, 3, background_density=0.1, seed=2)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        exit_code = main(
            ["solve", "--input", str(path), "--backend", "size-constrained"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "backend: size-constrained" in out

    def test_json_output_is_valid_report(self, tmp_path, capsys):
        graph = planted_balanced_biclique(12, 12, 4, background_density=0.1, seed=3)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        exit_code = main(["solve", "--input", str(path), "--json"])
        out = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(out)
        assert payload["side_size"] >= 4
        assert payload["optimal"] is True
        assert payload["request"]["graph"]["kind"] == "path"
        from repro.api import SolveReport

        assert SolveReport.from_json(out).side_size == payload["side_size"]

    def test_node_budget_flag(self, capsys):
        exit_code = main(
            [
                "solve",
                "--dataset",
                "moreno-crime",
                "--backend",
                "basic",
                "--node-budget",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "best effort" in out


class TestBatchCommand:
    def _requests_file(self, tmp_path, count=3):
        requests = [
            {
                "graph": {
                    "kind": "random",
                    "n_left": 8,
                    "n_right": 8,
                    "density": 0.5,
                    "seed": seed,
                },
                "backend": "dense",
                "tag": f"cell-{seed}",
            }
            for seed in range(count)
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(requests), encoding="utf-8")
        return path

    def test_batch_prints_reports_in_order(self, tmp_path, capsys):
        path = self._requests_file(tmp_path)
        exit_code = main(["batch", str(path), "--serial"])
        out = capsys.readouterr().out
        assert exit_code == 0
        reports = json.loads(out)
        assert [report["request"]["tag"] for report in reports] == [
            "cell-0",
            "cell-1",
            "cell-2",
        ]

    def test_batch_writes_output_file(self, tmp_path, capsys):
        path = self._requests_file(tmp_path)
        out_path = tmp_path / "reports.json"
        exit_code = main(["batch", str(path), "--serial", "--output", str(out_path)])
        assert exit_code == 0
        assert "wrote 3 reports" in capsys.readouterr().out
        reports = json.loads(out_path.read_text(encoding="utf-8"))
        assert len(reports) == 3

    def test_batch_rejects_non_array_payload(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a batch"}', encoding="utf-8")
        exit_code = main(["batch", str(path)])
        assert exit_code == 2
        assert "array" in capsys.readouterr().err

    def test_batch_surfaces_per_request_failures(self, tmp_path, capsys):
        requests = [
            {
                "graph": {
                    "kind": "random",
                    "n_left": 6,
                    "n_right": 6,
                    "density": 0.5,
                    "seed": 1,
                },
                "backend": "dense",
                "tag": "good",
            },
            {
                "graph": {
                    "kind": "random",
                    "n_left": 6,
                    "n_right": 6,
                    "density": 0.5,
                    "seed": 2,
                },
                "backend": "brute_force",
                "node_budget": 5,  # brute_force rejects budgets
                "tag": "bad",
            },
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(requests), encoding="utf-8")
        exit_code = main(["batch", str(path), "--serial", "--no-retry"])
        captured = capsys.readouterr()
        assert exit_code == 1
        reports = json.loads(captured.out)
        assert [(r["request"]["tag"], r["status"]) for r in reports] == [
            ("good", "ok"),
            ("bad", "error"),
        ]
        assert reports[1]["error"]["kind"] == "invalid_parameter"
        assert "bad" in captured.err
        assert "invalid_parameter" in captured.err

    def test_batch_accepts_retry_flags(self, tmp_path, capsys):
        path = self._requests_file(tmp_path, count=2)
        exit_code = main(["batch", str(path), "--serial", "--max-retries", "1"])
        assert exit_code == 0
        assert len(json.loads(capsys.readouterr().out)) == 2

    def test_batch_rejects_negative_max_retries(self, tmp_path, capsys):
        path = self._requests_file(tmp_path, count=1)
        exit_code = main(["batch", str(path), "--max-retries", "-1"])
        assert exit_code == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_batch_missing_file_is_a_clean_error(self, tmp_path, capsys):
        exit_code = main(["batch", str(tmp_path / "absent.json")])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_batch_malformed_json_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        for payload in (b"not json {", b'[{"graph": {"kind": "dataset", "name": "caf\xe9"}}]'):
            path.write_bytes(payload)
            exit_code = main(["batch", str(path)])
            assert exit_code == 2
            assert "valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            "[5]",
            '[{"graph": 5}]',
            '[{"graph": {}}]',
            '[{"graph": {"kind": "edges", "edges": [5]}}]',
            '[{"graph": {"kind": "edges", "edges": [[1]]}}]',
            '[{"graph": {"kind": "random", "n_left": 4, "n_right": 4, "density": "x"}}]',
            '[{"graph": {"kind": "dataset", "name": "unicodelang"}, "node_budget": "5"}]',
            '[{"graph": {"kind": "dataset", "name": "unicodelang"}, "time_budget": NaN}]',
            '[{"graph": {"kind": "dataset", "name": "unicodelang"}, "time_budget": Infinity}]',
            '[{"graph": {"kind": "dataset", "name": "unicodelang"}, "time_budget": 1e400}]',
            '[{"graph": {"kind": "power_law", "n_left": 4, "n_right": 4, "avg_degree": NaN}}]',
            '[{"graph": {"kind": "power_law", "n_left": 4, "n_right": 4, "avg_degree": Infinity}}]',
        ],
    )
    def test_batch_non_object_request_is_a_clean_error(
        self, tmp_path, capsys, payload
    ):
        path = tmp_path / "requests.json"
        path.write_text(payload, encoding="utf-8")
        exit_code = main(["batch", str(path)])
        err = capsys.readouterr().err
        assert exit_code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestSweepCommand:
    def test_sweep_emits_batch_consumable_requests(self, capsys):
        exit_code = main(
            ["sweep", "--datasets", "unicodelang,moreno-crime", "--backends", "mvb"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(out)
        assert [entry["tag"] for entry in payload["requests"]] == [
            "unicodelang:mvb",
            "moreno-crime:mvb",
        ]

    def test_sweep_tough_expands_all_tough_stand_ins(self, capsys):
        from repro.workloads.datasets import TOUGH_DATASETS

        exit_code = main(
            ["sweep", "--datasets", "tough", "--backends", "sparse,dense"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(out)
        assert len(payload["requests"]) == 2 * len(TOUGH_DATASETS)

    @pytest.mark.parametrize(
        "flag", [["--time-budget", "nan"], ["--time-budget", "-2"], ["--node-budget", "-1"]]
    )
    def test_sweep_rejects_an_unusable_budget_before_writing(self, tmp_path, capsys, flag):
        sweep_path = tmp_path / "sweep.json"
        exit_code = main(
            ["sweep", "--datasets", "unicodelang", "--backends", "sparse", "--output", str(sweep_path)]
            + flag
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error: ") and "budget" in captured.err
        assert captured.out == ""
        assert not sweep_path.exists()

    def test_sweep_output_file_feeds_batch(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        exit_code = main(
            [
                "sweep",
                "--datasets",
                "unicodelang",
                "--backends",
                "mvb",
                "--output",
                str(sweep_path),
            ]
        )
        assert exit_code == 0
        assert "wrote 1 requests" in capsys.readouterr().out
        # The generated file is directly consumable by the batch command.
        exit_code = main(["batch", str(sweep_path), "--serial"])
        out = capsys.readouterr().out
        assert exit_code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["request"]["tag"] == "unicodelang:mvb"
        assert reports[0]["backend"] == "mvb"

    def test_sweep_unknown_dataset_is_clean_error(self, capsys):
        exit_code = main(["sweep", "--datasets", "nope", "--backends", "mvb"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_unknown_backend_is_clean_error(self, capsys):
        exit_code = main(["sweep", "--datasets", "unicodelang", "--backends", "warp"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err


class TestBackendsCommand:
    def test_backends_lists_registry(self, capsys):
        exit_code = main(["backends"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for name in ("dense", "sparse", "basic", "size-constrained", "extbbclq"):
            assert name in out

    def test_backends_json(self, capsys):
        exit_code = main(["backends", "--json"])
        out = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(out)
        names = {entry["name"] for entry in payload}
        assert {"dense", "sparse", "local_search"} <= names


class TestGenerateCommand:
    def test_generate_dense_graph(self, tmp_path, capsys):
        path = tmp_path / "dense.txt"
        exit_code = main(
            ["generate", str(path), "--left", "10", "--right", "12", "--density", "0.5"]
        )
        assert exit_code == 0
        graph = read_edge_list(path)
        assert graph.num_left <= 10 and graph.num_right <= 12
        assert "wrote" in capsys.readouterr().out

    def test_generate_sparse_graph(self, tmp_path):
        path = tmp_path / "sparse.txt"
        exit_code = main(
            ["generate", str(path), "--left", "30", "--right", "30", "--avg-degree", "2.0"]
        )
        assert exit_code == 0
        assert path.exists()

    def test_generate_requires_exactly_one_model(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        exit_code = main(["generate", str(path), "--left", "5", "--right", "5"])
        assert exit_code == 2
        assert "exactly one" in capsys.readouterr().err


class TestInformationCommands:
    def test_datasets_lists_all_thirty(self, capsys):
        exit_code = main(["datasets"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.count("\n") >= 30
        assert "jester" in out and "dblp-author" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestBenchCommand:
    @pytest.mark.bench
    def test_bench_figure6(self, capsys):
        exit_code = main(["bench", "figure6"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "bidegeneracy" in out

    def test_kernels_is_not_an_artefact(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "kernels"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'kernels'" in capsys.readouterr().err


class TestFileErrors:
    """An unreadable input or unwritable output is a clean usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--input", "{missing}"],
            ["solve", "--input", "{missing}", "--json"],
            ["solve", "--input", "{directory}"],
            ["generate", "{missing}", "--left", "3", "--right", "3", "--density", "0.5"],
            ["sweep", "--datasets", "unicodelang", "--backends", "mvb", "--output", "{missing}"],
            ["batch", "{requests}", "--serial", "--output", "{missing}"],
            ["lint", "--root", "{directory}", "{missing}"],
        ],
        ids=[
            "solve-missing",
            "solve-missing-json",
            "solve-directory",
            "generate",
            "sweep",
            "batch",
            "lint-missing-path",
        ],
    )
    def test_os_error_prints_error_and_exits_2(self, argv, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text(
            json.dumps([{"graph": {"kind": "edges", "edges": [[0, 0]]}, "backend": "dense"}]),
            encoding="utf-8",
        )
        paths = {
            "missing": str(tmp_path / "absent" / "x.out"),
            "directory": str(tmp_path),
            "requests": str(requests),
        }
        exit_code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
