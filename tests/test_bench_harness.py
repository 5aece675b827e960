"""Tests for the benchmark harness (tiny configurations, fast to run)."""

from __future__ import annotations

from repro.bench.harness import format_cell, format_table, timed
from repro.bench.table4 import format_table4, run_table4
from repro.bench.table5 import format_table5, run_table5
from repro.bench.table6 import format_table6, run_dataset_breakdown
from repro.bench.figure4 import format_figure4, run_figure4
from repro.bench.figure5 import format_figure5, run_figure5
from repro.bench.figure6 import format_figure6, run_figure6


class TestHarnessHelpers:
    def test_timed_returns_result_and_elapsed(self):
        value, elapsed = timed(sum, [1, 2, 3])
        assert value == 6
        assert elapsed >= 0.0

    def test_format_cell(self):
        assert format_cell(0.12345) == "0.123"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(123.456) == "123.5"
        assert format_cell("x") == "x"
        assert format_cell(0.0) == "0"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"


class TestTable4Harness:
    def test_tiny_sweep_produces_expected_rows(self):
        rows = run_table4(sides=[8], densities=[0.8, 0.9], time_budget=5.0, instances=1)
        assert len(rows) == 4  # 2 densities x 2 algorithms
        assert {row["algorithm"] for row in rows} == {"extBBCl", "denseMBB"}
        text = format_table4(rows)
        assert "80%" in text and "90%" in text


class TestTable5Harness:
    def test_single_dataset_row(self):
        rows = run_table5(["unicodelang"], time_budget=5.0)
        assert len(rows) == 1
        row = rows[0]
        assert row["dataset"] == "unicodelang"
        assert row["step"] in ("S1", "S2", "S3")
        assert isinstance(row["optimum"], int)
        assert "hbvMBB" in format_table5(rows)

    def test_algorithm_subset(self):
        rows = run_table5(["moreno-crime"], time_budget=5.0, algorithms=("hbvMBB",))
        assert "adp1" not in rows[0]


class TestTable6Harness:
    def test_breakdown_row_contains_all_columns(self):
        row = run_dataset_breakdown("unicodelang", time_budget=5.0)
        for column in ("hMBB", "degOrder", "bdegOrder", "bd1", "bd5", "hbvMBB"):
            assert column in row
        assert "unicodelang" in format_table6([row])


class TestFigureHarnesses:
    def test_figure4_rows(self):
        rows = run_figure4(["unicodelang"], time_budget=5.0)
        assert rows[0]["label"] == "D1"
        assert rows[0]["gap_local"] >= 0
        assert "heuGlobal" in format_figure4(rows)

    def test_figure5_rows(self):
        rows = run_figure5(["unicodelang"], time_budget=5.0)
        assert set(rows[0]) >= {"maxDeg", "degeneracy", "bi-degeneracy"}
        assert "bi-degeneracy" in format_figure5(rows)

    def test_figure6_rows(self):
        rows = run_figure6(["unicodelang"])
        assert 0.0 <= rows[0]["bidegeneracy"] <= 1.0
        assert "bidegeneracy" in format_figure6(rows)
