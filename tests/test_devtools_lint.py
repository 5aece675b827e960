"""Tests for :mod:`repro.devtools.lint` — the reprolint invariant analyzer.

Covers the rule framework (registry, deterministic ordering), one firing
fixture per shipped rule (RPL001 to RPL004 plus the RPL000
parse-failure path), the reports, the CLI command, and the meta-test
asserting the repository itself has no findings — the contract the CI
``invariants`` job enforces.
"""

import ast
import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    PARSE_ERROR_CODE,
    all_rules,
    render_json,
    render_text,
    rule_table,
    run_lint,
)
from repro.devtools.lint.rules.pool_safety import worker_call
from repro.mbb.context import SearchAborted, SearchContext

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_fixture(tmp_path, relpath, source, rules=()):
    """Write ``source`` at ``relpath`` under a scratch root and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([relpath], root=str(tmp_path), rules=rules)


def codes(result):
    return [finding.code for finding in result.findings]


# ----------------------------------------------------------------------
# framework: registry, ordering, parse failures
# ----------------------------------------------------------------------
class TestFramework:
    def test_all_registered_rules(self):
        assert [rule.code for rule in all_rules()] == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL006",
            "RPL007",
            "RPL008",
            "RPL009",
        ]

    def test_rule_subset_selection(self):
        assert [rule.code for rule in all_rules(["RPL004", "rpl001"])] == [
            "RPL001",
            "RPL004",
        ]

    def test_unknown_rule_code_raises(self):
        with pytest.raises(ValueError, match="RPL999"):
            all_rules(["RPL999"])

    def test_rule_table_lists_descriptions(self):
        table = rule_table()
        assert [row[0] for row in table] == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL006",
            "RPL007",
            "RPL008",
            "RPL009",
        ]
        assert all(row[1] and row[2] for row in table)

    def test_every_rule_carries_explain_metadata(self):
        for rule in all_rules():
            assert rule.rationale, f"{rule.code} has no rationale for --explain"
            assert rule.example, f"{rule.code} has no example for --explain"

    def test_parse_failure_reports_rpl000(self, tmp_path):
        result = lint_fixture(tmp_path, "src/repro/broken.py", "def oops(:\n")
        assert codes(result) == [PARSE_ERROR_CODE]
        assert "does not parse" in result.findings[0].message

    def test_findings_are_deterministically_ordered(self, tmp_path):
        source = """
        import time

        def late():
            return time.perf_counter()

        def early():
            return time.time()
        """
        first = lint_fixture(tmp_path, "src/repro/clocks.py", source)
        second = lint_fixture(tmp_path, "src/repro/clocks.py", source)
        assert [f.location for f in first.findings] == [
            f.location for f in second.findings
        ]
        lines = [f.line for f in first.findings]
        assert lines == sorted(lines)

    def test_missing_lint_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint(["no/such/dir"], root=str(tmp_path))


# ----------------------------------------------------------------------
# RPL001 — budget checkpoint coverage
# ----------------------------------------------------------------------
class TestBudgetCheckpointRule:
    FIXTURE = """
    import time

    def ladder(context):
        while True:
            if context.deadline is not None and time.perf_counter() > context.deadline:
                break
            remaining = context.node_budget - context.stats.nodes
            if remaining <= 0:
                break
    """

    def test_fires_on_hand_rolled_budget_math(self, tmp_path):
        result = lint_fixture(
            tmp_path, "src/repro/mbb/fixture.py", self.FIXTURE, rules=["RPL001"]
        )
        assert codes(result) == ["RPL001", "RPL001"]
        messages = [f.message for f in result.findings]
        assert any("deadline" in message for message in messages)
        assert any("node_budget" in message for message in messages)

    def test_scoped_to_search_modules(self, tmp_path):
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", self.FIXTURE, rules=["RPL001"]
        )
        assert codes(result) == []

    def test_context_module_is_exempt(self, tmp_path):
        result = lint_fixture(
            tmp_path, "src/repro/mbb/context.py", self.FIXTURE, rules=["RPL001"]
        )
        assert codes(result) == []

    def test_none_guards_and_keywords_pass(self, tmp_path):
        source = """
        def fine(context, config):
            if context.deadline is not None:
                context.checkpoint()
            return make_context(node_budget=config.node_budget)
        """
        result = lint_fixture(
            tmp_path, "src/repro/cores/fixture.py", source, rules=["RPL001"]
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# RPL002 — determinism discipline
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_wall_clock_fires_outside_allowlist(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.perf_counter()
        """
        result = lint_fixture(
            tmp_path, "src/repro/workloads/fixture.py", source, rules=["RPL002"]
        )
        assert codes(result) == ["RPL002"]
        assert "wall-clock" in result.findings[0].message

    def test_wall_clock_from_import_alias_fires(self, tmp_path):
        source = """
        from time import perf_counter as clock

        def stamp():
            return clock()
        """
        result = lint_fixture(
            tmp_path, "src/repro/workloads/fixture.py", source, rules=["RPL002"]
        )
        assert codes(result) == ["RPL002"]

    @pytest.mark.parametrize(
        "relpath",
        [
            "src/repro/mbb/context.py",
            "src/repro/api/engine.py",
            "src/repro/bench/fixture.py",
            "tests/fixture.py",
        ],
    )
    def test_wall_clock_allowlist(self, tmp_path, relpath):
        source = """
        import time

        def stamp():
            return time.perf_counter()
        """
        result = lint_fixture(tmp_path, relpath, source, rules=["RPL002"])
        assert codes(result) == []

    def test_unseeded_random_fires(self, tmp_path):
        source = """
        import random

        def pick(items):
            return random.choice(items)
        """
        result = lint_fixture(
            tmp_path, "src/repro/workloads/fixture.py", source, rules=["RPL002"]
        )
        assert codes(result) == ["RPL002"]
        assert "random.Random(seed)" in result.findings[0].message

    def test_seeded_random_instance_passes(self, tmp_path):
        source = """
        import random

        def pick(items, seed):
            return random.Random(seed).choice(items)
        """
        result = lint_fixture(
            tmp_path, "src/repro/workloads/fixture.py", source, rules=["RPL002"]
        )
        assert codes(result) == []

    def test_set_iteration_into_append_fires_in_kernel_modules(self, tmp_path):
        source = """
        def order(graph):
            out = []
            for vertex in set(graph.vertices):
                out.append(vertex)
            return out
        """
        result = lint_fixture(
            tmp_path, "src/repro/cores/fixture.py", source, rules=["RPL002"]
        )
        assert codes(result) == ["RPL002"]
        assert "ordering-sensitive" in result.findings[0].message

    def test_list_comprehension_over_set_algebra_fires(self, tmp_path):
        source = """
        def order(left, right):
            return [vertex for vertex in set(left) & set(right)]
        """
        result = lint_fixture(
            tmp_path, "src/repro/graph/fixture.py", source, rules=["RPL002"]
        )
        assert codes(result) == ["RPL002"]

    def test_sorted_set_iteration_passes(self, tmp_path):
        source = """
        def order(graph):
            out = []
            for vertex in sorted(set(graph.vertices), key=repr):
                out.append(vertex)
            return out
        """
        result = lint_fixture(
            tmp_path, "src/repro/cores/fixture.py", source, rules=["RPL002"]
        )
        assert codes(result) == []

    def test_order_insensitive_set_iteration_passes(self, tmp_path):
        source = """
        def best(graph):
            best = 0
            for vertex in set(graph.vertices):
                best = max(best, vertex.degree)
            return best
        """
        result = lint_fixture(
            tmp_path, "src/repro/cores/fixture.py", source, rules=["RPL002"]
        )
        assert codes(result) == []

    def test_set_iteration_outside_kernel_modules_passes(self, tmp_path):
        source = """
        def order(items):
            out = []
            for item in set(items):
                out.append(item)
            return out
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL002"]
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# RPL003 — kernel parity
# ----------------------------------------------------------------------
class TestKernelParityRule:
    def test_bits_dispatch_without_sets_fires(self, tmp_path):
        source = """
        KERNEL_BITS = "bits"

        def solve(graph, kernel=KERNEL_BITS):
            if kernel == KERNEL_BITS:
                return bits_path(graph)
            raise ValueError(kernel)
        """
        result = lint_fixture(
            tmp_path, "src/repro/mbb/fixture.py", source, rules=["RPL003"]
        )
        assert codes(result) == ["RPL003"]
        assert "sets" in result.findings[0].message

    def test_bits_dispatch_with_sets_counterpart_passes(self, tmp_path):
        source = """
        KERNEL_BITS = "bits"
        KERNEL_SETS = "sets"

        def solve(graph, kernel=KERNEL_BITS):
            if kernel == KERNEL_BITS:
                return bits_path(graph)
            if kernel == KERNEL_SETS:
                return sets_path(graph)
            raise ValueError(kernel)
        """
        result = lint_fixture(
            tmp_path, "src/repro/mbb/fixture.py", source, rules=["RPL003"]
        )
        assert codes(result) == []

    def test_default_forwarding_without_dispatch_passes(self, tmp_path):
        source = """
        KERNEL_BITS = "bits"

        def solve(graph, kernel=KERNEL_BITS):
            return inner(graph, kernel=kernel)
        """
        result = lint_fixture(
            tmp_path, "src/repro/bench/fixture.py", source, rules=["RPL003"]
        )
        assert codes(result) == []

    def test_bits_only_backend_metadata_fires(self, tmp_path):
        source = """
        KERNEL_BITS = "bits"

        def register():
            register_backend(info(name="x", kernels=(KERNEL_BITS,)))
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL003"]
        )
        assert codes(result) == ["RPL003"]
        assert "BackendInfo.kernels" in result.findings[0].message

    def test_bits_only_metadata_through_alias_fires(self, tmp_path):
        source = """
        KERNEL_BITS = "bits"
        _ONLY_BITS = (KERNEL_BITS,)

        def register():
            register_backend(info(name="x", kernels=_ONLY_BITS))
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL003"]
        )
        assert codes(result) == ["RPL003"]

    def test_both_kernel_metadata_passes(self, tmp_path):
        source = """
        KERNEL_BITS = "bits"
        KERNEL_SETS = "sets"
        _BOTH = (KERNEL_BITS, KERNEL_SETS)

        def register():
            register_backend(info(name="x", kernels=_BOTH))
            register_backend(info(name="y", kernels=("bits", "sets")))
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL003"]
        )
        assert codes(result) == []

    def test_scoped_to_library_code(self, tmp_path):
        source = """
        KERNEL_BITS = "bits"

        def helper(kernel):
            return kernel == KERNEL_BITS
        """
        result = lint_fixture(tmp_path, "tests/fixture.py", source, rules=["RPL003"])
        assert codes(result) == []


# ----------------------------------------------------------------------
# RPL004 — pool safety
# ----------------------------------------------------------------------
class TestPoolSafetyRule:
    def test_process_closure_target_fires(self, tmp_path):
        # The module-level lane target passes, the closure does not.
        source = """
        import multiprocessing

        def serve(conn):
            return conn.recv()

        def start(conn):
            def work():
                return serve(conn)

            multiprocessing.Process(target=serve, args=(conn,), daemon=True).start()
            return multiprocessing.Process(target=work)
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == ["RPL004"]
        (finding,) = result.findings
        assert "Process(target=...)" in finding.message
        assert "module-level" in finding.message
        assert finding.line == 12

    def test_process_lambda_args_fires(self, tmp_path):
        source = """
        from multiprocessing import Process

        def serve(hook):
            return hook()

        def start(graph):
            return Process(target=serve, args=(lambda: graph,))
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == ["RPL004"]
        assert "payload" in result.findings[0].message

    def test_process_lambda_target_fires(self, tmp_path):
        source = """
        import multiprocessing

        def serve(conn):
            return conn.recv()

        def start(conn):
            return multiprocessing.Process(target=lambda: serve(conn))
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == ["RPL004"]
        assert "given a lambda" in result.findings[0].message

    def test_module_level_target_through_a_context_passes(self, tmp_path):
        # Any callee named Process counts, a start-method context's too;
        # a module-level target with JSON payloads is the safe form.
        source = """
        import multiprocessing

        def serve(conn, payload):
            return conn.send(payload)

        def start(conn, request):
            context = multiprocessing.get_context("spawn")
            return context.Process(target=serve, args=(conn, request.to_json()))
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == []

    def test_module_scope_process_call_is_checked(self, tmp_path):
        source = """
        from multiprocessing import Process

        WORKER = Process(target=lambda: None)
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == ["RPL004"]
        assert result.findings[0].line == 4

    def test_only_process_calls_ship_work(self, tmp_path):
        # Lanes are the only worker processes: an executor's submit or
        # map runs in whatever process calls it, so it is not checked.
        source = """
        def fan_out(pool, graphs):
            futures = [pool.submit(lambda: solve(graph)) for graph in graphs]
            return futures, pool.map(lambda graph: solve(graph), graphs)
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == []
        call = ast.parse("pool.submit(solve, graph)").body[0].value
        assert worker_call(call) is None

    def test_cancel_hook_lambda_in_library_passes(self, tmp_path):
        # Contexts are built inside the worker and never pickled, so a
        # closure hook is legal library code (size_constrained uses one).
        source = """
        def run(context, target):
            context.cancel_hook = lambda: context.best_side >= target
        """
        result = lint_fixture(
            tmp_path, "src/repro/mbb/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# every finding fails the run
# ----------------------------------------------------------------------
class TestEveryFindingFails:
    @pytest.mark.parametrize(
        "comment", ["# reprolint: disable=RPL002", "# reprolint: disable=all"]
    )
    def test_a_disable_comment_does_not_hide_a_finding(self, tmp_path, comment):
        source = (
            "import time\n"
            "\n"
            "def stamp():\n"
            f"    return time.perf_counter()  {comment}\n"
        )
        result = lint_fixture(tmp_path, "src/repro/workloads/fixture.py", source)
        assert codes(result) == ["RPL002"]
        assert result.findings[0].line == 4
        assert result.exit_code == 1

    def test_result_holds_the_findings_and_the_run_counts_only(self, tmp_path):
        result = lint_fixture(tmp_path, "src/repro/workloads/fixture.py", "X = 1\n")
        assert [field.name for field in dataclasses.fields(result)] == [
            "findings",
            "checked_files",
            "modules",
            "rules",
        ]
        assert result.findings == [] and result.exit_code == 0
        assert result.checked_files == 1


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
class TestReports:
    def test_text_report_lists_locations_and_summary(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.perf_counter()
        """
        result = lint_fixture(tmp_path, "src/repro/workloads/fixture.py", source)
        text = render_text(result)
        assert "src/repro/workloads/fixture.py:5:12: RPL002" in text
        assert "reprolint: 1 finding across" in text

    def test_json_report_schema(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.perf_counter()
        """
        result = lint_fixture(tmp_path, "src/repro/workloads/fixture.py", source)
        document = json.loads(render_json(result))
        assert document["schema_version"] == 2
        assert document["exit_code"] == 1
        assert document["findings"][0]["code"] == "RPL002"
        assert document["findings"][0]["path"] == "src/repro/workloads/fixture.py"

    def test_json_report_of_a_clean_run(self, tmp_path):
        result = lint_fixture(tmp_path, "src/repro/workloads/fixture.py", "X = 1\n")
        document = json.loads(render_json(result))
        assert sorted(document) == [
            "checked_files",
            "exit_code",
            "findings",
            "modules",
            "rules",
            "schema_version",
            "tool",
        ]
        assert document["findings"] == [] and document["exit_code"] == 0
        assert document["rules"] == result.rules

    def test_text_summary_counts_every_finding(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.perf_counter() - time.monotonic()
        """
        result = lint_fixture(tmp_path, "src/repro/workloads/fixture.py", source)
        lines = render_text(result).splitlines()
        assert len(lines) == 3
        assert all(": RPL002 " in line for line in lines[:2])
        assert lines[2].startswith("reprolint: 2 findings across 1 files")


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestLintCli:
    SOURCE = textwrap.dedent(
        """
        import time

        def stamp():
            return time.perf_counter()
        """
    )

    def write_project(self, tmp_path):
        target = tmp_path / "src" / "repro" / "workloads" / "fixture.py"
        target.parent.mkdir(parents=True)
        target.write_text(self.SOURCE, encoding="utf-8")

    def test_lint_exits_nonzero_on_new_findings(self, tmp_path, capsys):
        self.write_project(tmp_path)
        assert main(["lint", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPL002" in out

    def test_lint_json_output_is_valid(self, tmp_path, capsys):
        self.write_project(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["exit_code"] == 1

    def test_rules_subset(self, tmp_path):
        self.write_project(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--rules", "RPL001"]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL002", "RPL003", "RPL004"):
            assert code in out

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        self.write_project(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--rules", "RPL999"]) == 2
        assert "RPL999" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [
            ["--baseline", "ledger.json"],
            ["--no-baseline"],
            ["--write-baseline"],
            ["--graph-dot", "-"],
        ],
        ids=["baseline", "no-baseline", "write-baseline", "graph-dot"],
    )
    def test_removed_option_is_usage_error(self, option, tmp_path, capsys):
        # No ledger excuses a finding, and no import graph is drawn.
        self.write_project(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--root", str(tmp_path), *option])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["src"]


# ----------------------------------------------------------------------
# the satellite fixes the rules now pin
# ----------------------------------------------------------------------
class TestSatelliteFixes:
    def test_checkpoint_enforces_node_budget_on_request(self):
        context = SearchContext(node_budget=2)
        context.stats.record_node(0)
        context.checkpoint()  # default form still ignores the node budget
        context.stats.record_node(1)
        with pytest.raises(SearchAborted):
            context.checkpoint(enforce_node_budget=True)
        assert context.aborted

    def test_remaining_budget_helpers(self):
        unbounded = SearchContext()
        assert unbounded.remaining_node_budget() is None
        assert unbounded.remaining_time_budget() is None
        context = SearchContext(node_budget=5, time_budget=100.0)
        context.stats.record_node(0)
        context.stats.record_node(1)
        assert context.remaining_node_budget() == 3
        assert 0.0 < context.remaining_time_budget() <= 100.0

    def test_timed_stat_accumulates(self):
        context = SearchContext()
        with context.timed_stat("prepare_seconds"):
            pass
        with context.timed_stat("prepare_seconds"):
            pass
        assert context.stats.prepare_seconds >= 0.0


# ----------------------------------------------------------------------
# the meta-test: the repository itself stays clean
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_repo_has_zero_findings(self):
        paths = [
            path
            for path in ("src", "tests", "benchmarks", "examples")
            if (REPO_ROOT / path).exists()
        ]
        result = run_lint(paths, root=str(REPO_ROOT))
        assert result.findings == [], render_text(result)
        assert result.checked_files > 100
