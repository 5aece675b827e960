"""Tests for :mod:`repro.devtools.lint` — the reprolint invariant analyzer.

Covers the rule framework (registry, suppressions, baseline round-trips,
deterministic ordering), one firing fixture per shipped rule (RPL001 to
RPL004 plus the RPL000 parse-failure path), the CLI command, and the
meta-test asserting the repository itself is clean of non-baselined
findings — the contract the CI ``invariants`` job enforces.
"""

import json
import pickle
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    Baseline,
    BaselineError,
    Finding,
    PARSE_ERROR_CODE,
    all_rules,
    render_json,
    render_text,
    rule_table,
    run_lint,
)
from repro.mbb.context import SearchAborted, SearchContext

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_fixture(tmp_path, relpath, source, rules=(), baseline=None):
    """Write ``source`` at ``relpath`` under a scratch root and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([relpath], root=str(tmp_path), rules=rules, baseline=baseline)


def codes(result):
    return [finding.code for finding in result.new_findings]


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
        assert "does not parse" in result.new_findings[0].message

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
        assert [f.location for f in first.new_findings] == [
            f.location for f in second.new_findings
        ]
        lines = [f.line for f in first.new_findings]
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
        messages = [f.message for f in result.new_findings]
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
        assert "wall-clock" in result.new_findings[0].message

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
        assert "random.Random(seed)" in result.new_findings[0].message

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
        assert "ordering-sensitive" in result.new_findings[0].message

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
        assert "sets" in result.new_findings[0].message

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
        assert "BackendInfo.kernels" in result.new_findings[0].message

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
    def test_submit_lambda_fires(self, tmp_path):
        source = """
        def fan_out(pool, graphs):
            return [pool.submit(lambda: solve(graph)) for graph in graphs]
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == ["RPL004"]
        assert "module-level" in result.new_findings[0].message

    def test_submit_locally_defined_callable_fires(self, tmp_path):
        source = """
        def fan_out(pool, graph):
            def work():
                return solve(graph)

            return pool.submit(work)
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == ["RPL004"]

    def test_submit_lambda_payload_fires(self, tmp_path):
        source = """
        def fan_out(pool, graph):
            return pool.submit(solve, lambda: graph)
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == ["RPL004"]
        assert "payload" in result.new_findings[0].message

    def test_submit_module_level_callable_passes(self, tmp_path):
        source = """
        def solve_json(payload):
            return payload

        def fan_out(pool, requests):
            return [pool.submit(solve_json, request.to_json()) for request in requests]
        """
        result = lint_fixture(
            tmp_path, "src/repro/api/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == []

    def test_process_closure_target_fires(self, tmp_path):
        # A Process target ships to a worker like a submitted callable:
        # the module-level lane target passes, the closure does not.
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
        (finding,) = result.new_findings
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
        assert "payload" in result.new_findings[0].message

    def test_cancel_hook_lambda_in_library_fires(self, tmp_path):
        source = """
        def run(context, target):
            context.cancel_hook = lambda: context.best_side >= target
        """
        result = lint_fixture(
            tmp_path, "src/repro/mbb/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == ["RPL004"]
        assert "unpicklable" in result.new_findings[0].message

    def test_cancel_hook_keyword_lambda_fires(self, tmp_path):
        source = """
        def run(target):
            return make_context(cancel_hook=lambda: target())
        """
        result = lint_fixture(
            tmp_path, "src/repro/mbb/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == ["RPL004"]

    def test_cancel_hook_lambda_in_tests_passes(self, tmp_path):
        source = """
        def test_cancel(context):
            context.cancel_hook = lambda: True
        """
        result = lint_fixture(tmp_path, "tests/fixture.py", source, rules=["RPL004"])
        assert codes(result) == []

    def test_cancel_hook_callable_object_passes(self, tmp_path):
        source = """
        class TargetReached:
            def __init__(self, context, target):
                self.context = context
                self.target = target

            def __call__(self):
                return self.context.best_side >= self.target

        def run(context, target):
            context.cancel_hook = TargetReached(context, target)
        """
        result = lint_fixture(
            tmp_path, "src/repro/mbb/fixture.py", source, rules=["RPL004"]
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    SOURCE = """
    import time

    def stamp():
        return time.perf_counter(){comment}
    """

    def test_disable_comment_suppresses_on_its_line(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            "src/repro/workloads/fixture.py",
            self.SOURCE.format(comment="  # reprolint: disable=RPL002"),
        )
        assert codes(result) == []
        assert result.suppressed == 1

    def test_disable_all_suppresses_every_code(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            "src/repro/workloads/fixture.py",
            self.SOURCE.format(comment="  # reprolint: disable=all"),
        )
        assert codes(result) == []
        assert result.suppressed == 1

    def test_mismatched_code_does_not_suppress(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            "src/repro/workloads/fixture.py",
            self.SOURCE.format(comment="  # reprolint: disable=RPL001"),
        )
        assert codes(result) == ["RPL002"]
        assert result.suppressed == 0

    def test_suppression_is_per_line(self, tmp_path):
        source = """
        import time

        def stamp():
            a = time.perf_counter()  # reprolint: disable=RPL002
            return a + time.perf_counter()
        """
        result = lint_fixture(tmp_path, "src/repro/workloads/fixture.py", source)
        assert codes(result) == ["RPL002"]
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def finding(self, message="m", line=1):
        return Finding(
            path="src/x.py", line=line, column=1, code="RPL002", message=message
        )

    def test_split_absorbs_baselined_counts_only(self):
        baseline = Baseline.from_findings([self.finding()])
        new, accepted = baseline.split([self.finding(line=3), self.finding(line=9)])
        assert len(accepted) == 1 and len(new) == 1
        # The earlier occurrence is absorbed; the extra one is new.
        assert accepted[0].line == 3 and new[0].line == 9

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline = Baseline.from_findings([self.finding(), self.finding(line=5)])
        baseline.save(str(path))
        assert Baseline.load(str(path)) == baseline
        # The document itself is valid, versioned JSON.
        document = json.loads(path.read_text())
        assert document["version"] == 1
        assert document["entries"][0]["count"] == 2

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert len(Baseline.load(str(tmp_path / "absent.json"))) == 0

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[]")
        with pytest.raises(BaselineError):
            Baseline.load(str(path))
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(BaselineError):
            Baseline.load(str(path))

    def test_run_lint_with_baseline_reports_zero_new(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.perf_counter()
        """
        dirty = lint_fixture(tmp_path, "src/repro/workloads/fixture.py", source)
        assert len(dirty.new_findings) == 1
        baseline = Baseline.from_findings(dirty.new_findings)
        clean = lint_fixture(
            tmp_path, "src/repro/workloads/fixture.py", source, baseline=baseline
        )
        assert clean.new_findings == []
        assert len(clean.baselined_findings) == 1
        assert clean.exit_code == 0


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
        assert "1 new finding" in text

    def test_json_report_schema(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.perf_counter()
        """
        result = lint_fixture(tmp_path, "src/repro/workloads/fixture.py", source)
        document = json.loads(render_json(result))
        assert document["schema_version"] == 1
        assert document["exit_code"] == 1
        assert document["new_findings"][0]["code"] == "RPL002"
        assert document["new_findings"][0]["path"] == "src/repro/workloads/fixture.py"


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

    def test_write_baseline_then_clean_run(self, tmp_path, capsys):
        self.write_project(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--write-baseline"]) == 0
        assert (tmp_path / "reprolint-baseline.json").exists()
        capsys.readouterr()
        assert main(["lint", "--root", str(tmp_path)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # --no-baseline surfaces the findings again.
        assert main(["lint", "--root", str(tmp_path), "--no-baseline"]) == 1

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


# ----------------------------------------------------------------------
# the satellite fixes the rules now pin
# ----------------------------------------------------------------------
class TestSatelliteFixes:
    def test_search_context_with_hooks_pickles(self):
        from repro.mbb.size_constrained import (
            _AnyHook,
            _ParentCancelled,
            _TargetSideReached,
        )

        parent = SearchContext()
        child = SearchContext()
        child.cancel_hook = _AnyHook(
            _TargetSideReached(child, 3), _ParentCancelled(parent)
        )
        clone = pickle.loads(pickle.dumps(child))
        assert clone.cancel_hook() is False
        parent.cancelled = True
        assert child.cancel_hook() is True

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
    def test_repo_has_zero_non_baselined_findings(self):
        baseline = Baseline.load(str(REPO_ROOT / "reprolint-baseline.json"))
        paths = [
            path
            for path in ("src", "tests", "benchmarks", "examples")
            if (REPO_ROOT / path).exists()
        ]
        result = run_lint(paths, root=str(REPO_ROOT), baseline=baseline)
        assert result.new_findings == [], render_text(result)
        assert result.checked_files > 100

    def test_checked_in_baseline_is_empty(self):
        # The goal state: every invariant violation fixed at the source,
        # nothing grandfathered.  A future staged cleanup may relax this.
        baseline = Baseline.load(str(REPO_ROOT / "reprolint-baseline.json"))
        assert len(baseline) == 0
