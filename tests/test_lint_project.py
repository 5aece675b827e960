"""Tests for reprolint's whole-project model and the cross-file rules.

Covers the project model itself (module naming, import-graph/alias
resolution, re-export chasing, cycle detection, call-graph construction
and reachability) through fixture mini-packages, one seeded-violation
fixture suite per project rule (RPL005–RPL008), the new CLI surface
(``--explain``, ``--graph-dot``), and the determinism meta-test (two
consecutive runs over the repository render byte-identical JSON).
"""

import textwrap
from pathlib import Path

from repro.cli import main
from repro.devtools.lint import (
    Baseline,
    ProjectContext,
    build_project,
    module_name_for,
    render_json,
    render_text,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_fixture(tmp_path, files):
    """Write a ``relpath -> source`` mapping under a scratch root."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")


def project_fixture(tmp_path, files) -> ProjectContext:
    write_fixture(tmp_path, files)
    roots = sorted({relpath.split("/")[0] for relpath in files})
    return build_project(roots, root=str(tmp_path))


def lint_fixture(tmp_path, files, rules=()):
    write_fixture(tmp_path, files)
    roots = sorted({relpath.split("/")[0] for relpath in files})
    return run_lint(roots, root=str(tmp_path), rules=rules)


def codes(result):
    return [finding.code for finding in result.new_findings]


#: A minimal stand-in for the real context module, used by the RPL006
#: fixtures (the rule resolves SearchContext/SearchAborted inside the
#: project under analysis, so the fixture must provide them).
CONTEXT_MODULE = """
    class SearchAborted(Exception):
        pass

    class SearchContext:
        def checkpoint(self):
            pass

        def enter_node(self, depth):
            self.checkpoint()
    """


# ----------------------------------------------------------------------
# the project model
# ----------------------------------------------------------------------
class TestModuleNaming:
    def test_src_is_the_import_root(self):
        assert module_name_for("src/repro/mbb/sparse.py") == "repro.mbb.sparse"

    def test_init_modules_are_their_package(self):
        assert module_name_for("src/repro/graph/__init__.py") == "repro.graph"

    def test_other_roots_keep_their_directory(self):
        assert module_name_for("tests/test_solver_api.py") == "tests.test_solver_api"
        assert module_name_for("benchmarks/run_dense.py") == "benchmarks.run_dense"

    def test_non_python_paths_resolve_to_none(self):
        assert module_name_for("README.md") is None


class TestProjectModel:
    def test_alias_imports_resolve(self, tmp_path):
        project = project_fixture(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/util.py": """
                    def helper():
                        return 1
                    """,
                "src/pkg/user.py": """
                    import pkg.util as u
                    from pkg.util import helper as h

                    def use():
                        u.helper()
                        h()
                    """,
            },
        )
        edges = project.call_graph["pkg.user::use"]
        assert edges == {"pkg.util::helper"}

    def test_re_export_chain_is_chased(self, tmp_path):
        project = project_fixture(
            tmp_path,
            {
                "src/pkg/__init__.py": "from pkg.inner import Widget\n",
                "src/pkg/inner.py": """
                    class Widget:
                        def spin(self):
                            pass
                    """,
                "src/app.py": """
                    from pkg import Widget

                    def run(w: Widget):
                        w.spin()
                    """,
            },
        )
        assert project.resolve("app", "Widget") == ("class", "pkg.inner", "Widget")
        assert project.call_graph["app::run"] == {"pkg.inner::Widget.spin"}

    def test_self_method_and_base_class_resolution(self, tmp_path):
        project = project_fixture(
            tmp_path,
            {
                "src/pkg/base.py": """
                    class Base:
                        def poll(self):
                            pass
                    """,
                "src/pkg/sub.py": """
                    from pkg.base import Base

                    class Sub(Base):
                        def work(self):
                            self.poll()
                    """,
            },
        )
        assert project.call_graph["pkg.sub::Sub.work"] == {"pkg.base::Base.poll"}

    def test_constructor_assignment_types_the_receiver(self, tmp_path):
        project = project_fixture(
            tmp_path,
            {
                "src/pkg/thing.py": """
                    class Thing:
                        def go(self):
                            pass
                    """,
                "src/pkg/use.py": """
                    from pkg.thing import Thing

                    def drive():
                        t = Thing()
                        t.go()
                    """,
            },
        )
        assert "pkg.thing::Thing.go" in project.call_graph["pkg.use::drive"]

    def test_function_alias_ternary_resolves_both_arms(self, tmp_path):
        project = project_fixture(
            tmp_path,
            {
                "src/pkg/kernels.py": """
                    def fast():
                        pass

                    def slow():
                        pass

                    def dispatch(use_fast):
                        search = fast if use_fast else slow
                        search()
                    """,
            },
        )
        edges = project.call_graph["pkg.kernels::dispatch"]
        assert {"pkg.kernels::fast", "pkg.kernels::slow"} <= edges

    def test_reachability_is_transitive(self, tmp_path):
        project = project_fixture(
            tmp_path,
            {
                "src/pkg/chain.py": """
                    def a():
                        b()

                    def b():
                        c()

                    def c():
                        pass
                    """,
            },
        )
        region = project.reachable("pkg.chain::a")
        assert {"pkg.chain::a", "pkg.chain::b", "pkg.chain::c"} <= region

    def test_loop_and_recursion_detection(self, tmp_path):
        project = project_fixture(
            tmp_path,
            {
                "src/pkg/shape.py": """
                    def loopy(items):
                        for item in items:
                            pass

                    def straight():
                        return 1

                    def rec(n):
                        return rec(n - 1) if n else 0
                    """,
            },
        )
        assert "pkg.shape::loopy" in project.loop_nodes
        assert "pkg.shape::straight" not in project.loop_nodes
        assert "pkg.shape::rec" in project.recursive_nodes

    def test_module_level_cycle_detected_lazy_exempt(self, tmp_path):
        project = project_fixture(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a.py": "from pkg import b\n",
                "src/pkg/b.py": "from pkg import a\n",
                "src/pkg/c.py": """
                    def late():
                        from pkg import a
                    """,
            },
        )
        cycles = project.import_cycles()
        assert cycles == [["pkg.a", "pkg.b"]]
        # c's lazy import is recorded but creates no cycle edge.
        assert project.internal_import_edges()["pkg.c"] == []
        assert any(not record.toplevel for record in project.modules["pkg.c"].imports)

    def test_to_dot_lists_sorted_edges(self, tmp_path):
        project = project_fixture(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a.py": "from pkg import b\nfrom pkg import c\n",
                "src/pkg/b.py": "",
                "src/pkg/c.py": "",
            },
        )
        dot = project.to_dot()
        assert dot.startswith("digraph reprolint_imports {")
        assert dot.index('"pkg.a" -> "pkg.b";') < dot.index('"pkg.a" -> "pkg.c";')


# ----------------------------------------------------------------------
# RPL005 — shared-state safety
# ----------------------------------------------------------------------
PREPARED_STUB = """
    class PreparedGraph:
        pass
    """
CSR_STUB = """
    class CSRBipartite:
        pass
    """


class TestSharedStateRule:
    def test_attribute_assignment_on_annotated_param_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/graph/prepared.py": PREPARED_STUB,
                "src/repro/stage.py": """
                    from repro.graph.prepared import PreparedGraph

                    def clobber(bundle: PreparedGraph):
                        bundle.labels = []
                    """,
            },
            rules=["RPL005"],
        )
        assert codes(result) == ["RPL005"]
        assert "attribute assignment" in result.new_findings[0].message

    def test_element_store_into_flat_array_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/stage.py": """
                    def tweak(csr):
                        csr.indices[0] = 1
                    """,
            },
            rules=["RPL005"],
        )
        assert codes(result) == ["RPL005"]
        assert "element store" in result.new_findings[0].message

    def test_mutator_call_on_array_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/stage.py": """
                    def grow(prepared):
                        prepared.labels.append("x")
                    """,
            },
            rules=["RPL005"],
        )
        assert codes(result) == ["RPL005"]
        assert "in-place mutator" in result.new_findings[0].message

    def test_constructor_assignment_tracks_receiver(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/graph/csr.py": CSR_STUB,
                "src/repro/stage.py": """
                    from repro.graph.csr import CSRBipartite

                    def build(graph):
                        snapshot = CSRBipartite.from_bipartite(graph)
                        snapshot.indptr = []
                    """,
            },
            rules=["RPL005"],
        )
        assert codes(result) == ["RPL005"]

    def test_defining_modules_are_exempt(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/graph/prepared.py": """
                    class PreparedGraph:
                        def memoise(self, prepared):
                            prepared.labels = []
                    """,
            },
            rules=["RPL005"],
        )
        assert codes(result) == []

    def test_rebinding_and_reads_are_legal(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/stage.py": """
                    def use(factory, other):
                        prepared = factory()
                        prepared = other
                        return prepared.labels[0]
                    """,
            },
            rules=["RPL005"],
        )
        assert codes(result) == []

    def test_benchmarks_in_scope_tests_exempt(self, tmp_path):
        mutation = """
            def poke(prepared):
                prepared.labels.append(1)
            """
        flagged = lint_fixture(
            tmp_path, {"benchmarks/poke.py": mutation}, rules=["RPL005"]
        )
        assert codes(flagged) == ["RPL005"]
        exempt = lint_fixture(
            tmp_path, {"tests/test_poke.py": mutation}, rules=["RPL005"]
        )
        assert codes(exempt) == []

    def test_shm_buf_write_outside_protocol_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/stage.py": """
                    def patch(segment):
                        segment.buf[0:8] = b"deadbeef"
                    """,
            },
            rules=["RPL005"],
        )
        assert codes(result) == ["RPL005"]
        assert "outside to_shm/from_shm" in result.new_findings[0].message

    def test_shm_buf_write_inside_to_shm_passes(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/graph/prepared.py": """
                    class PreparedGraph:
                        def to_shm(self):
                            segment = create(self)
                            segment.buf[0:8] = b"RPGB0001"
                            return segment
                    """,
            },
            rules=["RPL005"],
        )
        assert codes(result) == []

    def test_shm_buf_write_in_defining_module_still_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/graph/prepared.py": """
                    def repaint(segment):
                        segment.buf[0] = 0
                    """,
            },
            rules=["RPL005"],
        )
        assert codes(result) == ["RPL005"]


# ----------------------------------------------------------------------
# RPL006 — checkpoint reachability
# ----------------------------------------------------------------------
class TestCheckpointReachabilityRule:
    def test_loop_bearing_entry_without_poll_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/mbb/context.py": CONTEXT_MODULE,
                "src/repro/mbb/driver.py": """
                    from repro.mbb.context import SearchContext

                    def expand(seed):
                        pass

                    def my_search(graph):
                        context = SearchContext()
                        for seed in graph:
                            expand(seed)
                    """,
            },
            rules=["RPL006"],
        )
        assert codes(result) == ["RPL006"]
        assert "my_search()" in result.new_findings[0].message

    def test_poll_through_helper_chain_passes(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/mbb/context.py": CONTEXT_MODULE,
                "src/repro/mbb/driver.py": """
                    from repro.mbb.context import SearchContext

                    def expand(seed, context: SearchContext):
                        context.checkpoint()

                    def my_search(graph):
                        context = SearchContext()
                        for seed in graph:
                            expand(seed, context)
                    """,
            },
            rules=["RPL006"],
        )
        assert codes(result) == []

    def test_abort_handler_marks_an_entry_point(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/mbb/context.py": CONTEXT_MODULE,
                "src/repro/mbb/driver.py": """
                    from repro.mbb.context import SearchAborted

                    def spin(graph):
                        pass

                    def harness(graph):
                        try:
                            while True:
                                spin(graph)
                        except SearchAborted:
                            return None
                    """,
            },
            rules=["RPL006"],
        )
        assert codes(result) == ["RPL006"]

    def test_recursion_counts_as_unbounded_work(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/mbb/context.py": CONTEXT_MODULE,
                "src/repro/mbb/driver.py": """
                    from repro.mbb.context import SearchContext

                    def descend(node):
                        descend(node)

                    def my_search(graph):
                        context = SearchContext()
                        descend(graph)
                    """,
            },
            rules=["RPL006"],
        )
        assert codes(result) == ["RPL006"]

    def test_straight_line_entry_is_exempt(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/mbb/context.py": CONTEXT_MODULE,
                "src/repro/mbb/driver.py": """
                    from repro.mbb.context import SearchContext

                    def dispatch(graph):
                        context = SearchContext()
                        return graph
                    """,
            },
            rules=["RPL006"],
        )
        assert codes(result) == []

    def test_helpers_taking_a_context_are_not_entry_points(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/mbb/context.py": CONTEXT_MODULE,
                "src/repro/mbb/driver.py": """
                    from repro.mbb.context import SearchContext

                    def helper(graph, context: SearchContext):
                        for vertex in graph:
                            pass
                    """,
            },
            rules=["RPL006"],
        )
        assert codes(result) == []

    def test_repo_entry_points_all_prove_reachability(self):
        result = run_lint(["src"], root=str(REPO_ROOT), rules=["RPL006"])
        assert codes(result) == [], render_text(result)


# ----------------------------------------------------------------------
# RPL007 — layering and import cycles
# ----------------------------------------------------------------------
class TestLayeringRule:
    def test_module_level_upward_import_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/mbb/solver.py": "from repro.api.engine import Engine\n",
            },
            rules=["RPL007"],
        )
        assert codes(result) == ["RPL007"]
        assert "repro.api.engine" in result.new_findings[0].message

    def test_lazy_upward_import_also_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/cores/peel.py": """
                    def run():
                        from repro.bench import harness
                        return harness
                    """,
            },
            rules=["RPL007"],
        )
        assert codes(result) == ["RPL007"]
        assert "(lazy import)" in result.new_findings[0].message

    def test_downward_import_is_legal(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/engine.py": "from repro.mbb import solver\n",
                "src/repro/mbb/__init__.py": "",
                "src/repro/mbb/solver.py": "",
            },
            rules=["RPL007"],
        )
        assert codes(result) == []

    def test_module_level_cycle_flagged_once(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a.py": "from pkg import b\n",
                "src/pkg/b.py": "from pkg import a\n",
            },
            rules=["RPL007"],
        )
        assert codes(result) == ["RPL007"]
        assert "pkg.a -> pkg.b -> pkg.a" in result.new_findings[0].message

    def test_lazy_back_reference_breaks_no_cycle(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a.py": "from pkg import b\n",
                "src/pkg/b.py": """
                    def back():
                        from pkg import a
                        return a
                    """,
            },
            rules=["RPL007"],
        )
        assert codes(result) == []

    def test_repo_import_graph_is_layered_and_acyclic(self):
        result = run_lint(["src"], root=str(REPO_ROOT), rules=["RPL007"])
        assert codes(result) == [], render_text(result)
        assert build_project(["src"], root=str(REPO_ROOT)).import_cycles() == []


# ----------------------------------------------------------------------
# RPL008 — wire-format drift
# ----------------------------------------------------------------------
class TestWireFormatRule:
    def test_field_missing_from_to_dict_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/wire.py": """
                    from dataclasses import dataclass

                    @dataclass(frozen=True)
                    class Report:
                        left: int
                        order_seconds: float

                        def to_dict(self):
                            return {"left": self.left}

                        @classmethod
                        def from_dict(cls, data):
                            return cls(**data)
                    """,
            },
            rules=["RPL008"],
        )
        assert codes(result) == ["RPL008"]
        assert "'order_seconds'" in result.new_findings[0].message
        assert "to_dict" in result.new_findings[0].message

    def test_field_missing_from_from_dict_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/wire.py": """
                    from dataclasses import dataclass

                    @dataclass(frozen=True)
                    class Report:
                        left: int
                        right: int

                        def to_dict(self):
                            return {"left": self.left, "right": self.right}

                        @classmethod
                        def from_dict(cls, data):
                            return cls(left=int(data["left"]))
                    """,
            },
            rules=["RPL008"],
        )
        assert codes(result) == ["RPL008"]
        assert "'right'" in result.new_findings[0].message
        assert "from_dict" in result.new_findings[0].message

    def test_extra_key_not_backed_by_field_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/wire.py": """
                    from dataclasses import dataclass

                    @dataclass(frozen=True)
                    class Report:
                        left: int

                        def to_dict(self):
                            return {"left": self.left, "legacy": 0}

                        @classmethod
                        def from_dict(cls, data):
                            data.pop("legacy", None)
                            return cls(**data)
                    """,
            },
            rules=["RPL008"],
        )
        assert codes(result) == ["RPL008"]
        assert "'legacy'" in result.new_findings[0].message

    def test_generic_fields_iteration_covers_everything(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/wire.py": """
                    from dataclasses import dataclass, fields

                    @dataclass(frozen=True)
                    class Spec:
                        kind: str
                        seed: int

                        def to_dict(self):
                            return {f.name: getattr(self, f.name) for f in fields(self)}

                        @classmethod
                        def from_dict(cls, data):
                            return cls(**data)
                    """,
            },
            rules=["RPL008"],
        )
        assert codes(result) == []

    def test_one_way_exporters_are_not_contracts(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/wire.py": """
                    from dataclasses import dataclass

                    @dataclass(frozen=True)
                    class Info:
                        name: str
                        hidden: int

                        def to_dict(self):
                            return {"name": self.name}
                    """,
            },
            rules=["RPL008"],
        )
        assert codes(result) == []

    def test_repo_wire_format_is_covered(self):
        result = run_lint(["src"], root=str(REPO_ROOT), rules=["RPL008"])
        assert codes(result) == [], render_text(result)


# ----------------------------------------------------------------------
# RPL009 — fault boundaries and injection-point confinement
# ----------------------------------------------------------------------

#: A stand-in for the faults module so fixture projects can resolve
#: ``repro.devtools.faults.hit`` the way the real repository does.
FAULTS_MODULE_FIXTURE = """
    def hit(point, *, key=""):
        pass
    """


class TestFaultBoundaryRule:
    def test_submitted_callable_without_boundary_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/runner.py": """
                    def _solve_payload(payload):
                        return payload.upper()

                    def run(pool, payload):
                        return pool.submit(_solve_payload, payload)
                    """,
            },
            rules=["RPL009"],
        )
        assert codes(result) == ["RPL009"]
        assert "_solve_payload" in result.new_findings[0].message

    def test_direct_boundary_handler_passes(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/runner.py": """
                    def _solve_payload(payload):
                        try:
                            return payload.upper()
                        except Exception as exc:
                            return str(exc)

                    def run(pool, payload):
                        return pool.submit(_solve_payload, payload)
                    """,
            },
            rules=["RPL009"],
        )
        assert codes(result) == []

    def test_boundary_reached_through_a_helper_passes(self, tmp_path):
        # The engine's real shape: the submitted entry point delegates to
        # a guarded helper, so the proof must walk the call graph.
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/runner.py": """
                    def _guarded(payload):
                        try:
                            return payload.upper()
                        except Exception as exc:
                            return str(exc)

                    def _solve_payload(payload):
                        return _guarded(payload)

                    def run(pool, payload):
                        return pool.submit(_solve_payload, payload)
                    """,
            },
            rules=["RPL009"],
        )
        assert codes(result) == []

    def test_unresolvable_submit_argument_is_left_to_rpl004(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/api/runner.py": """
                    def run(pool, solver, payload):
                        return pool.submit(solver.step, payload)
                    """,
            },
            rules=["RPL009"],
        )
        assert codes(result) == []

    def test_hit_outside_designated_modules_flagged(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                # ``from repro.devtools import faults`` resolves as a
                # module binding only when the package itself exists.
                "src/repro/__init__.py": "",
                "src/repro/devtools/__init__.py": "",
                "src/repro/devtools/faults.py": FAULTS_MODULE_FIXTURE,
                "src/repro/mbb/kernel.py": """
                    from repro.devtools import faults

                    def solve(graph):
                        faults.hit("kernel.solve")
                        return graph
                    """,
            },
            rules=["RPL009"],
        )
        assert codes(result) == ["RPL009"]
        assert "src/repro/mbb/kernel.py" in result.new_findings[0].path

    def test_hit_imported_by_name_is_flagged_too(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/devtools/faults.py": FAULTS_MODULE_FIXTURE,
                "src/repro/graph/io.py": """
                    from repro.devtools.faults import hit

                    def load(path):
                        hit("io.load", key=path)
                        return path
                    """,
            },
            rules=["RPL009"],
        )
        assert codes(result) == ["RPL009"]

    def test_hit_in_designated_module_passes(self, tmp_path):
        result = lint_fixture(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/devtools/__init__.py": "",
                "src/repro/devtools/faults.py": FAULTS_MODULE_FIXTURE,
                "src/repro/api/engine.py": """
                    from repro.devtools import faults

                    def _guarded_solve(payload):
                        try:
                            faults.hit("worker.solve", key=payload)
                            return payload.upper()
                        except Exception as exc:
                            return str(exc)
                    """,
            },
            rules=["RPL009"],
        )
        assert codes(result) == []

    def test_repo_fault_boundaries_are_covered(self):
        result = run_lint(["src"], root=str(REPO_ROOT), rules=["RPL009"])
        assert codes(result) == [], render_text(result)


# ----------------------------------------------------------------------
# CLI polish and determinism
# ----------------------------------------------------------------------
class TestCliPolish:
    def test_explain_prints_rationale_example_and_guidance(self, capsys):
        assert main(["lint", "--explain", "RPL005,RPL007"]) == 0
        out = capsys.readouterr().out
        assert "RPL005 — shared-state" in out
        assert "RPL007 — layering" in out
        assert "Why:" in out and "Example:" in out and "Suppressing:" in out
        assert "reprolint: disable=RPL005" in out

    def test_explain_all_covers_every_rule(self, capsys):
        assert main(["lint", "--explain", "all"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL002", "RPL003", "RPL004",
                     "RPL005", "RPL006", "RPL007", "RPL008"):
            assert code in out

    def test_explain_unknown_code_is_usage_error(self, capsys):
        assert main(["lint", "--explain", "RPL999"]) == 2
        assert "RPL999" in capsys.readouterr().err

    def test_graph_dot_to_stdout_and_file(self, tmp_path, capsys):
        write_fixture(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a.py": "from pkg import b\n",
                "src/pkg/b.py": "",
            },
        )
        assert main(["lint", "--root", str(tmp_path), "--graph-dot", "-"]) == 0
        out = capsys.readouterr().out
        assert '"pkg.a" -> "pkg.b";' in out
        target = tmp_path / "imports.dot"
        assert (
            main(["lint", "--root", str(tmp_path), "--graph-dot", str(target)]) == 0
        )
        assert '"pkg.a" -> "pkg.b";' in target.read_text(encoding="utf-8")


class TestDeterminism:
    def test_two_repo_runs_render_byte_identical_json(self):
        baseline = Baseline.load(str(REPO_ROOT / "reprolint-baseline.json"))
        paths = [
            path
            for path in ("src", "tests", "benchmarks", "examples")
            if (REPO_ROOT / path).exists()
        ]
        first = render_json(
            run_lint(paths, root=str(REPO_ROOT), baseline=baseline)
        )
        second = render_json(
            run_lint(paths, root=str(REPO_ROOT), baseline=baseline)
        )
        assert first == second

    def test_project_model_is_deterministic(self):
        first = build_project(["src"], root=str(REPO_ROOT))
        second = build_project(["src"], root=str(REPO_ROOT))
        assert first.to_dot() == second.to_dot()
        assert first.import_cycles() == second.import_cycles()
        assert {k: sorted(v) for k, v in first.call_graph.items()} == {
            k: sorted(v) for k, v in second.call_graph.items()
        }


class TestBaselineJustification:
    def test_justification_survives_round_trip(self, tmp_path):
        payload = {
            "version": 1,
            "tool": "reprolint",
            "entries": [
                {
                    "path": "src/repro/x.py",
                    "code": "RPL005",
                    "message": "m",
                    "count": 1,
                    "justification": "staged cleanup lands in the next PR",
                }
            ],
        }
        baseline = Baseline.from_dict(payload)
        target = tmp_path / "baseline.json"
        baseline.save(str(target))
        reloaded = Baseline.load(str(target))
        assert reloaded == baseline
        assert (
            reloaded.justifications["src/repro/x.py::RPL005::m"]
            == "staged cleanup lands in the next PR"
        )

    def test_regeneration_carries_surviving_justifications(self):
        from repro.devtools.lint.findings import Finding

        surviving = Finding(
            path="src/repro/x.py", line=3, column=1, code="RPL005", message="m"
        )
        previous = Baseline(
            {surviving.fingerprint: 1, "src/gone.py::RPL007::old": 1},
            {
                surviving.fingerprint: "kept",
                "src/gone.py::RPL007::old": "stale",
            },
        )
        regenerated = Baseline.from_findings([surviving], previous=previous)
        assert regenerated.justifications == {surviving.fingerprint: "kept"}
