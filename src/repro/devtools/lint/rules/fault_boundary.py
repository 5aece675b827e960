"""RPL009 — fault-boundary discipline for the pool execution layer.

PR 9 made ``MBBEngine.solve_many`` fault-tolerant: every worker entry
point converts exceptions into ``status="error"`` reports, so one bad
request can no longer poison a batch, and the deterministic
fault-injection harness (:mod:`repro.devtools.faults`) can prove it.
Both halves of that design rot silently without a machine check:

* **boundary coverage** — a new pool-submitted callable that skips the
  fault boundary reintroduces the exact brittleness this PR removed:
  the first worker exception poisons ``future.result()`` for the whole
  batch again.  Every first argument of a ``.submit(...)`` call in
  library code must therefore reach an ``except Exception`` (or bare
  ``except``) handler through the project call graph — the submitted
  function may delegate to a guarded helper, as the engine's entry
  points delegate to ``_guarded_solve``.
* **injection-point confinement** — ``faults.hit(...)`` probes are test
  plumbing compiled into production code.  They are cheap and inert,
  but only while they stay rare and auditable: the sanctioned homes are
  the engine's fault boundaries and the faults module itself.  A
  ``hit()`` creeping into kernel or graph code would let a stray
  ``REPRO_FAULTS`` environment variable change solver behaviour — a
  determinism hazard RPL002 exists to prevent.

Like the other project rules, resolution is conservative: a submit
argument the model cannot resolve to a project function is left to
RPL004 (which already demands picklable module-level callables) rather
than guessed at.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.devtools.lint.base import ProjectRule, register_rule
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.project import ModuleInfo, ProjectContext

#: Where the discipline is enforced (tests may exercise internals, and
#: unit tests of the faults module call ``hit()`` on purpose).
SCOPE_PREFIXES = ("src/", "benchmarks/", "examples/")

#: The fault-injection module and its probe entry point.
FAULTS_MODULE = "repro.devtools.faults"
HIT_FUNCTION = "hit"

#: Files sanctioned to contain injection points: the engine's fault
#: boundaries and the harness itself.
DESIGNATED_FAULT_MODULES = frozenset(
    {
        "src/repro/api/engine.py",
        "src/repro/devtools/faults.py",
    }
)

#: Exception names accepted as a catch-all boundary handler.
BOUNDARY_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _is_submit_call(node: ast.Call) -> bool:
    return isinstance(node.func, ast.Attribute) and node.func.attr == "submit"


def _has_boundary_handler(fn_node: ast.AST) -> bool:
    """True when the function body contains an ``except Exception`` (or
    bare ``except``) handler."""
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            return True
        caught: List[ast.AST] = (
            list(node.type.elts) if isinstance(node.type, ast.Tuple) else [node.type]
        )
        for expr in caught:
            if isinstance(expr, ast.Name) and expr.id in BOUNDARY_EXCEPTION_NAMES:
                return True
            if (
                isinstance(expr, ast.Attribute)
                and expr.attr in BOUNDARY_EXCEPTION_NAMES
            ):
                return True
    return False


@register_rule
class FaultBoundaryRule(ProjectRule):
    code = "RPL009"
    name = "fault-boundary"
    description = (
        "pool-submitted callables must reach an except-Exception fault "
        "boundary through the call graph; faults.hit() injection points "
        "stay confined to the designated modules"
    )
    rationale = (
        "solve_many promises per-request error isolation: a worker entry "
        "point that lets an exception escape poisons future.result() for "
        "the whole batch — the exact failure mode PR 9 removed. The "
        "boundary may live in a helper (the engine's entry points delegate "
        "to _guarded_solve), so the proof walks the project call graph. "
        "Injection points are the other half of the contract: they are "
        "inert probes only while they stay confined to the engine's fault "
        "boundaries and the faults module, where a stray REPRO_FAULTS "
        "environment variable cannot reach solver kernels."
    )
    example = (
        "# bad: submitted callable propagates exceptions to the batch\n"
        "def _solve_payload(payload: str) -> str:\n"
        "    return solve(payload)  # raises -> poisons the whole batch\n"
        "pool.submit(_solve_payload, request.to_json())\n"
        "\n"
        "# good: every failure becomes an error report\n"
        "def _solve_payload(payload: str) -> str:\n"
        "    try:\n"
        "        return solve(payload)\n"
        "    except Exception as exc:\n"
        "        return error_report(exc).to_json()"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module_name in sorted(project.modules):
            info = project.modules[module_name]
            if not info.relpath.startswith(SCOPE_PREFIXES):
                continue
            yield from self._check_submits(project, info)
            if info.relpath not in DESIGNATED_FAULT_MODULES:
                yield from self._check_injection_points(project, info)

    # ------------------------------------------------------------------
    # boundary coverage for pool submissions
    # ------------------------------------------------------------------
    def _check_submits(
        self, project: ProjectContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Call) or not _is_submit_call(node):
                continue
            if not node.args:
                continue
            target = self._resolve_function(project, info.name, node.args[0])
            if target is None:
                continue  # RPL004's problem: unresolvable submit callables
            target_id = f"{target[0]}::{target[1]}"
            region = {target_id} | project.reachable(target_id)
            if any(self._node_has_boundary(project, reached) for reached in region):
                continue
            yield self.project_finding(
                info.relpath,
                node,
                f"pool-submitted callable {target[1]}() never reaches an "
                f"'except Exception' fault boundary through the call graph; "
                f"one raising request would poison the whole batch instead "
                f"of becoming a status=\"error\" report",
            )

    def _resolve_function(
        self, project: ProjectContext, module_name: str, arg: ast.AST
    ) -> Optional[Tuple[str, str]]:
        """Resolve a submit-call first argument to ``(module, qualname)``."""
        if isinstance(arg, ast.Name):
            resolved = project.resolve(module_name, arg.id)
            if resolved is not None and resolved[0] == "function":
                return resolved[1], resolved[2]
            return None
        if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name):
            binding = project.resolve(module_name, arg.value.id)
            if binding is not None and binding[0] == "module":
                resolved = project.resolve(binding[1], arg.attr)
                if resolved is not None and resolved[0] == "function":
                    return resolved[1], resolved[2]
        return None

    def _node_has_boundary(self, project: ProjectContext, node_id: str) -> bool:
        fn = self._function_info(project, node_id)
        return fn is not None and _has_boundary_handler(fn.node)

    @staticmethod
    def _function_info(project: ProjectContext, node_id: str):
        module_name, _, qualname = node_id.partition("::")
        info = project.modules.get(module_name)
        if info is None or not qualname:
            return None
        if "." in qualname:
            class_name, _, method_name = qualname.partition(".")
            cls = info.classes.get(class_name)
            return cls.methods.get(method_name) if cls is not None else None
        return info.functions.get(qualname)

    # ------------------------------------------------------------------
    # injection-point confinement
    # ------------------------------------------------------------------
    def _check_injection_points(
        self, project: ProjectContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_hit_call(project, info.name, node):
                continue
            yield self.project_finding(
                info.relpath,
                node,
                f"fault-injection point faults.hit() outside the designated "
                f"modules ({', '.join(sorted(DESIGNATED_FAULT_MODULES))}); "
                f"injection probes stay confined to the engine's fault "
                f"boundaries so REPRO_FAULTS can never reach solver kernels",
            )

    def _is_hit_call(
        self, project: ProjectContext, module_name: str, node: ast.Call
    ) -> bool:
        func = node.func
        if isinstance(func, ast.Name) and func.id == HIT_FUNCTION:
            resolved = project.resolve(module_name, func.id)
            return resolved == ("function", FAULTS_MODULE, HIT_FUNCTION)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == HIT_FUNCTION
            and isinstance(func.value, ast.Name)
        ):
            binding = project.resolve(module_name, func.value.id)
            return binding is not None and binding[0] == "module" and binding[1] == FAULTS_MODULE
        return False
