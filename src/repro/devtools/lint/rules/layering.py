"""RPL007 — layering and import-cycle discipline.

The package is layered ``graph → cores → mbb → baselines/api →
cli/bench``: the kernel layers at the bottom must stay importable (and
testable, and picklable for pool workers) without dragging in the
service layers above them.  A kernel module that imports ``repro.api``
couples solver internals to engine policy, breaks the
dependency-injection seam the engine registry provides, and — the
concrete hazard for ``solve_many``'s pool — makes worker processes
import the whole service stack just to unpickle a kernel callable.

Two checks:

* **layering** — modules under ``repro.graph``, ``repro.cores`` and
  ``repro.mbb`` must not import ``repro.api``, ``repro.cli`` or
  ``repro.bench``.  *Every* import statement counts, including lazy
  function-level ones: a lazy import hides the coupling from the module
  graph but still executes in the worker.  (The fix is dependency
  inversion — the kernel module exposes a registration hook the upper
  layer fills in; see ``repro.mbb.solver.register_engine``.)
* **cycles** — no module-level import cycles anywhere in the scanned
  tree, found as strongly connected components of the import graph.
  Only imports that execute at module import time participate: lazy
  body-level imports are this repository's sanctioned idiom for
  acyclic-by-construction back-references (``graph/prepared.py`` →
  ``repro.cores``), so they must not count as cycle edges.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.devtools.lint.base import ProjectRule, register_rule
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.project import ImportRecord, ModuleInfo, ProjectContext

#: Kernel layers that must stay clean of the service layers.
PROTECTED_PREFIXES = ("repro.graph", "repro.cores", "repro.mbb")

#: Service layers the kernel layers must not import.
FORBIDDEN_PREFIXES = ("repro.api", "repro.cli", "repro.bench")


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _forbidden_target(record: ImportRecord) -> Optional[str]:
    """The forbidden module a record imports, if any."""
    candidates = [record.target]
    if record.symbol is not None:
        candidates.append(f"{record.target}.{record.symbol}")
    for candidate in candidates:
        for prefix in FORBIDDEN_PREFIXES:
            if _under(candidate, prefix):
                return candidate
    return None


@register_rule
class LayeringRule(ProjectRule):
    code = "RPL007"
    name = "layering"
    description = (
        "graph/cores/mbb must not import api/cli/bench; no module-level "
        "import cycles anywhere"
    )
    rationale = (
        "The kernel layers (graph, cores, mbb) are the bottom of the stack: "
        "pool workers import them standalone, and the engine/api layer is "
        "swapped in through explicit registration, not imports. An upward "
        "import — even a lazy one inside a function — couples kernel "
        "internals to service policy and forces worker processes to load "
        "the full service stack. Module-level import cycles additionally "
        "make initialisation order fragile (partially-initialised modules) "
        "and are banned outright; the sanctioned back-reference idiom is a "
        "lazy function-level import, which this rule deliberately exempts "
        "from the cycle check."
    )
    example = (
        "# bad (in repro/mbb/solver.py): upward import, even lazily\n"
        "def solve_mbb(graph, **options):\n"
        "    from repro.api.engine import MBBEngine   # RPL007\n"
        "    return MBBEngine().solve_graph(graph, **options)\n"
        "\n"
        "# good: dependency inversion — the upper layer registers itself\n"
        "_ENGINE_SOLVE = None\n"
        "def register_engine(solve):\n"
        "    global _ENGINE_SOLVE\n"
        "    _ENGINE_SOLVE = solve\n"
        "def solve_mbb(graph, **options):\n"
        "    return _ENGINE_SOLVE(graph, **options)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        yield from self._check_layering(project)
        yield from self._check_cycles(project)

    # ------------------------------------------------------------------
    # layering
    # ------------------------------------------------------------------
    def _check_layering(self, project: ProjectContext) -> Iterator[Finding]:
        for module_name in sorted(project.modules):
            if not any(_under(module_name, p) for p in PROTECTED_PREFIXES):
                continue
            info = project.modules[module_name]
            for record in sorted(
                info.imports, key=lambda r: (r.lineno, r.col_offset, r.target)
            ):
                forbidden = _forbidden_target(record)
                if forbidden is None:
                    continue
                lazy = "" if record.toplevel else " (lazy import)"
                yield self.line_finding(
                    info.relpath,
                    record.lineno,
                    record.col_offset + 1,
                    f"layering violation: {module_name} imports {forbidden}"
                    f"{lazy}; kernel layers (graph/cores/mbb) must not depend "
                    f"on api/cli/bench — invert the dependency via a "
                    f"registration hook",
                )

    # ------------------------------------------------------------------
    # cycles
    # ------------------------------------------------------------------
    def _check_cycles(self, project: ProjectContext) -> Iterator[Finding]:
        for cycle in project.import_cycles():
            closure = " -> ".join(cycle + [cycle[0]])
            anchor_module = project.modules[cycle[0]]
            successor = cycle[1] if len(cycle) > 1 else cycle[0]
            lineno, column = self._edge_anchor(project, anchor_module, successor)
            yield self.line_finding(
                anchor_module.relpath,
                lineno,
                column,
                f"module-level import cycle: {closure}; break it by moving "
                f"one edge to a lazy function-level import or extracting the "
                f"shared piece into a lower module",
            )

    @staticmethod
    def _edge_anchor(
        project: ProjectContext, info: ModuleInfo, successor: str
    ) -> tuple:
        """Line/column of the first module-level import landing on ``successor``."""
        for record in sorted(info.imports, key=lambda r: (r.lineno, r.col_offset)):
            if not record.toplevel:
                continue
            if project._internal_target(record) == successor:
                return record.lineno, record.col_offset + 1
        return 1, 1
