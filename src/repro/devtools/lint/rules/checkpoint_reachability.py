"""RPL006 — interprocedural checkpoint reachability for search entry points.

RPL001 polices the *mechanics* per file (no hand-rolled budget math);
this rule proves the *coverage* property that actually matters for
cancellation and for ``solve_many``'s pool watchdog: every search
entry point in ``src/repro/mbb/`` whose work is unbounded — it reaches a
loop or recursion through its call graph — must also reach
``SearchContext.checkpoint()`` (or its superset ``enter_node()``)
through that same call graph.  An entry point that spins without
polling can neither honour a deadline nor observe a cancel hook, so a
pool worker running it can only be stopped by killing the process;
exactly this bug shipped twice before the per-seed/per-subgraph
polls landed in PR 3.

**Entry point** means a module-level function that marks a
budget-enforcement boundary by one of the two idioms this repository
uses: it constructs ``SearchContext(...)`` itself, or it catches
``SearchAborted``.  Helpers that merely *take* a context (``greedy
extend``, the polynomial-case solvers …) are their callers'
responsibility and are not flagged — the reachability proof happens at
the boundary.

The proof is conservative on the safe side: the call graph resolves
direct, imported, aliased (``search = _bits if ... else _sets``),
``self.``- and annotation-typed method calls, so a checkpoint buried two
helpers deep still counts; an entry point whose region provably lacks
any loop or recursion (straight-line dispatch) is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.devtools.lint.base import ProjectRule, register_rule
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.project import ProjectContext

#: Where the search drivers live (the budget-enforcement surface).
MBB_PREFIX = "src/repro/mbb/"

#: The budget mechanism itself is exempt (it *is* the checkpoint).
EXCLUDED_FILES = frozenset({"src/repro/mbb/context.py"})

CONTEXT_MODULE = "repro.mbb.context"
CONTEXT_CLASS = "SearchContext"
ABORT_CLASS = "SearchAborted"

#: Call-graph nodes that count as polling the budget.
CHECKPOINT_NODES = frozenset(
    {
        f"{CONTEXT_MODULE}::{CONTEXT_CLASS}.checkpoint",
        f"{CONTEXT_MODULE}::{CONTEXT_CLASS}.enter_node",
    }
)


@register_rule
class CheckpointReachabilityRule(ProjectRule):
    code = "RPL006"
    name = "checkpoint-reachability"
    description = (
        "every loop-bearing search entry point in mbb/ must reach "
        "SearchContext.checkpoint()/enter_node() through the call graph"
    )
    rationale = (
        "Deadlines, node budgets and cross-worker cancel hooks only work if "
        "the search polls SearchContext.checkpoint() inside its hot path. "
        "PR 3 fixed two drivers that ignored their budgets until S3 because "
        "no poll was reachable from the entry point; a per-file heuristic "
        "cannot see a checkpoint that lives two helpers deep in another "
        "module. This rule walks the whole-project call graph from each "
        "budget-enforcement boundary (a function that constructs "
        "SearchContext or catches SearchAborted) and demands a reachable "
        "poll whenever the region contains a loop or recursion."
    )
    example = (
        "# bad: budgeted loop, but no poll reachable from the entry point\n"
        "def my_search(graph):\n"
        "    context = SearchContext(time_budget=5.0)\n"
        "    for seed in seeds(graph):\n"
        "        expand(seed)            # expand() never checkpoints\n"
        "\n"
        "# good: the helper polls, the proof goes through the call graph\n"
        "def expand(seed, context):\n"
        "    context.checkpoint()\n"
        "    ..."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module_name in sorted(project.modules):
            info = project.modules[module_name]
            if not info.relpath.startswith(MBB_PREFIX):
                continue
            if info.relpath in EXCLUDED_FILES:
                continue
            for fn_name in sorted(info.functions):
                fn = info.functions[fn_name]
                node_id = f"{module_name}::{fn_name}"
                if not self._is_entry_point(project, module_name, fn.node, node_id):
                    continue
                region = project.reachable(node_id)
                if not self._region_has_unbounded_work(project, region):
                    continue
                if region & CHECKPOINT_NODES:
                    continue
                yield self.project_finding(
                    info.relpath,
                    fn.node,
                    f"search entry point {fn_name}() constructs SearchContext "
                    f"or handles SearchAborted but never reaches "
                    f"SearchContext.checkpoint()/enter_node() through its call "
                    f"graph; budgets and cancel hooks are dead in its loops",
                )

    # ------------------------------------------------------------------
    # entry-point detection
    # ------------------------------------------------------------------
    def _is_entry_point(
        self,
        project: ProjectContext,
        module_name: str,
        fn_node: ast.AST,
        node_id: str,
    ) -> bool:
        if self._constructs_context(project, node_id):
            return True
        return self._handles_abort(project, module_name, fn_node)

    def _constructs_context(self, project: ProjectContext, node_id: str) -> bool:
        context_node = f"{CONTEXT_MODULE}::{CONTEXT_CLASS}"
        return context_node in project.call_graph.get(node_id, set())

    def _handles_abort(
        self, project: ProjectContext, module_name: str, fn_node: ast.AST
    ) -> bool:
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught: List[ast.AST] = (
                list(node.type.elts)
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for expr in caught:
                if isinstance(expr, ast.Name):
                    resolved = project.resolve(module_name, expr.id)
                    if resolved == ("class", CONTEXT_MODULE, ABORT_CLASS):
                        return True
                elif isinstance(expr, ast.Attribute) and expr.attr == ABORT_CLASS:
                    return True
        return False

    # ------------------------------------------------------------------
    # unbounded-work test
    # ------------------------------------------------------------------
    def _region_has_unbounded_work(
        self, project: ProjectContext, region: Set[str]
    ) -> bool:
        return any(
            node in project.loop_nodes or node in project.recursive_nodes
            for node in region
        )
