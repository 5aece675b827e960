"""RPL004 — process-pool safety: submissions and hooks must pickle.

History: ``solve_many`` runs batches over a
:class:`ProcessPoolExecutor`.  Anything that crosses the process
boundary must pickle: lambdas, closures and locally-defined functions
do not, and the failure surfaces as an opaque ``PicklingError`` inside
a worker — far cheaper to catch statically.

Sub-checks:

* **pool callables** — the first argument of a ``.submit(...)`` call
  must not be a ``lambda`` or a function defined inside the enclosing
  function (both unpicklable); module-level callables pass.  Applies to
  every scanned file — tests that submit closures would hang the same
  pool.
* **pool payloads** — the remaining ``submit`` arguments must not
  contain ``lambda`` expressions; payloads are expected to be
  picklable/JSON-serialisable values (the engine ships requests as their
  JSON wire form for exactly this reason).
* **cancel hooks** — in library code (``src/repro/``), assigning a
  ``lambda`` (or passing ``cancel_hook=lambda ...``) to
  :attr:`repro.mbb.context.SearchContext.cancel_hook` is flagged: a
  context carrying a closure can never be handed to ``solve_many``'s
  pool workers.  Module-level callable *objects* (a class with
  ``__call__`` holding its state in attributes) are the sanctioned
  replacement and pass.  Tests may use lambdas — a test context never
  crosses a process boundary.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.devtools.lint.base import FileContext, Rule, register_rule
from repro.devtools.lint.findings import Finding


def _locally_defined_callables(function: ast.AST) -> Set[str]:
    """Names bound to nested functions/lambdas inside ``function``."""
    local: Set[str] = set()
    for node in ast.walk(function):
        if node is function:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
    return local


def _contains_lambda(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Lambda) for sub in ast.walk(node))


@register_rule
class PoolSafetyRule(Rule):
    code = "RPL004"
    name = "pool-safety"
    description = (
        "pool submissions must be module-level callables with picklable "
        "payloads; library cancel hooks must not be lambdas/closures"
    )
    rationale = (
        "solve_many ships work to a ProcessPoolExecutor: anything submitted "
        "must pickle, and so must any cancel hook a pooled search carries. A "
        "lambda or closure pickles on no platform, and the failure only "
        "surfaces at runtime inside the pool, far from the offending line. "
        "PR 6 replaced the engine's closure cancel hooks with the picklable "
        "module-level callables (_ParentCancelled/_AnyHook/_TargetSideReached) "
        "this rule now protects."
    )
    example = (
        "# bad: closures cannot cross a process boundary\n"
        "context.cancel_hook = lambda: parent.cancelled   # RPL004\n"
        "\n"
        "# good: a picklable module-level callable object\n"
        "context.cancel_hook = _ParentCancelled(parent_id)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_submissions(ctx)
        if ctx.is_library_code():
            yield from self._check_cancel_hooks(ctx)

    # ------------------------------------------------------------------
    # pool submissions
    # ------------------------------------------------------------------
    def _check_submissions(self, ctx: FileContext) -> Iterator[Finding]:
        # Walk function by function so "locally defined" has the right
        # scope; module-level submit calls only see module-level names.
        functions: List[ast.AST] = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        seen: Set[int] = set()
        for function in functions:
            local = _locally_defined_callables(function)
            for node in ast.walk(function):
                if _is_submit_call(node) and id(node) not in seen:
                    seen.add(id(node))
                    yield from self._check_one_submit(ctx, node, local)
        for node in ast.walk(ctx.tree):
            if _is_submit_call(node) and id(node) not in seen:
                yield from self._check_one_submit(ctx, node, set())

    def _check_one_submit(
        self, ctx: FileContext, call: ast.Call, local: Set[str]
    ) -> Iterator[Finding]:
        if call.args:
            target = call.args[0]
            if isinstance(target, ast.Lambda):
                yield self.finding(
                    ctx,
                    target,
                    "submit() given a lambda; pool callables must be "
                    "module-level functions so they pickle by reference",
                )
            elif isinstance(target, ast.Name) and target.id in local:
                yield self.finding(
                    ctx,
                    target,
                    "submit() given a locally-defined callable; pool "
                    "callables must be module-level functions so they pickle "
                    "by reference",
                )
        payloads = list(call.args[1:]) + [kw.value for kw in call.keywords]
        for payload in payloads:
            if _contains_lambda(payload):
                yield self.finding(
                    ctx,
                    payload,
                    "submit() payload contains a lambda; payloads must be "
                    "picklable (prefer the JSON wire form)",
                )

    # ------------------------------------------------------------------
    # cancel hooks
    # ------------------------------------------------------------------
    def _check_cancel_hooks(self, ctx: FileContext) -> Iterator[Finding]:
        message = (
            "cancel_hook bound to a lambda/closure is unpicklable across "
            "process pools; use a module-level callable object"
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "cancel_hook"
                    ):
                        yield self.finding(ctx, node.value, message)
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "cancel_hook" and isinstance(
                        keyword.value, ast.Lambda
                    ):
                        yield self.finding(ctx, keyword.value, message)


def _is_submit_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "submit"
    )
