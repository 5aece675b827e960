"""RPL004 — worker-process safety: worker entries and hooks must pickle.

History: ``solve_many`` ran batches over a
:class:`~concurrent.futures.ProcessPoolExecutor` and now runs them on
owned ``multiprocessing.Process`` lanes.  Anything that crosses the
process boundary must pickle under the ``spawn`` and ``forkserver``
start methods: lambdas, closures and locally-defined functions do not,
and the failure surfaces as an opaque ``PicklingError`` when the worker
starts — far cheaper to catch statically.

A call ships work to a worker process when it is a ``.submit(...)`` call
(the first argument is the callable, the rest are payloads) or a
``Process(...)`` call (``multiprocessing.Process``, ``ctx.Process``,
...: the ``target=`` keyword is the callable, and ``args=`` and every
other argument are payloads).

Sub-checks:

* **worker callables** — the callable must not be a ``lambda`` or a
  function defined inside the enclosing function (both unpicklable);
  module-level callables pass.  Applies to every scanned file — tests
  that ship closures would break the same workers.
* **worker payloads** — the payloads must not contain ``lambda``
  expressions; payloads are expected to be picklable/JSON-serialisable
  values (the engine ships requests as their JSON wire form for exactly
  this reason).
* **cancel hooks** — in library code (``src/repro/``), assigning a
  ``lambda`` (or passing ``cancel_hook=lambda ...``) to
  :attr:`repro.mbb.context.SearchContext.cancel_hook` is flagged: a
  context carrying a closure can never be handed to ``solve_many``'s
  worker processes.  Module-level callable *objects* (a class with
  ``__call__`` holding its state in attributes) are the sanctioned
  replacement and pass.  Tests may use lambdas — a test context never
  crosses a process boundary.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

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
        "callables shipped to worker processes (submit(), Process(target=)) "
        "must be module-level with picklable payloads; library cancel hooks "
        "must not be lambdas/closures"
    )
    rationale = (
        "solve_many ships work to worker processes: a Process target, a "
        "submitted callable and its arguments must pickle, and so must any "
        "cancel hook a worker's search carries. A lambda or closure pickles "
        "on no platform, and the failure only surfaces at runtime when the "
        "worker starts, far from the offending line. The size-constrained "
        "backend's cancel hooks are picklable module-level callables "
        "(_ParentCancelled/_AnyHook/_TargetSideReached) for this reason."
    )
    example = (
        "# bad: closures cannot cross a process boundary\n"
        "context.cancel_hook = lambda: parent.cancelled   # RPL004\n"
        "Process(target=lambda: serve(conn))               # RPL004\n"
        "\n"
        "# good: picklable module-level callables\n"
        "context.cancel_hook = _ParentCancelled(parent_id)\n"
        "Process(target=_lane_main, args=(conn,))"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_worker_calls(ctx)
        if ctx.is_library_code():
            yield from self._check_cancel_hooks(ctx)

    # ------------------------------------------------------------------
    # worker calls
    # ------------------------------------------------------------------
    def _check_worker_calls(self, ctx: FileContext) -> Iterator[Finding]:
        # Walk function by function so "locally defined" has the right
        # scope; module-level calls only see module-level names.
        functions: List[ast.AST] = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        seen: Set[int] = set()
        for function in functions:
            local = _locally_defined_callables(function)
            for node in ast.walk(function):
                entry = worker_call(node)
                if entry is not None and id(node) not in seen:
                    seen.add(id(node))
                    yield from self._check_one_call(ctx, entry, local)
        for node in ast.walk(ctx.tree):
            entry = worker_call(node)
            if entry is not None and id(node) not in seen:
                yield from self._check_one_call(ctx, entry, set())

    def _check_one_call(
        self, ctx: FileContext, entry: "WorkerCall", local: Set[str]
    ) -> Iterator[Finding]:
        label, target, payloads = entry
        if isinstance(target, ast.Lambda):
            yield self.finding(
                ctx,
                target,
                f"{label} given a lambda; worker callables must be "
                f"module-level functions so they pickle by reference",
            )
        elif isinstance(target, ast.Name) and target.id in local:
            yield self.finding(
                ctx,
                target,
                f"{label} given a locally-defined callable; worker callables "
                f"must be module-level functions so they pickle by reference",
            )
        for payload in payloads:
            if _contains_lambda(payload):
                yield self.finding(
                    ctx,
                    payload,
                    f"{label} payload contains a lambda; payloads must be "
                    f"picklable (prefer the JSON wire form)",
                )

    # ------------------------------------------------------------------
    # cancel hooks
    # ------------------------------------------------------------------
    def _check_cancel_hooks(self, ctx: FileContext) -> Iterator[Finding]:
        message = (
            "cancel_hook bound to a lambda/closure is unpicklable across "
            "process boundaries; use a module-level callable object"
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


#: ``(label, callable, payloads)``: what :func:`worker_call` reads off a call.
WorkerCall = Tuple[str, Optional[ast.expr], List[ast.expr]]


def worker_call(node: ast.AST) -> Optional[WorkerCall]:
    """``(label, callable, payloads)`` of a call that ships work to a worker.

    ``.submit(fn, *payloads)`` and ``Process(target=fn, args=...)`` (any
    callee named ``Process``) qualify; the callable is ``None`` when the
    call names none.  Any other node gives ``None``.  RPL009 proves the
    same callables reach a fault boundary.
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "submit":
        payloads = list(node.args[1:]) + [keyword.value for keyword in node.keywords]
        return "submit()", node.args[0] if node.args else None, payloads
    callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if callee != "Process":
        return None
    target = None
    payloads = list(node.args)
    for keyword in node.keywords:
        if keyword.arg == "target":
            target = keyword.value
        else:
            payloads.append(keyword.value)
    return "Process(target=...)", target, payloads
