"""RPL004 — worker-process safety: worker entries must pickle.

``solve_many`` runs batches on owned ``multiprocessing.Process`` lanes.
A lane's target and its arguments cross the process boundary and must
pickle under the ``spawn`` and ``forkserver`` start methods: lambdas,
closures and locally-defined functions do not, and the failure surfaces
as an opaque ``PicklingError`` when the worker starts — far cheaper to
catch statically.

A call ships work to a worker process when it is a ``Process(...)``
call (``multiprocessing.Process``, ``ctx.Process``, ...): the
``target=`` keyword is the callable, and ``args=`` and every other
argument are payloads.

Sub-checks:

* **worker callables** — the callable must not be a ``lambda`` or a
  function defined inside the enclosing function (both unpicklable);
  module-level callables pass.  Applies to every scanned file — tests
  that ship closures would break the same workers.
* **worker payloads** — the payloads must not contain ``lambda``
  expressions; payloads are expected to be picklable/JSON-serialisable
  values (the engine ships requests as their JSON wire form for exactly
  this reason).
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
        "Process(target=) targets must be module-level callables with "
        "picklable arguments"
    )
    rationale = (
        "solve_many runs each lane in its own worker process: the Process "
        "target and its arguments must pickle under the spawn and "
        "forkserver start methods. A lambda or closure pickles on no "
        "platform, and the failure only surfaces at runtime when the "
        "worker starts, far from the offending line."
    )
    example = (
        "# bad: a closure cannot cross a process boundary\n"
        "Process(target=lambda: serve(conn))               # RPL004\n"
        "\n"
        "# good: a picklable module-level callable\n"
        "Process(target=_lane_main, args=(conn,))"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
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
        target, payloads = entry
        if isinstance(target, ast.Lambda):
            yield self.finding(
                ctx,
                target,
                "Process(target=...) given a lambda; worker callables must be "
                "module-level functions so they pickle by reference",
            )
        elif isinstance(target, ast.Name) and target.id in local:
            yield self.finding(
                ctx,
                target,
                "Process(target=...) given a locally-defined callable; worker "
                "callables must be module-level functions so they pickle by "
                "reference",
            )
        for payload in payloads:
            if _contains_lambda(payload):
                yield self.finding(
                    ctx,
                    payload,
                    "Process(target=...) payload contains a lambda; payloads "
                    "must be picklable (prefer the JSON wire form)",
                )


#: ``(callable, payloads)``: what :func:`worker_call` reads off a call.
WorkerCall = Tuple[Optional[ast.expr], List[ast.expr]]


def worker_call(node: ast.AST) -> Optional[WorkerCall]:
    """``(callable, payloads)`` of a call that ships work to a worker.

    ``Process(target=fn, args=...)`` (any callee named ``Process``)
    qualifies; the callable is ``None`` when the call names none.  Any
    other node gives ``None``.  RPL009 proves the same callables reach a
    fault boundary.
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
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
    return target, payloads
