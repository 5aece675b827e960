"""RPL002 — determinism discipline in library code.

History: PR 4's bicore peel and its exact oracle diverged on tie-breaks
because an ordering was derived from hash-ordered iteration; solver
results must be a pure function of the input graph (plus an explicit
seed), never of hash randomisation or the wall clock.  ``solve_many``'s
process pool raises the stakes: under the ``spawn`` start method every
worker draws its own hash seed, so a hash-ordered result can differ
between workers and from the serial path, which is close to
undebuggable.

Three sub-checks, each scoped to where the hazard is real:

* **wall clock** — calls into :mod:`time` (``time``, ``perf_counter``,
  ``monotonic``, ``process_time`` and their ``_ns`` variants) and
  :class:`datetime.datetime` ``now``/``utcnow``/``today`` anywhere under
  ``src/`` except the allowlist that *owns* timing:
  ``src/repro/mbb/context.py`` (the budget clock),
  ``src/repro/api/engine.py`` (deadline computation) and
  ``src/repro/bench/`` (measurement is the point there);
* **unseeded random** — calls through the module-level :mod:`random`
  API (``random.random()``, ``random.shuffle()`` …, including
  ``random.seed()`` which mutates global state) anywhere under ``src/``;
  seeded ``random.Random(seed)`` instances are the sanctioned idiom;
* **unordered accumulation** — in the kernel modules
  (``src/repro/mbb/``, ``src/repro/cores/``, ``src/repro/graph/``),
  iterating directly over a provably set-typed expression (a set
  literal/comprehension, ``set(...)``/``frozenset(...)``, set-algebra
  calls, or ``&``/``|``/``-``/``^`` over those) into an
  ordering-sensitive sink: a ``for`` body that ``append``/``extend``-s
  or yields, a list comprehension, or a direct ``list(...)`` /
  ``tuple(...)`` materialisation.  Wrapping the set in ``sorted(...)``
  (with a total-order key) is the fix and naturally passes the rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.devtools.lint.base import FileContext, Rule, register_rule
from repro.devtools.lint.findings import Finding

WALL_CLOCK_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

DATETIME_FUNCTIONS = frozenset({"now", "utcnow", "today"})

#: Module-level ``random`` functions that consume the global PRNG.
GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "seed",
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
    }
)

#: Files allowed to read the wall clock (they implement budget/timing).
WALL_CLOCK_ALLOWLIST_FILES = frozenset(
    {"src/repro/mbb/context.py", "src/repro/api/engine.py"}
)
WALL_CLOCK_ALLOWLIST_PREFIXES = ("src/repro/bench",)

#: Modules where iteration order feeds orders, peels and incumbents.
KERNEL_MODULE_PREFIXES = ("src/repro/mbb", "src/repro/cores", "src/repro/graph")

SET_ALGEBRA_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

_ORDER_SENSITIVE_APPENDERS = frozenset({"append", "extend", "insert", "appendleft"})


def _is_set_expression(node: ast.AST) -> bool:
    """True when ``node`` provably evaluates to a set (conservative)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr in SET_ALGEBRA_METHODS:
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _has_order_sensitive_sink(body: list) -> bool:
    """True when a loop body accumulates into an ordered container."""
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _ORDER_SENSITIVE_APPENDERS
            ):
                return True
    return False


@register_rule
class DeterminismRule(Rule):
    code = "RPL002"
    name = "determinism"
    description = (
        "no wall clocks or unseeded random in library code; no set-order-"
        "dependent accumulation in kernel modules"
    )
    rationale = (
        "PR 4's bicore peel and its exact oracle diverged on tie-breaks "
        "because an ordering was derived from hash-ordered set iteration; "
        "solver results must be a pure function of the input graph plus an "
        "explicit seed. Wall clocks are confined to the modules that own "
        "timing (mbb/context.py, api/engine.py, bench/), the global random "
        "module is banned in favour of seeded random.Random(seed) instances, "
        "and kernel modules must not accumulate set iteration order into "
        "lists, tuples or yields."
    )
    example = (
        "# bad: hash-ordered iteration feeds an ordered accumulator\n"
        "order = [v for v in candidate_set]        # RPL002\n"
        "\n"
        "# good: total order made explicit\n"
        "order = sorted(candidate_set, key=vertex_key)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_library_code():
            yield from self._check_wall_clock(ctx)
            yield from self._check_global_random(ctx)
        if ctx.is_under(*KERNEL_MODULE_PREFIXES):
            yield from self._check_unordered_iteration(ctx)

    # ------------------------------------------------------------------
    # wall clock
    # ------------------------------------------------------------------
    def _check_wall_clock(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.relpath in WALL_CLOCK_ALLOWLIST_FILES:
            return
        if ctx.is_under(*WALL_CLOCK_ALLOWLIST_PREFIXES):
            return
        time_aliases, clock_names = _clock_bindings(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            clocked: Optional[str] = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
                and func.attr in WALL_CLOCK_FUNCTIONS
            ):
                clocked = f"{func.value.id}.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in clock_names:
                clocked = func.id
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in DATETIME_FUNCTIONS
                and _mentions_datetime(func.value)
            ):
                clocked = f"datetime.{func.attr}"
            if clocked is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {clocked}() outside the timing allowlist; "
                    "route timing through SearchContext "
                    "(checkpoint()/timed_stat()) or the bench harness",
                )

    # ------------------------------------------------------------------
    # unseeded random
    # ------------------------------------------------------------------
    def _check_global_random(self, ctx: FileContext) -> Iterator[Finding]:
        random_aliases, random_names = _random_bindings(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged: Optional[str] = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in random_aliases
                and func.attr in GLOBAL_RANDOM_FUNCTIONS
            ):
                flagged = f"{func.value.id}.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in random_names:
                flagged = func.id
            if flagged is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"global-PRNG call {flagged}(); use a seeded "
                    "random.Random(seed) instance so results are reproducible",
                )

    # ------------------------------------------------------------------
    # unordered accumulation
    # ------------------------------------------------------------------
    def _check_unordered_iteration(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expression(node.iter):
                if _has_order_sensitive_sink(node.body + node.orelse):
                    yield self.finding(
                        ctx,
                        node,
                        "iteration over a set feeds an ordering-sensitive "
                        "accumulation; iterate sorted(...) with a total-order "
                        "key instead",
                    )
            elif isinstance(node, ast.ListComp) and any(
                _is_set_expression(gen.iter) for gen in node.generators
            ):
                yield self.finding(
                    ctx,
                    node,
                    "list comprehension over a set captures arbitrary "
                    "iteration order; iterate sorted(...) with a total-order "
                    "key instead",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"list", "tuple"}
                and len(node.args) == 1
                and not node.keywords
                and _is_set_expression(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{node.func.id}(...) materialises a set's arbitrary "
                    "iteration order; use sorted(...) with a total-order key "
                    "instead",
                )


def _clock_bindings(tree: ast.Module) -> tuple:
    """Names bound to the time module / its clock functions by imports."""
    module_aliases: Set[str] = set()
    function_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_FUNCTIONS:
                    function_names.add(alias.asname or alias.name)
    return module_aliases, function_names


def _random_bindings(tree: ast.Module) -> tuple:
    """Names bound to the random module / its global functions by imports."""
    module_aliases: Set[str] = set()
    function_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    module_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name in GLOBAL_RANDOM_FUNCTIONS:
                    function_names.add(alias.asname or alias.name)
    return module_aliases, function_names


def _mentions_datetime(node: ast.AST) -> bool:
    """True when the attribute chain is rooted at a name ``datetime``/``date``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in {"datetime", "date"}
