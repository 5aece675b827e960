"""RPL005 — shared-state safety for published graph snapshots.

The engine cache hands the *same* :class:`PreparedGraph` /
:class:`CSRBipartite` bundle to every solve of the same graph, and
``PreparedGraph.to_shm`` lets other processes map one bundle at once:
the whole design is sound only because those objects are immutable
once published.  That contract is documented in
``src/repro/graph/prepared.py`` / ``src/repro/graph/csr.py`` but was,
until this rule, enforced by review only.

The rule tracks every expression the project model can prove (or the
repository's naming convention claims) to be a prepared/CSR object —

* parameters and variables annotated ``PreparedGraph`` /
  ``CSRBipartite`` (``Optional[...]`` unwrapped, resolved through
  imports and re-exports),
* variables assigned from ``PreparedGraph(...)``,
  ``PreparedGraph.prepare(...)``, ``CSRBipartite.from_bipartite(...)``
  or any other ``TrackedClass.factory(...)`` call,
* the conventional names ``prepared`` and ``csr`` and attribute chains
  ending in ``.prepared`` / ``.csr``

— and flags post-construction mutation through them: attribute
assignment/``del``, element stores into the flat arrays (``keys``,
``indptr``, ``indices``, ``labels`` and the order-view arrays), and
in-place mutator calls (``append``/``sort``/``update`` …) on object or
array alike.

The *defining* modules are exempt: constructors, factories, the
shared-memory segment helpers and the internal memoisation caches
(``_orders``/``_views``/``_children``) live there by design, and
confining them is exactly what makes the contract checkable everywhere
else.

One check holds even inside the defining modules: element stores
through a ``SharedMemory.buf`` view are allowed only in the
``to_shm``/``from_shm`` protocol functions — every process that
attaches a segment reads the same bytes, so a stray write corrupts the
graph each of them rebuilds.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.devtools.lint.base import ProjectRule, register_rule
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.project import (
    ModuleInfo,
    ProjectContext,
    annotation_name,
)

#: ``(defining module, class name)`` pairs under the immutability contract.
TRACKED_CLASSES = (
    ("repro.graph.prepared", "PreparedGraph"),
    ("repro.graph.csr", "CSRBipartite"),
)

#: Files allowed to mutate: the classes' own constructors/factories,
#: memoisation caches and the shared-memory segment helpers live here.
DEFINING_MODULES = frozenset(
    {
        "src/repro/graph/prepared.py",
        "src/repro/graph/csr.py",
        "src/repro/graph/buffers.py",
    }
)

#: Roots where the contract is enforced (tests may exercise internals).
SCOPE_PREFIXES = ("src/", "benchmarks/", "examples/")

#: Conventional receiver names treated as tracked without proof.
CONVENTION_NAMES = frozenset({"prepared", "csr"})

#: Flat-array attributes shared by every solve of a cached snapshot: the
#: CSR adjacency, the label table, and the order-view arrays that
#: ``OrderView`` publishes.
ARRAY_ATTRS = frozenset(
    {
        "keys",
        "indptr",
        "indices",
        "labels",
        "row_ptr",
        "flat_positions",
        "order_ids",
        "positions",
    }
)

#: Functions allowed to write through a ``SharedMemory.buf`` view: the
#: segment producer and the attach-side rebuild.
SHM_WRITER_FUNCTIONS = frozenset({"to_shm", "from_shm"})

#: In-place mutator methods on lists/dicts/sets the flat arrays may be.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "remove",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "popitem",
        "add",
        "discard",
    }
)


def _receiver_text(node: ast.AST) -> str:
    """Stable dotted rendering of a receiver chain for messages."""
    parts: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        else:
            parts.append("[...]")
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("<expr>")
    return ".".join(reversed(parts)).replace(".[...]", "[...]")


@register_rule
class SharedStateRule(ProjectRule):
    code = "RPL005"
    name = "shared-state"
    description = (
        "no attribute/element mutation of PreparedGraph, CSRBipartite or "
        "their flat arrays outside their defining modules; shared-memory "
        "segment writes only inside to_shm/from_shm"
    )
    rationale = (
        "The engine cache publishes one PreparedGraph/CSRBipartite bundle to "
        "every solve of the same graph, and PreparedGraph.to_shm lets other "
        "processes map it through one shared-memory segment with no locking. That "
        "is only sound because the objects are immutable once constructed; a "
        "single post-publication mutation is a data race that surfaces as "
        "non-deterministic incumbents. This rule turns the written contract "
        "in graph/prepared.py into a machine-checked fact."
    )
    example = (
        "# bad: mutates a published snapshot's flat array\n"
        "def tweak(prepared: PreparedGraph) -> None:\n"
        "    prepared.csr.labels[0] = relabel(prepared.csr.labels[0])\n"
        "\n"
        "# good: derive a new residual snapshot instead\n"
        "def tweak(prepared: PreparedGraph) -> PreparedGraph:\n"
        "    return prepared.for_subgraph(relabelled_members)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module_name in sorted(project.modules):
            info = project.modules[module_name]
            if not info.relpath.startswith(SCOPE_PREFIXES):
                continue
            # The segment-write protocol is enforced everywhere — the
            # defining modules host ``to_shm``/``from_shm`` but get no
            # blanket licence to scribble on attached segments.
            yield from self._check_shm_writes(info)
            if info.relpath in DEFINING_MODULES:
                continue
            tracked = self._tracked_names(project, info)
            yield from self._check_module(info, tracked)

    # ------------------------------------------------------------------
    # shared-memory segment writes
    # ------------------------------------------------------------------
    def _check_shm_writes(self, info: ModuleInfo) -> Iterator[Finding]:
        """Flag stores through a ``SharedMemory.buf`` view.

        Every process that attaches a segment reads the same bytes, so
        the only sanctioned writers are the export/attach protocol
        functions (:data:`SHM_WRITER_FUNCTIONS`); a store anywhere else
        silently corrupts the graph every attacher rebuilds.  Both
        ``<segment>.buf[...]`` receivers and the conventional ``buf``
        local a protocol function binds are recognised.
        """

        def is_buf(node: ast.AST) -> bool:
            return (isinstance(node, ast.Attribute) and node.attr == "buf") or (
                isinstance(node, ast.Name) and node.id == "buf"
            )

        def store_targets(node: ast.AST) -> List[ast.AST]:
            if isinstance(node, ast.Assign):
                return list(node.targets)
            if isinstance(node, ast.AugAssign):
                return [node.target]
            if isinstance(node, ast.AnnAssign) and node.value is not None:
                return [node.target]
            if isinstance(node, ast.Delete):
                return list(node.targets)
            return []

        findings: List[Finding] = []

        def visit(node: ast.AST, allowed: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                allowed = allowed or node.name in SHM_WRITER_FUNCTIONS
            if not allowed:
                for target in store_targets(node):
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Subscript) and is_buf(sub.value):
                            findings.append(
                                self.project_finding(
                                    info.relpath,
                                    sub,
                                    f"store through "
                                    f"{_receiver_text(sub.value)}[...] writes a "
                                    f"shared-memory segment outside "
                                    f"to_shm/from_shm; segment bytes are owned "
                                    f"by the export/attach protocol (every "
                                    f"attacher reads them)",
                                )
                            )
            for child in ast.iter_child_nodes(node):
                visit(child, allowed)

        visit(info.ctx.tree, False)
        yield from findings

    # ------------------------------------------------------------------
    # receiver tracking
    # ------------------------------------------------------------------
    def _tracked_names(self, project: ProjectContext, info: ModuleInfo) -> Set[str]:
        """Names provably (or by convention) bound to tracked objects."""
        tracked: Set[str] = set(CONVENTION_NAMES)
        tracked_classes = set(TRACKED_CLASSES)

        def annotation_is_tracked(annotation: Optional[ast.AST]) -> bool:
            named = annotation_name(annotation)
            if named is None:
                return False
            head = named.split(".")[0]
            resolved = project.resolve_class(info.name, head)
            if resolved is None and "." in named:
                module_binding = project.resolve(info.name, head)
                if module_binding is not None and module_binding[0] == "module":
                    resolved = project.resolve_class(
                        module_binding[1], named.split(".", 1)[1]
                    )
            if resolved is None:
                # Unresolvable annotations still count when they *name*
                # a tracked class — string annotations under
                # ``TYPE_CHECKING`` guards must not escape the contract.
                return named.split(".")[-1] in {
                    cls for _module, cls in tracked_classes
                }
            return resolved in tracked_classes

        for node in ast.walk(info.ctx.tree):
            if isinstance(node, ast.arg):
                if annotation_is_tracked(node.annotation):
                    tracked.add(node.arg)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if annotation_is_tracked(node.annotation):
                    tracked.add(node.target.id)
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                func = node.value.func
                constructed: Optional[Tuple[str, str]] = None
                if isinstance(func, ast.Name):
                    constructed = project.resolve_class(info.name, func.id)
                elif isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    constructed = project.resolve_class(info.name, func.value.id)
                if constructed in tracked_classes:
                    tracked.add(node.targets[0].id)
        return tracked

    def _is_tracked(self, node: ast.AST, tracked: Set[str]) -> bool:
        """True when ``node`` denotes a tracked prepared/CSR object."""
        if isinstance(node, ast.Name):
            return node.id in tracked
        if isinstance(node, ast.Attribute):
            return node.attr in CONVENTION_NAMES
        return False

    def _is_tracked_array(self, node: ast.AST, tracked: Set[str]) -> bool:
        """True when ``node`` denotes a tracked object's flat array."""
        return (
            isinstance(node, ast.Attribute)
            and node.attr in ARRAY_ATTRS
            and self._is_tracked(node.value, tracked)
        )

    # ------------------------------------------------------------------
    # mutation detection
    # ------------------------------------------------------------------
    def _check_module(
        self, info: ModuleInfo, tracked: Set[str]
    ) -> Iterator[Finding]:
        findings: List[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(self.project_finding(info.relpath, node, message))

        def check_store_target(target: ast.AST) -> None:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    check_store_target(element)
                return
            if isinstance(target, ast.Attribute) and self._is_tracked(
                target.value, tracked
            ):
                flag(
                    target,
                    f"post-construction attribute assignment "
                    f"{_receiver_text(target.value)}.{target.attr} on shared "
                    f"prepared/CSR state; these objects are immutable once "
                    f"published (pool workers share them)",
                )
            elif isinstance(target, ast.Subscript):
                if self._is_tracked_array(target.value, tracked) or self._is_tracked(
                    target.value, tracked
                ):
                    flag(
                        target,
                        f"element store into {_receiver_text(target.value)}[...] "
                        f"mutates shared prepared/CSR state after construction; "
                        f"derive a new snapshot (e.g. for_subgraph) instead",
                    )

        for node in ast.walk(info.ctx.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    check_store_target(target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue
                check_store_target(node.target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    check_store_target(target)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                if node.func.attr in MUTATOR_METHODS and (
                    self._is_tracked_array(receiver, tracked)
                    or self._is_tracked(receiver, tracked)
                ):
                    flag(
                        node,
                        f"in-place mutator "
                        f"{_receiver_text(receiver)}.{node.func.attr}() on shared "
                        f"prepared/CSR state; these objects are immutable once "
                        f"published (pool workers share them)",
                    )
        yield from findings
