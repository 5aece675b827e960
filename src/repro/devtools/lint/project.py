"""The whole-project model behind reprolint's cross-file rules.

Per-file AST rules (RPL001-RPL004) can enforce invariants whose evidence
fits in one module.  The cross-file invariants do not: "does every
search entry point *reach* ``SearchContext.checkpoint()`` through its
callees", "is prepared/CSR state ever mutated after publication", "do
kernel layers stay import-clean of the service layers above them".
Those need one model of the project as a whole, built in a single pass
over every parsed file:

* a **module table** mapping root-relative paths to dotted module names
  (``src/repro/mbb/sparse.py`` → ``repro.mbb.sparse``; ``src/`` is the
  import root, other scan roots such as ``benchmarks/`` keep their
  directory as the package name);
* an **import graph** with alias resolution: every ``import``/``from``
  statement is recorded with its resolved absolute target, the name it
  binds in the module namespace, and whether it executes at module level
  (lazy function-body imports deliberately keep the *cycle* graph
  acyclic, so they are tracked but flagged separately);
* a per-module **symbol table** of classes (methods, base classes,
  dataclass fields) and functions;
* a conservative **call graph** over ``module::qualname`` nodes,
  resolving direct calls to local and imported names, ``module.func``
  calls through module aliases, ``self.method`` through the class and
  its project-resolvable bases, and ``obj.method`` where ``obj``'s class
  is known from a parameter annotation or a constructor assignment.
  Calls inside nested functions are attributed to the enclosing
  top-level function or method — a deliberate over-approximation that
  keeps reachability queries simple.  As a last resort an attribute call
  whose receiver type is unknown resolves by method name when exactly
  one project class defines that method (class-hierarchy-analysis
  lite).

Everything is computed deterministically (sorted iteration only), so two
runs over the same tree produce byte-identical reports — the property
the CI determinism check pins down.

The model is dependency-free by the same rule as the rest of reprolint:
:mod:`ast` plus the standard library, nothing else.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.lint.base import FileContext


def module_name_for(relpath: str) -> Optional[str]:
    """Dotted module name for a root-relative POSIX path, or ``None``.

    ``src/`` is treated as the import root (matching ``PYTHONPATH=src``);
    every other scan root (``tests/``, ``benchmarks/``, ``examples/``)
    keeps its directory name as the top-level package, which is how the
    test runner imports them.
    """
    if not relpath.endswith(".py"):
        return None
    parts = relpath.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    if not parts or not all(parts):
        return None
    return ".".join(parts)


@dataclass(frozen=True)
class ImportRecord:
    """One resolved import binding inside a module."""

    #: Absolute dotted name of the imported module.
    target: str
    #: Symbol taken from ``target`` (``None`` for a plain module import).
    symbol: Optional[str]
    #: Name the import binds in the importing namespace.
    alias: str
    #: 1-based line / 0-based column of the import statement.
    lineno: int
    col_offset: int
    #: ``True`` when the import executes at module import time (module
    #: level); ``False`` for lazy imports inside functions or methods.
    toplevel: bool


@dataclass
class FunctionInfo:
    """One function or method definition."""

    name: str
    #: ``func`` for module-level functions, ``Class.method`` for methods.
    qualname: str
    node: ast.AST
    lineno: int
    #: ``True`` when the scope (including nested defs) contains a
    #: ``for``/``while`` loop.
    has_loop: bool = False


@dataclass
class ClassInfo:
    """One class definition with the facts the cross-file rules need."""

    name: str
    node: ast.ClassDef
    lineno: int
    #: Base-class expressions as dotted source text (resolution happens
    #: through :meth:`ProjectContext.resolve`).
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    is_dataclass: bool = False
    #: Dataclass fields as ``(name, lineno)`` in declaration order
    #: (annotated class-body assignments, ``ClassVar`` excluded).
    fields: List[Tuple[str, int]] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Everything the project model knows about one parsed file."""

    relpath: str
    name: str
    ctx: FileContext
    imports: List[ImportRecord] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Namespace bindings established by imports: alias →
    #: ``("module", target)`` or ``("symbol", target_module, name)``.
    bindings: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


def _dotted(node: ast.AST) -> Optional[str]:
    """Source-level dotted name of a ``Name``/``Attribute`` chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Class name named by an annotation, unwrapping ``Optional[...]``.

    Handles ``X``, ``pkg.X``, string annotations ``"X"``, and one level
    of ``Optional[X]`` — the forms this repository uses for
    ``SearchContext`` / ``PreparedGraph`` parameters.  Anything richer
    resolves to ``None`` (conservative: no type claimed).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text if text.replace(".", "_").isidentifier() else None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(node)
    if isinstance(node, ast.Subscript):
        head = _dotted(node.value)
        if head in {"Optional", "typing.Optional"}:
            return annotation_name(node.slice)
    return None


class ProjectContext:
    """One-pass whole-repo index shared by every :class:`ProjectRule`.

    Construct with :meth:`build` from the runner's parsed
    :class:`~repro.devtools.lint.base.FileContext` list.
    """

    def __init__(self) -> None:
        #: Dotted module name → :class:`ModuleInfo`.
        self.modules: Dict[str, ModuleInfo] = {}
        #: Root-relative path → :class:`ModuleInfo`.
        self.by_path: Dict[str, ModuleInfo] = {}
        #: ``module::qualname`` → set of callee node ids.
        self.call_graph: Dict[str, Set[str]] = {}
        #: Method name → node ids of every project class defining it.
        self._methods_by_name: Dict[str, List[str]] = {}
        #: Nodes whose scope contains a loop.
        self.loop_nodes: Set[str] = set()
        #: Nodes on a call-graph cycle (direct or mutual recursion).
        self.recursive_nodes: Set[str] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, contexts: Iterable[FileContext]) -> "ProjectContext":
        """Index every parsed file and derive the call graph."""
        project = cls()
        for ctx in sorted(contexts, key=lambda c: c.relpath):
            name = module_name_for(ctx.relpath)
            if name is None:
                continue
            info = _index_module(ctx, name)
            project.modules[name] = info
            project.by_path[ctx.relpath] = info
        for module_name in sorted(project.modules):
            info = project.modules[module_name]
            for class_name in sorted(info.classes):
                for method in sorted(info.classes[class_name].methods):
                    project._methods_by_name.setdefault(method, []).append(
                        f"{module_name}::{class_name}.{method}"
                    )
        for module_name in sorted(project.modules):
            _build_call_edges(project, project.modules[module_name])
        project.recursive_nodes = _cyclic_nodes(project.call_graph)
        return project

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def resolve(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Tuple[str, str, str]]:
        """Resolve ``name`` in ``module``'s namespace.

        Returns ``(kind, defining_module, symbol)`` with ``kind`` one of
        ``"module"``, ``"class"`` or ``"function"``, chasing re-export
        chains (``from repro.graph.csr import CSRBipartite`` re-exported
        through ``repro/graph/__init__.py``) with a cycle guard.
        ``None`` means the name is local shadowing, external, or unknown
        — conservative callers treat that as "no claim".
        """
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None
        seen.add((module, name))
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.classes:
            return ("class", module, name)
        if name in info.functions:
            return ("function", module, name)
        binding = info.bindings.get(name)
        if binding is None:
            return None
        if binding[0] == "module":
            target = binding[1]
            return ("module", target, target)
        _, target_module, symbol = binding
        if target_module in self.modules:
            resolved = self.resolve(target_module, symbol, seen)
            if resolved is not None:
                return resolved
            # ``from pkg import sub`` spelled as a symbol import of a
            # submodule that exists in the table.
            candidate = f"{target_module}.{symbol}"
            if candidate in self.modules:
                return ("module", candidate, candidate)
            return None
        return None

    def resolve_class(self, module: str, name: str) -> Optional[Tuple[str, str]]:
        """Resolve ``name`` to ``(module, class)`` when it names a class."""
        resolved = self.resolve(module, name)
        if resolved is not None and resolved[0] == "class":
            return (resolved[1], resolved[2])
        return None

    def resolve_method(
        self,
        module: str,
        class_name: str,
        method: str,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Optional[str]:
        """Node id of ``method`` on ``class_name`` or its project bases."""
        seen = _seen if _seen is not None else set()
        if (module, class_name) in seen:
            return None
        seen.add((module, class_name))
        info = self.modules.get(module)
        if info is None:
            return None
        cls = info.classes.get(class_name)
        if cls is None:
            return None
        if method in cls.methods:
            return f"{module}::{class_name}.{method}"
        for base in cls.bases:
            head = base.split(".", 1)[0]
            resolved = self.resolve(module, head)
            if resolved is None or resolved[0] == "function":
                continue
            if resolved[0] == "class":
                found = self.resolve_method(resolved[1], resolved[2], method, seen)
            else:  # base spelled through a module alias, e.g. ``mod.Base``
                tail = base.split(".", 1)[1] if "." in base else None
                if tail is None:
                    continue
                found = self.resolve_method(resolved[1], tail, method, seen)
            if found is not None:
                return found
        return None

    def methods_named(self, method: str) -> List[str]:
        """Node ids of every project class method with this name."""
        return list(self._methods_by_name.get(method, ()))

    # ------------------------------------------------------------------
    # call-graph queries
    # ------------------------------------------------------------------
    def reachable(self, *roots: str) -> Set[str]:
        """All call-graph nodes reachable from ``roots`` (roots included)."""
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.call_graph or True]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.call_graph.get(node, ()))
        return seen

    # ------------------------------------------------------------------
    # import-graph queries
    # ------------------------------------------------------------------
    def internal_import_edges(self) -> Dict[str, List[str]]:
        """Module-level project-internal import edges, sorted.

        Only imports that execute at module import time participate:
        lazy function-body imports are this repository's sanctioned way
        of breaking potential cycles, so they must not create edges
        here.
        """
        edges: Dict[str, List[str]] = {}
        for name in sorted(self.modules):
            targets: Set[str] = set()
            for record in self.modules[name].imports:
                if not record.toplevel:
                    continue
                target = self._internal_target(record)
                if target is not None and target != name:
                    targets.add(target)
            edges[name] = sorted(targets)
        return edges

    def _internal_target(self, record: ImportRecord) -> Optional[str]:
        """Project module a record's import actually lands on, if any."""
        if record.target in self.modules:
            if record.symbol is not None:
                candidate = f"{record.target}.{record.symbol}"
                if candidate in self.modules:
                    return candidate
            return record.target
        return None

    def import_cycles(self) -> List[List[str]]:
        """Module-level import cycles in canonical deterministic order.

        Each cycle is a list of module names with the lexicographically
        smallest member first; the list of cycles is sorted.  Computed
        with Tarjan's SCC algorithm over the internal module-level
        import graph — an SCC of size > 1 (or a self-loop) is a cycle.
        """
        graph = self.internal_import_edges()
        cycles: List[List[str]] = []
        for component in _strongly_connected(graph):
            if len(component) > 1 or component[0] in graph.get(component[0], ()):
                smallest = min(component)
                index = component.index(smallest)
                cycles.append(component[index:] + component[:index])
        return sorted(cycles)


# ----------------------------------------------------------------------
# module indexing
# ----------------------------------------------------------------------
_DATACLASS_DECORATORS = {"dataclass", "dataclasses.dataclass"}


def _index_module(ctx: FileContext, name: str) -> ModuleInfo:
    info = ModuleInfo(relpath=ctx.relpath, name=name, ctx=ctx)
    _collect_imports(ctx.tree, name, info)
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(
                name=node.name,
                qualname=node.name,
                node=node,
                lineno=node.lineno,
                has_loop=_contains_loop(node),
            )
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = _index_class(node)
    return info


def _index_class(node: ast.ClassDef) -> ClassInfo:
    cls = ClassInfo(
        name=node.name,
        node=node,
        lineno=node.lineno,
        bases=[base for base in map(_dotted, node.bases) if base is not None],
        is_dataclass=_is_dataclass(node),
    )
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[item.name] = FunctionInfo(
                name=item.name,
                qualname=f"{node.name}.{item.name}",
                node=item,
                lineno=item.lineno,
                has_loop=_contains_loop(item),
            )
        elif (
            cls.is_dataclass
            and isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and not _is_classvar(item.annotation)
        ):
            cls.fields.append((item.target.id, item.lineno))
    return cls


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _dotted(target) in _DATACLASS_DECORATORS:
            return True
    return False


def _is_classvar(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return _dotted(annotation) in {"ClassVar", "typing.ClassVar"}


def _contains_loop(node: ast.AST) -> bool:
    return any(
        isinstance(sub, (ast.For, ast.AsyncFor, ast.While)) for sub in ast.walk(node)
    )


def _collect_imports(tree: ast.Module, module: str, info: ModuleInfo) -> None:
    package_parts = module.split(".")
    # The package context for relative imports: a module's own package.
    # ``__init__`` modules already *are* their package (their relpath
    # ends in ``__init__.py``, so ``module_name_for`` dropped the file).
    if not info.relpath.endswith("__init__.py"):
        package_parts = package_parts[:-1]
    toplevel_ids = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                info.imports.append(
                    ImportRecord(
                        target=alias.name,
                        symbol=None,
                        alias=bound,
                        lineno=node.lineno,
                        col_offset=node.col_offset,
                        toplevel=id(node) in toplevel_ids,
                    )
                )
                if alias.asname is not None:
                    info.bindings.setdefault(bound, ("module", alias.name))
                else:
                    info.bindings.setdefault(bound, ("module", bound))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - (node.level - 1)]
                if node.module:
                    base_parts = base_parts + node.module.split(".")
                target = ".".join(base_parts)
            else:
                target = node.module or ""
            if not target:
                continue
            for alias in node.names:
                if alias.name == "*":
                    info.imports.append(
                        ImportRecord(
                            target=target,
                            symbol=None,
                            alias="*",
                            lineno=node.lineno,
                            col_offset=node.col_offset,
                            toplevel=id(node) in toplevel_ids,
                        )
                    )
                    continue
                bound = alias.asname or alias.name
                info.imports.append(
                    ImportRecord(
                        target=target,
                        symbol=alias.name,
                        alias=bound,
                        lineno=node.lineno,
                        col_offset=node.col_offset,
                        toplevel=id(node) in toplevel_ids,
                    )
                )
                info.bindings.setdefault(bound, ("symbol", target, alias.name))


# ----------------------------------------------------------------------
# call-graph construction
# ----------------------------------------------------------------------
def _build_call_edges(project: ProjectContext, info: ModuleInfo) -> None:
    scopes: List[Tuple[str, Optional[str], FunctionInfo]] = []
    for fn_name in sorted(info.functions):
        scopes.append((f"{info.name}::{fn_name}", None, info.functions[fn_name]))
    for class_name in sorted(info.classes):
        cls = info.classes[class_name]
        for method_name in sorted(cls.methods):
            scopes.append(
                (
                    f"{info.name}::{class_name}.{method_name}",
                    class_name,
                    cls.methods[method_name],
                )
            )
    for node_id, class_name, fn in scopes:
        edges = _scope_edges(project, info, class_name, fn)
        project.call_graph[node_id] = edges
        if fn.has_loop:
            project.loop_nodes.add(node_id)


def _scope_edges(
    project: ProjectContext,
    info: ModuleInfo,
    class_name: Optional[str],
    fn: FunctionInfo,
) -> Set[str]:
    env = _scope_types(project, info, fn)
    aliases = _callable_aliases(project, info, fn)
    edges: Set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        edges.update(
            _call_targets(project, info, class_name, env, aliases, node.func)
        )
    return edges


def _scope_types(
    project: ProjectContext, info: ModuleInfo, fn: FunctionInfo
) -> Dict[str, Tuple[str, str]]:
    """Local variable → ``(module, class)`` facts for one scope."""
    env: Dict[str, Tuple[str, str]] = {}
    node = fn.node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        every = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
        for arg in every:
            named = annotation_name(arg.annotation)
            if named is None:
                continue
            resolved = project.resolve_class(info.name, named.split(".")[0])
            if resolved is None and "." in named:
                head, tail = named.split(".", 1)
                module_binding = project.resolve(info.name, head)
                if module_binding is not None and module_binding[0] == "module":
                    resolved = project.resolve_class(module_binding[1], tail)
            if resolved is not None:
                env[arg.arg] = resolved
    for sub in ast.walk(node):
        target_name: Optional[str] = None
        value: Optional[ast.AST] = None
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            if isinstance(sub.targets[0], ast.Name):
                target_name = sub.targets[0].id
                value = sub.value
        elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
            target_name = sub.target.id
            named = annotation_name(sub.annotation)
            if named is not None:
                resolved = project.resolve_class(info.name, named.split(".")[0])
                if resolved is not None:
                    env[target_name] = resolved
            value = sub.value
        if target_name is None or value is None:
            continue
        inferred = _constructed_class(project, info, value)
        if inferred is not None:
            env[target_name] = inferred
    return env


def _constructed_class(
    project: ProjectContext, info: ModuleInfo, value: ast.AST
) -> Optional[Tuple[str, str]]:
    """``(module, class)`` when ``value`` is ``Class(...)`` or ``Class.f(...)``.

    The classmethod-factory heuristic (``CSRBipartite.from_bipartite(g)``
    types as ``CSRBipartite``) over-claims for static helpers returning
    something else; acceptable for the conservative analyses built on
    top, which only ever use the facts to *add* call edges or widen a
    mutation check.
    """
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name):
        return project.resolve_class(info.name, func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return project.resolve_class(info.name, func.value.id)
    return None


def _callable_aliases(
    project: ProjectContext, info: ModuleInfo, fn: FunctionInfo
) -> Dict[str, Set[str]]:
    """Local name → function node ids, from ``f = g`` / ``f = g if c else h``."""
    aliases: Dict[str, Set[str]] = {}
    for sub in ast.walk(fn.node):
        if not (isinstance(sub, ast.Assign) and len(sub.targets) == 1):
            continue
        target = sub.targets[0]
        if not isinstance(target, ast.Name):
            continue
        candidates: List[ast.AST] = []
        if isinstance(sub.value, ast.IfExp):
            candidates = [sub.value.body, sub.value.orelse]
        elif isinstance(sub.value, ast.Name):
            candidates = [sub.value]
        resolved: Set[str] = set()
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                found = project.resolve(info.name, candidate.id)
                if found is not None and found[0] == "function":
                    resolved.add(f"{found[1]}::{found[2]}")
        if resolved:
            aliases.setdefault(target.id, set()).update(resolved)
    return aliases


def _call_targets(
    project: ProjectContext,
    info: ModuleInfo,
    class_name: Optional[str],
    env: Dict[str, Tuple[str, str]],
    aliases: Dict[str, Set[str]],
    func: ast.AST,
) -> Set[str]:
    targets: Set[str] = set()
    if isinstance(func, ast.Name):
        if func.id in aliases:
            targets.update(aliases[func.id])
        resolved = project.resolve(info.name, func.id)
        if resolved is not None:
            kind, target_module, symbol = resolved
            if kind == "function":
                targets.add(f"{target_module}::{symbol}")
            elif kind == "class":
                targets.add(f"{target_module}::{symbol}")
        return targets
    if not isinstance(func, ast.Attribute):
        return targets
    method = func.attr
    receiver = func.value
    if isinstance(receiver, ast.Name):
        if receiver.id == "self" and class_name is not None:
            found = project.resolve_method(info.name, class_name, method)
            if found is not None:
                targets.add(found)
                return targets
        if receiver.id in env:
            module, cls = env[receiver.id]
            found = project.resolve_method(module, cls, method)
            if found is not None:
                targets.add(found)
                return targets
        resolved = project.resolve(info.name, receiver.id)
        if resolved is not None:
            kind, target_module, symbol = resolved
            if kind == "module":
                inner = project.resolve(target_module, method)
                if inner is not None and inner[0] in {"function", "class"}:
                    targets.add(f"{inner[1]}::{inner[2]}")
                    return targets
            elif kind == "class":
                found = project.resolve_method(target_module, symbol, method)
                if found is not None:
                    targets.add(found)
                    return targets
    # Unknown receiver: fall back to the unique project method with this
    # name, if any (CHA-lite; skipped for ambiguous names like to_dict).
    named = project.methods_named(method)
    if len(named) == 1:
        targets.add(named[0])
    return targets


# ----------------------------------------------------------------------
# graph algorithms
# ----------------------------------------------------------------------
def _strongly_connected(graph: Dict[str, Sequence[str]]) -> List[List[str]]:
    """Tarjan SCCs, iterative, deterministic (sorted roots and edges)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    def visit(root: str) -> None:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work.pop()
            if edge_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            neighbours = sorted(graph.get(node, ()))
            recurse = False
            for position in range(edge_index, len(neighbours)):
                neighbour = neighbours[position]
                if neighbour not in graph:
                    continue
                if neighbour not in index:
                    work.append((node, position + 1))
                    work.append((neighbour, 0))
                    recurse = True
                    break
                if neighbour in on_stack:
                    lowlink[node] = min(lowlink[node], index[neighbour])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return components


def _cyclic_nodes(graph: Dict[str, Set[str]]) -> Set[str]:
    """Nodes on any call-graph cycle (self-loops included)."""
    cyclic: Set[str] = set()
    for component in _strongly_connected({k: sorted(v) for k, v in graph.items()}):
        if len(component) > 1:
            cyclic.update(component)
        elif component[0] in graph.get(component[0], ()):
            cyclic.add(component[0])
    return cyclic
