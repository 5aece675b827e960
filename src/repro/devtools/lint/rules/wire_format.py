"""RPL008 — wire-format drift between dataclasses and their JSON codecs.

``SolveRequest`` / ``SolveReport`` / ``GraphSpec`` are the repository's
wire format: batch files, sweep outputs and archived benchmark JSON all
round-trip through their ``to_dict`` / ``from_dict`` pairs, and the
documented contract is *lossless* (``from_dict(to_dict(x)) == x``).
That contract silently forks the moment someone adds a dataclass field
and forgets one side of the codec — the field serialises as missing (or
deserialises to its default) and no test notices until an archived file
is reloaded months later.

The rule discovers every dataclass in ``src/`` that defines **both**
``to_dict`` and ``from_dict`` (opt-in by shape: a one-way exporter like
``BackendInfo.to_dict`` is not a round-trip contract) and checks each
side:

* ``to_dict`` covers all fields if it iterates ``fields(self)`` /
  ``fields(cls)`` or calls ``asdict(self)`` (the generic idiom);
  otherwise the union of its literal dict keys and ``payload["k"] = …``
  subscript stores must include every dataclass field, and every
  written key must be backed by a field;
* ``from_dict`` covers all fields if it splats ``cls(**data)``;
  otherwise its explicit constructor keywords, ``payload["k"]``
  subscript reads and ``payload.get("k")`` calls must include every
  field.

Findings are per field: every field one side of a codec drops is its
own finding, so fixing one drift cannot hide the next.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.devtools.lint.base import ProjectRule, register_rule
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.project import ClassInfo, ProjectContext

#: Where round-trip codecs are contractual (library code only).
SCOPE_PREFIX = "src/"

_GENERIC_INTROSPECTORS = frozenset({"fields", "asdict"})


def _dict_keys_written(fn_node: ast.AST) -> Set[str]:
    """String keys a method writes via dict literals or subscript stores."""
    keys: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys


def _keys_read(fn_node: ast.AST) -> Set[str]:
    """Field names a from_dict reads: kwargs, subscripts, ``.get`` calls."""
    keys: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    keys.add(keyword.arg)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                keys.add(node.args[0].value)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
    return keys


def _uses_generic_introspection(fn_node: ast.AST) -> bool:
    """True for the ``fields(self)`` / ``asdict(self)`` idiom."""
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _GENERIC_INTROSPECTORS:
            return True
    return False


def _splats_kwargs(fn_node: ast.AST) -> bool:
    """True when any call splats ``**payload`` (the ``cls(**data)`` idiom)."""
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Call) and any(
            keyword.arg is None for keyword in node.keywords
        ):
            return True
    return False


@register_rule
class WireFormatRule(ProjectRule):
    code = "RPL008"
    name = "wire-format"
    description = (
        "dataclass fields must be covered by their to_dict/from_dict pair "
        "(SolveRequest/SolveReport/GraphSpec wire format cannot drift)"
    )
    rationale = (
        "Batch files, sweep outputs and archived benchmark JSON round-trip "
        "through the to_dict/from_dict pairs of the wire dataclasses, and "
        "the documented contract is lossless. Adding a field while "
        "forgetting one side of the codec silently forks the JSON schema "
        "from the dataclass: the value vanishes on write or resets to a "
        "default on read, and nothing fails until an archived file is "
        "reloaded. The rule checks field coverage of both directions for "
        "every dataclass in src/ that ships a round-trip pair."
    )
    example = (
        "@dataclass(frozen=True)\n"
        "class SolveReport:\n"
        "    left: int\n"
        "    order_seconds: float      # new field ...\n"
        "    def to_dict(self):\n"
        "        return {'left': self.left}   # RPL008: order_seconds missing\n"
        "\n"
        "# good: iterate fields(self) (or add the key) so the codec\n"
        "# cannot drift from the dataclass\n"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module_name in sorted(project.modules):
            info = project.modules[module_name]
            if not info.relpath.startswith(SCOPE_PREFIX):
                continue
            for class_name in sorted(info.classes):
                cls = info.classes[class_name]
                if not cls.is_dataclass:
                    continue
                if "to_dict" not in cls.methods or "from_dict" not in cls.methods:
                    continue
                yield from self._check_codec(info.relpath, cls)

    def _check_codec(self, relpath: str, cls: ClassInfo) -> Iterator[Finding]:
        field_names = [name for name, _lineno in cls.fields]
        field_lines = dict(cls.fields)
        to_dict = cls.methods["to_dict"]
        from_dict = cls.methods["from_dict"]

        to_generic = _uses_generic_introspection(to_dict.node)
        written = _dict_keys_written(to_dict.node)
        if not to_generic:
            for name in field_names:
                if name not in written:
                    yield self.line_finding(
                        relpath,
                        field_lines[name],
                        1,
                        f"dataclass field '{name}' of {cls.name} is not "
                        f"written by to_dict(); the wire format silently "
                        f"drops it",
                    )
            for key in sorted(written - set(field_names)):
                yield self.project_finding(
                    relpath,
                    to_dict.node,
                    f"to_dict() of {cls.name} writes key '{key}' that is not "
                    f"a dataclass field; the JSON schema is forking from the "
                    f"dataclass",
                )

        if not _splats_kwargs(from_dict.node):
            read = _keys_read(from_dict.node)
            for name in field_names:
                if name not in read:
                    yield self.line_finding(
                        relpath,
                        field_lines[name],
                        1,
                        f"dataclass field '{name}' of {cls.name} is not read "
                        f"by from_dict(); round-trips reset it to its default",
                    )
