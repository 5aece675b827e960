"""Rule framework: per-file context, the rule base class and the registry.

A rule is a class with a unique ``RPLxxx`` code whose :meth:`Rule.check`
inspects one parsed file (a :class:`FileContext`) and yields
:class:`~repro.devtools.lint.findings.Finding` records.  Rules register
themselves with the :func:`register_rule` decorator; the runner asks
:func:`all_rules` for one instance of every registered rule, sorted by
code so analysis order — and therefore output order — is deterministic.
Every finding a rule yields fails the run: there is no per-line or
per-file way to excuse one, so a violation is fixed at the source or the
rule itself changes.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple, Type

from repro.devtools.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.devtools.lint.project import ProjectContext

#: Rule codes look like ``RPL`` followed by exactly three digits.
_CODE_RE = re.compile(r"^RPL\d{3}$")

#: Code reserved for files the analyzer cannot parse.
PARSE_ERROR_CODE = "RPL000"


class FileContext:
    """One parsed source file plus the path metadata rules scope by."""

    def __init__(self, relpath: str, source: str, tree: ast.Module) -> None:
        #: POSIX-style path relative to the project root, e.g.
        #: ``"src/repro/mbb/sparse.py"`` — what every scope test keys on.
        self.relpath = relpath
        self.source = source
        self.tree = tree

    # ------------------------------------------------------------------
    # scoping helpers
    # ------------------------------------------------------------------
    def is_under(self, *prefixes: str) -> bool:
        """True when the file lives under any of the given directories."""
        return any(
            self.relpath == prefix or self.relpath.startswith(prefix.rstrip("/") + "/")
            for prefix in prefixes
        )

    def is_library_code(self) -> bool:
        """True for the shipped library (``src/``), not tests/benchmarks."""
        return self.is_under("src")


class Rule:
    """Base class every reprolint rule derives from.

    Subclasses set :attr:`code`, :attr:`name` and :attr:`description`
    and implement :meth:`check`.  The :meth:`finding` helper anchors a
    finding to an AST node with the 0-to-1-based column conversion
    applied.
    """

    #: Unique ``RPLxxx`` code.
    code: str = ""
    #: Short kebab-case identifier shown in listings.
    name: str = ""
    #: One-line description of the enforced invariant.
    description: str = ""
    #: Multi-line rationale shown by ``repro-mbb lint --explain`` — why
    #: the invariant exists (usually the bug history it encodes).
    rationale: str = ""
    #: Short illustrative snippet of a violation (and its fix) for
    #: ``--explain`` output.
    example: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (empty for out-of-scope files)."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding for ``node`` with this rule's code."""
        return Finding(
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for cross-file rules driven by the project model.

    Unlike per-file :class:`Rule` subclasses, a project rule runs
    exactly once per analysis over the
    :class:`~repro.devtools.lint.project.ProjectContext` the runner
    builds from every parsed file, so it can reason about import edges,
    call-graph reachability and contracts spanning modules.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Project rules contribute nothing during the per-file pass."""
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        """Yield findings for the whole project (run once per analysis)."""
        raise NotImplementedError

    def project_finding(
        self, relpath: str, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored to ``node`` inside ``relpath``."""
        return Finding(
            path=relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )

    def line_finding(
        self, relpath: str, line: int, column: int, message: str
    ) -> Finding:
        """Build a finding at an explicit (1-based) line/column."""
        return Finding(
            path=relpath, line=line, column=column, code=self.code, message=message
        )


#: Registry mapping rule code to rule class, filled by :func:`register_rule`.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a rule under its code.

    Codes must match ``RPL\\d{3}`` and be unique; ``RPL000`` is reserved
    for parse failures emitted by the runner itself.
    """
    if not _CODE_RE.match(cls.code or ""):
        raise ValueError(f"rule code must match RPLxxx, got {cls.code!r}")
    if cls.code == PARSE_ERROR_CODE:
        raise ValueError(f"{PARSE_ERROR_CODE} is reserved for parse failures")
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"rule code {cls.code} is already registered")
    RULE_REGISTRY[cls.code] = cls
    return cls


def all_rules(codes: Iterable[str] = ()) -> List[Rule]:
    """One instance of every registered rule, sorted by code.

    ``codes`` optionally restricts the set (unknown codes raise, so a
    typo in ``--rules`` cannot silently run nothing).
    """
    # Importing the rules package is what populates the registry; done
    # lazily so `base` itself never depends on the rule modules.
    from repro.devtools.lint import rules  # noqa: F401

    wanted = {code.strip().upper() for code in codes if code.strip()}
    unknown = wanted - set(RULE_REGISTRY)
    if unknown:
        raise ValueError(
            f"unknown rule codes {sorted(unknown)}; "
            f"registered: {sorted(RULE_REGISTRY)}"
        )
    selected = sorted(wanted) if wanted else sorted(RULE_REGISTRY)
    return [RULE_REGISTRY[code]() for code in selected]


def rule_table() -> List[Tuple[str, str, str]]:
    """``(code, name, description)`` rows for docs and ``lint --rules help``."""
    from repro.devtools.lint import rules  # noqa: F401

    return [
        (code, RULE_REGISTRY[code].name, RULE_REGISTRY[code].description)
        for code in sorted(RULE_REGISTRY)
    ]
