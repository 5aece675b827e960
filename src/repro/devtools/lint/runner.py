"""File discovery and analysis orchestration for reprolint.

:func:`run_lint` is the one entry point the CLI, the CI job and the test
suite share.  It is a two-pass analysis:

1. **parse pass** — discover Python files under the given paths, parse
   each one once into a :class:`FileContext` (an unparseable file yields
   one ``RPL000`` finding and drops out of pass 2), and run every
   selected per-file :class:`Rule` over the shared AST;
2. **project pass** — build one
   :class:`~repro.devtools.lint.project.ProjectContext` from every
   parsed file and run each selected :class:`ProjectRule` exactly once
   over it.

Every finding fails the run, and the returned :class:`LintResult` is
fully deterministic — sorted discovery, sorted rules, sorted findings —
so two consecutive runs render byte-identical reports (a property CI
pins down).

The analyzer is dependency-free on purpose — :mod:`ast` plus the
standard library — so the CI job can run it straight from a checkout
with no installation step, and so it can never disagree with the
interpreter about what the code parses to.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.devtools.lint.base import (
    PARSE_ERROR_CODE,
    FileContext,
    ProjectRule,
    all_rules,
)
from repro.devtools.lint.findings import Finding, sort_findings
from repro.devtools.lint.project import ProjectContext

#: Directory names never descended into during discovery.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})

#: The scan roots ``repro-mbb lint`` and CI default to.  Library code
#: (``src/``) plus every root that executes it — rule *scoping* (not
#: root selection) decides what is legal where, e.g. wall-clock reads
#: stay legal under ``benchmarks/`` while the layering and shared-state
#: contracts apply everywhere.
DEFAULT_LINT_PATHS: Tuple[str, ...] = ("src", "tests", "benchmarks", "examples")


@dataclass
class LintResult:
    """Outcome of one analyzer run (all lists canonically sorted)."""

    #: Every finding of the run, canonically sorted; each fails the run.
    findings: List[Finding] = field(default_factory=list)
    #: Number of files parsed and analyzed.
    checked_files: int = 0
    #: Number of modules indexed into the project model (0 when no
    #: project rule ran).
    modules: int = 0
    #: Codes of the rules that ran, sorted.
    rules: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """``0`` for a run without findings, ``1`` otherwise."""
        return 1 if self.findings else 0


def iter_python_files(paths: Sequence[str], root: str) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order.

    ``paths`` entries are interpreted relative to ``root`` unless
    absolute; files are yielded as absolute paths.  Missing paths raise
    ``FileNotFoundError`` so a typo in CI fails loudly instead of
    linting nothing.
    """
    collected: List[str] = []
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(absolute):
            if absolute.endswith(".py"):
                collected.append(os.path.abspath(absolute))
            continue
        if not os.path.isdir(absolute):
            raise FileNotFoundError(f"lint path does not exist: {path}")
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if not name.startswith(".") and name not in _SKIPPED_DIRS
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    collected.append(os.path.abspath(os.path.join(dirpath, filename)))
    # Deduplicate overlapping path arguments while keeping sorted order.
    return iter(sorted(set(collected)))


def _relpath(path: str, root: str) -> str:
    relative = os.path.relpath(path, root)
    return relative.replace(os.sep, "/")


def parse_file(path: str, root: str) -> Tuple[Optional[FileContext], Optional[Finding]]:
    """Parse one file into a :class:`FileContext`.

    Returns ``(context, None)`` on success and ``(None, rpl000)`` when
    the file does not parse.
    """
    relpath = _relpath(path, root)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as error:
        return None, Finding(
            path=relpath,
            line=error.lineno or 1,
            column=(error.offset or 1),
            code=PARSE_ERROR_CODE,
            message=f"file does not parse: {error.msg}",
        )
    return FileContext(relpath, source, tree), None


def build_project(
    paths: Sequence[str], *, root: Optional[str] = None
) -> ProjectContext:
    """Parse ``paths`` and build the project model without running rules.

    Unparseable files are silently skipped here; :func:`run_lint` is
    where parse failures are reported.
    """
    resolved_root = os.path.abspath(root or os.getcwd())
    contexts: List[FileContext] = []
    for path in iter_python_files(paths, resolved_root):
        ctx, _error = parse_file(path, resolved_root)
        if ctx is not None:
            contexts.append(ctx)
    return ProjectContext.build(contexts)


def run_lint(
    paths: Sequence[str],
    *,
    root: Optional[str] = None,
    rules: Iterable[str] = (),
) -> LintResult:
    """Analyze ``paths`` and return a deterministic :class:`LintResult`.

    Parameters
    ----------
    paths:
        Files and/or directories to scan (relative to ``root``).
    root:
        Project root used both to resolve relative ``paths`` and to
        compute the root-relative paths the rules scope by (default:
        the current working directory).
    rules:
        Optional subset of rule codes to run (default: all registered).
    """
    resolved_root = os.path.abspath(root or os.getcwd())
    selected = all_rules(rules)
    file_rules = [rule for rule in selected if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in selected if isinstance(rule, ProjectRule)]

    findings: List[Finding] = []
    checked = 0
    contexts: List[FileContext] = []
    for path in iter_python_files(paths, resolved_root):
        checked += 1
        ctx, parse_error = parse_file(path, resolved_root)
        if parse_error is not None:
            findings.append(parse_error)
            continue
        assert ctx is not None
        contexts.append(ctx)
        for rule in file_rules:
            findings.extend(rule.check(ctx))

    modules = 0
    if project_rules:
        project = ProjectContext.build(contexts)
        modules = len(project.modules)
        for rule in project_rules:
            findings.extend(rule.check_project(project))

    return LintResult(
        findings=sort_findings(findings),
        checked_files=checked,
        modules=modules,
        rules=[rule.code for rule in selected],
    )
