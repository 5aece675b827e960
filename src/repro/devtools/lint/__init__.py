"""*reprolint* — the repository's AST-based invariant analyzer.

Generic linters enforce style; this package enforces the invariants the
repository has already paid for in fixed bugs: budget checkpoints in the
search stages (RPL001), determinism discipline (RPL002), bits/sets
kernel parity (RPL003), worker-process picklability (RPL004), and — via
the whole-project model in :mod:`repro.devtools.lint.project` (import
graph, symbol tables, conservative call graph) — shared prepared/CSR
state immutability (RPL005), interprocedural checkpoint reachability
(RPL006), layering/import-cycle discipline (RPL007), wire-format
round-trip coverage (RPL008) and worker fault boundaries (RPL009).  See
:mod:`repro.devtools.lint.rules` for the rule table and each rule module
for the bug history it encodes.

Typical use::

    from repro.devtools.lint import run_lint

    result = run_lint(["src", "tests"], root="/path/to/repo")
    assert result.exit_code == 0, result.findings

The ``repro-mbb lint`` CLI command and the CI ``invariants`` job are
thin wrappers over exactly this API.  Every finding fails the run: a
violation is fixed at the source, or the rule that reports it changes.
"""

from repro.devtools.lint.base import (
    PARSE_ERROR_CODE,
    FileContext,
    ProjectRule,
    Rule,
    RULE_REGISTRY,
    all_rules,
    register_rule,
    rule_table,
)
from repro.devtools.lint.findings import Finding, sort_findings
from repro.devtools.lint.report import (
    REPORT_SCHEMA_VERSION,
    render_json,
    render_text,
)
from repro.devtools.lint.project import (
    ImportRecord,
    ModuleInfo,
    ProjectContext,
    module_name_for,
)
from repro.devtools.lint.runner import (
    DEFAULT_LINT_PATHS,
    LintResult,
    build_project,
    iter_python_files,
    run_lint,
)

__all__ = [
    "DEFAULT_LINT_PATHS",
    "FileContext",
    "Finding",
    "ImportRecord",
    "LintResult",
    "ModuleInfo",
    "PARSE_ERROR_CODE",
    "ProjectContext",
    "ProjectRule",
    "REPORT_SCHEMA_VERSION",
    "RULE_REGISTRY",
    "Rule",
    "all_rules",
    "build_project",
    "iter_python_files",
    "module_name_for",
    "register_rule",
    "render_json",
    "render_text",
    "rule_table",
    "run_lint",
    "sort_findings",
]
