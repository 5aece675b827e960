"""Rendering of :class:`~repro.devtools.lint.runner.LintResult`.

Two formats, both with deterministic ordering:

* **text** — one ``path:line:col: CODE message`` line per finding (the
  clickable convention every editor understands) plus a summary line;
* **json** — a machine-readable document for CI and tooling, mirroring
  the text content (``schema_version`` guards future evolution; version
  2 carries one ``findings`` list, every entry of which fails the run).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.devtools.lint.runner import LintResult

#: Version of the ``--json`` document schema.
REPORT_SCHEMA_VERSION = 2


def render_text(result: LintResult) -> str:
    """Human-readable report; one line per finding plus a summary."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(f"{finding.location}: {finding.code} {finding.message}")
    noun = "finding" if len(result.findings) == 1 else "findings"
    summary = (
        f"reprolint: {len(result.findings)} {noun} "
        f"across {result.checked_files} files "
        f"({result.modules} modules indexed) "
        f"[rules: {', '.join(result.rules)}]"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """JSON report used by CI (``repro-mbb lint --json``)."""
    document: Dict[str, object] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": "reprolint",
        "rules": list(result.rules),
        "checked_files": result.checked_files,
        "modules": result.modules,
        "findings": [finding.to_dict() for finding in result.findings],
        "exit_code": result.exit_code,
    }
    return json.dumps(document, indent=2)
