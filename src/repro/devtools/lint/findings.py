"""The :class:`Finding` record and its deterministic ordering.

A finding is one rule violation at one source location, and every
finding fails the run.  Findings are value objects: the analyzer
produces them in whatever order the rules visit the AST, then sorts
them by :meth:`Finding.sort_key` so output and exit codes are
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    #: Project-root-relative POSIX path of the offending file.
    path: str
    #: 1-based line of the offending node.
    line: int
    #: 1-based column of the offending node (``ast`` columns are 0-based;
    #: rules convert so locations match editor conventions).
    column: int
    #: Rule code, e.g. ``"RPL001"`` (``"RPL000"`` marks a parse failure).
    code: str
    #: Human message.  Stable — never embeds line numbers or timings —
    #: so two runs over the same tree render identical reports.
    message: str

    @property
    def location(self) -> str:
        """``path:line:column`` in the conventional clickable form."""
        return f"{self.path}:{self.line}:{self.column}"

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        """Total order: path, then line, column, code, message."""
        return (self.path, self.line, self.column, self.code, self.message)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for ``--json`` output."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "message": self.message,
        }


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Return ``findings`` as a list in the canonical deterministic order."""
    return sorted(findings, key=Finding.sort_key)
