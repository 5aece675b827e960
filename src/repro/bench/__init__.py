"""Benchmark harness that regenerates every table and figure of the paper.

Each module exposes a ``run_*`` function returning plain row dictionaries
and a ``format_*`` helper that renders them as a text table, so the same
code backs the pytest-benchmark suites under ``benchmarks/``, the runnable
examples and ``repro-mbb bench``.

=================  ==============================================
module             paper artefact
=================  ==============================================
``table4``         Table 4 — dense synthetic graphs
``table5``         Table 5 — 30 sparse datasets (stand-ins)
``table6``         Table 6 — technique breakdown on tough datasets
``figure4``        Figure 4 — heuristic gap to the optimum
``figure5``        Figure 5 — search depth over δ̈ per order
``figure6``        Figure 6 — density of vertex-centred subgraphs
=================  ==============================================
"""

from repro.bench.harness import format_table
from repro.bench import table4, table5, table6, figure4, figure5, figure6

__all__ = [
    "format_table",
    "table4",
    "table5",
    "table6",
    "figure4",
    "figure5",
    "figure6",
]
