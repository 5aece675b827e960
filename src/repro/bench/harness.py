"""Shared helpers for the benchmark harness: backend dispatch, timing, tables.

Every table/figure runner dispatches solvers through :func:`run_backend`,
i.e. through the :mod:`repro.api` backend registry, so the bench suites
exercise exactly the code path the CLI and the engine expose — no more
direct calls into solver internals.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.bipartite import BipartiteGraph
from repro.mbb.dense import KERNEL_BITS
from repro.mbb.result import MBBResult


def timed(function: Callable, *args, **kwargs) -> Tuple[object, float]:
    """Call ``function`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def run_backend(
    graph: BipartiteGraph,
    backend: str,
    *,
    kernel: str = KERNEL_BITS,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    seed: int = 0,
    **backend_options: object,
) -> Tuple[MBBResult, float]:
    """Time one registered backend on ``graph``.

    Returns ``(result, elapsed_seconds)``; extra keyword arguments are
    forwarded to the backend (e.g. ``initial_best`` for ``dense``,
    ``sparse_config`` for ``sparse``).
    """
    from repro.api.engine import MBBEngine

    result, elapsed = timed(
        MBBEngine().solve_graph,
        graph,
        backend=backend,
        kernel=kernel,
        node_budget=node_budget,
        time_budget=time_budget,
        seed=seed,
        **backend_options,
    )
    return result, elapsed  # type: ignore[return-value]


def format_cell(value: object) -> str:
    """Render one table cell: floats get three significant decimals."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if value >= 100:
            return f"{value:.1f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], columns: Iterable[str] | None = None) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    columns = list(columns)
    rendered: List[List[str]] = [[format_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in rendered
    )
    return "\n".join([header, separator, body])

