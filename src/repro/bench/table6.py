"""Table 6 — breakdown of the proposed techniques on the tough datasets.

For every tough dataset the table reports:

* the cost of the building blocks in isolation — the heuristic stage
  ``hMBB``, the degeneracy order ``degOrder`` and the bidegeneracy order
  ``bdegOrder`` (overhead columns);
* the full framework ``hbvMBB``; and
* the ablations ``bd1`` (no heuristic stage), ``bd2`` (no core/bicore
  optimisations), ``bd3`` (no dense branching technique), ``bd4`` (degree
  order) and ``bd5`` (degeneracy order).

Expected shape: the overheads are small compared to the exhaustive search;
every ablation is slower than the full framework, with ``bd3`` (losing the
polynomial cases) and ``bd1`` (losing the incumbent and reduction) hurting
the most, and ``bd5`` beating ``bd4`` (degeneracy order beats degree
order).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.harness import format_table, run_backend, timed
from repro.cores.bicore import bidegeneracy_order
from repro.cores.core import degeneracy_order
from repro.mbb.heuristics import h_mbb
from repro.mbb.sparse import VARIANT_CONFIGS, variant
from repro.workloads.datasets import DATASETS, TOUGH_DATASETS

#: Columns of the breakdown, in the paper's order.
COLUMNS = (
    "hMBB",
    "degOrder",
    "bdegOrder",
    "bd1",
    "bd2",
    "bd3",
    "bd4",
    "bd5",
    "hbvMBB",
)


def run_dataset_breakdown(
    name: str,
    *,
    time_budget: Optional[float] = 15.0,
) -> Dict[str, object]:
    """Run every Table 6 column for one tough dataset."""
    graph = DATASETS[name].generate()
    row: Dict[str, object] = {"dataset": name}

    _, h_time = timed(h_mbb, graph)
    row["hMBB"] = h_time
    _, deg_time = timed(degeneracy_order, graph)
    row["degOrder"] = deg_time
    _, bdeg_time = timed(bidegeneracy_order, graph)
    row["bdegOrder"] = bdeg_time

    for variant_name in ("bd1", "bd2", "bd3", "bd4", "bd5", "hbvMBB"):
        result, elapsed = run_backend(
            graph,
            "sparse",
            time_budget=time_budget,
            sparse_config=variant(variant_name),
        )
        row[variant_name] = elapsed if result.optimal else "-"
        if variant_name == "hbvMBB":
            row["optimum"] = result.side_size
    return row


def run_table6(
    dataset_names: Sequence[str] = TOUGH_DATASETS,
    *,
    time_budget: Optional[float] = 15.0,
) -> List[Dict[str, object]]:
    """Produce the Table 6 rows for the tough datasets."""
    return [
        run_dataset_breakdown(name, time_budget=time_budget)
        for name in dataset_names
    ]


def format_table6(rows: Sequence[Dict[str, object]]) -> str:
    """Render the breakdown rows in the paper's column order."""
    columns = ["dataset"] + list(COLUMNS) + ["optimum"]
    return format_table(rows, columns)
