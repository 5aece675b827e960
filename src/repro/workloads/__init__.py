"""Workload generators and dataset stand-ins used by the evaluation.

* :mod:`~repro.workloads.synthetic` — parameter sweeps for the dense
  synthetic suite (Table 4) and helpers for sparse synthetic graphs.
* :mod:`~repro.workloads.datasets` — a registry of scaled-down synthetic
  stand-ins for the 30 KONECT datasets of Table 5/6 (the originals are
  neither redistributable nor downloadable offline; the module docstring
  gives the substitution rationale).
"""

from repro.workloads.datasets import (
    DATASETS,
    TOUGH_DATASETS,
    DatasetSpec,
    load_dataset,
    tough_dataset_names,
)
from repro.workloads.synthetic import (
    DenseCase,
    dense_case_graph,
    dense_suite,
    sparse_synthetic_graph,
)

__all__ = [
    "DATASETS",
    "TOUGH_DATASETS",
    "DatasetSpec",
    "load_dataset",
    "tough_dataset_names",
    "DenseCase",
    "dense_case_graph",
    "dense_suite",
    "sparse_synthetic_graph",
]
