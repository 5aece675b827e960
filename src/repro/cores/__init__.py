"""Core and bicore decompositions, sparsity measures, and search orders.

This package implements the sparsity machinery of the paper:

* classical core numbers / degeneracy (used by the reductions of Lemma 4,
  the early-termination test of Lemma 5 and the ``bd5`` ablation);
* 2-hop neighbourhoods ``N_{<=2}`` (Definitions 1-2);
* bicore numbers, bidegeneracy ``δ̈`` and the bidegeneracy order
  (Definitions 3-5, Algorithm 7, Lemma 10) — the paper's novel sparsity
  measure;
* a uniform interface over the three total search orders compared in the
  evaluation (degree, degeneracy, bidegeneracy; Lemmas 6-8).

Vertices are addressed as ``(side, label)`` pairs where ``side`` is
:data:`repro.graph.LEFT` or :data:`repro.graph.RIGHT`, so the decomposition
works even when the two sides reuse the same labels.
"""

from repro.cores.core import (
    core_numbers,
    degeneracy,
    degeneracy_order,
    k_core,
)
from repro.cores.two_hop import (
    n2_neighbors,
    n_le2_flat,
    n_le2_neighbors,
    n_le2_sizes,
)
from repro.cores.bicore import (
    ALL_IMPLS,
    IMPL_BUCKET,
    IMPL_EXACT,
    bicore_decomposition,
    bicore_numbers,
    bidegeneracy,
    bidegeneracy_order,
    residual_bicore_numbers,
)
from repro.cores.orders import (
    ORDER_BIDEGENERACY,
    ORDER_DEGENERACY,
    ORDER_DEGREE,
    search_order,
)

__all__ = [
    "core_numbers",
    "degeneracy",
    "degeneracy_order",
    "k_core",
    "n2_neighbors",
    "n_le2_flat",
    "n_le2_neighbors",
    "n_le2_sizes",
    "ALL_IMPLS",
    "IMPL_BUCKET",
    "IMPL_EXACT",
    "bicore_decomposition",
    "bicore_numbers",
    "bidegeneracy",
    "bidegeneracy_order",
    "residual_bicore_numbers",
    "ORDER_DEGREE",
    "ORDER_DEGENERACY",
    "ORDER_BIDEGENERACY",
    "search_order",
]
