"""Benchmarks regenerating Table 6: technique breakdown on tough datasets.

Per-variant benchmarks time the full framework and each ablation (bd1-bd5)
on a representative tough dataset; overhead benchmarks time the heuristic
stage and the two order computations in isolation; the reporting test runs
the whole breakdown table over several tough datasets and prints it.

Expected shape (matching the paper): the overhead columns (hMBB, degOrder,
bdegOrder) are small; every ablation is slower than (or at best equal to)
the full framework; bd5 (degeneracy order) beats bd4 (degree order).
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.bench

from repro.bench.table6 import format_table6, run_table6
from repro.cores.bicore import bidegeneracy_order
from repro.cores.core import degeneracy_order
from repro.mbb.heuristics import h_mbb
from repro.mbb.sparse import hbv_mbb, variant_with_budget
from repro.workloads.datasets import load_dataset

#: Tough dataset used for the per-variant timing benchmarks.
BENCH_DATASET = "jester"
#: Subset of tough datasets used by the reporting test.
REPORT_DATASETS = ("jester", "github", "discogs-style", "edit-dewiki")


@pytest.mark.table
@pytest.mark.parametrize("variant_name", ("hbvMBB", "bd1", "bd2", "bd3", "bd4", "bd5"))
def test_framework_variant(benchmark, variant_name):
    """Time one framework variant on a tough dataset stand-in."""
    graph = load_dataset(BENCH_DATASET)
    config = variant_with_budget(variant_name, time_budget=30.0)

    result = benchmark(lambda: hbv_mbb(graph, config=config))
    assert result.biclique.is_valid_in(graph)


@pytest.mark.table
def test_overhead_h_mbb(benchmark):
    """Time the heuristic + reduction stage in isolation."""
    graph = load_dataset(BENCH_DATASET)
    outcome = benchmark(lambda: h_mbb(graph))
    assert outcome.best.is_valid_in(graph)


@pytest.mark.table
def test_overhead_degeneracy_order(benchmark):
    graph = load_dataset(BENCH_DATASET)
    order = benchmark(lambda: degeneracy_order(graph))
    assert len(order) == graph.num_vertices


@pytest.mark.table
def test_overhead_bidegeneracy_order(benchmark):
    graph = load_dataset(BENCH_DATASET)
    order = benchmark(lambda: bidegeneracy_order(graph))
    assert len(order) == graph.num_vertices


@pytest.mark.table
def test_report_table6(benchmark, capsys):
    """Regenerate and print the breakdown table for several tough datasets."""
    rows = benchmark.pedantic(
        lambda: run_table6(REPORT_DATASETS, time_budget=10.0), rounds=1, iterations=1
    )
    for row in rows:
        # The full framework must finish within the budget on every dataset.
        assert row["hbvMBB"] != "-"
    with capsys.disabled():
        print("\n=== Table 6 (stand-ins): breakdown, seconds ===")
        print(format_table6(rows))
