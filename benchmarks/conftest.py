"""Shared configuration for the benchmark suites.

The benchmarks are intentionally scaled down (the datasets are synthetic
stand-ins, see :mod:`repro.workloads.datasets`): the goal is to reproduce
the *shape* of every table and figure — who wins, by roughly what factor,
where algorithms start timing out — with run times measured in seconds
rather than the paper's hours.  Each suite prints the regenerated
table/figure at the end of its session.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "table: marks a benchmark that regenerates a paper table"
    )
    config.addinivalue_line(
        "markers", "figure: marks a benchmark that regenerates a paper figure"
    )


@pytest.fixture(scope="session")
def bench_time_budget() -> float:
    """Per-solver-run time budget (the analogue of the paper's 4h timeout)."""
    return 5.0
