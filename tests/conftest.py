"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.api import GraphSpec
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    complete_bipartite,
    crown_graph,
    grid_union_of_bicliques,
    random_bipartite,
)


@pytest.fixture(params=["malformed-line", "not-utf8", "nan-degree", "inf-degree"])
def unmaterialisable_spec(request, tmp_path) -> GraphSpec:
    """A graph spec whose own content stops it from materialising.

    Unlike a missing file (an ``OSError``), each of these is the caller's
    error, so the engine must report it as ``invalid_parameter``.
    """
    case = request.param
    if case == "malformed-line":
        path = tmp_path / "malformed.txt"
        path.write_text("1 2\n3 x\n", encoding="utf-8")
        return GraphSpec.from_path(str(path))
    if case == "not-utf8":
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 2\n% caf\xe9\n3 4\n")
        return GraphSpec.from_path(str(path))
    avg_degree = float("nan") if case == "nan-degree" else float("inf")
    return GraphSpec.power_law(20, 20, avg_degree)


@pytest.fixture
def empty_graph() -> BipartiteGraph:
    """A graph with no vertices at all."""
    return BipartiteGraph()


@pytest.fixture
def single_edge() -> BipartiteGraph:
    """The smallest non-trivial bipartite graph: one edge."""
    return BipartiteGraph(edges=[(0, 0)])


@pytest.fixture
def k33() -> BipartiteGraph:
    """The complete bipartite graph K_{3,3}."""
    return complete_bipartite(3, 3)


@pytest.fixture
def crown6() -> BipartiteGraph:
    """The crown graph on 6+6 vertices (K_{6,6} minus a perfect matching)."""
    return crown_graph(6)


@pytest.fixture
def two_blocks() -> BipartiteGraph:
    """Disjoint union of a 3x3 and a 2x2 complete biclique (optimum side 3)."""
    return grid_union_of_bicliques([3, 2])


@pytest.fixture
def paper_example_sparse() -> BipartiteGraph:
    """A small sparse graph in the spirit of the paper's Figure 1(b).

    Left vertices 1-6, right vertices 7-12; the maximum balanced biclique is
    ({3, 4}, {9, 10}) with side size 2 (plus a few pendant structures).
    """
    edges = [
        (1, 7),
        (2, 7),
        (2, 8),
        (3, 8),
        (3, 9),
        (3, 10),
        (4, 9),
        (4, 10),
        (5, 9),
        (5, 10),
        (6, 8),
        (6, 11),
        (1, 12),
    ]
    return BipartiteGraph(edges=edges)


def random_graph(seed: int, max_side: int = 10, densities=(0.15, 0.3, 0.5, 0.7, 0.9)) -> BipartiteGraph:
    """Deterministic small random graph used by comparison tests."""
    rng = random.Random(seed)
    n_left = rng.randint(1, max_side)
    n_right = rng.randint(1, max_side)
    density = rng.choice(densities)
    return random_bipartite(n_left, n_right, density, seed=seed)


@pytest.fixture
def random_graph_factory():
    """Factory fixture returning deterministic small random graphs."""
    return random_graph
