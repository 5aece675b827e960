"""Cross-kernel / cross-solver agreement property tests.

On random dense and sparse instances, the bitset-kernel dense solver, the
set-kernel dense solver, the sparse framework and the basic enumeration
must all report the same optimal side size, and every returned biclique
must be a valid balanced biclique of the input graph.  The brute-force
oracle anchors the small instances to the ground truth.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.brute_force import brute_force_side_size
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import random_bipartite, random_power_law_bipartite
from repro.mbb.basic_bb import basic_bb
from repro.mbb.dense import KERNEL_BITS, KERNEL_SETS, dense_mbb
from repro.mbb.size_constrained import size_constrained_mbb
from repro.mbb.solver import solve_mbb
from repro.mbb.sparse import hbv_mbb


def _solver_results(graph):
    return {
        "dense-bits": dense_mbb(graph, kernel=KERNEL_BITS),
        "dense-sets": dense_mbb(graph, kernel=KERNEL_SETS),
        "sparse": hbv_mbb(graph),
        "basic": basic_bb(graph),
    }


def _assert_all_agree(graph, expected=None):
    results = _solver_results(graph)
    sides = {name: result.side_size for name, result in results.items()}
    assert len(set(sides.values())) == 1, f"solvers disagree: {sides}"
    if expected is not None:
        assert sides["dense-bits"] == expected, sides
    for name, result in results.items():
        biclique = result.biclique
        assert biclique.is_balanced, name
        assert biclique.is_valid_in(graph), name


class TestCrossKernelAgreement:
    @pytest.mark.parametrize("seed", range(15))
    def test_dense_instances_match_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_bipartite(
            rng.randint(4, 9),
            rng.randint(4, 9),
            rng.choice([0.7, 0.8, 0.9]),
            seed=seed,
        )
        _assert_all_agree(graph, expected=brute_force_side_size(graph))

    @pytest.mark.parametrize("seed", range(15))
    def test_sparse_instances_match_oracle(self, seed):
        rng = random.Random(1000 + seed)
        graph = random_bipartite(
            rng.randint(4, 10),
            rng.randint(4, 10),
            rng.choice([0.1, 0.2, 0.3]),
            seed=seed,
        )
        _assert_all_agree(graph, expected=brute_force_side_size(graph))

    @pytest.mark.parametrize("seed", range(5))
    def test_power_law_instances_agree(self, seed):
        graph = random_power_law_bipartite(14, 14, 3.0, seed=seed)
        _assert_all_agree(graph)

    @pytest.mark.parametrize("seed", range(5))
    def test_solve_mbb_kernels_agree(self, seed):
        graph = random_bipartite(10, 10, 0.5, seed=seed)
        bits = solve_mbb(graph, kernel=KERNEL_BITS)
        sets = solve_mbb(graph, kernel=KERNEL_SETS)
        assert bits.side_size == sets.side_size
        assert bits.biclique.is_valid_in(graph)
        assert sets.biclique.is_valid_in(graph)


class _ReprNotAString:
    """A hashable label whose ``repr`` is an int, which no kernel can order."""

    def __init__(self, key):
        self.key = key

    def __repr__(self):
        return self.key

    def __eq__(self, other):
        return isinstance(other, _ReprNotAString) and other.key == self.key

    def __hash__(self):
        return hash(self.key)


class TestUnorderableLabels:
    """A solver on the bitset kernel raises :class:`TypeError` on labels
    it cannot order; none switches to the sets kernel."""

    @staticmethod
    def _graph():
        graph = BipartiteGraph()
        for left in range(2):
            for right in range(10, 12):
                graph.add_edge(_ReprNotAString(left), _ReprNotAString(right))
        return graph

    @pytest.mark.parametrize("solver", [dense_mbb, hbv_mbb, size_constrained_mbb])
    def test_every_bitset_solver_raises_type_error(self, solver):
        with pytest.raises(TypeError, match="non-string"):
            solver(self._graph())

    def test_the_sets_kernel_still_solves_it(self):
        assert dense_mbb(self._graph(), kernel=KERNEL_SETS).side_size == 2
