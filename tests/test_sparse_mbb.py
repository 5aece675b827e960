"""Tests for the sparse framework hbvMBB (Algorithm 4) and its variants."""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest

from repro.api import MBBEngine
from repro.exceptions import InvalidParameterError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.generators import (
    complete_bipartite,
    grid_union_of_bicliques,
    planted_balanced_biclique,
    random_bipartite,
    random_power_law_bipartite,
)
from repro.graph.prepared import PreparedGraph
from repro.mbb.context import SearchContext
from repro.mbb.dense import KERNEL_BITS, KERNEL_SETS
from repro.mbb.result import STEP_BRIDGE, STEP_HEURISTIC, STEP_VERIFY
from repro.mbb.sparse import (
    CONFIG_FULL,
    SparseConfig,
    VARIANT_CONFIGS,
    hbv_mbb,
    sparse_mbb,
    variant,
    variant_with_budget,
)
from repro.workloads.datasets import load_dataset
from repro.baselines.brute_force import brute_force_side_size


class TestHbvMBBCorrectness:
    def test_empty_graph(self):
        result = hbv_mbb(BipartiteGraph())
        assert result.side_size == 0
        assert result.optimal

    def test_complete_graph_terminates_at_heuristic_stage(self):
        result = hbv_mbb(complete_bipartite(6, 6))
        assert result.side_size == 6
        assert result.terminated_at == STEP_HEURISTIC

    def test_union_of_blocks(self):
        result = hbv_mbb(grid_union_of_bicliques([5, 3, 2]))
        assert result.side_size == 5

    def test_planted_biclique_in_sparse_background(self):
        graph = planted_balanced_biclique(60, 60, 7, background_density=0.02, seed=3)
        result = hbv_mbb(graph)
        assert result.side_size >= 7

    @pytest.mark.parametrize("seed", range(18))
    def test_matches_brute_force(self, seed, random_graph_factory):
        graph = random_graph_factory(seed, max_side=9)
        result = hbv_mbb(graph)
        assert result.side_size == brute_force_side_size(graph)
        assert result.biclique.is_valid_in(graph)
        assert result.biclique.is_balanced

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_power_law_graphs(self, seed):
        from repro.mbb.dense import dense_mbb

        graph = random_power_law_bipartite(40, 40, 2.5, seed=seed)
        result = hbv_mbb(graph)
        # Graphs of this size are out of reach for the brute-force oracle;
        # cross-check against the (independently tested) dense solver.
        assert result.side_size == dense_mbb(graph).side_size

    def test_terminating_step_is_always_reported(self):
        for seed in range(5):
            graph = random_bipartite(10, 10, 0.3, seed=seed)
            result = hbv_mbb(graph)
            assert result.terminated_at in (STEP_HEURISTIC, STEP_BRIDGE, STEP_VERIFY)


class TestVariants:
    @pytest.mark.parametrize("name", sorted(VARIANT_CONFIGS))
    def test_every_variant_is_exact(self, name):
        for seed in range(5):
            graph = random_bipartite(8, 8, 0.45, seed=seed)
            optimum = brute_force_side_size(graph)
            result = hbv_mbb(graph, config=variant(name))
            assert result.side_size == optimum, (name, seed)

    def test_variant_lookup_errors(self):
        with pytest.raises(KeyError):
            variant("bd99")

    def test_variant_with_budget(self):
        config = variant_with_budget("bd2", time_budget=1.5)
        assert config.time_budget == 1.5
        assert not config.use_core_pruning

    def test_bd2_falls_back_to_degree_order(self):
        config = variant("bd2")
        assert config.effective_order == "degree"

    def test_bd3_uses_naive_branching(self):
        from repro.mbb.dense import BRANCH_NAIVE

        assert variant("bd3").branching == BRANCH_NAIVE


class TestKernelSelection:
    """``SparseConfig.kernel`` governs both the bridging and verification stages."""

    @pytest.mark.parametrize("seed", range(10))
    def test_kernels_return_identical_results(self, seed):
        graph = random_bipartite(12, 12, 0.4, seed=seed)
        bits = hbv_mbb(graph, config=SparseConfig(kernel=KERNEL_BITS))
        sets = hbv_mbb(graph, config=SparseConfig(kernel=KERNEL_SETS))
        assert bits.side_size == sets.side_size
        assert bits.biclique == sets.biclique
        assert bits.optimal and sets.optimal
        assert bits.terminated_at == sets.terminated_at

    @pytest.mark.parametrize("seed", range(4))
    def test_kernels_agree_on_power_law_graphs(self, seed):
        graph = random_power_law_bipartite(35, 35, 2.5, seed=seed)
        bits = hbv_mbb(graph, config=SparseConfig(kernel=KERNEL_BITS))
        sets = hbv_mbb(graph, config=SparseConfig(kernel=KERNEL_SETS))
        assert bits.side_size == sets.side_size


class TestStageBudgets:
    """Budgets fire in S1/S2, not just inside the dense kernel (S3)."""

    def test_cancel_mid_s2_reports_best_effort_not_exhaustion(self):
        # Seed 0 is one where S1 neither proves optimality nor empties the
        # residual graph, so the bridging stage actually runs.
        graph = random_power_law_bipartite(40, 40, 3.0, seed=0)
        context = SearchContext()
        # Fire once the bridging stage has generated a few subgraphs; S1
        # does not touch this counter, so the hook cannot fire earlier.
        context.cancel_hook = lambda: context.stats.subgraphs_generated >= 3
        result = hbv_mbb(graph, context=context)
        assert not result.optimal
        assert result.terminated_at == STEP_BRIDGE
        assert context.stats.subgraphs_generated == 3
        assert result.biclique.is_valid_in(graph)

    def test_cancel_before_s1_reports_heuristic_stage(self):
        graph = random_bipartite(10, 10, 0.4, seed=4)
        context = SearchContext()
        context.cancel()
        result = hbv_mbb(graph, context=context)
        assert not result.optimal
        assert result.terminated_at == STEP_HEURISTIC

    def test_expired_deadline_aborts_during_s2_for_bd1(self):
        import time

        # With the heuristic stage disabled the first checkpoint that can
        # observe the expired deadline is S2's; the solve must still return
        # a (trivial) best-effort result instead of claiming optimality.
        graph = random_bipartite(15, 15, 0.3, seed=5)
        context = SearchContext()
        context.deadline = time.perf_counter() - 1.0
        result = hbv_mbb(
            graph, config=SparseConfig(use_heuristic=False), context=context
        )
        assert not result.optimal
        assert result.terminated_at == STEP_BRIDGE


class TestSparseConfigOptions:
    def test_initial_best_is_used(self):
        # An optimal seed is never replaced (only a strictly larger
        # biclique is), so it comes back as the witness.
        graph = random_power_law_bipartite(60, 60, 3.0, seed=1)
        seed = hbv_mbb(graph).biclique
        seeded = hbv_mbb(
            graph, config=SparseConfig(use_heuristic=False), initial_best=seed
        )
        assert seeded.optimal
        assert seeded.biclique == seed

    @pytest.mark.parametrize("kernel", [KERNEL_BITS, KERNEL_SETS])
    def test_initial_best_outside_the_graph_is_rejected(self, kernel):
        from repro.mbb.result import Biclique

        graph = random_power_law_bipartite(60, 60, 3.0, seed=1)
        fictional = Biclique.of(range(1000, 1010), range(2000, 2010))
        with pytest.raises(InvalidParameterError):
            hbv_mbb(
                graph, config=SparseConfig(kernel=kernel), initial_best=fictional
            )

    def test_heuristic_seed_solves_as_before(self):
        from repro.mbb.heuristics import degree_heuristic

        graph = random_power_law_bipartite(60, 60, 3.0, seed=1)
        plain = hbv_mbb(graph)
        seeded = hbv_mbb(graph, initial_best=degree_heuristic(graph))
        assert seeded.optimal
        assert seeded.side_size == plain.side_size
        assert seeded.biclique.is_valid_in(graph)

    def test_sparse_mbb_alias(self):
        graph = random_bipartite(8, 8, 0.4, seed=1)
        assert sparse_mbb(graph).side_size == hbv_mbb(graph).side_size

    def test_node_budget_gives_best_effort(self):
        graph = random_bipartite(30, 30, 0.3, seed=2)
        config = SparseConfig(use_heuristic=False, node_budget=1)
        result = hbv_mbb(graph, config=config)
        assert result.biclique.is_valid_in(graph)

    def test_full_config_is_default(self):
        assert CONFIG_FULL == SparseConfig()


def _shuffled_int_graph(seed: int) -> BipartiteGraph:
    """A dense random graph with scattered int labels, edges added shuffled.

    Its insertion order differs from its set order, which is what used to
    make a solve without a snapshot diverge from one with a snapshot.
    """
    rng = random.Random(seed)
    base = random_bipartite(
        rng.randint(10, 26), rng.randint(10, 26), rng.uniform(0.35, 0.7), seed=seed
    )
    left = dict(
        zip(base.left_vertices(), rng.sample(range(10**6), base.num_left), strict=True)
    )
    right = dict(
        zip(base.right_vertices(), rng.sample(range(10**6), base.num_right), strict=True)
    )
    edges = list(base.edges())
    rng.shuffle(edges)
    return BipartiteGraph(edges=[(left[u], right[v]) for u, v in edges])


def _timing_free(result):
    stats = asdict(result.stats)
    del stats["order_seconds"], stats["prepare_seconds"]
    return result.biclique, result.optimal, result.terminated_at, stats


class TestPreparedSnapshotEquivalence:
    # Seeds include graphs on which the two paths used to disagree: a
    # Lemma 4 reduction that removed nothing still rebuilt the graph in
    # set order when no snapshot was passed.
    @pytest.mark.parametrize("seed", [5, 12, 16, 17, 26, 33])
    def test_with_and_without_snapshot_agree(self, seed):
        graph = _shuffled_int_graph(seed)
        for variant_config in VARIANT_CONFIGS.values():
            for kernel in (KERNEL_BITS, KERNEL_SETS):
                config = replace(variant_config, kernel=kernel)
                plain = hbv_mbb(graph, config=config)
                prepared = hbv_mbb(
                    graph, config=config, prepared=PreparedGraph.prepare(graph)
                )
                assert _timing_free(plain) == _timing_free(prepared)


class TestSparseConfigValidation:
    """Bad values fail at construction, even where S1 alone ends the solve."""

    BAD_VALUES = [{"order": "nope"}, {"kernel": "gpu"}, {"heuristic_seeds": -1}]

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_hbv_mbb_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            hbv_mbb(complete_bipartite(4, 4), config=SparseConfig(**bad))
        with pytest.raises(InvalidParameterError):
            replace(CONFIG_FULL, **bad)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_engine_solve_graph_rejects(self, bad):
        # edit-frwiktionary ends at S1, where the bad values used to pass.
        graph = load_dataset("edit-frwiktionary")
        with pytest.raises(InvalidParameterError):
            MBBEngine().solve_graph(
                graph, backend="sparse", sparse_config=SparseConfig(**bad)
            )

    def test_zero_seeds_is_valid(self):
        result = hbv_mbb(
            complete_bipartite(4, 4), config=SparseConfig(heuristic_seeds=0)
        )
        assert result.side_size == 4 and result.optimal


class TestOrderStageStat:
    """hbvMBB computes the total order once and reports its wall time."""

    def test_order_seconds_recorded_when_bridging_runs(self):
        graph = random_power_law_bipartite(40, 40, 3.0, seed=0)
        result = hbv_mbb(graph)
        assert result.terminated_at in (STEP_BRIDGE, STEP_VERIFY)
        assert result.stats.order_seconds > 0.0

    def test_order_seconds_zero_when_s1_proves_optimality(self):
        result = hbv_mbb(complete_bipartite(6, 6))
        assert result.terminated_at == STEP_HEURISTIC
        assert result.stats.order_seconds == 0.0

    def test_order_seconds_flows_into_solve_report(self):
        from repro.api import GraphSpec, MBBEngine, SolveReport, SolveRequest

        request = SolveRequest(
            graph=GraphSpec.power_law(40, 40, 3.0, seed=0), backend="sparse"
        )
        report = MBBEngine().solve(request)
        assert report.stats["order_seconds"] > 0.0
        clone = SolveReport.from_json(report.to_json())
        assert clone.stats["order_seconds"] == report.stats["order_seconds"]
