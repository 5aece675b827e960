"""Tests for the Biclique / SearchStats / MBBResult value objects."""

from __future__ import annotations

import pytest

from repro.graph.generators import complete_bipartite
from repro.mbb.result import (
    Biclique,
    MBBResult,
    SearchStats,
    STEP_BRIDGE,
    STEP_HEURISTIC,
    STEP_VERIFY,
)


class TestBiclique:
    def test_empty(self):
        empty = Biclique.empty()
        assert empty.side_size == 0
        assert empty.total_size == 0
        assert empty.is_balanced

    def test_of_builds_frozensets(self):
        biclique = Biclique.of([1, 2, 2], ["a"])
        assert biclique.left == frozenset({1, 2})
        assert biclique.right == frozenset({"a"})
        assert biclique.total_size == 3
        assert not biclique.is_balanced

    def test_balanced_trims_larger_side_deterministically(self):
        biclique = Biclique.of([3, 1, 2], ["a"])
        balanced = biclique.balanced()
        assert balanced.is_balanced
        assert balanced.side_size == 1
        assert balanced == Biclique.of([3, 1, 2], ["a"]).balanced()

    def test_balanced_of_balanced_is_identity(self):
        biclique = Biclique.of([1, 2], ["a", "b"])
        assert biclique.balanced() == biclique

    def test_validity_check(self):
        graph = complete_bipartite(3, 3)
        assert Biclique.of([0, 1], [0, 2]).is_valid_in(graph)
        assert not Biclique.of([0, 9], [0]).is_valid_in(graph)

    def test_is_hashable_and_frozen(self):
        biclique = Biclique.of([1], [2])
        assert hash(biclique) == hash(Biclique.of([1], [2]))
        with pytest.raises(AttributeError):
            biclique.left = frozenset()


class TestSearchStats:
    def test_record_node_and_leaf(self):
        stats = SearchStats()
        stats.record_node(0)
        stats.record_node(3)
        stats.record_leaf(3)
        assert stats.nodes == 2
        assert stats.max_depth == 3
        assert stats.average_depth == 1.5
        assert stats.average_leaf_depth == 3.0

    def test_averages_on_empty_stats(self):
        stats = SearchStats()
        assert stats.average_depth == 0.0
        assert stats.average_leaf_depth == 0.0

    def test_merge_accumulates(self):
        a = SearchStats(nodes=2, max_depth=5, depth_sum=6, polynomial_cases=1)
        b = SearchStats(nodes=3, max_depth=2, depth_sum=3, bound_prunes=4)
        a.merge(b)
        assert a.nodes == 5
        assert a.max_depth == 5
        assert a.depth_sum == 9
        assert a.polynomial_cases == 1
        assert a.bound_prunes == 4


class TestMBBResult:
    def test_properties(self):
        result = MBBResult(biclique=Biclique.of([1, 2], [3, 4]))
        assert result.side_size == 2
        assert result.total_size == 4
        assert result.optimal
        assert result.terminated_at is None

    def test_step_constants_are_distinct(self):
        assert len({STEP_HEURISTIC, STEP_BRIDGE, STEP_VERIFY}) == 3

    def test_str_mentions_step_and_optimality(self):
        result = MBBResult(
            biclique=Biclique.of([1], [2]), optimal=False, terminated_at=STEP_VERIFY
        )
        text = str(result)
        assert "S3" in text
        assert "best-effort" in text


class TestSearchContextBestSide:
    """``best_side`` is a plain int kept in step with every incumbent write."""

    @staticmethod
    def _in_step(context) -> bool:
        return context.best_side == context.best.side_size

    def test_every_write_path_keeps_best_side_in_step(self):
        import pickle

        from repro.mbb.context import SearchContext
        from repro.mbb.result import Biclique
        from repro.mbb.size_constrained import _seed_bound

        context = SearchContext()
        assert context.best_side == 0 and self._in_step(context)
        assert context.offer([1, 2, 3], ["a", "b"])
        assert context.best_side == 2 and self._in_step(context)
        assert not context.offer([4], ["c"])
        assert context.offer_biclique(Biclique.of(range(5), "abcd"))
        assert context.best_side == 4 and self._in_step(context)
        _seed_bound(context, 6)
        assert context.best_side == 6 and self._in_step(context)
        context.best = Biclique.of(range(5), range(2))
        assert context.best_side == 2 and self._in_step(context)
        context.best = Biclique.empty()
        assert context.best_side == 0 and self._in_step(context)
        seeded = SearchContext(best=Biclique.of(range(3), range(7)))
        assert seeded.best_side == 3 and self._in_step(seeded)
        assert seeded.best_total == 6
        restored = pickle.loads(pickle.dumps(seeded))
        assert restored.best_side == 3 and self._in_step(restored)
        assert restored.offer(range(4), range(4))
        assert restored.best_side == 4 and self._in_step(restored)
