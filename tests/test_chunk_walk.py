"""The 12-bit chunk walk visits exactly the bits the lowbit walk visits.

``iter_bits``, ``k_core_masks``, ``core_numbers_masks`` and the S2
greedy's scans walk their masks twelve bits at a time through
``CHUNK_BITS``.  The lowbit walk below is the reference index sequence,
and the lowbit ``k_core_masks``, ``core_numbers_masks`` and
``_greedy_masks`` are the one reference each for the converted
functions, checked on bitgraphs wider than one chunk.  The reduction's
scans and the walk-free Lemma 3 exit are checked against their own
lowbit references in ``test_dense_exactness.py``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import pytest

from repro.graph.bipartite import LEFT, RIGHT
from repro.graph.bitset import (
    CHUNK_BITS,
    IndexedBitGraph,
    core_numbers_masks,
    iter_bits,
    k_core_masks,
)
from repro.graph.generators import random_bipartite, random_power_law_bipartite
from repro.mbb.heuristics import _greedy_masks


def lowbit_indices(mask: int) -> List[int]:
    """Set-bit indices of ``mask``, lowest first, one ``m & -m`` at a time."""
    indices = []
    while mask:
        low = mask & -mask
        mask ^= low
        indices.append(low.bit_length() - 1)
    return indices


def reference_k_core_masks(
    graph: IndexedBitGraph,
    k: int,
    left_mask: Optional[int] = None,
    right_mask: Optional[int] = None,
) -> Tuple[int, int]:
    """Peel vertices with fewer than ``k`` surviving neighbours, lowbit walk."""
    left = graph.all_left_mask if left_mask is None else left_mask
    right = graph.all_right_mask if right_mask is None else right_mask
    if k <= 0:
        return left, right
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    changed = True
    while changed:
        changed = False
        remaining = left
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            if (adj_left[low.bit_length() - 1] & right).bit_count() < k:
                left ^= low
                changed = True
        remaining = right
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            if (adj_right[low.bit_length() - 1] & left).bit_count() < k:
                right ^= low
                changed = True
    return left, right


def reference_core_numbers_masks(
    graph: IndexedBitGraph,
    left_mask: Optional[int] = None,
    right_mask: Optional[int] = None,
) -> Tuple[List[int], List[int]]:
    """The bucket peel's ``(core_left, core_right)``, lowbit walk."""
    left = graph.all_left_mask if left_mask is None else left_mask
    right = graph.all_right_mask if right_mask is None else right_mask
    n_left = graph.n_left
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    core_left = [0] * n_left
    core_right = [0] * graph.n_right

    degree = [0] * (n_left + graph.n_right)
    total = 0
    max_degree = 0
    remaining = left
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        i = low.bit_length() - 1
        d = (adj_left[i] & right).bit_count()
        degree[i] = d
        if d > max_degree:
            max_degree = d
        total += 1
    remaining = right
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        j = low.bit_length() - 1
        d = (adj_right[j] & left).bit_count()
        degree[n_left + j] = d
        if d > max_degree:
            max_degree = d
        total += 1
    if total == 0:
        return core_left, core_right
    buckets: List[List[int]] = [[] for _ in range(max_degree + 1)]
    remaining = left
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        i = low.bit_length() - 1
        buckets[degree[i]].append(i)
    remaining = right
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        j = low.bit_length() - 1
        buckets[degree[n_left + j]].append(n_left + j)

    remaining_left = left
    remaining_right = right
    current = 0
    processed = 0
    pointer = 0
    while processed < total:
        while pointer <= max_degree and not buckets[pointer]:
            pointer += 1
        if pointer > max_degree:
            break
        node = buckets[pointer].pop()
        if node < n_left:
            bit = 1 << node
            if not remaining_left & bit or degree[node] != pointer:
                continue
            remaining_left ^= bit
            if pointer > current:
                current = pointer
            core_left[node] = current
            neighbours = adj_left[node] & remaining_right
            offset = n_left
        else:
            j = node - n_left
            bit = 1 << j
            if not remaining_right & bit or degree[node] != pointer:
                continue
            remaining_right ^= bit
            if pointer > current:
                current = pointer
            core_right[j] = current
            neighbours = adj_right[j] & remaining_left
            offset = 0
        processed += 1
        while neighbours:
            low = neighbours & -neighbours
            neighbours ^= low
            key = offset + low.bit_length() - 1
            d = degree[key]
            if d > pointer:
                degree[key] = d - 1
                buckets[d - 1].append(key)
        if pointer > 0:
            pointer -= 1
    return core_left, core_right


def reference_greedy_masks(
    graph: IndexedBitGraph, seed_side: str, seed_index: int
) -> Tuple[int, int]:
    """The S2 greedy's ``(a, b)`` masks, lowbit walk."""
    adj_left = graph.adj_left
    adj_right = graph.adj_right
    seed_bit = 1 << seed_index
    if seed_side == LEFT:
        first, first_rows = adj_left[seed_index], adj_right
    else:
        first, first_rows = adj_right[seed_index], adj_left
    if not first:
        return (seed_bit, 0) if seed_side == LEFT else (0, seed_bit)
    best_bit = 0
    best_count = -1
    remaining = first
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        count = first_rows[low.bit_length() - 1].bit_count()
        if count > best_count:
            best_count = count
            best_bit = low
    pick_row = first_rows[best_bit.bit_length() - 1] & ~seed_bit
    if seed_side == LEFT:
        a, b = seed_bit, best_bit
        ca, cb = pick_row, first ^ best_bit
    else:
        a, b = best_bit, seed_bit
        ca, cb = first ^ best_bit, pick_row
    while True:
        extend_left = a.bit_count() <= b.bit_count()
        if extend_left:
            candidates, others, adj = ca, cb, adj_left
        else:
            candidates, others, adj = cb, ca, adj_right
        if not candidates:
            break
        best_bit = 0
        best_neighbours = 0
        best_kept = -1
        remaining = candidates
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            neighbours = adj[low.bit_length() - 1] & others
            kept = neighbours.bit_count()
            if kept > best_kept:
                best_kept = kept
                best_bit = low
                best_neighbours = neighbours
        if extend_left:
            a |= best_bit
            ca &= ~best_bit
            cb = best_neighbours
        else:
            b |= best_bit
            cb &= ~best_bit
            ca = best_neighbours
    return a, b


def _random_mask(rng: random.Random, width: int) -> int:
    density = rng.choice((0.02, 0.1, 0.5, 0.9, 1.0))
    return sum(1 << i for i in range(width) if rng.random() < density)


def _wide_bitgraph(seed: int) -> IndexedBitGraph:
    """A bitgraph with 40-200 vertices per side, uniform or power-law."""
    rng = random.Random(seed)
    n_left = rng.randint(40, 200)
    n_right = rng.randint(40, 200)
    if seed % 2:
        graph = random_power_law_bipartite(n_left, n_right, rng.uniform(3, 12), seed=rng)
    else:
        graph = random_bipartite(n_left, n_right, rng.choice((0.05, 0.2, 0.5, 0.85)), seed=rng)
    return IndexedBitGraph.from_bipartite(graph)


class TestChunkTable:
    def test_one_entry_per_12_bit_value(self):
        assert len(CHUNK_BITS) == 4096

    def test_each_entry_lists_its_set_bits_in_ascending_order(self):
        for value, bits in enumerate(CHUNK_BITS):
            assert all(x < y for x, y in zip(bits, bits[1:], strict=False)), value
            assert list(bits) == lowbit_indices(value)


class TestIterBitsMatchesLowbit:
    @pytest.mark.parametrize("position", [0, 11, 12, 13, 23, 24, 35, 36, 48])
    def test_single_bit_at_a_chunk_boundary(self, position):
        mask = 1 << position
        assert list(iter_bits(mask)) == lowbit_indices(mask) == [position]

    def test_full_and_empty_chunks(self):
        for mask in (0xFFF, 0xFFF << 12, 1 | 1 << 48, (1 << 300) - 1, 1 << 299 | 1):
            assert list(iter_bits(mask)) == lowbit_indices(mask)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_masks_up_to_300_bits(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            mask = _random_mask(rng, rng.randint(0, 300))
            assert list(iter_bits(mask)) == lowbit_indices(mask)


class TestKCoreMatchesLowbit:
    @pytest.mark.parametrize("seed", range(8))
    def test_whole_graph(self, seed):
        # Every k from 0 past the largest degree, in about 12 steps.
        bits = _wide_bitgraph(seed)
        top = max(row.bit_count() for row in bits.adj_left + bits.adj_right)
        for k in range(0, top + 2, max(1, top // 12)):
            assert k_core_masks(bits, k) == reference_k_core_masks(bits, k)

    @pytest.mark.parametrize("seed", range(8))
    def test_restricted_masks(self, seed):
        bits = _wide_bitgraph(100 + seed)
        rng = random.Random(seed)
        for _ in range(6):
            left = _random_mask(rng, bits.n_left)
            right = _random_mask(rng, bits.n_right)
            k = rng.randint(1, 10)
            assert k_core_masks(bits, k, left, right) == reference_k_core_masks(
                bits, k, left, right
            )


class TestCoreNumbersMatchLowbit:
    @pytest.mark.parametrize("seed", range(8))
    def test_whole_graph(self, seed):
        bits = _wide_bitgraph(300 + seed)
        assert core_numbers_masks(bits) == reference_core_numbers_masks(bits)

    @pytest.mark.parametrize("seed", range(8))
    def test_restricted_masks(self, seed):
        bits = _wide_bitgraph(400 + seed)
        rng = random.Random(seed)
        for _ in range(6):
            left = _random_mask(rng, bits.n_left)
            right = _random_mask(rng, bits.n_right)
            assert core_numbers_masks(bits, left, right) == reference_core_numbers_masks(
                bits, left, right
            )


class TestGreedyMatchesLowbit:
    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_seed_vertices(self, seed):
        bits = _wide_bitgraph(200 + seed)
        seeds = [(LEFT, i) for i in range(bits.n_left)]
        seeds.extend((RIGHT, j) for j in range(bits.n_right))
        for side, index in random.Random(seed).sample(seeds, 60):
            assert _greedy_masks(bits, side, index) == reference_greedy_masks(
                bits, side, index
            )
