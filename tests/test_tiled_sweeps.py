"""Word-block tiling of the packed ancestor sweeps is exact.

:mod:`repro.accel.sweeps` runs every sweep over blocks of leaf words
sized by ``_BLOCK_BYTES``.  These tests force one-word and odd-sized
blocks (so the last block is partial and the trailing bits of
``full_row`` land inside a block) and demand exact agreement with

* an untiled oracle kept here -- the whole ``(N, W)`` sweep in one
  pass with ``np.bitwise_or.at`` over every edge, and
* the pure-Python big-int sweeps of :mod:`repro.core.ancestors`.

They also pin the peak memory of one coverage sweep, which the tiling
bounds by the block instead of by ``edges * N1 / 64``.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro import accel
from repro.core.ancestors import (
    has_updown_routing,
    sweeper_of,
    updown_coverage,
    updown_reachable_fraction,
)
from repro.core.expansion import expansion_trajectory
from repro.core.rfc import radix_regular_rfc, rfc_with_updown
from repro.faults.removal import shuffled_links
from repro.faults.updown_survival import (
    _stage_failure_positions,
    order_threshold,
)
from repro.topologies.packed import (
    PackedFoldedClos,
    packed_radix_regular_rfc,
)

pytestmark = pytest.mark.skipif(
    not accel.is_available(), reason="numpy accel layer unavailable"
)

if accel.is_available():
    from repro.accel import sweeps

N1_SIZES = [1, 2, 63, 64, 65, 130, 1000]


def _network(n1, rooted, seed):
    """Three-level ragged ``(level_sizes, up_stages)``.

    ``rooted`` gives every leaf an up-link and every middle switch a
    link to root 0, so all pairs are covered; otherwise links are
    sparse and some leaves share no ancestor.
    """
    rand = random.Random(seed)
    sizes = [n1, max(1, n1 // 3), max(1, n1 // 16)]
    stages = []
    for stage in range(2):
        n_hi = sizes[stage + 1]
        rows = []
        for _ in range(sizes[stage]):
            lo = 1 if rooted else 0
            ups = set(rand.sample(range(n_hi), rand.randint(lo, min(3, n_hi))))
            if rooted and stage == 1:
                ups.add(0)
            rows.append(sorted(ups))
        stages.append(rows)
    return sizes, stages


def _untiled_cover(sizes, stages, keep_masks=None):
    """Natural-layout coverage in one untiled pass (the oracle)."""
    n1 = sizes[0]
    singles = accel.pack_singletons(n1)
    words = singles.shape[1]
    edges = []
    for i, rows in enumerate(stages):
        src = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        dst = np.fromiter((t for r in rows for t in r), dtype=np.intp)
        keep = keep_masks[i] if keep_masks is not None else slice(None)
        edges.append((src[keep], dst[keep]))
    masks = singles
    for i, (src, dst) in enumerate(edges):
        upper = np.zeros((sizes[i + 1], words), dtype=np.uint64)
        np.bitwise_or.at(upper, dst, masks[src])
        masks = upper
    for i in range(len(edges) - 1, -1, -1):
        src, dst = edges[i]
        lower = np.zeros((sizes[i], words), dtype=np.uint64)
        np.bitwise_or.at(lower, src, masks[dst])
        masks = lower
    return masks | singles


def _pruned(stages, keep_masks):
    out = []
    for rows, keep in zip(stages, keep_masks):
        flat = iter(keep.tolist())
        out.append([[t for t in row if next(flat)] for row in rows])
    return out


def _random_keep(stages, seed, p):
    rand = np.random.default_rng(seed)
    return [rand.random(sum(len(r) for r in rows)) < p for rows in stages]


@pytest.fixture(params=[1, 3, None], ids=["1word", "3words", "default"])
def block_words(request, monkeypatch):
    """Force the sweep's block size (``None`` keeps the module's)."""
    words = request.param

    def force(sweeper):
        if words is not None:
            edges = max((s.src.size for s in sweeper.stages), default=0)
            monkeypatch.setattr(
                sweeps, "_BLOCK_BYTES", words * 8 * max(edges, 1)
            )
        return sweeper

    return force


class TestTiledEqualsUntiled:
    @pytest.mark.parametrize("rooted", [False, True], ids=["sparse", "rooted"])
    @pytest.mark.parametrize("n1", N1_SIZES)
    def test_unmasked(self, n1, rooted, block_words):
        sizes, stages = _network(n1, rooted, seed=n1)
        sweeper = block_words(accel.StageSweeper(sizes, stages))
        cover = sweeper.coverage_masks()
        assert np.array_equal(cover, _untiled_cover(sizes, stages))
        assert accel.masks_to_ints(cover) == updown_coverage(
            sizes, stages, accel=False
        )
        fraction = updown_reachable_fraction(sizes, stages, accel=False)
        ok = has_updown_routing(sizes, stages, accel=False)
        if rooted:
            assert ok
        # Both orders of the two cached queries read one count.
        assert sweeper.reachable_fraction() == fraction
        assert sweeper.has_updown() is ok
        other = block_words(accel.StageSweeper(sizes, stages))
        assert other.has_updown() is ok
        assert other.reachable_fraction() == fraction

    @pytest.mark.parametrize("n1", N1_SIZES)
    def test_masked(self, n1, block_words):
        sizes, stages = _network(n1, rooted=True, seed=n1)
        sweeper = block_words(accel.StageSweeper(sizes, stages))
        # p = 1 keeps every edge: the masked sweep must then report
        # full coverage, trailing partial word included.
        for seed, p in enumerate([1.0, 0.98, 0.85, 0.85]):
            keep = _random_keep(stages, seed, p)
            pruned = _pruned(stages, keep)
            cover = sweeper.coverage_masks(keep)
            assert np.array_equal(cover, _untiled_cover(sizes, stages, keep))
            assert accel.masks_to_ints(cover) == updown_coverage(
                sizes, pruned, accel=False
            )
            assert sweeper.has_updown(keep) is has_updown_routing(
                sizes, pruned, accel=False
            )
            assert sweeper.reachable_fraction(keep) == (
                updown_reachable_fraction(sizes, pruned, accel=False)
            )

    def test_rooted_networks_are_routable_and_masks_break_some(self):
        # Guards the fixtures: both answers of has_updown are exercised.
        sizes, stages = _network(1000, rooted=True, seed=1000)
        assert has_updown_routing(sizes, stages, accel=False)
        assert not has_updown_routing(
            sizes, _pruned(stages, _random_keep(stages, 2, 0.85)), accel=False
        )

    @pytest.mark.parametrize("n1", [63, 65, 1000])
    def test_descendant_masks(self, n1, block_words):
        sizes, stages = _network(n1, rooted=False, seed=n1)
        sweeper = block_words(accel.StageSweeper(sizes, stages))
        keep = _random_keep(stages, 1, 0.85)
        ref = accel.StageSweeper(sizes, _pruned(stages, keep))
        for ours, theirs in zip(
            sweeper.descendant_masks(keep), ref.descendant_masks()
        ):
            assert np.array_equal(ours, theirs)


class TestAnalysesUnchanged:
    def test_order_threshold(self, block_words):
        topo = radix_regular_rfc(8, 130, 3, rng=5)
        block_words(sweeper_of(topo))
        for seed in range(3):
            order = shuffled_links(topo, rng=seed)
            assert order_threshold(topo, order) == order_threshold(
                topo, order, accel=False
            )

    def test_expansion_trajectory(self, block_words):
        base = rfc_with_updown(8, 72, 3, rng=1)[0]
        block_words(sweeper_of(base))
        _, _, tiled = expansion_trajectory(base, steps=4, rng=3)
        _, _, ref = expansion_trajectory(base, steps=4, rng=3, accel=False)
        assert [s.updown_ok for s in tiled] == [s.updown_ok for s in ref]
        assert [s.reachable_fraction for s in tiled] == [
            s.reachable_fraction for s in ref
        ]
        assert not all(s.updown_ok for s in tiled)


def _dict_walk_positions(topo, sweeper, order):
    first = {}
    for position, link in enumerate(order):
        first.setdefault((link.lo, link.hi), position)
    out = []
    for stage, (src, dst) in enumerate(sweeper.edge_keys()):
        lo = src + topo.switch_id(stage, 0)
        hi = dst + topo.switch_id(stage + 1, 0)
        out.append(
            [first.get(pair, len(order)) for pair in zip(lo.tolist(), hi.tolist())]
        )
    return out


class TestStageFailurePositions:
    @pytest.mark.parametrize("packed", [False, True], ids=["list", "packed"])
    def test_matches_dict_walk(self, packed):
        topo = radix_regular_rfc(8, 72, 3, rng=2)
        if packed:
            topo = PackedFoldedClos.from_folded(topo)
        sweeper = sweeper_of(topo)
        order = shuffled_links(topo, rng=4)
        # A repeated link keeps its first position; a truncated order
        # leaves edges that never fail.
        order = order[:300] + [order[10], order[299]] + order[300:400]
        positions = _stage_failure_positions(topo, sweeper, order)
        expected = _dict_walk_positions(topo, sweeper, order)
        assert [p.tolist() for p in positions] == expected
        assert all(p.dtype == np.int64 for p in positions)
        assert any(len(order) in stage for stage in expected)

    def test_empty_order(self):
        topo = radix_regular_rfc(8, 16, 3, rng=2)
        sweeper = sweeper_of(topo)
        positions = _stage_failure_positions(topo, sweeper, [])
        assert all((p == 0).all() for p in positions)


def test_coverage_sweep_peak_memory():
    """One coverage sweep at N1 = 4,096 stays within 8 MiB of numpy
    allocations (the untiled sweep gathered ``edges * W`` words,
    about 70 MiB here)."""
    sweeper = sweeper_of(packed_radix_regular_rfc(64, 4096, 3, rng=0))
    tracemalloc.start()
    try:
        fraction = sweeper.reachable_fraction()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fraction == 1.0
    assert peak <= 8 * 2**20
