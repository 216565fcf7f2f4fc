"""Packed-bitset ancestor sweeps over ``(level_sizes, up_stages)``.

Vectorized twins of the big-int sweeps in :mod:`repro.core.ancestors`
and of the ``U_j`` table construction in
:class:`repro.routing.updown.UpDownRouter`:

* the **descendant sweep** walks stages upward, OR-ing each upper
  switch's down-neighbor leaf sets (grouped by upper endpoint);
* the **coverage sweep** walks stages downward, OR-ing each lower
  switch's up-neighbor root-coverage sets (grouped by lower endpoint);
* the **reach tables** iterate the coverage recurrence once per ascent
  budget ``j``, exactly like the router's reference construction.

Each stage's edges are laid out flat once (:class:`StageSweeper`), with
both groupings precomputed, so a sweep is one gather plus one
``reduceat`` per stage.  Three layout decisions carry the performance:

* mask arrays are held **transposed** -- ``(W, N)`` words-by-switches
  -- because ``np.bitwise_or.reduceat`` along the last (contiguous)
  axis is an order of magnitude faster than reducing axis 0 of the
  natural ``(N, W)`` layout (the reduction then strides across rows);
* every internal array carries one trailing always-zero **null
  column**, and pruned edges are redirected there by index instead of
  zeroing their gathered rows -- zero is the OR identity, so a masked
  edge contributes nothing, and the mask costs one ``np.where`` over
  edge indices rather than a scatter write into the gather buffer;
* every gather runs over a **block of leaf words** at a time.  Bit
  ``i`` of any mask depends only on bit ``i`` of the leaf singletons,
  so words are independent: a ``b``-word block gathers ``b * edges``
  words into one preallocated buffer, sized so a block fits
  :data:`_BLOCK_BYTES`.  The coverage queries go further and run the
  whole sweep (ascend every stage, then cover back down) per block,
  reduce the block to a covered-pair count and drop it -- their peak
  memory is set by the block, not by ``N1 ** 2``.

Fault analyses therefore pass per-stage boolean *keep* masks instead
of rebuilding pruned stage lists, which is what makes
:func:`repro.faults.updown_survival.order_threshold`'s binary search
incremental (one mask comparison per probe, no Python list rebuilds,
and a failing probe stops at the first block with an uncovered pair).
Public methods return masks in the natural ``(N, W)`` layout expected
by :mod:`repro.accel.bitset`.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .bitset import full_row, popcount, words_for

__all__ = ["StageSweeper", "IncrementalSweeper"]

StageAdjacency = Sequence[Sequence[Sequence[int]]]

#: Gather-buffer budget of one word block: the block is this many bytes
#: over the largest stage's ``8 * edges`` (at least one word), so one
#: block's gather stays about the size of a core's L2 cache.
_BLOCK_BYTES = 2 << 20


def _block_words(edges: int, words: int) -> int:
    """Words per block for a sweep gathering ``edges`` per word."""
    return max(1, min(words, _BLOCK_BYTES // (8 * max(edges, 1))))


def _singletons_t(n: int) -> NDArray[np.uint64]:
    """Transposed singleton masks: ``(W, n + 1)`` with a null column."""
    out = np.zeros((words_for(n), n + 1), dtype=np.uint64)
    idx = np.arange(n, dtype=np.intp)
    out[idx >> 6, idx] = np.uint64(1) << (idx & 63).astype(np.uint64)
    return out


def _natural(masks_t: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """Back to the natural ``(N, W)`` layout, null column stripped."""
    return np.ascontiguousarray(masks_t[:, :-1].T)


class _Reduction(NamedTuple):
    """One grouped OR: ``out[:, rows[k]] = OR src[:, idx[starts[k]:starts[k + 1]]]``.

    ``rows`` holds the output rows with at least one edge (the others
    stay zero).
    """

    idx: NDArray[np.intp]
    starts: NDArray[np.intp]
    rows: NDArray[np.intp]

    def masked(self, keep: NDArray[np.bool_], null: int) -> "_Reduction":
        """Pruned edges (``keep`` False) redirected to the null column."""
        return self._replace(idx=np.where(keep, self.idx, null))


def _gather_or(
    src: NDArray[np.uint64],
    red: _Reduction,
    out: NDArray[np.uint64],
    buf: NDArray[np.uint64],
) -> None:
    """Apply ``red`` to one word block of ``(b, n + 1)`` masks.

    ``buf`` is the flat gather buffer, at least ``b * len(red.idx)``
    words; ``mode="clip"`` lets ``np.take`` write into it unbuffered
    (every index is in range by construction).
    """
    if red.rows.size == 0:
        return
    gathered = buf[: src.shape[0] * red.idx.size].reshape(
        src.shape[0], red.idx.size
    )
    np.take(src, red.idx, axis=1, out=gathered, mode="clip")
    out[:, red.rows] = np.bitwise_or.reduceat(gathered, red.starts, axis=1)


def _tiled(
    red: _Reduction, src_t: NDArray[np.uint64], out_t: NDArray[np.uint64]
) -> NDArray[np.uint64]:
    """Apply ``red`` to whole transposed arrays, one word block at a time."""
    words = src_t.shape[0]
    step = _block_words(red.idx.size, words)
    buf = np.empty(step * red.idx.size, dtype=np.uint64)
    for w0 in range(0, words, step):
        _gather_or(src_t[w0 : w0 + step], red, out_t[w0 : w0 + step], buf)
    return out_t


def _zeros_t(words: int, n: int) -> NDArray[np.uint64]:
    return np.zeros((words, n + 1), dtype=np.uint64)


class _StageEdges:
    """One inter-level stage flattened for both reduction directions."""

    __slots__ = (
        "n_lo", "n_hi", "src", "dst", "down_perm", "down_src",
        "down_offsets", "or_up", "or_down",
    )

    def __init__(self, n_lo: int, n_hi: int, rows: Sequence[Sequence[int]]):
        counts = np.fromiter(
            (len(row) for row in rows), dtype=np.intp, count=n_lo
        )
        offsets = np.zeros(n_lo + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        edges = int(offsets[-1])
        dst = np.fromiter(
            (t for row in rows for t in row), dtype=np.intp, count=edges
        )
        self._index(n_lo, n_hi, counts, offsets, dst)

    @classmethod
    def from_csr(
        cls,
        n_lo: int,
        n_hi: int,
        offsets: NDArray[np.int64],
        indices: NDArray[np.int32],
    ) -> "_StageEdges":
        """Array-native constructor: no Python row iteration.

        ``offsets``/``indices`` are a per-row-sorted CSR as built by
        :class:`repro.topologies.packed.PackedFoldedClos`; sorted rows
        make the flat edge order identical to the list-of-rows
        constructor's, so ``keep`` masks are interchangeable between
        the two build paths.
        """
        self = cls.__new__(cls)
        off = offsets.astype(np.intp, copy=False)
        self._index(
            n_lo, n_hi, np.diff(off), off, indices.astype(np.intp, copy=False)
        )
        return self

    def _index(
        self,
        n_lo: int,
        n_hi: int,
        counts: NDArray[np.intp],
        offsets: NDArray[np.intp],
        dst: NDArray[np.intp],
    ) -> None:
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.src = np.repeat(np.arange(n_lo, dtype=np.intp), counts)
        self.dst = dst
        # OR down (coverage sweep): group by lower endpoint, which is
        # the flat edge order already.
        up_rows = np.nonzero(counts)[0]
        self.or_down = _Reduction(dst, offsets[up_rows], up_rows)
        # OR up (descendant sweep): group by upper endpoint; the stable
        # sort keeps per-switch edge order deterministic.
        self.down_perm = np.argsort(self.dst, kind="stable")
        self.down_src = self.src[self.down_perm]
        dst_counts = np.bincount(self.dst, minlength=n_hi).astype(np.intp)
        self.down_offsets = np.zeros(n_hi + 1, dtype=np.intp)
        np.cumsum(dst_counts, out=self.down_offsets[1:])
        down_rows = np.nonzero(dst_counts)[0]
        self.or_up = _Reduction(
            self.down_src, self.down_offsets[down_rows], down_rows
        )

    def up_kept(self, keep: NDArray[np.bool_] | None) -> _Reduction:
        """``or_up`` over the edges ``keep`` leaves standing."""
        if keep is None:
            return self.or_up
        return self.or_up.masked(keep[self.down_perm], self.n_lo)

    def down_kept(self, keep: NDArray[np.bool_] | None) -> _Reduction:
        """``or_down`` over the edges ``keep`` leaves standing."""
        if keep is None:
            return self.or_down
        return self.or_down.masked(keep, self.n_hi)

    def or_up_rows(
        self,
        lower_t: NDArray[np.uint64],
        out_t: NDArray[np.uint64],
        rows: NDArray[np.intp],
    ) -> None:
        """Recompute only ``rows`` of the up-reduction, in place.

        ``out_t`` is a transposed ``(W, n_hi + 1)`` mask array whose
        other columns are assumed current; the selected rows are fully
        re-reduced from ``lower_t`` (rows with no down-neighbors become
        zero).  This is the incremental-sweep workhorse: cost scales
        with the edges *of the dirty rows*, not the stage.
        """
        if rows.size == 0:
            return
        out_t[:, rows] = 0
        starts = self.down_offsets[rows]
        lens = self.down_offsets[rows + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return
        # Concatenated [start, start + len) ranges for every dirty row.
        ends = np.cumsum(lens)
        pos = np.arange(total, dtype=np.intp)
        pos += np.repeat(starts - (ends - lens), lens)
        nonempty = lens > 0
        red = _Reduction(
            self.down_src[pos], (ends - lens)[nonempty], rows[nonempty]
        )
        _tiled(red, lower_t, out_t)


def _count_covered(blocks: Iterator[tuple[int, NDArray[np.uint64]]]) -> int:
    """Set bits over every coverage block: ``N1 ** 2`` = all pairs covered."""
    return sum(int(popcount(block).sum()) for _, block in blocks)


def _all_covered(
    n1: int, blocks: Iterator[tuple[int, NDArray[np.uint64]]]
) -> bool:
    """Whether every block is full, stopping at the first one that is not."""
    full = full_row(n1)
    return all(
        bool(np.all(block == full[w0 : w0 + block.shape[0], None]))
        for w0, block in blocks
    )


def _fill(
    n1: int, blocks: Iterator[tuple[int, NDArray[np.uint64]]]
) -> NDArray[np.uint64]:
    """Assemble coverage blocks into the natural ``(N1, W)`` layout."""
    out = np.empty((n1, words_for(n1)), dtype=np.uint64)
    for w0, block in blocks:
        out[:, w0 : w0 + block.shape[0]] = block.T
    return out


class StageSweeper:
    """Reusable packed-sweep engine for one ``(level_sizes, up_stages)``.

    Construction cost is one pass over the stage lists; every sweep
    afterwards is pure numpy.  ``keep_masks`` arguments, when given,
    hold one boolean array per stage aligned with that stage's flat
    edge order (row-major over ``up_stages[stage]``) -- ``False``
    removes the edge from the sweep.  The sweeper is immutable, so the
    unmasked covered-pair count is computed once and shared by
    :meth:`has_updown` and :meth:`reachable_fraction`.
    """

    def __init__(
        self, level_sizes: Sequence[int], up_stages: StageAdjacency
    ) -> None:
        if len(up_stages) != len(level_sizes) - 1:
            raise ValueError("up_stages must have one entry per stage")
        sizes = [int(n) for n in level_sizes]
        self._init(
            sizes,
            [
                _StageEdges(sizes[i], sizes[i + 1], rows)
                for i, rows in enumerate(up_stages)
            ],
        )

    @classmethod
    def from_arrays(
        cls,
        level_sizes: Sequence[int],
        stage_arrays: Sequence[
            tuple[NDArray[np.int64], NDArray[np.int32]]
        ],
    ) -> "StageSweeper":
        """Build from per-stage sorted-row CSR ``(offsets, indices)`` pairs.

        The array-native twin of ``__init__`` for
        :class:`repro.topologies.packed.PackedFoldedClos` stage arrays
        (see :meth:`~repro.topologies.packed.PackedFoldedClos.up_stage_arrays`):
        no Python row lists are materialized, and the flat edge order
        matches the list constructor's exactly, so sweeps and ``keep``
        masks agree bit for bit across both build paths.
        """
        if len(stage_arrays) != len(level_sizes) - 1:
            raise ValueError("stage_arrays must have one entry per stage")
        self = cls.__new__(cls)
        sizes = [int(n) for n in level_sizes]
        self._init(
            sizes,
            [
                _StageEdges.from_csr(sizes[i], sizes[i + 1], off, idx)
                for i, (off, idx) in enumerate(stage_arrays)
            ],
        )
        return self

    def _init(self, sizes: list[int], stages: list[_StageEdges]) -> None:
        self.level_sizes = sizes
        self.n1 = sizes[0]
        self.stages = stages
        self._covered: int | None = None

    # ------------------------------------------------------------------
    # Core sweeps (internal: transposed layout with null column)
    # ------------------------------------------------------------------
    def _descend_t(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None
    ) -> list[NDArray[np.uint64]]:
        masks = [_singletons_t(self.n1)]
        words = masks[0].shape[0]
        for i, stage in enumerate(self.stages):
            keep = keep_masks[i] if keep_masks is not None else None
            masks.append(
                _tiled(stage.up_kept(keep), masks[i], _zeros_t(words, stage.n_hi))
            )
        return masks

    def _cover_blocks(
        self,
        keep_masks: Sequence[NDArray[np.bool_]] | None,
        top_t: NDArray[np.uint64] | None = None,
    ) -> Iterator[tuple[int, NDArray[np.uint64]]]:
        """Yield ``(w0, block)``: coverage words ``w0 .. w0 + b - 1``.

        ``block`` is ``(b, N1)`` -- row ``k`` holds word ``w0 + k`` of
        every leaf's coverage mask (own bit included) -- and is only
        valid until the next block is drawn: every buffer is reused.
        Each block runs the whole sweep on its own.  ``top_t``, the
        transposed top-level descendant masks, skips the ascent
        (:class:`IncrementalSweeper` keeps them current).
        """
        keeps = keep_masks if keep_masks is not None else [None] * len(self.stages)
        ups = [s.up_kept(k) for s, k in zip(self.stages, keeps)]
        downs = [s.down_kept(k) for s, k in zip(self.stages, keeps)]
        edges = max((s.src.size for s in self.stages), default=0)
        words = words_for(self.n1)
        step = _block_words(edges, words)
        buf = np.empty(step * edges, dtype=np.uint64)
        # Ascent buffers above the leaves only when the ascent runs.
        ascent_sizes = self.level_sizes if top_t is None else self.level_sizes[:1]
        ascent = [_zeros_t(step, n) for n in ascent_sizes]
        descent = [_zeros_t(step, n) for n in self.level_sizes[:-1]]
        result = _zeros_t(step, self.n1)
        bits = np.uint64(1) << (
            np.arange(64 * step, dtype=np.intp) & 63
        ).astype(np.uint64)
        for w0 in range(0, words, step):
            b = min(step, words - w0)
            leaves = np.arange(
                64 * w0, min(64 * (w0 + b), self.n1), dtype=np.intp
            )
            word = (leaves >> 6) - w0
            singles = ascent[0][:b]
            singles[word, leaves] = bits[: leaves.size]
            if top_t is None:
                for i, or_up in enumerate(ups):
                    _gather_or(ascent[i][:b], or_up, ascent[i + 1][:b], buf)
                cover = ascent[-1][:b]
            else:
                cover = top_t[w0 : w0 + b]
            for i, or_down in reversed(list(enumerate(downs))):
                _gather_or(cover, or_down, descent[i][:b], buf)
                cover = descent[i][:b]
            np.bitwise_or(cover, singles, out=result[:b])
            yield w0, result[:b, :-1]
            singles[word, leaves] = 0

    def _unmasked_covered(self) -> int:
        if self._covered is None:
            self._covered = _count_covered(self._cover_blocks(None))
        return self._covered

    # ------------------------------------------------------------------
    # Public sweeps (natural ``(N, W)`` layout)
    # ------------------------------------------------------------------
    def descendant_masks(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None = None
    ) -> list[NDArray[np.uint64]]:
        """Per-level ``(N_level, W)`` packed descendant-leaf sets."""
        return [_natural(m) for m in self._descend_t(keep_masks)]

    def coverage_masks(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None = None
    ) -> NDArray[np.uint64]:
        """Per-leaf packed up*/down* coverage (own bit included)."""
        return _fill(self.n1, self._cover_blocks(keep_masks))

    def has_updown(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None = None
    ) -> bool:
        """Whether every leaf pair keeps a common ancestor."""
        if self.n1 == 0:
            return True
        if keep_masks is None:
            return self._unmasked_covered() == self.n1 * self.n1
        return _all_covered(self.n1, self._cover_blocks(keep_masks))

    def reachable_fraction(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None = None
    ) -> float:
        """Fraction of ordered leaf pairs joined by an up*/down* path."""
        if self.n1 < 2:
            return 1.0
        if keep_masks is None:
            covered = self._unmasked_covered()
        else:
            covered = _count_covered(self._cover_blocks(keep_masks))
        return (covered - self.n1) / (self.n1 * (self.n1 - 1))

    def root_ancestor_masks(self) -> NDArray[np.uint64]:
        """Per-leaf packed set of reachable root switches."""
        masks = _singletons_t(self.level_sizes[-1])
        for stage in reversed(self.stages):
            masks = _tiled(
                stage.or_down, masks, _zeros_t(masks.shape[0], stage.n_lo)
            )
        return _natural(masks)

    # ------------------------------------------------------------------
    # Router tables
    # ------------------------------------------------------------------
    def reach_tables(self) -> list[list[NDArray[np.uint64]]]:
        """``tables[level][j]`` = packed ``U_j`` masks, one row per switch.

        ``U_0`` is the descendant sweep; ``U_j`` at a level is the OR of
        ``U_{j-1}`` over up-neighbors -- the exact recurrence of
        :meth:`UpDownRouter._build_tables`, so converting these rows to
        big-ints reproduces the reference ``_reach`` bit for bit.
        Level ``L`` has entries for ``j = 0 .. levels - 1 - L``.
        """
        levels = len(self.level_sizes)
        descend = self._descend_t(None)
        words = descend[0].shape[0]
        tables_t: list[list[NDArray[np.uint64]]] = [
            [descend[level]] for level in range(levels)
        ]
        for j in range(1, levels):
            for level in range(levels - j):
                stage = self.stages[level]
                tables_t[level].append(
                    _tiled(
                        stage.or_down,
                        tables_t[level + 1][j - 1],
                        _zeros_t(words, stage.n_lo),
                    )
                )
        return [[_natural(t) for t in per_level] for per_level in tables_t]

    # ------------------------------------------------------------------
    # Incremental pruning
    # ------------------------------------------------------------------
    def keep_masks_for_positions(
        self,
        positions: Sequence[NDArray[np.int64]],
        threshold: int,
    ) -> list[NDArray[np.bool_]]:
        """Keep masks for "first ``threshold`` failures applied".

        ``positions[stage][e]`` is the failure-order index of stage
        edge ``e`` (``len(order)`` and beyond = never fails); an edge
        survives while its position is ``>= threshold``.  Binary
        searches re-derive the masks per probe with one comparison per
        edge -- no stage lists are rebuilt.
        """
        return [pos >= threshold for pos in positions]

    def edge_keys(self) -> list[tuple[NDArray[np.intp], NDArray[np.intp]]]:
        """Per-stage ``(src, dst)`` level-local endpoint arrays.

        Aligned with the flat edge order used by ``keep`` masks; used
        to map failure orders (flat :class:`Link` ids) onto stage
        edges.
        """
        return [(stage.src, stage.dst) for stage in self.stages]


class IncrementalSweeper:
    """Descendant sweeps that survive topology growth.

    Strong-expansion analysis (paper Section 4.4 / Figure 7) evaluates
    the *same* RFC at a ladder of sizes: each step adds a few switches
    per level and rewires O(R) links, leaving the vast majority of
    stage edges -- and therefore of descendant-leaf masks -- untouched.
    This sweeper keeps the transposed descendant masks of the previous
    size and, on :meth:`update`, recomputes only the **dirty** rows:

    * upper endpoints of stage edges added or removed since the last
      size (diffed as sorted int64 ``src * n_hi + dst`` keys);
    * up-neighbors of rows already dirty one level below (a changed
      descendant set propagates along every surviving up-link);
    * switches that did not exist at the previous size.

    Dirtiness only ever propagates *upward*; the downward coverage
    sweep is re-run in full from the cached root masks (a single dirty
    root would dirty nearly every leaf, so there is nothing to save in
    that direction -- and the upward half is where the stage-edge
    indexing cost lives).  Levels may only grow: sizes must be
    monotonically non-decreasing with an unchanged level count.

    Equality with a from-scratch :class:`StageSweeper` at every step is
    asserted by ``tests/test_incremental_ancestors.py``.
    """

    def __init__(
        self,
        level_sizes: Sequence[int],
        stage_arrays: Sequence[
            tuple[NDArray[np.int64], NDArray[np.int32]]
        ],
    ) -> None:
        self._sweeper = StageSweeper.from_arrays(level_sizes, stage_arrays)
        self._descend_t = self._sweeper._descend_t(None)
        self._covered: int | None = None
        self.last_update_stats: dict[str, int] = {
            "dirty_rows": sum(self.level_sizes[1:]),
            "total_rows": sum(self.level_sizes[1:]),
        }

    @property
    def level_sizes(self) -> list[int]:
        return self._sweeper.level_sizes

    @property
    def n1(self) -> int:
        return self._sweeper.n1

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def update(
        self,
        level_sizes: Sequence[int],
        stage_arrays: Sequence[
            tuple[NDArray[np.int64], NDArray[np.int32]]
        ],
    ) -> dict[str, int]:
        """Adopt a grown topology, recomputing only dirty mask rows.

        Returns (and stores as :attr:`last_update_stats`) the dirty /
        total row counts above level 0 -- the incremental saving is
        ``1 - dirty / total`` of the upward sweep.
        """
        old_sizes = self.level_sizes
        new_sizes = [int(n) for n in level_sizes]
        if len(new_sizes) != len(old_sizes):
            raise ValueError(
                f"level count changed ({len(old_sizes)} -> {len(new_sizes)}); "
                "incremental update needs a fixed level structure"
            )
        if any(n < o for n, o in zip(new_sizes, old_sizes)):
            raise ValueError("levels may only grow under incremental update")
        new_sweeper = StageSweeper.from_arrays(new_sizes, stage_arrays)
        masks = [_singletons_t(new_sizes[0])]
        dirty = np.arange(old_sizes[0], new_sizes[0], dtype=np.intp)
        dirty_rows = 0
        for i, stage in enumerate(new_sweeper.stages):
            old_stage = self._sweeper.stages[i]
            n_hi_new = np.int64(new_sizes[i + 1])
            new_keys = stage.src * n_hi_new + stage.dst
            old_keys = old_stage.src * n_hi_new + old_stage.dst
            changed = np.concatenate(
                [
                    np.setdiff1d(new_keys, old_keys, assume_unique=True),
                    np.setdiff1d(old_keys, new_keys, assume_unique=True),
                ]
            )
            parts = [
                (changed % n_hi_new).astype(np.intp),
                np.arange(old_sizes[i + 1], new_sizes[i + 1], dtype=np.intp),
            ]
            if dirty.size:
                below = np.zeros(new_sizes[i], dtype=bool)
                below[dirty] = True
                parts.append(stage.dst[below[stage.src]])
            dirty = np.unique(np.concatenate(parts))
            upper = np.zeros(
                (words_for(new_sizes[0]), new_sizes[i + 1] + 1),
                dtype=np.uint64,
            )
            old_upper = self._descend_t[i + 1]
            upper[: old_upper.shape[0], : old_sizes[i + 1]] = old_upper[:, :-1]
            stage.or_up_rows(masks[i], upper, dirty)
            masks.append(upper)
            dirty_rows += int(dirty.size)
        self._sweeper = new_sweeper
        self._descend_t = masks
        self._covered = None
        self.last_update_stats = {
            "dirty_rows": dirty_rows,
            "total_rows": sum(new_sizes[1:]),
        }
        return self.last_update_stats

    # ------------------------------------------------------------------
    # Queries (natural layout, matching StageSweeper semantics)
    # ------------------------------------------------------------------
    def _cover_blocks(self) -> Iterator[tuple[int, NDArray[np.uint64]]]:
        return self._sweeper._cover_blocks(None, top_t=self._descend_t[-1])

    def _unmasked_covered(self) -> int:
        if self._covered is None:
            self._covered = _count_covered(self._cover_blocks())
        return self._covered

    def descendant_masks(self) -> list[NDArray[np.uint64]]:
        """Per-level ``(N_level, W)`` packed descendant-leaf sets."""
        return [_natural(m) for m in self._descend_t]

    def coverage_masks(self) -> NDArray[np.uint64]:
        """Per-leaf packed up*/down* coverage (own bit included)."""
        return _fill(self.n1, self._cover_blocks())

    def has_updown(self) -> bool:
        """Whether every leaf pair has a common ancestor."""
        if self.n1 == 0:
            return True
        return self._unmasked_covered() == self.n1 * self.n1

    def reachable_fraction(self) -> float:
        """Fraction of ordered leaf pairs joined by an up*/down* path."""
        if self.n1 < 2:
            return 1.0
        covered = self._unmasked_covered() - self.n1
        return covered / (self.n1 * (self.n1 - 1))
