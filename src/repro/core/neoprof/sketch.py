"""Count-Min Sketch with hot and valid bits (Fig. 7 of the paper).

Each of the ``D x W`` entries holds a saturating counter, a *hot bit*
(the in-sketch bloom filter that deduplicates hot-page reports) and a
*valid bit* (cleared in bulk to reset the sketch without touching the
counter SRAM).  The valid bits are modelled with a generation number so
the O(1) hardware reset is O(1) here too.

Guarantees (Cormode & Muthukrishnan):  with ``W = ceil(2/eps)`` and
``D = ceil(log2(1/delta))``, the estimate ``a_hat`` satisfies
``a <= a_hat <= a + eps*N`` with probability ``1 - delta``.
"""
# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

import numpy as np

from repro.core.neoprof.h3 import H3HashFamily


class CountMinSketch:
    """Hardware-faithful CM sketch over page addresses.

    Args:
        width: Columns per lane (W; Table IV default 512K).
        depth: Lanes (D; Table IV default 2).
        counter_bits: Saturating counter width (Table IV: 16).
        addr_bits: Input page-address bits (Table IV: 32).
        seed: Hash-seed RNG seed.
    """

    def __init__(
        self,
        width: int = 512 * 1024,
        depth: int = 2,
        counter_bits: int = 16,
        addr_bits: int = 32,
        seed: int = 0xC0FFEE,
    ) -> None:
        if width <= 0 or width & (width - 1):
            raise ValueError("sketch width must be a power of two")
        if depth <= 0:
            raise ValueError("sketch depth must be positive")
        if not 1 <= counter_bits <= 32:
            raise ValueError("counter_bits must be in 1..32")
        self.width = int(width)
        self.depth = int(depth)
        self.counter_bits = int(counter_bits)
        self.counter_max = (1 << counter_bits) - 1
        self.hashes = H3HashFamily(addr_bits, width, depth, seed)
        self._counters = np.zeros((depth, width), dtype=np.uint32)
        self._hot = np.zeros((depth, width), dtype=bool)
        # lane offsets for flat (lane * width + col) entry indices; int32
        # when the entry space fits — the sort inside np.unique and every
        # gather run measurably faster on the narrower type
        self._flat_dtype = np.int32 if depth * width <= np.iinfo(np.int32).max else np.int64
        self._lane_offsets = (np.arange(depth, dtype=self._flat_dtype) * width)[:, None]
        # Generation-based valid bits: an entry is valid iff its
        # generation matches the current one.  clear() bumps the
        # generation, invalidating every entry at once.
        self._gen = np.zeros((depth, width), dtype=np.uint32)
        self._current_gen = np.uint32(1)
        # entry-space scratch for the O(n) scatter-dedup in update_batch
        # (allocated on first use; np.unique's sort dominated otherwise)
        self._dedupe_scratch: np.ndarray | None = None
        # entries validated since the last clear(), in chunks of unique
        # flat indices: lets the histogram snapshot gather just the valid
        # counters instead of scanning a full row
        self._valid_chunks: list[np.ndarray] = []
        self._valid_cache: np.ndarray | None = None
        self.total_updates = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_error_bounds(cls, epsilon: float, delta: float, **kwargs) -> "CountMinSketch":
        """Size the sketch from the (eps, delta) guarantee of Sec. IV-B."""
        if not 0 < epsilon < 1 or not 0 < delta < 1:
            raise ValueError("epsilon and delta must be in (0, 1)")
        width = int(np.ceil(2.0 / epsilon))
        width = 1 << (width - 1).bit_length()  # round up to power of two
        depth = max(1, int(np.ceil(np.log2(1.0 / delta))))
        return cls(width=width, depth=depth, **kwargs)

    # ------------------------------------------------------------------
    def hash_cols(self, pages: np.ndarray) -> np.ndarray:
        """Column indices ``(depth, n)`` for ``pages``.

        The detector pipeline hashes a batch exactly once and threads the
        result through update/estimate/hot-bit calls via their ``cols``
        parameter, matching the hardware where one H3 unit feeds every
        downstream consumer.
        """
        return self.hashes.hash_batch(np.asarray(pages, dtype=np.uint64))

    def flat_index(self, cols: np.ndarray) -> np.ndarray:
        """Flat ``lane * width + col`` entry index per hashed column.

        Like ``cols``, the result can be computed once per batch and
        threaded through update/estimate/hot-bit calls via their
        ``flat`` parameter (the detector pipeline does exactly that).
        """
        return cols.astype(self._flat_dtype) + self._lane_offsets

    _flat_index = flat_index

    def _validate_flat(self, flat: np.ndarray) -> None:
        """Zero-fill entries whose generation is stale, then mark valid."""
        gen = self._gen.reshape(-1)
        stale = flat[gen[flat] != self._current_gen]
        if stale.size:
            self._counters.reshape(-1)[stale] = 0
            self._hot.reshape(-1)[stale] = False
            gen[stale] = self._current_gen
            self._track_validated(stale)

    def _track_validated(self, stale: np.ndarray) -> None:
        """Record newly validated entries for the sparse histogram path.

        ``stale`` can carry duplicates (callers pass raw hashed indices);
        the same reverse-position scatter as ``update_batch`` keeps each
        entry's first occurrence.  Every entry lands in the chunk list at
        most once per generation — once validated it is never stale again
        until the next ``clear``.
        """
        scratch = self._dedupe_scratch
        if scratch is None:
            scratch = self._dedupe_scratch = np.zeros(self.depth * self.width, dtype=np.int32)
        pos = np.arange(stale.size, dtype=np.int32)
        scratch[stale[::-1]] = pos[::-1]
        self._valid_chunks.append(stale[scratch[stale] == pos])
        self._valid_cache = None

    def _valid_entries(self) -> np.ndarray:
        """Unique flat indices of every entry valid this generation."""
        if self._valid_cache is None:
            if self._valid_chunks:
                self._valid_cache = np.concatenate(self._valid_chunks)
                self._valid_chunks = [self._valid_cache]
            else:
                self._valid_cache = np.zeros(0, dtype=self._flat_dtype)
        return self._valid_cache

    def update_batch(
        self,
        pages: np.ndarray,
        cols: np.ndarray | None = None,
        counts: np.ndarray | None = None,
        flat: np.ndarray | None = None,
    ) -> None:
        """Stream a batch of page addresses into the sketch (Eq. 1).

        ``cols`` reuses columns already computed by :meth:`hash_cols`;
        ``counts`` folds pre-aggregated per-page multiplicities in (the
        detector passes the unique pages of an epoch with their counts —
        the resulting counters are identical to streaming every request).

        Counters saturate at ``counter_max``: the increment is applied in
        64-bit arithmetic and clamped *before* the write-back, so a
        saturated counter holds at the ceiling instead of wrapping the
        uint32 storage.

        Returns the deduplicated entries' clamped counters and the
        dense-rank map from hashed positions back into them — the raw
        material :meth:`update_estimate_batch` builds its fused
        post-update estimate from.
        """
        pages = np.asarray(pages, dtype=np.uint64)
        if pages.size == 0:
            return
        if flat is None:
            if cols is None:
                cols = self.hashes.hash_batch(pages)  # (D, n)
            flat = self.flat_index(cols)
        # Deduplicate the hashed entries with an O(n) scatter over a
        # persistent entry-space scratch instead of the sort inside
        # np.unique: a reversed position scatter leaves each entry's
        # first-occurrence index behind, and a second scatter relabels
        # entries with their dense rank for the segment sum below.  The
        # final counters don't depend on entry order, so the unsorted
        # unique set is equivalent.
        flat_all = np.ascontiguousarray(flat).reshape(-1)
        scratch = self._dedupe_scratch
        if scratch is None:
            # int32 positions: batch sizes stay far below 2**31, and the
            # narrower scratch halves the traffic of the random scatters
            scratch = self._dedupe_scratch = np.zeros(self.depth * self.width, dtype=np.int32)
        pos = np.arange(flat_all.size, dtype=np.int32)
        scratch[flat_all[::-1]] = pos[::-1]
        keep = scratch[flat_all] == pos
        flat = flat_all[keep]
        scratch[flat] = np.arange(flat.size, dtype=np.int32)
        rep = scratch[flat_all]
        if counts is None:
            increments = np.bincount(rep, minlength=flat.size)
            total = int(pages.size)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            # weighted bincount sums in float64; counts are far below
            # 2**53 so the conversion back to int64 is exact
            increments = np.bincount(
                rep, weights=np.tile(counts, self.depth), minlength=flat.size
            ).astype(np.int64)
            total = int(counts.sum())
        self._validate_flat(flat)
        flat_counters = self._counters.reshape(-1)
        new = flat_counters[flat].astype(np.int64) + increments
        clamped = np.minimum(new, self.counter_max).astype(np.uint32)
        flat_counters[flat] = clamped
        self.total_updates += total
        return clamped, rep

    def update_estimate_batch(
        self,
        pages: np.ndarray,
        cols: np.ndarray | None = None,
        counts: np.ndarray | None = None,
        flat: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fused :meth:`update_batch` + :meth:`estimate_batch`.

        Every entry a page hashes to was just validated and written by
        the update, so the post-update estimate is the lane-wise min of
        the freshly clamped counters — no second validity check or
        counter gather.  Bit-identical to calling the two methods in
        sequence.
        """
        pages = np.asarray(pages, dtype=np.uint64)
        if pages.size == 0:
            return np.zeros(0, dtype=np.int64)
        result = self.update_batch(pages, cols=cols, counts=counts, flat=flat)
        clamped, rep = result
        values = clamped[rep].reshape(self.depth, pages.size)
        return values.min(axis=0).astype(np.int64)

    def estimate_batch(
        self,
        pages: np.ndarray,
        cols: np.ndarray | None = None,
        flat: np.ndarray | None = None,
    ) -> np.ndarray:
        """Estimated access count per page (Eq. 2: min across lanes)."""
        pages = np.asarray(pages, dtype=np.uint64)
        if pages.size == 0:
            return np.zeros(0, dtype=np.int64)
        if flat is None:
            if cols is None:
                cols = self.hashes.hash_batch(pages)
            flat = self.flat_index(cols)
        valid = self._gen.reshape(-1)[flat] == self._current_gen
        values = np.where(valid, self._counters.reshape(-1)[flat], 0)
        return values.min(axis=0).astype(np.int64)

    def estimate(self, page: int) -> int:
        """Estimated access count of a single page."""
        return int(self.estimate_batch(np.array([page], dtype=np.uint64))[0])

    # ------------------------------------------------------------------
    # hot bits (the dedup bloom filter of Fig. 7)
    # ------------------------------------------------------------------
    def hot_bits_all_set(
        self,
        pages: np.ndarray,
        cols: np.ndarray | None = None,
        flat: np.ndarray | None = None,
    ) -> np.ndarray:
        """True per page if every hashed entry's hot bit is already set."""
        pages = np.asarray(pages, dtype=np.uint64)
        if pages.size == 0:
            return np.zeros(0, dtype=bool)
        if flat is None:
            if cols is None:
                cols = self.hashes.hash_batch(pages)
            flat = self.flat_index(cols)
        valid = self._gen.reshape(-1)[flat] == self._current_gen
        hot = self._hot.reshape(-1)[flat] & valid
        return hot.all(axis=0)

    def set_hot_bits(
        self,
        pages: np.ndarray,
        cols: np.ndarray | None = None,
        flat: np.ndarray | None = None,
    ) -> None:
        """Set the hot bit in every entry hashed by ``pages``."""
        pages = np.asarray(pages, dtype=np.uint64)
        if pages.size == 0:
            return
        if flat is None:
            if cols is None:
                cols = self.hashes.hash_batch(pages)
            flat = self.flat_index(cols)
        # No dedup needed: both the validation and the bit set are
        # idempotent scatters, so duplicate entries are harmless.
        flat = np.ascontiguousarray(flat).reshape(-1)
        self._validate_flat(flat)
        self._hot.reshape(-1)[flat] = True

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Reset every counter and hot bit via the valid-bit mechanism."""
        self._current_gen += np.uint32(1)
        self.total_updates = 0
        self._valid_chunks.clear()
        self._valid_cache = None
        if self._current_gen == 0:  # generation wrap: hard reset
            self._counters.fill(0)
            self._hot.fill(False)
            self._gen.fill(0)
            self._current_gen = np.uint32(1)

    def lane_snapshot(self, lane: int = 0) -> np.ndarray:
        """Valid-aware snapshot of one lane in the native uint32 dtype.

        The histogram unit bins any integer dtype; staying in uint32
        halves the memory traffic of the full-row scan.
        """
        valid = self._gen[lane] == self._current_gen
        return np.where(valid, self._counters[lane], np.uint32(0))

    def lane_valid_counters(self, lane: int = 0) -> np.ndarray:
        """Counters of the lane's *valid* entries, in arbitrary order.

        Invalid entries read as zero, so a histogram of these values plus
        ``width - count`` implicit zeros equals a histogram of the full
        :meth:`lane_snapshot` row (see ``HistogramUnit.compute_sparse``).
        A lightly loaded sketch gathers a few thousand tracked entries
        instead of scanning the whole row; once the tracked set rivals
        the row width the dense scan is cheaper and this falls back to it.
        """
        entries = self._valid_entries()
        if entries.size >= self.width:
            return self.lane_snapshot(lane)
        lo = lane * self.width
        sel = entries[(entries >= lo) & (entries < lo + self.width)]
        return self._counters.reshape(-1)[sel]

    def lane_counters(self, lane: int = 0) -> np.ndarray:
        """Valid-aware snapshot of one lane's counters (histogram input)."""
        return self.lane_snapshot(lane).astype(np.int64)

    @property
    def sram_bits(self) -> int:
        """Storage cost in bits (counter + hot + valid per entry)."""
        return self.depth * self.width * (self.counter_bits + 2)
