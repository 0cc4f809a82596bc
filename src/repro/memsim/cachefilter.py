"""Fast page-granularity LLC filter for end-to-end simulations.

The end-to-end experiments stream tens of millions of accesses, far too
many for a per-access exact cache model in Python.  What tiering actually
needs from the cache model is the property the paper highlights for goal
G3 (*cache awareness*): the subset of accesses that miss the LLC and
therefore reach memory.  At page granularity an LLC behaves like a small
fully-associative page cache — pages with short reuse distances are
filtered out, pages touched rarely (or streamed through) miss.

:class:`PageCacheFilter` models this with a vectorized CLOCK-style
approximation: it keeps per-page *residency credit* that is charged on
access and decayed as the working set overflows the cache capacity.  An
access to a page with positive credit is a hit.  The model reproduces the
two behaviours the paper's results depend on:

* a hot set smaller than the LLC generates almost no memory traffic
  (why migrating always-cached pages is useless — Challenge #2), and
* a working set much larger than the LLC misses at a rate that grows
  with the reuse distance, so slow-tier placement of hot pages hurts.

The filter is intentionally deterministic given its inputs so property
tests can pin its invariants.
"""
# repro: hot-path — PR-7 vectorized epoch path; per-element python loops are regressions


from __future__ import annotations

import numpy as np

from repro.memsim.address import PAGE_SIZE


class PageCacheFilter:
    """Approximate LLC filter operating on page-number batches.

    Args:
        capacity_pages: LLC capacity expressed in 4 KB pages (a 60 MB LLC
            holds 15360 pages).
        lines_per_page: How many distinct cache lines one page occupies
            when fully resident (64 lines for 4 KB pages / 64 B lines).
            Controls how quickly repeated access saturates residency.
        max_page_id: Upper bound (exclusive) on page numbers; sizes the
            internal credit arrays.
    """

    def __init__(self, capacity_pages: int, max_page_id: int, lines_per_page: int = 64) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        if max_page_id <= 0:
            raise ValueError("max_page_id must be positive")
        self.capacity_pages = int(capacity_pages)
        self.max_page_id = int(max_page_id)
        self.lines_per_page = int(lines_per_page)
        # Residency credit per page, in "lines held".  Sum of credit over
        # all pages is bounded by capacity_pages * lines_per_page.
        self._credit = np.zeros(self.max_page_id, dtype=np.float32)
        self._capacity_lines = float(self.capacity_pages * self.lines_per_page)

    # ------------------------------------------------------------------
    @property
    def resident_lines(self) -> float:
        """Total residency credit currently held (in cache lines)."""
        return float(self._credit.sum())

    def residency_of(self, page: int) -> float:
        """Residency credit of one page, in lines (0 means uncached)."""
        return float(self._credit[page])

    def flush(self) -> None:
        """Drop all residency (models a cache flush between runs)."""
        self._credit.fill(0.0)

    # ------------------------------------------------------------------
    def filter_batch(self, pages: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
        """Process one epoch batch; return a boolean LLC-miss mask.

        Pages are processed as an unordered epoch: per-page access counts
        are computed, hits are granted against existing residency credit,
        and residency is refreshed for the pages touched this epoch.
        Pressure beyond capacity decays every page's credit
        proportionally, evicting the long-idle pages first in expectation.

        ``counts`` optionally passes a page-space histogram the caller
        already computed (``np.bincount(pages, minlength=max_page_id)``)
        so the engine's shared per-epoch bincount is not recomputed here.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return np.zeros(0, dtype=bool)
        if counts is not None:
            # a caller-supplied bincount already proves the range: the
            # bincount raised on negatives, and an id >= max_page_id
            # would have grown the histogram past max_page_id
            if counts.size != self.max_page_id:
                raise ValueError("page number out of range for the cache filter")
        elif pages.min() < 0 or pages.max() >= self.max_page_id:
            raise ValueError("page number out of range for the cache filter")

        # Dense batches skip compaction entirely and work in page space:
        # the credit array is already page-indexed, per-page counts come
        # from one bincount, and the page numbers themselves serve as the
        # group labels ``_spread_misses`` needs.  Sparse page spaces
        # compact to the batch's unique pages first.
        dense = counts is not None or self.max_page_id <= 4 * pages.size
        if dense:
            unique = None
            if counts is None:
                counts = np.bincount(pages, minlength=self.max_page_id)
            inverse = pages
            credit = self._credit
        else:
            unique, inverse, counts = np.unique(
                pages, return_inverse=True, return_counts=True
            )
            credit = self._credit[unique]

        # Hits this epoch: one access per line of residency credit can hit;
        # additional accesses to the same page mostly hit once the page's
        # lines are resident (temporal locality within the epoch).  A page
        # with credit c and n accesses sees min(n, c + in-epoch reuse) hits.
        # In-epoch reuse: after the first touch of each line the page is
        # resident, so of n accesses roughly n - lines_touched miss at
        # most; lines_touched <= lines_per_page.
        first_touch_misses = np.minimum(counts, self.lines_per_page)
        cold = credit <= 0.0
        miss_per_page = np.where(cold, first_touch_misses, 0)
        # Warm pages with partial residency miss on the uncovered fraction
        # of their first touches.
        partial = (~cold) & (credit < self.lines_per_page)
        if np.any(partial):
            uncovered = 1.0 - credit[partial] / self.lines_per_page
            miss_per_page = miss_per_page.astype(np.float64)
            miss_per_page[partial] = first_touch_misses[partial] * uncovered
        # (miss_per_page <= counts holds by construction: cold pages miss
        # at most min(count, lines) times, partial pages a fraction of
        # that, resident pages never.)

        # Build the per-access miss mask: the first `miss` accesses of each
        # page in the batch are misses, the rest hit.
        miss_mask = self._spread_misses(inverse, counts, miss_per_page, pages.size)

        # Refresh residency: touched pages become (close to) fully resident.
        if dense:
            self._credit += counts.astype(np.float32)
            np.minimum(
                self._credit, np.float32(self.lines_per_page), out=self._credit
            )
        else:
            self._credit[unique] = np.minimum(
                credit + counts.astype(np.float32), float(self.lines_per_page)
            )

        # Capacity pressure: decay everything proportionally to overflow.
        total = float(self._credit.sum())
        if total > self._capacity_lines:
            self._credit *= np.float32(self._capacity_lines / total)
            # Sub-line residue behaves as evicted.
            self._credit[self._credit < 0.5] = 0.0

        return miss_mask

    @staticmethod
    def _spread_misses(
        inverse: np.ndarray,
        counts: np.ndarray,
        miss_per_page: np.ndarray,
        batch_size: int,
    ) -> np.ndarray:
        """Mark the first ``miss_per_page[p]`` occurrences of each page."""
        if miss_per_page.dtype == np.int64:
            miss_budget = miss_per_page  # integral already; ceil is a no-op
        else:
            miss_budget = np.ceil(miss_per_page).astype(np.int64)
        # Most pages are all-or-nothing in any given epoch: cold pages
        # miss on every access (budget >= count), fully resident pages
        # on none (budget == 0).  Those need no occurrence numbering —
        # the expensive stable sort runs only over accesses to the few
        # pages with a partial budget.
        full = miss_budget >= counts
        partial = ~full & (miss_budget > 0)
        miss_mask = full[inverse]
        if not np.any(partial):
            return miss_mask
        sel = np.nonzero(partial[inverse])[0]
        sub_inverse = inverse[sel]
        if len(counts) <= 1 << 16:
            # numpy's stable sort is an O(n) radix sort for 16-bit ints
            # but a comparison sort for wider types; group ranks fit.
            sub_inverse = sub_inverse.astype(np.uint16)
        # Occurrence index of each selected access among accesses to the
        # same page: every access of a partial page is selected, so the
        # occurrence number within the subset equals the one within the
        # full batch.  After a stable sort by page, it is the position
        # minus the page's group start.
        order = np.argsort(sub_inverse, kind="stable")
        sub_counts = np.where(partial, counts, 0)
        starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(sub_counts, out=starts[1:])
        occ_sorted = np.arange(sel.size, dtype=np.int64) - starts[sub_inverse[order]]
        occ = np.empty(sel.size, dtype=np.int64)
        occ[order] = occ_sorted
        miss_mask[sel] = occ < miss_budget[sub_inverse]
        return miss_mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageCacheFilter(capacity={self.capacity_pages} pages, "
            f"resident={self.resident_lines / self.lines_per_page:.0f} pages)"
        )


def llc_pages(llc_bytes: int) -> int:
    """Convenience: LLC capacity in 4 KB pages."""
    return max(1, int(llc_bytes) // PAGE_SIZE)
