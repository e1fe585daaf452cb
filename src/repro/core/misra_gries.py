"""Misra–Gries heavy hitters — the comparison point of the paper's §1.

``MisraGries(k, w)`` is the classic frequent-elements summary [41] with
``k`` counters, guarantee ``f(item) - N/(k+1) <= est(item) <= f(item)``,
so every item with frequency ``> N/(k+1)`` is tracked at the end. We use
the standard *mergeable* batch form (add batch counts, then subtract
the ``(k+1)``-st largest counter value and drop non-positives), which
preserves the error bound and processes micro-batches vectorised.

The counting is the exact collector's
(:class:`repro.core.exact_baseline.ExactND` over unbounded keys): the
counters are its ``deg`` and the witness buffers its ``stored``, the
first ``w`` witnesses of an item seen *while tracked*. The shrink
evicts an item's counter and its witness buffer together, so an item
that is evicted and re-enters has lost its earlier witnesses — exactly
the failure mode Neighborhood Detection fixes with a guaranteed ``d/c``
witness count, and what Table 7 quantifies. With ``w = 0`` it is the
plain summary.

An insertion-only summary: ``process_batch`` rejects a batch with an
``op`` other than ``+1`` through
:func:`repro.streamsim.stream.check_batch`.
"""
from __future__ import annotations

import pandas as pd

from repro.core.exact_baseline import ExactND


class MisraGries(ExactND):
    """Misra–Gries summary with ``k`` counters (batch-merged) and up to
    ``w`` witnesses per tracked item."""

    def __init__(self, k: int, w: int = 0) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        super().__init__(None, w)
        self.k = k
        self.n_seen = 0
        self.total_decrement = 0

    def process_batch(self, batch: pd.DataFrame) -> None:
        """The item is the A-vertex and the witness the B-vertex."""
        super().process_batch(batch)
        self.n_seen += len(batch)
        if len(self.deg) <= self.k:
            return
        t = sorted(self.deg.values(), reverse=True)[self.k]  # (k+1)-st largest
        self.total_decrement += t
        self.deg = {i: c - t for i, c in self.deg.items() if c - t > 0}
        self.stored = {i: ws for i, ws in self.stored.items() if i in self.deg}

    def estimate(self, item: int) -> int:
        return self.deg.get(int(item), 0)

    def heavy_hitters(self, threshold: int) -> list[int]:
        """Items whose estimate clears ``threshold - N/(k+1)`` undercount."""
        return sorted(i for i, c in self.deg.items() if c >= 1 and c + self.error_bound() >= threshold)

    def error_bound(self) -> int:
        """Maximum undercount: actual decrement applied (``<= N/(k+1)``)."""
        return self.total_decrement

    def space_words(self) -> int:
        """Two words per counter, one per stored witness, plus ``N`` and
        the total decrement."""
        return super().space_words() + 2
