"""Misra–Gries heavy hitters — the comparison point of the paper's §1.

``MisraGries`` is the classic frequent-elements summary [41]: ``k``
counters, guarantee ``f(item) - N/(k+1) <= est(item) <= f(item)``, so
every item with frequency ``> N/(k+1)`` is tracked at the end. We use
the standard *mergeable* batch form (add batch counts, then subtract
the ``(k+1)``-st largest counter value and drop non-positives), which
preserves the error bound and processes micro-batches vectorised.

``MisraGriesWitness`` is the naive witness extension the paper's
guarantees are measured against: each tracked item keeps up to ``w``
witnesses seen *while tracked*. When an item is evicted and later
re-enters, its earlier witnesses are lost — exactly the failure mode
Neighborhood Detection fixes with a guaranteed ``d/c`` witness count.
Table 7 quantifies the gap.

Both are insertion-only summaries: ``process_batch`` rejects a batch
with an ``op`` other than ``+1`` through
:func:`repro.streamsim.stream.check_batch`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.collect import append_grouped, first_rows
from repro.streamsim.stream import check_batch


class MisraGries:
    """Classic Misra–Gries summary with ``k`` counters (batch-merged)."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.counters: dict[int, int] = {}
        self.n_seen = 0
        self.total_decrement = 0

    def _shrink(self) -> None:
        if len(self.counters) <= self.k:
            return
        vals = sorted(self.counters.values(), reverse=True)
        t = vals[self.k]  # (k+1)-st largest
        self.total_decrement += t
        self.counters = {
            i: c - t for i, c in self.counters.items() if c - t > 0
        }

    def process_items(self, items: pd.Series) -> None:
        self.n_seen += len(items)
        for item, cnt in items.value_counts().items():
            self.counters[int(item)] = self.counters.get(int(item), 0) + int(cnt)
        self._shrink()

    def process_batch(self, batch: pd.DataFrame) -> None:
        """Stream-schema adapter: the item is the A-vertex; insertions only."""
        a, _, _ = check_batch(batch, None, insertion_only=True)
        self.process_items(pd.Series(a))

    def estimate(self, item: int) -> int:
        return self.counters.get(int(item), 0)

    def heavy_hitters(self, threshold: int) -> list[int]:
        """Items whose estimate clears ``threshold - N/(k+1)`` undercount."""
        return sorted(i for i, c in self.counters.items() if c >= 1 and c + self.error_bound() >= threshold)

    def error_bound(self) -> int:
        """Maximum undercount: actual decrement applied (``<= N/(k+1)``)."""
        return self.total_decrement

    def space_words(self) -> int:
        return 2 * len(self.counters) + 2


class MisraGriesWitness(MisraGries):
    """Misra–Gries + bounded per-item witness buffers (best-effort).

    Keeps up to ``w`` witnesses per *currently tracked* item; eviction
    drops the buffer. No lower bound on how many of a frequent item's
    witnesses survive — contrast with Algorithm 2's guaranteed ``d/c``.
    """

    def __init__(self, k: int, w: int) -> None:
        super().__init__(k)
        self.w = w
        self.witnesses: dict[int, list[int]] = {}

    def _shrink(self) -> None:
        super()._shrink()
        self.witnesses = {
            i: ws for i, ws in self.witnesses.items() if i in self.counters
        }

    def process_batch(self, batch: pd.DataFrame) -> None:
        a, b, _ = check_batch(batch, None, insertion_only=True)
        self.n_seen += len(a)
        keys, freq = np.unique(a, return_counts=True)
        need = []
        for item, cnt in zip(keys.tolist(), freq.tolist()):
            self.counters[item] = self.counters.get(item, 0) + cnt
            need.append(self.w - len(self.witnesses.get(item, ())))
        rows, taken = first_rows(a, keys, np.array(need, dtype=np.int64))
        append_grouped(self.witnesses, keys, taken, b[rows])
        self._shrink()

    def witnesses_of(self, item: int) -> list[int]:
        return list(self.witnesses.get(int(item), []))

    def space_words(self) -> int:
        return super().space_words() + sum(len(w) for w in self.witnesses.values())
