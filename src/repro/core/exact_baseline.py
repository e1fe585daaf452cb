"""The trivial exact ``O(nd)``-space baseline (paper §1.1).

Stores the first ``min(deg(a), d)`` edges incident to every A-vertex —
solves Neighborhood Detection *exactly* with approximation factor 1.
Both the paper's algorithms are measured against this baseline in the
tables: the point of Theorems 3.2/5.4 is to beat ``O(nd)``.

:class:`ExactND` is the one "exact count plus first ``d`` witnesses per
key" collector of the repository: Misra–Gries with witness buffers
(:class:`repro.core.misra_gries.MisraGries`) is this collector plus
counter eviction, and the Structured Streaming witness query
(:mod:`repro.streamsim.structured`) feeds one checkpointed
``ExactND(None, w)`` on the driver. With ``n`` given, ids are checked against
``[0, n)`` and the degree array is charged ``n`` words, as in the
paper; without it, any integer is a key and each key costs two words.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
from repro.core.collect import append_grouped, first_rows
from repro.streamsim.stream import check_batch


class ExactND:
    """Sequential exact algorithm: per key its exact count (``deg``) and
    its first ``min(deg, d)`` edges (``stored``), in stream order."""

    def __init__(self, n: int | None, d: int) -> None:
        self.n, self.d = n, d
        self.deg: dict[int, int] = {}
        self.stored: dict[int, list[int]] = {}

    def process_batch(self, batch: pd.DataFrame) -> None:
        a, b, _ = check_batch(batch, self.n, insertion_only=True)
        keys, freq = np.unique(a, return_counts=True)
        need = []
        for k, f in zip(keys.tolist(), freq.tolist()):
            self.deg[k] = self.deg.get(k, 0) + f
            # Not d - deg: a Misra-Gries decrement lowers deg below the
            # number of witnesses a key already holds.
            need.append(self.d - len(self.stored.get(k, ())))
        rows, counts = first_rows(a, keys, np.array(need, dtype=np.int64))
        append_grouped(self.stored, keys, counts, b[rows])

    def result(self) -> Optional[tuple[int, set[int]]]:
        """The key of maximum degree (smallest on ties) with its stored
        neighborhood."""
        if not self.stored:
            return None
        v = max(sorted(self.deg), key=self.deg.__getitem__)
        return v, self.neighborhood(v)

    def neighborhood(self, v: int) -> set[int]:
        return set(self.stored.get(v, []))

    def space_words(self) -> int:
        counters = 2 * len(self.deg) if self.n is None else self.n
        return counters + sum(len(v) for v in self.stored.values())

