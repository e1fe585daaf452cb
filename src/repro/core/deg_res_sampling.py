"""Algorithm 1: ``Deg-Res-Sampling(d1, d2, s)`` (paper §3.1).

Maintains all A-vertex degrees; the moment a vertex's degree reaches
``d1`` it becomes a reservoir *candidate* and is kept with probability
``s/x`` (``x`` = number of candidates so far), evicting a uniform
member when full — the classic reservoir invariant over the candidate
set. For every vertex in the reservoir the next up-to-``d2`` incident
edges are collected (the triggering edge included, so a vertex of final
degree ``deg`` yields ``min(d2, deg - d1 + 1)`` neighbors).

A micro-batch is processed in two steps. First, a sequential pass over
only the (rare) candidate rows makes the reservoir decisions in stream
order, drawing from the RNG exactly as the paper's per-edge loop does.
Second, one call of the stream-order kernel
(:func:`repro.core.collect.first_rows`) gives every membership interval
of the batch its edges: each member takes the first rows of its vertex
at or after its entry row and, if it was evicted in the batch, before
its eviction row. Those rows also give the exact peak of the collected
words inside the batch. Semantics are exactly the paper's per-edge loop
— batching is an execution detail, and ``tests/test_deg_res_sampling.py``
checks the batched processor against a per-edge reference.

Each member's witnesses are stored as one machine-word ``array('q')``;
:attr:`DegResSampling.collected` is a read-only dict-of-lists view.
"""
from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from typing import Optional

import numpy as np
import pandas as pd

from repro.core.collect import first_rows, running_rank


class WitnessView(Mapping):
    """Read-only ``{vertex: [witness, ...]}`` view of a witness store."""

    __slots__ = ("_store",)

    def __init__(self, vertices: list[int], witnesses: list[array]) -> None:
        self._store = dict(zip(vertices, witnesses))

    def __getitem__(self, v: int) -> list[int]:
        return self._store[v].tolist()

    def __iter__(self) -> Iterator[int]:
        return iter(self._store)

    def __len__(self) -> int:
        return len(self._store)


class DegResSampling:
    """One run of Algorithm 1 over the canonical edge stream.

    Parameters
    ----------
    n : number of A-vertices (degree-array size).
    d1 : degree threshold at which a vertex becomes a candidate.
    d2 : number of incident edges to collect per sampled vertex.
    s : reservoir size.
    seed : RNG seed (``Coin(s/x)`` and evictions).
    shared_degrees : optional externally-maintained degree array; when
        given, this run neither stores nor updates degrees itself
        (Algorithm 2 shares one degree array across its ``c`` runs) and
        the caller must pass candidate rows to :meth:`ingest`.
    """

    def __init__(
        self,
        n: int,
        d1: int,
        d2: int,
        s: int,
        seed: int = 0,
        shared_degrees: np.ndarray | None = None,
    ) -> None:
        if d1 < 1 or d2 < 1 or s < 1:
            raise ValueError("d1, d2, s must be >= 1")
        self.n = n
        self.d1 = d1
        self.d2 = d2
        self.s = s
        self.rng = np.random.default_rng(seed)
        self._own_deg = shared_degrees is None
        self.deg = np.zeros(n, dtype=np.int32) if self._own_deg else shared_degrees
        self.x = 0  # candidates seen so far (paper's x)
        # Reservoir slot j (j < _occ) holds vertex _slots[j], the
        # _entry[j]-th candidate, whose witnesses are _wit[j] and number
        # _lens[j]. The slot arrays grow with the occupancy, up to s.
        self._slots = np.zeros(0, dtype=np.int64)
        self._entry = np.zeros(0, dtype=np.int64)
        self._lens = np.zeros(0, dtype=np.int64)
        self._wit: list[array | None] = []
        self._occ = 0
        self._words = 0  # sum of _lens[:_occ]: the collected witnesses
        self.peak_collected = 0

    # ------------------------------------------------------------------ #

    def process_batch(self, batch: pd.DataFrame) -> None:
        """Standalone use: consume a micro-batch (insertion-only)."""
        if (batch["op"].to_numpy() != 1).any():
            raise ValueError("Deg-Res-Sampling handles insertion-only streams")
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        new_deg = self.deg[a] + running_rank(a) + 1
        self.ingest(a, b, np.flatnonzero(new_deg == self.d1))
        if self._own_deg:
            np.add.at(self.deg, a, 1)

    def ingest(self, a: np.ndarray, b: np.ndarray, cand_rows: np.ndarray) -> None:
        """Core per-batch step given precomputed candidate rows.

        ``cand_rows`` are batch row indices where a vertex's running
        degree hits ``d1`` exactly, in stream order.
        """
        occ = self._occ
        cap = len(self._slots)
        if occ + len(cand_rows) > cap and cap < self.s:
            self._grow(min(self.s, max(occ + len(cand_rows), 2 * cap)))
        slots, entry, lens, wit = self._slots, self._entry, self._lens, self._wit
        # Entry row of each slot's member if it entered in this batch.
        start = np.zeros(len(slots), dtype=np.int64)
        # Members evicted in this batch: vertex, entry row, eviction row,
        # witnesses held at the start of the batch.
        gone: list[tuple[int, int, int, int]] = []
        for i, v in zip(cand_rows.tolist(), a[cand_rows].tolist()):
            self.x += 1
            if occ < self.s:
                k = occ
                occ += 1
            elif self.rng.random() < self.s / self.x:
                k = int(self.rng.integers(occ))
                gone.append((int(slots[k]), int(start[k]), i, int(lens[k])))
                # Move the last slot into the hole and append the new
                # member, as a list-backed reservoir does.
                last = occ - 1
                slots[k], entry[k], lens[k], start[k] = (
                    slots[last], entry[last], lens[last], start[last])
                wit[k] = wit[last]
                k = last
            else:
                continue
            slots[k], entry[k], lens[k], start[k] = v, self.x, 0, i
            wit[k] = array("q")
        self._occ = occ
        if occ == 0:
            return

        # Every membership interval of the batch gets its rows: current
        # members up to the batch end, evicted ones up to their eviction.
        n_rows = len(a)
        keys, need, lo, hi = slots[:occ], self.d2 - lens[:occ], start[:occ], n_rows
        if gone:
            g_v, g_lo, g_hi, g_held = (np.array(col, dtype=np.int64) for col in zip(*gone))
            keys = np.concatenate([keys, g_v])
            need = np.concatenate([need, self.d2 - g_held])
            lo = np.concatenate([lo, g_lo])
            hi = np.concatenate([np.full(occ, n_rows), g_hi])
        rows, counts = first_rows(a, keys, need, lo, hi)
        if len(rows) == 0 and not gone:
            return

        # Exact in-batch peak: +1 word at each collected row, and an
        # evicted member's words released at its eviction row.
        words0 = self._words
        delta = np.bincount(rows, minlength=n_rows)
        if gone:
            np.subtract.at(delta, g_hi, g_held + counts[occ:])
            self._words -= int(g_held.sum())
        self.peak_collected = max(self.peak_collected, words0 + int(np.cumsum(delta).max()))

        kept = counts[:occ]
        lens[:occ] += kept
        self._words += int(kept.sum())
        got = memoryview(np.ascontiguousarray(b[rows], dtype=np.int64)).cast("B")
        ends = np.cumsum(kept)
        touched = np.flatnonzero(kept)
        for j, c, e in zip(touched.tolist(), kept[touched].tolist(), ends[touched].tolist()):
            wit[j].frombytes(got[8 * (e - c) : 8 * e])

    def _grow(self, cap: int) -> None:
        """Widen the slot arrays to ``cap`` slots."""
        pad = np.zeros(cap - len(self._slots), dtype=np.int64)
        self._slots, self._entry, self._lens = (
            np.concatenate([col, pad]) for col in (self._slots, self._entry, self._lens))
        self._wit.extend([None] * len(pad))

    # ------------------------------------------------------------------ #

    @property
    def reservoir(self) -> list[int]:
        return self._slots[: self._occ].tolist()

    def _by_entry(self, slots: np.ndarray) -> np.ndarray:
        """``slots`` ordered by when their members entered the reservoir."""
        return slots[np.argsort(self._entry[slots])]

    @property
    def collected(self) -> WitnessView:
        """Each member's collected witnesses, in stream order (read-only),
        members in order of entry."""
        order = self._by_entry(np.arange(self._occ)).tolist()
        return WitnessView(self._slots[order].tolist(), [self._wit[j] for j in order])

    def succeeded(self) -> bool:
        """Paper's success: some stored neighborhood reached size ``d2``."""
        return bool((self._lens[: self._occ] >= self.d2).any())

    def result(self) -> Optional[tuple[int, set[int]]]:
        """Uniform random neighborhood among those of size ``d2``; None=fail."""
        full = self._by_entry(np.flatnonzero(self._lens[: self._occ] >= self.d2))
        if len(full) == 0:
            return None
        j = int(full[int(self.rng.integers(len(full)))])
        return int(self._slots[j]), set(self._wit[j])

    def space_words(self) -> int:
        own = self.n if self._own_deg else 0
        return own + self._occ + self._words + 2
