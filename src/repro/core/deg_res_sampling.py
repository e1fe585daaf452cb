"""Algorithm 1: ``Deg-Res-Sampling(d1, d2, s)`` (paper §3.1).

Maintains all A-vertex degrees; the moment a vertex's degree reaches
``d1`` it becomes a reservoir *candidate* (``x`` counts them). The
reservoir is a bottom-k sample of the candidates: each vertex has a
fixed hash priority (:func:`_priority`, keyed by the run's seed), and
the reservoir holds the ``s`` candidates of smallest priority seen so
far — a newcomer enters when there is room or when its priority is
below the largest member's, which it then evicts. At every prefix of
the stream the members are a uniform ``s``-subset of the candidates and
evolve as a reservoir's do (Vitter, TOMS 1985; Cohen & Kaplan, PODC
2007), which is all Lemma 3.1 uses. For every vertex in the reservoir
the next up-to-``d2`` incident edges are collected (the triggering edge
included, so a vertex of final degree ``deg`` yields
``min(d2, deg - d1 + 1)`` neighbors). Priorities tie-break by vertex
id, so the final members are the ``s`` smallest ``(priority, vertex)``
pairs among the candidates, whatever their order. That makes a run
mergeable (:meth:`DegResSampling.merge`): runs over vertex-disjoint
substreams join into the run over the whole stream, which is how the
distributed Algorithm 2 combines its partitions.

A micro-batch is processed in two steps. First, the reservoir
decisions: candidates fill free slots in stream order, then one
vectorised comparison drops every later candidate whose priority is
above the largest member's, and a loop over the rest replaces the
largest member (kept on a heap) in stream order. Second, one call of the
stream-order kernel (:func:`repro.core.collect.first_rows`) gives every
membership interval of the batch its edges: each member takes the first
rows of its vertex at or after its entry row and, if it was evicted in
the batch, before its eviction row. Those rows also give the exact peak
of the collected words inside the batch. Semantics are exactly the
per-edge loop's — batching is an execution detail, and
``tests/test_deg_res_sampling.py`` checks the batched processor against
a per-edge reference.

Each member's witnesses are stored as one machine-word ``array('q')``;
:attr:`DegResSampling.collected` is a read-only dict-of-lists view.
"""
from __future__ import annotations

import heapq
from array import array
from collections.abc import Iterator, Mapping
from typing import Optional

import numpy as np
import pandas as pd

from repro.core.collect import first_rows, running_rank
from repro.streamsim.stream import check_batch

_SPLITMIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = tuple(np.uint64(k) for k in (30, 27, 31, 11))


def _priority(seed: int, v: np.ndarray) -> np.ndarray:
    """Deterministic uniform [0, 1) priority per (seed, vertex id array).

    splitmix64 finaliser — the same on every machine and partition,
    which is what makes a bottom-k merge over partitions exact. Array
    arithmetic on uint64 wraps silently, which is the mix.
    """
    s30, s27, s31, s11 = _SHIFTS
    key = (0x9E3779B97F4A7C15 + seed * 0xD1B54A32D192ED03) % (1 << 64)
    z = np.asarray(v, dtype=np.uint64) + np.uint64(key)
    z = (z ^ (z >> s30)) * _SPLITMIX_C1
    z = (z ^ (z >> s27)) * _SPLITMIX_C2
    z ^= z >> s31
    return (z >> s11).astype(np.float64) / float(1 << 53)


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
    seed : keys the candidates' priorities and seeds the RNG of the
        :meth:`result` draw.
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
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._own_deg = shared_degrees is None
        self.deg = np.zeros(n, dtype=np.int32) if self._own_deg else shared_degrees
        self.x = 0  # candidates seen so far (paper's x)
        # Reservoir slot j (j < _occ) holds vertex _slots[j] of priority
        # _prio[j], the _entry[j]-th candidate, whose witnesses are
        # _wit[j] and number _lens[j]. The slot arrays grow with the
        # occupancy, up to s. A priority is a hash of the vertex id, so
        # _prio caches what the algorithm can recompute and is not
        # charged in space_words().
        self._slots = np.zeros(0, dtype=np.int64)
        self._prio = np.zeros(0, dtype=np.float64)
        self._entry = np.zeros(0, dtype=np.int64)
        self._lens = np.zeros(0, dtype=np.int64)
        self._wit: list[array | None] = []
        self._occ = 0
        self._words = 0  # sum of _lens[:_occ]: the collected witnesses
        self.peak_collected = 0

    # ------------------------------------------------------------------ #

    def process_batch(self, batch: pd.DataFrame) -> None:
        """Standalone use: consume a micro-batch (insertion-only)."""
        a, b, _ = check_batch(batch, self.n, insertion_only=True)
        new_deg = self.deg[a] + running_rank(a) + 1
        self.ingest(a, b, np.flatnonzero(new_deg == self.d1))
        if self._own_deg:
            np.add.at(self.deg, a, 1)

    def ingest(self, a: np.ndarray, b: np.ndarray, cand_rows: np.ndarray) -> None:
        """Core per-batch step given precomputed candidate rows.

        ``cand_rows`` are batch row indices where a vertex's running
        degree hits ``d1`` exactly, in stream order.
        """
        start, gone = self._admit(a, cand_rows) if len(cand_rows) else (None, [])
        occ = self._occ
        if occ == 0:
            return
        slots, lens, wit = self._slots, self._lens, self._wit

        # Every membership interval of the batch gets its rows: current
        # members up to the batch end, evicted ones up to their eviction.
        n_rows = len(a)
        keys, need, lo, hi = slots[:occ], self.d2 - lens[:occ], start, None
        if gone:
            g_v, g_lo, g_hi, g_held = (np.array(col, dtype=np.int64) for col in zip(*gone))
            keys = np.concatenate([keys, g_v])
            need = np.concatenate([need, self.d2 - g_held])
            lo = np.concatenate([start, g_lo])
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

    def _admit(
        self, a: np.ndarray, cand_rows: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
        """The reservoir decisions for a batch's candidates, in stream order.

        Returns each occupied slot's entry row in this batch (0 if its
        member entered earlier) and the members evicted in this batch as
        ``(vertex, entry row, eviction row, witnesses held at the start
        of the batch)``.
        """
        cand_v = a[cand_rows].astype(np.int64)
        cand_p = _priority(self.seed, cand_v)
        x0 = self.x
        self.x += len(cand_rows)
        occ = self._occ
        fill = min(self.s - occ, len(cand_rows))
        if occ + fill > len(self._slots):
            self._grow(min(self.s, max(occ + fill, 2 * len(self._slots))))
        slots, prio, entry, lens, wit = self._slots, self._prio, self._entry, self._lens, self._wit
        start = np.zeros(occ + fill, dtype=np.int64)
        if fill:  # the first candidates take the free slots
            new = slice(occ, occ + fill)
            slots[new], prio[new], lens[new] = cand_v[:fill], cand_p[:fill], 0
            entry[new] = x0 + 1 + np.arange(fill)
            start[new] = cand_rows[:fill]
            wit[new] = [array("q") for _ in range(fill)]
            occ = self._occ = occ + fill
        if fill == len(cand_rows):
            return start, []
        # The largest priority only falls, so a later candidate above it
        # now can never enter; ties go to the loop's comparison.
        late = fill + np.flatnonzero(cand_p[fill:] <= prio[:occ].max())
        if len(late) == 0:
            return start, []
        # At most len(late) members are evicted, each a newcomer or among
        # the len(late) largest now, so only those (ties at the cut
        # included) go on the heap that yields the largest member.
        k = min(len(late), occ)
        cut = np.partition(prio[:occ], occ - k)[occ - k]
        top = np.flatnonzero(prio[:occ] >= cut)
        heap = list(zip((-prio[top]).tolist(), (-slots[top]).tolist(), top.tolist()))
        heapq.heapify(heap)
        gone = []
        for t, i, v, p in zip(late.tolist(), cand_rows[late].tolist(),
                              cand_v[late].tolist(), cand_p[late].tolist()):
            neg_p, neg_v, j = heap[0]
            if (p, v) >= (-neg_p, -neg_v):
                continue
            gone.append((-neg_v, int(start[j]), i, int(lens[j])))
            heapq.heapreplace(heap, (-p, -v, j))
            slots[j], prio[j], entry[j], lens[j], start[j] = v, p, x0 + 1 + t, 0, i
            wit[j] = array("q")
        return start, gone

    def _grow(self, cap: int) -> None:
        """Widen the slot arrays to ``cap`` slots."""
        extra = cap - len(self._slots)
        self._slots, self._prio, self._entry, self._lens = (
            np.concatenate([col, np.zeros(extra, dtype=col.dtype)])
            for col in (self._slots, self._prio, self._entry, self._lens))
        self._wit.extend([None] * extra)

    # ------------------------------------------------------------------ #

    @property
    def reservoir(self) -> list[int]:
        return self._slots[: self._occ].tolist()

    def _by_entry(self, slots: np.ndarray) -> np.ndarray:
        """``slots`` by entry into the reservoir; merged parts number their
        entries apart, so ties go by ``(priority, vertex)``."""
        return slots[np.lexsort((self._slots[slots], self._prio[slots], self._entry[slots]))]

    @property
    def collected(self) -> WitnessView:
        """Each member's collected witnesses, in stream order (read-only),
        members in order of entry."""
        order = self._by_entry(np.arange(self._occ)).tolist()
        return WitnessView(self._slots[order].tolist(), [self._wit[j] for j in order])

    def _full(self) -> np.ndarray:
        """Slots whose member holds ``d2`` distinct witnesses, by entry.

        A stream that repeats an edge makes a member collect the same
        witness twice, so ``d2`` collected edges alone do not suffice."""
        full = [j for j in np.flatnonzero(self._lens[: self._occ] >= self.d2).tolist()
                if len(np.unique(np.frombuffer(self._wit[j], dtype=np.int64))) >= self.d2]
        return self._by_entry(np.array(full, dtype=np.int64))

    def succeeded(self) -> bool:
        """Paper's success: some stored neighborhood reached ``d2`` distinct
        witnesses."""
        return len(self._full()) > 0

    def result(self) -> Optional[tuple[int, set[int]]]:
        """Uniform random neighborhood among those of ``d2`` distinct
        witnesses; None=fail."""
        full = self._full()
        if len(full) == 0:
            return None
        j = int(full[int(self.rng.integers(len(full)))])
        return int(self._slots[j]), set(self._wit[j])

    def space_words(self) -> int:
        own = self.n if self._own_deg else 0
        return own + self._occ + self._words + 2

    def merge(self, other: "DegResSampling") -> "DegResSampling":
        """Join a run over a vertex-disjoint substream, in place (``other``
        is not changed). The members are the ``s`` smallest ``(priority,
        vertex)`` pairs among the candidates, so a bottom-k sample merges
        exactly: keep the ``s`` smallest of both, with their witnesses."""
        if (self.n, self.d1, self.d2, self.s, self.seed, self._own_deg) != (
                other.n, other.d1, other.d2, other.s, other.seed, other._own_deg):
            raise ValueError("cannot merge runs with different parameters")
        if ((self.deg > 0) & (other.deg > 0)).any():
            raise ValueError("cannot merge runs that saw the same vertex")
        occ = self._occ
        cols = [np.concatenate([mine[:occ], theirs[: other._occ]]) for mine, theirs in zip(
            (self._slots, self._prio, self._entry, self._lens),
            (other._slots, other._prio, other._entry, other._lens))]
        keep = np.lexsort((cols[0], cols[1]))[: self.s]
        self._slots, self._prio, self._entry, self._lens = (col[keep] for col in cols)
        self._wit = [self._wit[j] if j < occ else array("q", other._wit[j - occ])
                     for j in keep.tolist()]
        self._occ, self._words = len(keep), int(self._lens.sum())
        self.x += other.x
        self.peak_collected += other.peak_collected  # the parts ran side by side
        if self._own_deg:
            self.deg += other.deg
        return self
