"""From-scratch l0-sampler sketches (the paper's [32] substrate, §5).

An l0 sampler returns a (near-)uniform element of the support of the
vector described by an insert/delete stream. Construction (standard):

- geometric *level* assignment: a seeded hash maps each coordinate to a
  level ``G`` with ``P(G >= l) ~ 2^-l``; the coordinate contributes to
  every level ``<= G`` (nested subsampling),
- per level a 1-sparse recovery unit ``(S0, S1, S2) = (sum c_i,
  sum c_i * i, sum c_i * g(i) mod q)`` with an independent fingerprint
  hash ``g``; a unit holding exactly one support coordinate ``i*``
  satisfies ``S0 != 0``, ``S1/S0 = i*`` integral, and
  ``S2 = S0 * g(i*) mod q`` (a >=2-sparse unit passes only w.p. ~1/q),
- recovery scans levels sparsest-first and returns the first verifying
  unit's coordinate.

Everything is *linear* in the stream, so sketches merge by addition —
that is what lets Spark partitions build partial sketches independently
(:func:`sketch_stream_spark`) with the driver summing them, and what
makes deletions free.

``L0SamplerBank`` vectorises ``num`` independent samplers as ``(num, L)``
int64 cells ``S0, S1, S2``; contributions are bucketed at the assigned
level and suffix-summed at query time (a coordinate at level ``G``
belongs to all levels ``<= G``). One kernel adds them in exact integer
arithmetic, for a slice of the bank (``update``) or a block of ``k``
samplers per update (``update_blocks``), so no batch size changes a bank.
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

_P = (1 << 31) - 1  # hash modulus (Mersenne prime)
_Q = (1 << 31) - 1  # fingerprint field
_CHUNK_CELLS = 4_000_000  # (update, sampler) cells hashed per chunk


def _fingerprint(a2: np.ndarray, b2: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-sampler NONLINEAR fingerprint hash ``g_j(i)``.

    A linear ``a2*i + b2`` would be useless here: for any unit,
    ``sum c_i * g(i) = S0 * g(S1/S0)`` holds identically whenever the
    divisibility test passes, so every >=2-sparse level would verify.
    We therefore pass the pairwise hash through a splitmix64 finaliser
    (wrapping uint64 arithmetic is part of the mix) before reducing to
    the fingerprint field.
    """
    z = ((a2 * idx + b2) % _Q).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(_Q)).astype(np.int64)


class L0SamplerBank:
    """``num`` independent l0 samplers over vectors of dimension ``dim``.

    Requires ``dim < 2^31`` so all hash arithmetic stays in exact int64.
    """

    def __init__(self, num: int, dim: int, seed: int = 0, levels: int | None = None):
        if dim >= _P:
            raise ValueError("dim must be < 2^31 - 1")
        self.num = num
        self.dim = dim
        self.seed = seed
        self.L = levels if levels is not None else max(2, int(np.ceil(np.log2(max(dim, 2)))) + 2)
        g = np.random.default_rng(seed)
        self.a1 = g.integers(1, _P, num, dtype=np.int64)
        self.b1 = g.integers(0, _P, num, dtype=np.int64)
        self.a2 = g.integers(1, _Q, num, dtype=np.int64)
        self.b2 = g.integers(0, _Q, num, dtype=np.int64)
        self.S0 = np.zeros((num, self.L), dtype=np.int64)
        self.S1 = np.zeros((num, self.L), dtype=np.int64)
        self.S2 = np.zeros((num, self.L), dtype=np.int64)

    # ------------------------------------------------------------------ #

    def update(
        self,
        idx: np.ndarray,
        delta: np.ndarray | int = 1,
        rows: slice | None = None,
        chunk_cells: int = _CHUNK_CELLS,
    ) -> None:
        """Apply ``vec[idx] += delta`` to the samplers in ``rows`` (all by
        default, else a slice of the bank)."""
        samplers = np.arange(self.num, dtype=np.int64)[slice(None) if rows is None else rows]
        self._accumulate(idx, delta, None, samplers, chunk_cells)

    def update_blocks(
        self, idx: np.ndarray, delta: np.ndarray | int, first: np.ndarray, k: int
    ) -> None:
        """Apply ``vec[idx[i]] += delta[i]`` to samplers ``first[i]`` to
        ``first[i] + k - 1`` only: one block of ``k`` samplers per update."""
        first = np.asarray(first, dtype=np.int64)
        if first.size and (first.min() < 0 or first.max() + k > self.num):
            raise ValueError("sampler block out of range")
        self._accumulate(idx, delta, first, np.arange(k, dtype=np.int64), _CHUNK_CELLS)

    def _accumulate(self, idx, delta, first: np.ndarray | None, offsets: np.ndarray,
                    chunk_cells: int) -> None:
        """Add update ``i`` to samplers ``first[i] + offsets``, or to
        ``offsets`` when ``first`` is None (hash keys then broadcast over
        updates instead of being gathered per cell): hash each (update,
        sampler) cell to its level and fingerprint, sum into ``S0/S1/S2``
        in exact int64, about ``chunk_cells`` cells per chunk of updates."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        if (idx < 0).any() or (idx >= self.dim).any():
            raise ValueError("coordinate out of range")
        delta = np.broadcast_to(np.asarray(delta, dtype=np.int64), idx.shape)
        s0, s1, s2 = self.S0.reshape(-1), self.S1.reshape(-1), self.S2.reshape(-1)
        step = max(1, chunk_cells // max(offsets.size, 1))
        for lo in range(0, idx.size, step):
            i = idx[lo : lo + step, None]
            d = delta[lo : lo + step, None]
            r = offsets if first is None else first[lo : lo + step, None] + offsets
            h = (self.a1[r] * i + self.b1[r]) % _P
            G = np.minimum(self.L - 1, np.floor(-np.log2((h + 0.5) / _P)).astype(np.int64))
            cell = (r * self.L + G).ravel()
            np.add.at(s0, cell, np.broadcast_to(d, G.shape).ravel())
            np.add.at(s1, cell, np.broadcast_to(d * i, G.shape).ravel())
            # Terms reduced mod q stay below 2^31, so a cell's sum stays
            # exact in int64 for any batch under 2^32 updates.
            fp = _fingerprint(self.a2[r], self.b2[r], i)
            np.add.at(s2, cell, (d % _Q * fp % _Q).ravel())
        np.remainder(self.S2, _Q, out=self.S2)

    # ------------------------------------------------------------------ #

    def sample_all(self) -> np.ndarray:
        """Recover one support coordinate per sampler (-1 on failure).

        Scans levels sparsest-first; a level verifies iff its suffix-
        summed unit is exactly 1-sparse (divisibility + fingerprint).
        """
        # suffix sums: level l aggregates buckets >= l
        s0 = np.flip(np.cumsum(np.flip(self.S0, 1), axis=1), 1)
        s1 = np.flip(np.cumsum(np.flip(self.S1, 1), axis=1), 1)
        s2 = np.flip(np.cumsum(np.flip(self.S2, 1).astype(np.int64), axis=1), 1) % _Q
        nz = s0 != 0
        safe = np.where(nz, s0, 1)
        i_star = s1 // safe
        ok = nz & (s1 % safe == 0) & (i_star >= 0) & (i_star < self.dim)
        g_at = _fingerprint(
            self.a2[:, None], self.b2[:, None], np.clip(i_star, 0, self.dim - 1)
        )
        fp_ok = ((s2 - (s0 % _Q) * g_at) % _Q) == 0
        ok &= fp_ok
        lvl = np.where(ok, np.arange(self.L)[None, :], -1).max(axis=1)
        out = np.full(self.num, -1, dtype=np.int64)
        hit = lvl >= 0
        out[hit] = i_star[hit, lvl[hit]]
        return out

    def merge(self, other: "L0SamplerBank") -> "L0SamplerBank":
        """In-place sketch addition (linearity). Seeds must match."""
        if (self.num, self.dim, self.seed, self.L) != (
            other.num,
            other.dim,
            other.seed,
            other.L,
        ):
            raise ValueError("cannot merge banks with different parameters")
        self.S0 += other.S0
        self.S1 += other.S1
        self.S2 = (self.S2 + other.S2) % _Q
        return self

    def space_words(self) -> int:
        return 3 * self.num * self.L + 4 * self.num


def sketch_stream_spark(df: DataFrame, make_bank, value_col: str = "op") -> L0SamplerBank:
    """Build a bank over a Spark stream via partial sketches.

    ``make_bank()`` must construct identically-seeded banks; each Spark
    partition sketches its rows (``mapInPandas``), the driver merges by
    addition. Rows need columns ``idx`` (coordinate) and ``value_col``
    (signed multiplicity delta).
    """

    def part(it):
        bank = make_bank()
        for pdf in it:
            if len(pdf):
                bank.update(
                    pdf["idx"].to_numpy(np.int64),
                    pdf[value_col].to_numpy(np.int64),
                )
        yield pd.DataFrame({"blob": [pickle.dumps(bank)]})

    parts = df.mapInPandas(part, schema="blob binary").collect()
    merged = make_bank()
    for row in parts:
        merged.merge(pickle.loads(row["blob"]))
    return merged
