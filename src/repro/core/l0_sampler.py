"""From-scratch k-sample l0 sketch (the paper's [32] substrate, §5).

A k-sample l0 sketch returns up to ``k`` distinct coordinates of the
support of the vector an insert/delete stream describes, a uniform
subset without replacement. Construction (Cormode & Firmani, DAPD 2014;
the cell tables are Goodrich & Mitzenmacher's invertible Bloom lookup
tables, Allerton 2011):

- one seeded *level* hash ``u(i)`` per coordinate puts it at level
  ``G`` with ``P(G >= l) = 2^-l`` (nested subsampling: level ``l`` of
  the vector holds the coordinates with ``G >= l``, which are exactly
  those of smallest ``u``), over ``L = ceil(log2(dim/k)) + 2`` levels,
  so the sparsest level holds at most ``k/2`` coordinates in
  expectation even for a full support;
- per level a table of ``3w`` cells, ``w = ceil(0.45 k) + 2``, split
  in three parts of ``w``: three more hashes send a coordinate to one
  cell of each part, and each cell is a sparse-recovery unit
  ``(S0, S1, S2) = (sum c_i, sum c_i * i, sum c_i * g(i) mod q)`` with a
  nonlinear fingerprint hash ``g``. A cell holding exactly one support
  coordinate ``i*`` is *pure*: ``S0 != 0``, ``S1/S0 = i*`` integral,
  ``S2 = S0 * g(i*) mod q``, and ``i*`` hashes to this level and cell
  (a cell of two or more coordinates passes only w.p. about ``1/q``);
- :meth:`L0SamplerBank.peel` takes every pure cell's coordinate,
  subtracts it from its three cells, and repeats until no cell is pure.
  An update is added at its own level only, so the levels peel as
  independent tables, and a table of up to about ``1.1 w`` coordinates
  empties w.h.p. (it stalls w.p. ``O(1/w)``, mostly when two
  coordinates share all three cells);
- :meth:`L0SamplerBank.sample_all` returns the ``k`` recovered
  coordinates of smallest ``u``. When the densest level whose tables
  (and every sparser level's) emptied holds ``k`` or more coordinates,
  that is the bottom-``k`` of the whole support by ``u``; a support of
  at most ``k/2`` empties every level w.h.p. and is returned whole.
  Which coordinates are recovered depends only on their hash values,
  so with fully random hashes and equal nonzero entries the output is
  a uniform subset of the support given its size.

Everything is *linear* in the stream, so sketches merge by addition —
that is what lets Spark partitions build partial sketches independently
(:func:`sketch_stream_spark`) with the driver summing them, and what
makes deletions free. Cells accumulate in exact int64, so no batch size
changes a sketch. ``blocks`` independent sketches over the same
dimension (Algorithm 3's one sketch per sampled vertex) share the hash
functions and one ``(blocks, L, 3w)`` array per cell field.
"""
from __future__ import annotations

import math
import pickle

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

_Q = (1 << 31) - 1  # fingerprint field; coordinates stay below it
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser on uint64 (wrapping arithmetic is the mix)."""
    z = (z ^ (z >> _S30)) * _C1
    z = (z ^ (z >> _S27)) * _C2
    return z ^ (z >> _S31)


def _fingerprint(a2: np.ndarray, b2: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """NONLINEAR fingerprint hash ``g(i)``.

    A linear ``a2*i + b2`` would be useless here: for any cell,
    ``sum c_i * g(i) = S0 * g(S1/S0)`` holds identically whenever the
    divisibility test passes, so every >=2-sparse cell would verify.
    We therefore pass the pairwise hash through a splitmix64 finaliser
    before reducing to the fingerprint field.
    """
    z = ((a2 * idx + b2) % _Q).astype(np.uint64)
    return (_mix(z) % np.uint64(_Q)).astype(np.int64)


def _add_cells(s0, s1, s2, cells, idx, delta, g) -> None:
    """Add ``delta[i]`` of coordinate ``idx[i]``, fingerprint ``g[i]``, to
    its three flat ``cells[3i : 3i + 3]`` of ``(S0, S1, S2)``, exactly.

    Terms reduced mod q stay below 2^31, so an ``S2`` cell's sum stays
    exact in int64 for any batch under 2^32 updates.
    """
    np.add.at(s0, cells, delta.repeat(3))
    np.add.at(s1, cells, (delta * idx).repeat(3))
    np.add.at(s2, cells, (delta % _Q * g % _Q).repeat(3))
    s2[cells] %= _Q


class L0SamplerBank:
    """``blocks`` k-sample l0 sketches, ``k = num``, over dimension ``dim``.

    Requires ``dim < 2^31 - 1`` so all cell arithmetic stays in exact
    int64. Each sketch recovers up to ``num`` distinct coordinates.
    """

    def __init__(self, num: int, dim: int, seed: int = 0, blocks: int = 1):
        if dim >= _Q:
            raise ValueError("dim must be < 2^31 - 1")
        if num < 1 or blocks < 1:
            raise ValueError("num and blocks must be >= 1")
        self.num = num
        self.dim = dim
        self.seed = seed
        self.blocks = blocks
        self.L = max(0, math.ceil(math.log2(max(dim, 1) / num))) + 2
        self.w = math.ceil(0.45 * num) + 2  # cells per hash, per level
        g = np.random.default_rng(seed)
        # the level hash u and the three cell hashes
        self.keys = g.integers(0, 1 << 64, 4, dtype=np.uint64)
        self.a2 = int(g.integers(1, _Q))
        self.b2 = int(g.integers(0, _Q))
        # u < 2^(64-l) puts a coordinate at level l or above
        self._cuts = np.uint64(1) << np.arange(64 - self.L + 1, 64, dtype=np.uint64)
        shape = (blocks, self.L, 3 * self.w)
        self.S0 = np.zeros(shape, dtype=np.int64)
        self.S1 = np.zeros(shape, dtype=np.int64)
        self.S2 = np.zeros(shape, dtype=np.int64)

    # ------------------------------------------------------------------ #

    def _hash(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each coordinate's level hash ``u`` and its three cells (one per
        part, at its level) as flat offsets within one block."""
        h = _mix(idx.astype(np.uint64)[:, None] + self.keys)
        u = h[:, 0]
        level = (self.L - 1) - np.searchsorted(self._cuts, u, side="right")
        cells = (h[:, 1:] % np.uint64(self.w)).astype(np.int64) + np.arange(3) * self.w
        return u, cells + (level * 3 * self.w)[:, None]

    def update(self, idx: np.ndarray, delta: np.ndarray | int = 1) -> None:
        """Apply ``vec[idx] += delta`` in every block."""
        idx = np.asarray(idx, dtype=np.int64)
        block = np.arange(self.blocks).repeat(idx.size)
        self.update_blocks(np.tile(idx, self.blocks),
                           np.tile(np.broadcast_to(delta, idx.shape), self.blocks), block)

    def update_blocks(self, idx: np.ndarray, delta: np.ndarray | int, block: np.ndarray) -> None:
        """Apply ``vec[idx[i]] += delta[i]`` in block ``block[i]`` only."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.dim:
            raise ValueError("coordinate out of range")
        block = np.broadcast_to(np.asarray(block, dtype=np.int64), idx.shape)
        if block.min() < 0 or block.max() >= self.blocks:
            raise ValueError("block out of range")
        delta = np.broadcast_to(np.asarray(delta, dtype=np.int64), idx.shape)
        _, cells = self._hash(idx)
        cells = (cells + (block * self.S0[0].size)[:, None]).ravel()
        _add_cells(self.S0.reshape(-1), self.S1.reshape(-1), self.S2.reshape(-1), cells,
                   idx, delta, _fingerprint(self.a2, self.b2, idx))

    # ------------------------------------------------------------------ #

    def peel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode every level's table at once: take each pure cell's
        coordinate, subtract it from its three cells, repeat until no
        cell is pure. Returns the recovered coordinates with their
        blocks, and a ``(blocks, L)`` mask of the tables left non-empty
        (the peel stalled there). The sketch itself is not changed."""
        s0, s1, s2 = (a.reshape(-1).copy() for a in (self.S0, self.S1, self.S2))
        per_block = self.S0[0].size
        found_cell, found_idx = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        cand = np.flatnonzero(s0)
        while cand.size:
            c0, c1 = s0[cand], s1[cand]
            i = c1 // np.where(c0 == 0, 1, c0)
            ok = (c0 != 0) & (i * c0 == c1) & (i >= 0) & (i < self.dim)
            cand, c0, i = cand[ok], c0[ok], i[ok]
            _, cells = self._hash(i)
            fp = _fingerprint(self.a2, self.b2, i)
            ok = ((cells == (cand % per_block)[:, None]).any(axis=1)
                  & ((s2[cand] - c0 % _Q * fp) % _Q == 0))
            # a coordinate pure in two of its cells is taken once
            _, first = np.unique((cand // per_block * self.dim + i)[ok], return_index=True)
            sel = np.flatnonzero(ok)[first]
            cand, c0, i, fp, cells = cand[sel], c0[sel], i[sel], fp[sel], cells[sel]
            found_cell.append(cand)
            found_idx.append(i)
            touched = (cells + (cand // per_block * per_block)[:, None]).ravel()
            _add_cells(s0, s1, s2, touched, i, -c0, fp)
            cand = np.unique(touched)
            cand = cand[s0[cand] != 0]
        stalled = (s0 != 0) | (s1 != 0) | (s2 != 0)
        return (np.concatenate(found_cell) // per_block, np.concatenate(found_idx),
                stalled.reshape(self.blocks, self.L, -1).any(axis=2))

    def sample_all(self) -> np.ndarray:
        """Up to ``num`` distinct support coordinates per block, padded
        with -1: block ``j``'s are entries ``j*num`` to ``(j+1)*num - 1``,
        the ``num`` recovered coordinates of smallest level hash ``u``."""
        block, idx, _ = self.peel()
        order = np.lexsort((idx, self._hash(idx)[0], block))
        block, idx = block[order], idx[order]
        rank = np.arange(len(idx)) - np.searchsorted(block, block)
        take = rank < self.num
        out = np.full((self.blocks, self.num), -1, dtype=np.int64)
        out[block[take], rank[take]] = idx[take]
        return out.reshape(-1)

    def merge(self, other: "L0SamplerBank") -> "L0SamplerBank":
        """In-place sketch addition (linearity). Parameters must match."""
        if (self.num, self.dim, self.seed, self.blocks) != (
            other.num,
            other.dim,
            other.seed,
            other.blocks,
        ):
            raise ValueError("cannot merge banks with different parameters")
        self.S0 += other.S0
        self.S1 += other.S1
        self.S2 = (self.S2 + other.S2) % _Q
        return self

    def space_words(self) -> int:
        """Three words per cell plus the six hash keys."""
        return 3 * self.S0.size + 6


def sketch_stream_spark(df: DataFrame, make_bank) -> L0SamplerBank:
    """Build a bank over a Spark stream via partial sketches.

    ``make_bank()`` must construct identically-seeded banks; each Spark
    partition sketches its rows (``mapInPandas``), the driver merges by
    addition. Rows need columns ``idx`` (coordinate) and ``op`` (signed
    multiplicity delta).
    """

    def part(it):
        bank = make_bank()
        for pdf in it:
            if len(pdf):
                bank.update(
                    pdf["idx"].to_numpy(np.int64),
                    pdf["op"].to_numpy(np.int64),
                )
        yield pd.DataFrame({"blob": [pickle.dumps(bank)]})

    parts = df.mapInPandas(part, schema="blob binary").collect()
    merged = make_bank()
    for row in parts:
        merged.merge(pickle.loads(row["blob"]))
    return merged
