"""Bit-Vector Learning (Problem 4) and the Theorem 4.8 reduction.

Instance: ``X_1 = [n]``, each ``X_{i+1}`` a uniform random subset of
``X_i`` of size ``n^{1 - i/(p-1)}``; party ``i`` holds a ``k``-bit
string ``Y_i^j`` for every ``j in X_i``. Party ``p`` must output an
index ``I`` and ``> k`` correct bits of the concatenation ``Z^I``
(the trivial no-communication protocol already gets ``k``).

The reduction (§4.5): party ``i`` encodes bit ``Y_i^l[j]`` as the edge
``(l, 2k(i-1) + 2(j-1) + bit)`` — each bit-position owns a 2-tuple of
B-vertices and the bit selects which one. The unique element of ``X_p``
has degree ``Delta = kp``, so running a Neighborhood Detection
algorithm with ``d = kp`` across the parties outputs ``>= kp/c`` edges
of some vertex ``I``, and every edge decodes one bit of ``Z^I``.

We run this reduction *constructively* with our Algorithm 2 and verify
the decoded bits against ground truth; the measured ``max |M_i|`` is
compared to the ``Omega(k n^{1/(p-1)} / p)`` bound of Theorem 4.7 in
Table 5.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.commlb.protocol import simulate_one_way
from repro.core.insertion_only import InsertionOnlyND
from repro.streamsim.stream import canonical


@dataclass
class BVLInstance:
    p: int
    n: int
    k: int
    X: list[np.ndarray]  # X[i] = party i's index set (0-based parties)
    Y: dict[tuple[int, int], np.ndarray] = field(repr=False)  # (party, j) -> bits

    def z_string(self, j: int) -> np.ndarray:
        """Concatenation ``Z^j`` of all parties' strings for index ``j``."""
        parts = [self.Y[(i, j)] for i in range(self.p) if (i, j) in self.Y]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int8)


def make_instance(p: int, n: int, k: int, seed: int = 0) -> BVLInstance:
    """Sample a Bit-Vector-Learning(p, n, k) instance per Problem 4."""
    if p < 2 or n < 1 or k < 1:
        raise ValueError("need p >= 2, n >= 1, k >= 1")
    g = np.random.default_rng(seed)
    X = [np.arange(n)]
    for i in range(1, p):
        size = max(1, round(n ** (1 - i / (p - 1))))
        X.append(np.sort(g.choice(X[-1], size=min(size, len(X[-1])), replace=False)))
    Y = {
        (i, int(j)): g.integers(0, 2, k).astype(np.int8)
        for i in range(p)
        for j in X[i]
    }
    return BVLInstance(p=p, n=n, k=k, X=X, Y=Y)


def party_stream(inst: BVLInstance, party: int) -> pd.DataFrame:
    """Party ``party``'s edge set under the §4.5 construction."""
    k = inst.k
    rows_a, rows_b = [], []
    for j in inst.X[party]:
        bits = inst.Y[(party, int(j))]
        cols = 2 * k * party + 2 * np.arange(k) + bits
        rows_a.extend([int(j)] * k)
        rows_b.extend(int(c) for c in cols)
    pos = party * 10_000_000 + np.arange(len(rows_a), dtype=np.int64)
    return canonical(pd.DataFrame({"pos": pos, "a": rows_a, "b": rows_b}))


def decode_edge(b: int, k: int) -> tuple[int, int, int]:
    """Invert the encoding: B-vertex -> (party, bit position, bit value)."""
    party, rem = divmod(b, 2 * k)
    j, bit = divmod(rem, 2)
    return party, j, bit


def solve_with_algorithm(
    inst: BVLInstance, c: int, seed: int = 0, batch_size: int = 65536
) -> dict:
    """Run Algorithm 2 through the p-party protocol and grade the output.

    Returns measured ``max_msg_bytes``, the number of correctly decoded
    bits for the output index, and whether the protocol beat the
    trivial ``k`` bits (``success``).
    """
    d = inst.k * inst.p  # = Delta by construction
    streams = [party_stream(inst, i) for i in range(inst.p)]
    proc, max_msg = simulate_one_way(
        lambda: InsertionOnlyND(inst.n, d=d, c=c, seed=seed),
        streams,
        batch_size=batch_size,
    )
    res = proc.result()
    out: dict = {
        "max_msg_bytes": max_msg,
        "space_words": proc.space_words(),
        "bits_required": math.floor(1.01 * inst.k) + 1,
    }
    if res is None:
        out.update(index=None, bits_learned=0, bits_correct=0, success=False)
        return out
    I, S = res
    z = inst.z_string(I)
    learned = {}
    for b in S:
        party, j, bit = decode_edge(int(b), inst.k)
        # global bit offset of (party, j) inside Z^I
        offset = sum(
            inst.k for q in range(party) if (q, I) in inst.Y
        )
        if (party, I) in inst.Y:
            learned[offset + j] = bit
    correct = sum(1 for posn, bit in learned.items() if z[posn] == bit)
    out.update(
        index=I,
        bits_learned=len(learned),
        bits_correct=correct,
        success=correct >= out["bits_required"] and correct == len(learned),
    )
    return out
