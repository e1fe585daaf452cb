"""Augmented-Matrix-Row-Index (Problem 5) and the Lemma 6.3 reduction.

Alice holds a uniform binary matrix ``X in {0,1}^{n x m}``; Bob holds a
row index ``J`` and, for every other row, ``m - k`` known random
positions. Bob must output row ``X_J`` after one message.

Reduction (Lemma 6.3): per repetition, both parties permute each row
with shared randomness; Alice *inserts* an edge per 1-entry of the
permuted matrix, Bob *deletes* the edges at his known 1-positions —
after which every row but ``J`` has at most ``k = d/c - 1`` ones, so a
c-approximation turnstile Neighborhood Detection run must report
``>= d/c`` 1-positions of row ``J``. Un-permuting and repeating
``Theta(c log n)`` times reveals all 1s of row ``J`` w.h.p.; the
inverted-matrix copy covers rows with fewer than ``d`` ones.

We run this with our Algorithm 3 and grade Bob's reconstructed row
against ground truth; the summed message size is compared to the
``Omega(nd / (c^2 log n))`` bound (Theorem 6.4) in Table 5.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.commlb.protocol import simulate_one_way
from repro.core.insertion_deletion import InsertionDeletionND
from repro.streamsim.stream import canonical


@dataclass
class AMRIInstance:
    n: int
    m: int
    k: int
    X: np.ndarray = field(repr=False)  # (n, m) binary
    J: int
    known: dict[int, np.ndarray] = field(repr=False)  # row -> known col positions


def make_instance(n: int, m: int, k: int, seed: int = 0) -> AMRIInstance:
    g = np.random.default_rng(seed)
    X = g.integers(0, 2, (n, m)).astype(np.int8)
    J = int(g.integers(0, n))
    known = {
        i: np.sort(g.choice(m, size=m - k, replace=False))
        for i in range(n)
        if i != J
    }
    return AMRIInstance(n=n, m=m, k=k, X=X, J=J, known=known)


def _one_repetition(
    X: np.ndarray, inst: AMRIInstance, c: int, rep_seed: int
) -> tuple[set[int], int]:
    """One permuted run of the turnstile algorithm; returns
    (unpermuted 1-positions learned for the reported row if it is J,
    message bytes)."""
    n, m = X.shape
    g = np.random.default_rng(rep_seed)  # shared public randomness
    perms = np.stack([g.permutation(m) for _ in range(n)])
    # Alice: insert every (i, perms[i][col]) with X[i, col] == 1.
    ai, ac = np.nonzero(X)
    alice = canonical(pd.DataFrame({"a": ai, "b": perms[ai, ac]}))
    # Bob: delete his known 1-positions (rows != J).
    rows_b, cols_b = [], []
    for i, cols in inst.known.items():
        ones = cols[X[i, cols] == 1]
        rows_b.extend([i] * len(ones))
        cols_b.extend(perms[i, o] for o in ones)
    pos = 10_000_000 + np.arange(len(rows_b), dtype=np.int64)
    bob = canonical(pd.DataFrame({"pos": pos, "a": rows_b, "b": cols_b, "op": -1}))
    proc, msg = simulate_one_way(
        lambda: InsertionDeletionND(n, m, d=m // 2, c=c, seed=rep_seed + 7),
        [alice, bob],
    )
    res = proc.result()
    if res is None or res[0] != inst.J:
        return set(), msg
    inv = np.argsort(perms[inst.J])
    return {int(inv[b]) for b in res[1]}, msg


def solve_with_algorithm(
    inst: AMRIInstance, c: int, reps: int | None = None, seed: int = 0
) -> dict:
    """Full Lemma 6.3 protocol: normal + inverted runs, then reconstruct."""
    n, m = inst.n, inst.m
    d = m // 2
    if reps is None:
        reps = math.ceil(3 * c * math.log(max(n, m, 3)))
    ones: set[int] = set()
    zeros: set[int] = set()
    total_msg = 0
    for r in range(reps):
        learned, msg = _one_repetition(inst.X, inst, c, seed + 1000 * r)
        ones |= learned
        total_msg += msg
        learned0, msg0 = _one_repetition(1 - inst.X, inst, c, seed + 1000 * r + 500)
        zeros |= learned0
        total_msg += msg0
    true_row = inst.X[inst.J]
    if len(ones) >= d:
        row = np.zeros(m, dtype=np.int8)
        row[list(ones)] = 1
    else:
        row = np.ones(m, dtype=np.int8)
        if zeros:
            row[list(zeros)] = 0
    return {
        "row": row,
        "correct": bool((row == true_row).all()),
        "ones_learned": len(ones),
        "zeros_learned": len(zeros),
        "message_bytes": total_msg,
        "reps": reps,
    }
