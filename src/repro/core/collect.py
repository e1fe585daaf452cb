"""The stream-order collection kernel every witness collector shares.

Algorithm 1 keeps, for each reservoir member, the next ``d2`` incident
edges from its entry edge on; the exact baseline keeps the first ``d``
edges of every vertex; the Misra–Gries witness buffers keep the first
``w`` witnesses of every tracked item. Within one micro-batch each is
the same query: *for each key, the first ``need`` rows with that key at
or after the key's entry row (and before its exit row), in stream
order*. :func:`first_rows` answers it for all keys at once with numpy —
a stable argsort by key, segment boundaries found by ``searchsorted``,
and a per-key cut at ``need`` — so a batch costs a handful of array
operations however many keys it touches.
"""
from __future__ import annotations

import numpy as np


def running_rank(keys: np.ndarray) -> np.ndarray:
    """Per row, how many earlier rows hold the same key.

    Equal to pandas' ``Series(keys).groupby(keys).cumcount()``.
    """
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    idx = np.arange(len(keys))
    head = np.ones(len(keys), dtype=bool)
    head[1:] = sk[1:] != sk[:-1]
    seg_start = np.maximum.accumulate(np.where(head, idx, 0))
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = idx - seg_start
    return rank


def first_rows(
    keys: np.ndarray,
    members: np.ndarray,
    need: np.ndarray,
    start: np.ndarray | None = None,
    stop: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``need[j]`` rows ``i`` with ``keys[i] == members[j]`` and
    ``start[j] <= i < stop[j]``, for every ``j``.

    ``members`` must be distinct. ``start`` defaults to 0 and ``stop`` to
    ``len(keys)``. Returns ``(rows, counts)``: ``counts[j]`` is how many
    rows member ``j`` got, and ``rows`` lists them grouped by member in
    the order of ``members``, in stream order within each member.
    """
    n, m = len(keys), len(members)
    if n == 0 or m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(m, dtype=np.int64)
    # The rows whose key is a member, labelled with that member's index.
    by_key = np.argsort(members)
    sorted_m = members[by_key]
    slot = np.minimum(np.searchsorted(sorted_m, keys), m - 1)
    hit = np.flatnonzero(sorted_m[slot] == keys)
    owner = by_key[slot[hit]]
    # Group by member, stream order within a group; the composite
    # (owner, row) key is then sorted, so one searchsorted finds every
    # member's first row at or after its start and its end before stop.
    grouped = np.argsort(owner, kind="stable")
    rows = hit[grouped]
    comp = owner[grouped] * (n + 1) + rows
    base = np.arange(m, dtype=np.int64) * (n + 1)
    lo = np.searchsorted(comp, base if start is None else base + start)
    hi = np.searchsorted(comp, base + (n if stop is None else stop))
    counts = np.clip(np.minimum(hi - lo, need), 0, None).astype(np.int64)
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    take = np.repeat(lo - offsets, counts) + np.arange(total)
    return rows[take], counts


def append_grouped(
    store: dict[int, list[int]], members: np.ndarray, counts: np.ndarray, values: np.ndarray
) -> None:
    """Append each member's run of ``values`` to ``store[member]``.

    ``values`` is grouped as :func:`first_rows` returns its rows; members
    with no values are left untouched.
    """
    vals = values.tolist()
    off = 0
    for v, c in zip(members.tolist(), counts.tolist()):
        if c:
            store.setdefault(v, []).extend(vals[off : off + c])
            off += c
