"""§1 application: hot database keys with committing users as witnesses.

A database log ``(txn, user, key)`` is a stream of items (``key``)
with witnesses. Users repeat, so to stay in the paper's simple-graph
model the B-vertex is the (unique) transaction id; the item's degree
is its update frequency and each reported witness transaction resolves
to the user that committed it (:func:`resolve_users`). The output is a
hot key plus the users behind ``>= d/c`` of its updates.
"""
from __future__ import annotations

from typing import Optional

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.insertion_only import InsertionOnlyND
from repro.streamsim.runner import run_stream
from repro.streamsim.stream import log_to_stream


def resolve_users(log_df: DataFrame, txns: set[int]) -> set[int]:
    """Map witness transaction ids back to the users that committed them."""
    if not txns:
        return set()
    rows = (
        log_df.where(F.col("txn").isin([int(t) for t in txns]))
        .select("user")
        .distinct()
        .collect()
    )
    return {int(r["user"]) for r in rows}


def detect_hot_keys(
    log_df: DataFrame,
    n_keys: int,
    d: int,
    c: int,
    seed: int = 0,
    batch_size: int = 65536,
) -> tuple[Optional[tuple[int, set[int]]], InsertionOnlyND]:
    """Report one hot key (updated ``>= d`` times) with ``>= d/c`` of the
    users that committed its updates."""
    proc = InsertionOnlyND(n_keys, d=d, c=c, seed=seed)
    run_stream(proc, log_to_stream(log_df, "key", "txn"), batch_size=batch_size)
    return proc.result(), proc
