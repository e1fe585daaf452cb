"""§1 application: DoS detection with witness timestamps.

A router log ``(ts, src, dst)`` is a stream of items (``dst``) with
witnesses (``ts``, all distinct — the bipartite edge ``dst -> ts``).
A plain heavy-hitters sketch reports the attacked target but *cannot*
report when the attack happened; Neighborhood Detection reports the
target **plus a guaranteed ``d/c`` of its timestamps**. Table 7
measures witness recall of ND vs witness-augmented Misra–Gries vs the
exact baseline.
"""
from __future__ import annotations

from typing import Optional

from pyspark.sql import DataFrame

from repro.core.insertion_only import InsertionOnlyND
from repro.streamsim.runner import run_stream
from repro.streamsim.stream import log_to_stream


def detect_dos(
    log_df: DataFrame,
    n_dst: int,
    d: int,
    c: int,
    seed: int = 0,
    batch_size: int = 65536,
) -> tuple[Optional[tuple[int, set[int]]], InsertionOnlyND]:
    """Run Algorithm 2 over the log; returns ((target, timestamps), proc).

    ``d`` is the attack threshold (the promise: some dst received at
    least ``d`` requests); the output carries ``>= d/c`` attack
    timestamps of the reported target.
    """
    proc = InsertionOnlyND(n_dst, d=d, c=c, seed=seed)
    run_stream(proc, log_to_stream(log_df, "dst", "ts"), batch_size=batch_size)
    return proc.result(), proc
