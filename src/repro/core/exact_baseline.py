"""The trivial exact ``O(nd)``-space baseline (paper §1.1).

Stores the first ``min(deg(a), d)`` edges incident to every A-vertex —
solves Neighborhood Detection *exactly* with approximation factor 1.
Both the paper's algorithms are measured against this baseline in the
tables: the point of Theorems 3.2/5.4 is to beat ``O(nd)``.

Two implementations that must agree (tested against each other and the
DuckDB oracle):

- :class:`ExactND` — sequential stream processor;
- :func:`exact_nd_spark` — a pure Catalyst window query
  (``row_number() over (partition by a order by pos) <= d``).
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.collect import append_grouped, first_rows
from repro.streamsim.stream import check_batch


class ExactND:
    """Sequential exact algorithm: first ``min(deg, d)`` edges per vertex."""

    def __init__(self, n: int, d: int) -> None:
        self.n, self.d = n, d
        self.stored: dict[int, list[int]] = {}
        self.deg = np.zeros(n, dtype=np.int64)

    def process_batch(self, batch: pd.DataFrame) -> None:
        a, b, _ = check_batch(batch, self.n, insertion_only=True)
        # A vertex of degree deg already stores min(deg, d) edges.
        keys = np.unique(a)
        rows, counts = first_rows(a, keys, self.d - np.minimum(self.deg[keys], self.d))
        append_grouped(self.stored, keys, counts, b[rows])
        np.add.at(self.deg, a, 1)

    def result(self) -> Optional[tuple[int, set[int]]]:
        """The A-vertex of maximum degree with its stored neighborhood."""
        if not self.stored:
            return None
        v = int(np.argmax(self.deg))
        return v, set(self.stored.get(v, []))

    def neighborhood(self, v: int) -> set[int]:
        return set(self.stored.get(v, []))

    def space_words(self) -> int:
        return self.n + sum(len(v) for v in self.stored.values())


def exact_nd_spark(df: DataFrame, d: int) -> DataFrame:
    """Catalyst version: first ``d`` edges per A-vertex, in stream order.

    Returns columns ``a, b`` — the stored edge set of the exact baseline.
    """
    w = Window.partitionBy("a").orderBy("pos")
    return (
        df.withColumn("rn", F.row_number().over(w))
        .where(F.col("rn") <= d)
        .select("a", "b")
    )


def degrees_spark(df: DataFrame) -> DataFrame:
    """Net degree per A-vertex via Catalyst (handles turnstile ops)."""
    return df.groupBy("a").agg(F.sum("op").cast("long").alias("deg"))


def max_degree_spark(df: DataFrame) -> tuple[int, int]:
    """``(argmax_a, Delta)`` of the (net) degree distribution."""
    row = degrees_spark(df).orderBy(F.desc("deg"), F.asc("a")).first()
    return int(row["a"]), int(row["deg"])
