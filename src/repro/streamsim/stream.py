"""The stream boundary: the edge-stream contract, its checks, and batching.

A *stream* has the columns of :data:`STREAM_DTYPES`: ``pos`` (position
in the single-pass total order, unique), ``a`` (A-vertex: the *item*),
``b`` (B-vertex: the *witness*) and ``op`` (``+1`` insertion, ``-1``
deletion, turnstile only). The paper's guarantees assume one pass over
a simple bipartite graph, so the contract is checked here and nowhere
else (DESIGN.md § Stream boundary): :func:`canonical` builds every
stream frame, :func:`batches` is the one slicing loop of both runners,
:func:`check_batch` is every processor's per-batch check, and
:class:`FinalGraph` is the one check of a reported neighbourhood
against the graph the stream leaves.

Spark ingests and collects the stream; the driver orders the collected
rows by ``pos`` (:func:`in_stream_order`), and the sequential algorithms
then consume pandas micro-batches **in stream order** (reservoir
sampling is order-sequential by definition — the total order *is* the
streaming model, see DESIGN.md § Layering).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

STREAM_DTYPES = {"pos": "int64", "a": "int64", "b": "int64", "op": "int32"}
STREAM_COLS = list(STREAM_DTYPES)
_SPARK_TYPES = {"int64": "long", "int32": "int"}
STREAM_SCHEMA = ", ".join(f"{c} {_SPARK_TYPES[t]}" for c, t in STREAM_DTYPES.items())


def canonical(pdf: pd.DataFrame) -> pd.DataFrame:
    """A stream frame in the canonical schema, checked.

    ``op`` defaults to ``+1`` and ``pos`` to the row order. Raises
    ``ValueError`` on an ``op`` outside ``{+1, -1}``, a repeated ``pos``
    or, when every ``op`` is ``+1``, a repeated ``(a, b)`` edge.
    """
    n = len(pdf)
    if "op" in pdf.columns and (np.abs(pdf["op"].to_numpy()) != 1).any():
        raise ValueError("op must be +1 or -1")
    # Column by column and numpy-only checks: a frame-wide copy or a
    # pandas duplicated() raised the generators' peak memory by 30 MiB.
    fill = {"pos": np.arange(n, dtype=np.int64), "op": np.ones(n, dtype=np.int32)}
    out = pd.DataFrame({c: pdf[c].to_numpy(t, copy=True) if c in pdf.columns else fill[c]
                        for c, t in STREAM_DTYPES.items()}, copy=False)
    pos = np.sort(out["pos"].to_numpy(), kind="stable")
    if (pos[1:] == pos[:-1]).any():
        raise ValueError("repeated pos: the stream order is not total")
    if (out["op"].to_numpy() == 1).all():
        a, b = out["a"].to_numpy(), out["b"].to_numpy()
        by_edge = np.lexsort((b, a))
        a, b = a[by_edge], b[by_edge]
        if ((a[1:] == a[:-1]) & (b[1:] == b[:-1])).any():
            raise ValueError("repeated edge in an insertion-only stream")
    return out


def stream_from_pandas(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Lift a pandas edge list into a Spark stream (through :func:`canonical`).

    The rows are materialized once in Spark's block manager
    (``localCheckpoint``): a frame built from pandas is otherwise a
    ``LocalRelation``, whose rows are serialized into the tasks of every
    job that scans it. The lift therefore runs one materializing job, a
    cost without a return for a caller that reads the stream only once;
    every later job reads the cached partitions, and Spark frees them
    after the frame is dropped, at the JVM's next garbage collection. A
    local checkpoint is lost if its executor dies, which in local mode
    is the driver that built the stream anyway. An empty stream lifts
    with the canonical column types.
    """
    return spark.createDataFrame(canonical(pdf), STREAM_SCHEMA).localCheckpoint()


def log_to_stream(log_df: DataFrame, item: str, witness: str) -> DataFrame:
    """Event log -> Spark stream with ``a`` = ``item`` and ``b`` = ``pos``
    = ``witness``, a unique event id (a repeat fails in :func:`batches`)."""
    src = {"pos": F.col(witness), "a": F.col(item), "b": F.col(witness), "op": F.lit(1)}
    return log_df.select(
        *(src[c].cast(_SPARK_TYPES[t]).alias(c) for c, t in STREAM_DTYPES.items())
    )


def in_stream_order(pdf: pd.DataFrame) -> pd.DataFrame:
    """The stream's rows sorted by ``pos``: the one ordering step of both
    runners and of a distributed partition."""
    return pdf.sort_values("pos", kind="stable")


def batches(pdf: pd.DataFrame, batch_size: int) -> Iterator[pd.DataFrame]:
    """Slice a stream already sorted by ``pos`` into micro-batches."""
    pos = pdf["pos"].to_numpy()
    if (pos[1:] == pos[:-1]).any():
        raise ValueError("repeated pos: the stream order is not total")
    for lo in range(0, len(pdf), batch_size):
        yield pdf.iloc[lo : lo + batch_size].reset_index(drop=True)


def iter_batches(df: DataFrame, batch_size: int) -> Iterator[pd.DataFrame]:
    """Yield pandas micro-batches in stream order.

    Spark collects the stream unordered (one Arrow ``toPandas``) and the
    driver sorts it by ``pos`` and slices it. Every row reaches the
    driver anyway; a Catalyst range sort would add a sampling job and a
    shuffle, where the driver sort is one numpy argsort.
    """
    yield from batches(in_stream_order(df.toPandas()), batch_size)


def check_batch(
    batch: pd.DataFrame, n: int | None, m: int | None = None, *, insertion_only: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A processor's check of one micro-batch; returns its int64 ``a, b, op``.

    Raises ``ValueError`` unless every ``a`` is in ``[0, n)`` when ``n``
    is given, every ``b`` in ``[0, m)`` when ``m`` is given, and every
    ``op`` is ``+1`` (``insertion_only``) or ``±1``.
    """
    a = batch["a"].to_numpy(np.int64)
    b = batch["b"].to_numpy(np.int64)
    op = batch["op"].to_numpy(np.int64)
    if len(a):
        if ((op != 1) if insertion_only else (np.abs(op) != 1)).any():
            raise ValueError("op must be +1" + ("" if insertion_only else " or -1"))
        if n is not None and (a.min() < 0 or a.max() >= n):
            raise ValueError("A-vertex id outside [0, n)")
        if m is not None and (b.min() < 0 or b.max() >= m):
            raise ValueError("B-vertex id outside [0, m)")
    return a, b, op


class FinalGraph:
    """The graph a (possibly turnstile) stream leaves, and the one check
    of a reported neighbourhood against it.

    Holds the distinct ``(a, b)`` pairs whose net multiplicity is
    positive, as int64 arrays ``a`` and ``b`` sorted by ``(a, b)``; for
    an insertion-only simple stream this is just the edge list.
    """

    def __init__(self, pdf: pd.DataFrame) -> None:
        net = pdf.groupby(["a", "b"])["op"].sum()  # sorted by (a, b)
        alive = net[net > 0].index
        self.a = alive.get_level_values("a").to_numpy(np.int64)
        self.b = alive.get_level_values("b").to_numpy(np.int64)

    def neighbours(self, v: int) -> np.ndarray:
        """``v``'s neighbours, sorted."""
        lo, hi = np.searchsorted(self.a, v, "left"), np.searchsorted(self.a, v, "right")
        return self.b[lo:hi]

    def valid(self, res: tuple[int, set[int]] | None, d_c: int) -> bool:
        """Whether a reported neighbourhood holds: at least ``d_c``
        distinct witnesses, every one a neighbour of the reported
        vertex. No output (a failure) is not an invalid one."""
        if res is None:
            return True
        v, witnesses = res
        witnesses = set(witnesses)
        return len(witnesses) >= d_c and witnesses <= set(self.neighbours(v).tolist())
