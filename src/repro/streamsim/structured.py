"""Structured Streaming stateful witness-counter operator.

The calibration hint for this paper asks for "a Structured Streaming
stateful operator maintaining sketch counters per key with attached
witness timestamps, updated per micro-batch" — this module is that
operator, built on ``applyInPandasWithState``:

- input: an event stream ``(ts, item, witness)``;
- state per item: its count and its first ``w`` witnesses by ``ts``
  (bounded, like the collection buffers of Algorithm 1);
- output (update mode): one row per item per micro-batch with the
  running count and witness buffer.

The state is bucketed: the query groups by ``pmod(item, BUCKETS)`` and
each bucket's state is one ``binary`` value, the
:func:`repro.streamsim.runner.checkpoint` of an
:class:`repro.core.exact_baseline.ExactND` over the bucket's items — the
exact baseline's collector, keyed by item, with ``d = w``. A trigger
calls the Python update once per bucket it touches, not once per item:
it restores the bucket's collector, feeds it the bucket's rows sorted by
``ts`` as one stream batch (``pos = ts``, ``a = item``, ``b = witness``)
and checkpoints it again. The price is that a trigger rewrites the
whole state of each bucket it touches, including the items of that
bucket it did not see.

The query runs with as many state partitions as the session's
``defaultParallelism``. Spark freezes that count into the checkpoint at
the first ``start()``, so a restarted query keeps it; the session's own
``spark.sql.shuffle.partitions`` is left as it was.

Tests drive it with a file source (one JSON file per micro-batch via
``maxFilesPerTrigger=1``) and an ``availableNow`` trigger into a memory
sink, then check the final counts against a plain batch ``groupBy``
oracle and the witness buffers against ground truth.
"""
from __future__ import annotations

import os

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

from repro.core.exact_baseline import ExactND
from repro.streamsim.runner import checkpoint, restore

EVENT_SCHEMA = "ts long, item long, witness long"
OUTPUT_SCHEMA = "item long, count long, witnesses array<long>"
STATE_SCHEMA = "collector binary"
# State buckets per query; a constant so that the state layout does not
# depend on the machine that wrote the checkpoint.
BUCKETS = 64


def make_update_fn(w: int):
    """Build the per-bucket state-update function (witness buffer size ``w``)."""

    def update_fn(key, pdf_iter, state: GroupState):
        proc = restore(state.get[0]) if state.exists else ExactND(None, w)
        pdf = pd.concat(list(pdf_iter)).sort_values("ts", kind="stable", ignore_index=True)
        proc.process_batch(
            pd.DataFrame({"pos": pdf["ts"], "a": pdf["item"], "b": pdf["witness"], "op": 1})
        )
        state.update((checkpoint(proc),))
        seen = np.unique(pdf["item"]).tolist()
        yield pd.DataFrame({
            "item": seen,
            "count": [proc.deg[k] for k in seen],
            "witnesses": [proc.stored.get(k, []) for k in seen],
        })

    return update_fn


def write_event_files(pdf: pd.DataFrame, directory: str, n_files: int) -> None:
    """Split events into ``n_files`` JSON files (one per micro-batch)."""
    os.makedirs(directory, exist_ok=True)
    pdf = pdf.sort_values("ts").reset_index(drop=True)
    per = max(1, -(-len(pdf) // n_files))
    for i in range(0, len(pdf), per):
        pdf.iloc[i : i + per].to_json(
            os.path.join(directory, f"events-{i // per:05d}.json"),
            orient="records",
            lines=True,
        )


def run_witness_query(
    spark: SparkSession,
    input_dir: str,
    checkpoint_dir: str,
    query_name: str,
    w: int = 16,
) -> DataFrame:
    """Run the stateful operator over all files in ``input_dir``.

    Returns the memory-sink table: one row per (item, micro-batch)
    update; the final state per item is the row with the largest count.
    """
    src = (
        spark.readStream.schema(EVENT_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .json(input_dir)
    )
    # A SQL expression, not a Column operator: PySpark's call-site
    # capture behind Column operators imports IPython into the driver.
    out = (
        src.selectExpr("*", f"pmod(item, {BUCKETS}) AS bucket")
        .groupBy("bucket")
        .applyInPandasWithState(
            make_update_fn(w),
            OUTPUT_SCHEMA,
            STATE_SCHEMA,
            "update",
            GroupStateTimeout.NoTimeout,
        )
    )
    writer = (
        out.writeStream.format("memory")
        .queryName(query_name)
        .outputMode("update")
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
    )
    # start() clones the session, so the state partition count is read
    # here and then frozen into the checkpoint.
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    spark.conf.set(key, str(spark.sparkContext.defaultParallelism))
    try:
        q = writer.start()
    finally:
        spark.conf.set(key, old)
    q.awaitTermination()
    return spark.table(query_name)


def final_state(updates: DataFrame) -> pd.DataFrame:
    """Collapse the update log to the final per-item state."""
    pdf = updates.toPandas()
    idx = pdf.groupby("item")["count"].idxmax()
    return pdf.loc[idx].reset_index(drop=True)
