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
each bucket keeps one state row of parallel ``items``, ``counts`` and
``witnesses`` lists. A trigger then calls the Python update once per
bucket it touches, not once per item, and collects every item's missing
witnesses with one :func:`repro.core.collect.first_rows` call. The price
is that a trigger rewrites the whole state row of each bucket it
touches, including the items of that bucket it did not see.

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

from repro.core.collect import append_grouped, first_rows

EVENT_SCHEMA = "ts long, item long, witness long"
OUTPUT_SCHEMA = "item long, count long, witnesses array<long>"
STATE_SCHEMA = "items array<long>, counts array<long>, witnesses array<array<long>>"
# State buckets per query; a constant so that the state layout does not
# depend on the machine that wrote the checkpoint.
BUCKETS = 64


def make_update_fn(w: int):
    """Build the per-bucket state-update function (witness buffer size ``w``).

    The state holds only Python ``int``s and ``list``s: Spark pickles it,
    and a numpy scalar in it fails the query.
    """

    def update_fn(key, pdf_iter, state: GroupState):
        items, counts, wits = state.get if state.exists else ([], [], [])
        count = dict(zip(items, counts))
        wit = dict(zip(items, wits))
        pdf = pd.concat(list(pdf_iter), ignore_index=True)
        order = np.argsort(pdf["ts"].to_numpy(), kind="stable")
        item = pdf["item"].to_numpy()[order]
        keys, freq = np.unique(item, return_counts=True)
        seen, need = keys.tolist(), []
        for k, f in zip(seen, freq.tolist()):
            count[k] = count.get(k, 0) + f
            need.append(w - len(wit.setdefault(k, [])))
        rows, taken = first_rows(item, keys, np.array(need, dtype=np.int64))
        append_grouped(wit, keys, taken, pdf["witness"].to_numpy()[order][rows])
        state.update((list(count), list(count.values()), [wit[k] for k in count]))
        yield pd.DataFrame(
            {"item": keys, "count": [count[k] for k in seen], "witnesses": [wit[k] for k in seen]}
        )

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
