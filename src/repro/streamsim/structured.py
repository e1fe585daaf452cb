"""Structured Streaming witness query: one driver-side processor, exactly once.

The calibration hint for this paper asks for "a Structured Streaming
stateful operator maintaining sketch counters per key with attached
witness timestamps, updated per micro-batch", and the paper's §1
application (a DoS target plus its attack timestamps) is such a
streaming job. This module runs it as one ``foreachBatch`` loop over a
driver-side :class:`repro.streamsim.runner.StreamProcessor`:

- input: an event stream ``(ts, item, witness)`` from a file source,
  ``maxFilesPerTrigger=1`` and an ``availableNow`` trigger;
- per micro-batch (:func:`run_nd_query`): Spark collects the batch to
  the driver (one JVM-side Arrow collect, no Python worker), and
  :func:`feed` sorts its rows by ``ts`` and feeds them to the processor
  as one stream batch (``pos = ts``, ``a = item``, ``b = witness``,
  ``op = +1``);
- after each batch the driver saves ``(batchId, checkpoint(proc))`` to
  ``<checkpoint_dir>/processor``: written to a temporary file, synced,
  then moved into place with ``os.replace``, so the file always holds
  one whole state.

Exactly once. Spark writes a batch's offsets before it runs the batch
and its commit after ``foreachBatch`` returns; on restart it re-runs a
batch whose offsets were written but whose commit was not, over the
same files (the file source is replayable). A restarted query restores
the saved processor and skips every ``batchId`` at or below the saved
one. So a crash before the save re-runs the batch on the state that
preceded it, and a crash between the save and Spark's commit replays a
batch the state already holds, which is skipped: every batch reaches
the processor once.

Cost. No Python worker starts and nothing scales with a state
partition count: over 30,000 events on 2,000 items in one file (4
shared vCPUs, ``local[4]``) a trigger takes about 0.26–0.35 s. About
half is the batch's collect, the ``ExactND`` update takes about 13 ms
and the save about 2 ms; the rest is Spark's offset and commit logs and
planning.

:func:`run_witness_query` is the witness counter: the processor is an
:class:`repro.core.exact_baseline.ExactND` over unbounded keys (per
item its exact count and its first ``w`` witnesses by ``ts``), and
:func:`witness_step` emits one ``(item, count, witnesses)`` row per
item a batch saw.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import queue
import socket
import time
from concurrent.futures import Future
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.exact_baseline import ExactND
from repro.streamsim.runner import StreamProcessor, checkpoint, restore
from repro.streamsim.stream import in_stream_order

EVENT_SCHEMA = "ts long, item long, witness long"
OUTPUT_SCHEMA = "item long, count long, witnesses array<long>"
# The driver-side processor's file under the query's checkpoint directory.
PROCESSOR_FILE = "processor"
# How often the calling thread checks whether the query has ended while
# no batch waits for it.
_POLL_S = 0.01


def feed(proc: StreamProcessor, events: pd.DataFrame) -> None:
    """Feed one micro-batch of events to ``proc`` as a stream batch in
    ``ts`` order (Spark gives no row order within a micro-batch)."""
    proc.process_batch(in_stream_order(pd.DataFrame(
        {"pos": events["ts"], "a": events["item"], "b": events["witness"], "op": 1}
    )))


def witness_step(proc: ExactND, events: pd.DataFrame) -> pd.DataFrame:
    """The witness query's per-batch step: feed the events, then emit
    each item they name with its running count and witness buffer."""
    feed(proc, events)
    seen = np.unique(events["item"].to_numpy(np.int64)).tolist()
    return pd.DataFrame({
        "item": seen,
        "count": [proc.deg[k] for k in seen],
        "witnesses": [proc.stored.get(k, []) for k in seen],
    })


def write_event_files(pdf: pd.DataFrame, directory: str, n_files: int) -> None:
    """Split events into ``n_files`` JSON files (one per micro-batch).

    The file source takes new files oldest first, by modification time
    to the millisecond, so file ``i`` is dated ``i`` seconds after the
    first: the micro-batches then come in ``ts`` order even when the
    files are written within one millisecond.
    """
    os.makedirs(directory, exist_ok=True)
    pdf = pdf.sort_values("ts").reset_index(drop=True)
    per = max(1, -(-len(pdf) // n_files))
    first = int(time.time()) - n_files
    for i in range(0, len(pdf), per):
        path = os.path.join(directory, f"events-{i // per:05d}.json")
        pdf.iloc[i : i + per].to_json(path, orient="records", lines=True)
        os.utime(path, (first + i // per, first + i // per))


def load_processor(checkpoint_dir: str) -> tuple[int, StreamProcessor] | None:
    """The last saved ``(batchId, processor)`` of a query, if any."""
    path = os.path.join(checkpoint_dir, PROCESSOR_FILE)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        batch_id, blob = pickle.load(f)
    return batch_id, restore(blob)


def _save_processor(checkpoint_dir: str, batch_id: int, proc: StreamProcessor) -> None:
    path = os.path.join(checkpoint_dir, PROCESSOR_FILE)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        pickle.dump((batch_id, checkpoint(proc)), f, protocol=pickle.HIGHEST_PROTOCOL)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def run_nd_query(
    spark: SparkSession,
    input_dir: str,
    checkpoint_dir: str,
    query_name: str,
    make_proc: Callable[[], StreamProcessor],
    step: Callable[[StreamProcessor, pd.DataFrame], None] = feed,
) -> StreamProcessor:
    """Run one driver-side processor over every event file in
    ``input_dir``, one file per micro-batch, exactly once.

    The processor is restored from ``checkpoint_dir`` if a run saved
    one, else made by ``make_proc``. Each new micro-batch is collected
    to the driver and passed to ``step`` (by default :func:`feed`);
    then the processor is saved with its ``batchId``. Returns the
    processor once the input is exhausted.

    Spark calls ``foreachBatch`` on a thread of its own, a new one per
    query. That thread only hands the batch to the calling thread and
    waits until it is processed and saved, so Spark commits a batch only
    after its save, and only the calling thread touches the processor
    (and allocates for it). Once the query has stopped, the py4j
    connection that served its callbacks is shut down, so neither its
    driver thread nor its socket outlives the query.
    """
    saved = load_processor(checkpoint_dir)
    last, proc = saved if saved is not None else (-1, make_proc())
    handoff: queue.Queue = queue.Queue()
    # In pinned-thread mode (PySpark's default) py4j serves the query's
    # callbacks on a driver thread and socket bound to its
    # stream-execution thread, and nothing closes them when the query ends.
    thread_connection = getattr(
        spark.sparkContext._gateway._gateway_client, "get_thread_connection", None)
    callback_connections: set = set()

    def on_batch(df: DataFrame, batch_id: int) -> None:
        if thread_connection is not None:
            callback_connections.add(thread_connection())
        done: Future = Future()
        handoff.put((df, batch_id, done))
        done.result()

    q = (
        spark.readStream.schema(EVENT_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .json(input_dir)
        .writeStream.foreachBatch(on_batch)
        .queryName(query_name)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )
    try:
        while True:
            try:
                df, batch_id, done = handoff.get(timeout=_POLL_S)
            except queue.Empty:
                if q.isActive:
                    continue
                break
            try:
                if batch_id > last:  # else replayed after a crash: already in the state
                    step(proc, df.toPandas())
                    _save_processor(checkpoint_dir, batch_id, proc)
                    last = batch_id
            except BaseException as e:
                done.set_exception(e)  # fails the batch: Spark commits nothing
                raise
            done.set_result(None)
    finally:
        q.stop()  # returns once the stream-execution thread has ended
        for connection in callback_connections:
            # A shutdown, not close(): the serving thread blocks reading
            # the socket; at end of stream it closes the connection and
            # exits, where close() would wait on its buffer lock.
            sock = connection.socket
            if sock is not None:
                with contextlib.suppress(OSError):  # the JVM already hung up
                    sock.shutdown(socket.SHUT_RDWR)
    q.awaitTermination()
    return proc


def run_witness_query(
    spark: SparkSession,
    input_dir: str,
    checkpoint_dir: str,
    query_name: str,
    w: int = 16,
) -> DataFrame:
    """Run the witness counter over all files in ``input_dir``.

    Returns the temp view ``query_name``: one row per (item,
    micro-batch) update of this run; the final state per item is the
    row with the largest count.
    """
    updates: list[pd.DataFrame] = []
    run_nd_query(
        spark, input_dir, checkpoint_dir, query_name, lambda: ExactND(None, w),
        lambda proc, events: updates.append(witness_step(proc, events)),
    )
    pdf = (pd.concat(updates, ignore_index=True) if updates
           else pd.DataFrame({"item": [], "count": [], "witnesses": []}))
    spark.createDataFrame(pdf, OUTPUT_SCHEMA).createOrReplaceTempView(query_name)
    return spark.table(query_name)


def final_state(updates: DataFrame) -> pd.DataFrame:
    """Collapse the update log to the final per-item state."""
    pdf = updates.toPandas()
    idx = pdf.groupby("item")["count"].idxmax()
    return pdf.loc[idx].reset_index(drop=True)
