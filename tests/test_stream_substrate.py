"""Stream substrate: Spark collect, driver-side ordering and batching, runner,
serialization."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core.exact_baseline import ExactND
from repro.core.insertion_only import InsertionOnlyND
from repro.streamsim import stream as ss
from repro.streamsim.runner import (
    checkpoint,
    restore,
    run_stream,
    run_stream_pandas,
)
from tests.test_insertion_only_distributed import assert_same_processor


@pytest.fixture(scope="module")
def small_stream(spark):
    pdf, info = synth_data.planted_star_pandas(
        n=64, m=256, d=16, avg_deg=3.0, seed=11
    )
    return spark.createDataFrame(pdf), pdf, info


def test_stream_from_pandas_schema(spark):
    pdf = pd.DataFrame({"a": [1, 2], "b": [3, 4]})
    df = ss.stream_from_pandas(spark, pdf)
    assert df.columns == ss.STREAM_COLS
    got = df.orderBy("pos").toPandas()
    assert got["op"].tolist() == [1, 1]
    assert got["pos"].tolist() == [0, 1]


@pytest.mark.parametrize("bad", [
    {"a": [1, 2], "b": [3, 4], "op": [1, 2]},
    {"pos": [0, 0], "a": [1, 2], "b": [3, 4]},
    {"a": [1, 2, 1], "b": [3, 4, 3]},
], ids=["op_2", "repeated_pos", "repeated_edge"])
def test_stream_from_pandas_rejects_broken_stream(spark, bad):
    """Each of these used to be lifted into a stream as it was."""
    with pytest.raises(ValueError):
        ss.stream_from_pandas(spark, pd.DataFrame(bad))


def test_canonical_keeps_reinserted_edge_of_turnstile_stream():
    """An edge may come back after its deletion; only an insertion-only
    stream must be simple."""
    pdf = ss.canonical(pd.DataFrame({"a": [1, 1, 1], "b": [3, 3, 3], "op": [1, -1, 1]}))
    assert list(pdf.dtypes.astype(str)) == list(ss.STREAM_DTYPES.values())
    assert pdf["pos"].tolist() == [0, 1, 2]


REPEATED_POS = pd.DataFrame({"pos": [0, 1, 1], "a": [0, 1, 2], "b": [0, 1, 2], "op": 1})


def test_run_stream_pandas_rejects_repeated_pos():
    """Rows sharing a pos used to be fed in whatever order the sort left them."""
    p = ExactND(8, 4)
    with pytest.raises(ValueError):
        run_stream_pandas(p, REPEATED_POS, batch_size=1)
    assert not p.stored


def test_run_stream_rejects_repeated_pos(spark):
    p = ExactND(8, 4)
    with pytest.raises(ValueError):
        run_stream(p, spark.createDataFrame(REPEATED_POS), batch_size=1)
    assert not p.stored


@pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
def test_iter_batches_covers_stream_in_order(small_stream, batch_size):
    df, pdf, _ = small_stream
    seen = pd.concat(list(ss.iter_batches(df, batch_size)), ignore_index=True)
    assert seen["pos"].is_monotonic_increasing
    pd.testing.assert_frame_equal(
        seen, pdf.sort_values("pos").reset_index(drop=True), check_dtype=False
    )


def test_iter_batches_sizes(small_stream):
    df, pdf, _ = small_stream
    batches = list(ss.iter_batches(df, 50))
    assert all(len(b) == 50 for b in batches[:-1])
    assert sum(len(b) for b in batches) == len(pdf)


def test_final_graph_insertion_only_is_identity(small_stream):
    """The edge list itself, sorted by (a, b), each vertex's neighbours
    found by its lookup."""
    _, pdf, _ = small_stream
    fg = ss.FinalGraph(pdf)
    want = pdf.sort_values(["a", "b"])
    assert fg.a.tolist() == want["a"].tolist() and fg.b.tolist() == want["b"].tolist()
    for v, nbrs in pdf.groupby("a")["b"]:
        assert fg.neighbours(v).tolist() == sorted(nbrs)
    assert len(fg.neighbours(64)) == 0


def test_final_graph_cancels_deletions():
    pdf = pd.DataFrame(
        {
            "pos": range(4),
            "a": [1, 1, 2, 1],
            "b": [5, 6, 7, 5],
            "op": [1, 1, 1, -1],
        }
    )
    fg = ss.FinalGraph(pdf)
    assert list(zip(fg.a.tolist(), fg.b.tolist())) == [(1, 6), (2, 7)]
    assert fg.neighbours(1).tolist() == [6]


@pytest.mark.parametrize("batch_size", [13, 500])
def test_run_stream_matches_run_stream_pandas(small_stream, batch_size):
    df, pdf, _ = small_stream
    p1 = run_stream(ExactND(64, 16), df, batch_size=batch_size)
    p2 = run_stream_pandas(ExactND(64, 16), pdf, batch_size=batch_size)
    assert p1.stored == p2.stored


@pytest.fixture(scope="module")
def shuffled_stream(spark, small_stream):
    """The same stream with its rows out of ``pos`` order within and
    across five partitions, so only the driver's sort can order it."""
    _, pdf, _ = small_stream
    df = spark.createDataFrame(pdf.sample(frac=1, random_state=0)).repartition(5)
    assert df.rdd.getNumPartitions() == 5
    assert not df.toPandas()["pos"].is_monotonic_increasing
    return df, pdf


def test_iter_batches_orders_shuffled_stream(shuffled_stream):
    df, pdf = shuffled_stream
    seen = pd.concat(list(ss.iter_batches(df, 37)), ignore_index=True)
    pd.testing.assert_frame_equal(
        seen, pdf.sort_values("pos").reset_index(drop=True), check_dtype=False
    )


def test_run_stream_of_shuffled_stream_matches_run_stream_pandas(shuffled_stream):
    """Algorithm 2's reservoir and witnesses depend on the order, so an
    unordered collect fed as it came would give another processor."""
    df, pdf = shuffled_stream
    got = run_stream(InsertionOnlyND(64, 16, 2, seed=3, s=4), df, batch_size=29)
    want = run_stream_pandas(InsertionOnlyND(64, 16, 2, seed=3, s=4), pdf, batch_size=29)
    assert_same_processor(got, want)


def test_run_stream_rejects_repeated_pos_across_partitions(spark):
    """The two rows with pos 1 sit in different partitions, so they only
    meet after the driver's sort."""
    rows = spark.sparkContext.parallelize(REPEATED_POS.iloc[[1, 0, 2]].values.tolist(), 2)
    df = spark.createDataFrame(rows, list(REPEATED_POS.columns))
    assert [[r.pos for r in part] for part in df.rdd.glom().collect()] == [[1], [0, 1]]
    p = ExactND(8, 4)
    with pytest.raises(ValueError):
        run_stream(p, df, batch_size=1)
    assert not p.stored


def test_checkpoint_restore_roundtrip(small_stream):
    _, pdf, _ = small_stream
    half = len(pdf) // 2
    p = run_stream_pandas(ExactND(64, 16), pdf.iloc[:half])
    blob = checkpoint(p)
    assert len(checkpoint(p)) == len(blob)
    q = restore(blob)
    run_stream_pandas(q, pdf.iloc[half:])
    full = run_stream_pandas(ExactND(64, 16), pdf)
    assert q.stored == full.stored


def test_state_size_grows_with_stored_edges():
    small = ExactND(16, 4)
    big = ExactND(16, 4)
    run_stream_pandas(
        big,
        pd.DataFrame(
            {"pos": range(64), "a": np.arange(64) % 16, "b": range(64), "op": 1}
        ),
    )
    assert len(checkpoint(big)) > len(checkpoint(small))
