"""Structured Streaming witness query: one driver-side processor fed by
foreachBatch, exactly once (repro hint)."""
import os
import shutil
import threading
import time

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro import synth_data
from repro.core.exact_baseline import ExactND
from repro.core.insertion_only import InsertionOnlyND
from repro.core.misra_gries import MisraGries
from repro.streamsim import structured as st
from repro.streamsim.runner import checkpoint, restore, run_stream_pandas
from repro.streamsim.stream import FinalGraph

_QUERY_N = [0]


def _name():
    _QUERY_N[0] += 1
    return f"wtest_{_QUERY_N[0]}"


@pytest.fixture()
def events():
    g = np.random.default_rng(7)
    n = 1200
    return pd.DataFrame(
        {
            "ts": np.arange(n, dtype=np.int64),
            "item": g.choice([1, 2, 3, 4, 5], size=n, p=[0.5, 0.2, 0.1, 0.1, 0.1]),
            "witness": np.arange(n, dtype=np.int64),
        }
    )


def _run(spark, events, tmp_path, w, n_files):
    ind = os.path.join(str(tmp_path), "in")
    cp = os.path.join(str(tmp_path), "cp")
    st.write_event_files(events, ind, n_files=n_files)
    updates = st.run_witness_query(spark, ind, cp, _name(), w=w)
    return st.final_state(updates), updates


def test_counts_match_batch_oracle(spark, events, tmp_path):
    fs, _ = _run(spark, events, tmp_path, w=8, n_files=6)
    truth = events.groupby("item").size()
    got = fs.set_index("item")["count"]
    for item, cnt in truth.items():
        assert int(got.loc[item]) == int(cnt)


def test_witnesses_are_earliest_and_bounded(spark, events, tmp_path):
    w = 8
    fs, _ = _run(spark, events, tmp_path, w=w, n_files=6)
    for row in fs.itertuples():
        expected = (
            events[events["item"] == row.item]
            .sort_values("ts")["witness"]
            .head(w)
            .tolist()
        )
        assert list(row.witnesses) == expected


def test_state_persists_across_microbatches(spark, events, tmp_path):
    """With one file per micro-batch, per-item updates accumulate."""
    _, updates = _run(spark, events, tmp_path, w=4, n_files=5)
    pdf = updates.toPandas()
    # the dominant item appears in every micro-batch, so its count must
    # have been emitted with several strictly increasing values
    item1 = sorted(pdf.loc[pdf["item"] == 1, "count"].tolist())
    assert len(item1) >= 3
    assert item1 == sorted(set(item1))


def test_single_batch_equivalent(spark, events, tmp_path):
    fs, _ = _run(spark, events, tmp_path, w=8, n_files=1)
    truth = events.groupby("item").size()
    got = dict(zip(fs["item"].astype(int), fs["count"].astype(int)))
    assert got == {int(k): int(v) for k, v in truth.items()}


# ---------------------------------------------------------------------- #
# Exactly once
# ---------------------------------------------------------------------- #

def _move(src, dst, names):
    """Add files to the query's input directory, keeping their dates."""
    os.makedirs(dst, exist_ok=True)
    for f in names:
        os.replace(os.path.join(src, f), os.path.join(dst, f))


def _witness_files(tmp_path, events, n_files):
    staged = os.path.join(str(tmp_path), "staged")
    st.write_event_files(events, staged, n_files=n_files)
    return staged, sorted(os.listdir(staged))


@pytest.mark.parametrize("k", [1, 3])
def test_restart_from_checkpoint_equals_uninterrupted_run(spark, events, tmp_path, k):
    """Run over the first k of 5 files, add the rest and restart from the
    same checkpoint: the processor equals an uninterrupted run's in every
    field, both runs' updates end at the same final state, and the
    session's shuffle partitions are left as they were."""
    key = "spark.sql.shuffle.partitions"
    before = spark.conf.get(key)
    staged, files = _witness_files(tmp_path, events, 5)
    whole = os.path.join(str(tmp_path), "whole")
    shutil.copytree(staged, whole, copy_function=shutil.copy2)
    want_fs = _emitted(st.final_state(
        st.run_witness_query(spark, whole, str(tmp_path / "cp_whole"), _name(), w=4)))
    want = st.load_processor(str(tmp_path / "cp_whole"))

    ind, cp = str(tmp_path / "in"), str(tmp_path / "cp")
    _move(staged, ind, files[:k])
    first = st.run_witness_query(spark, ind, cp, _name(), w=4)
    assert st.load_processor(cp)[0] == k - 1
    _move(staged, ind, files[k:])
    second = st.run_witness_query(spark, ind, cp, _name(), w=4)
    got = st.load_processor(cp)

    assert got[0] == want[0] == len(files) - 1
    assert vars(got[1]) == vars(want[1])
    assert _emitted(st.final_state(first.union(second))) == want_fs
    assert spark.conf.get(key) == before


def test_batch_replayed_after_lost_commit_is_not_counted_twice(spark, events, tmp_path):
    """A crash after the processor was saved but before Spark's commit:
    with the last commit deleted, Spark replays that batch on restart,
    and the query skips it, so no count is doubled."""
    ind, cp = str(tmp_path / "in"), str(tmp_path / "cp")
    st.write_event_files(events, ind, n_files=4)
    want = st.run_nd_query(spark, ind, cp, _name(), lambda: ExactND(None, 4))
    last = max(int(f) for f in os.listdir(os.path.join(cp, "commits")) if f.isdigit())
    assert last == 3 and st.load_processor(cp)[0] == last
    for f in (str(last), f".{last}.crc"):
        path = os.path.join(cp, "commits", f)
        if os.path.exists(path):
            os.remove(path)

    fed = []
    got = st.run_nd_query(spark, ind, cp, _name(), lambda: ExactND(None, 4),
                          lambda proc, ev: fed.append(len(ev)))
    assert os.path.exists(os.path.join(cp, "commits", str(last)))  # Spark re-ran it
    assert fed == []  # ... and the processor did not see it again
    assert vars(got) == vars(want)
    assert got.deg == events.groupby("item").size().to_dict()
    # nothing new: the witness query's update log is empty
    assert st.run_witness_query(spark, ind, cp, _name(), w=4).count() == 0


def test_failed_batch_is_not_committed_and_runs_once_on_restart(spark, events, tmp_path):
    """A step that raises fails the query with its own error before the
    batch is saved or committed; the restarted query resumes at that
    batch and ends at the true counts."""
    ind, cp = str(tmp_path / "in"), str(tmp_path / "cp")
    st.write_event_files(events, ind, n_files=4)
    fed = []

    def fails_on_third(proc, ev):
        if len(fed) == 2:
            raise RuntimeError("step failed")
        fed.append(len(ev))
        st.feed(proc, ev)

    with pytest.raises(RuntimeError, match="step failed"):
        st.run_nd_query(spark, ind, cp, _name(), lambda: ExactND(None, 4), fails_on_third)
    assert st.load_processor(cp)[0] == 1
    assert not os.path.exists(os.path.join(cp, "commits", "2"))
    got = st.run_nd_query(spark, ind, cp, _name(), lambda: ExactND(None, 4))
    assert got.deg == events.groupby("item").size().to_dict()
    assert vars(got) == vars(st.run_nd_query(
        spark, ind, str(tmp_path / "cp_whole"), _name(), lambda: ExactND(None, 4)))


def test_nd_query_runs_algorithm_2_like_run_stream(spark, tmp_path):
    """Algorithm 2 as the query's processor over an event log, one file per
    micro-batch, ends where the pandas runner ends for the same seed: each
    run's x, reservoir and witnesses, and the space; its output holds
    against the stream's final graph."""
    n, d, c = 256, 32, 4
    pdf, _ = synth_data.planted_star_pandas(n=n, m=1024, d=d, avg_deg=3.0, order="random", seed=53)
    ind = str(tmp_path / "in")
    st.write_event_files(pd.DataFrame({"ts": pdf["pos"], "item": pdf["a"], "witness": pdf["b"]}), ind, 5)
    got = st.run_nd_query(spark, ind, str(tmp_path / "cp"), _name(),
                          lambda: InsertionOnlyND(n, d, c, seed=23, s=8))
    want = run_stream_pandas(InsertionOnlyND(n, d, c, seed=23, s=8), pdf, 128)
    for mine, run in zip(got.runs, want.runs):
        assert mine.x == run.x
        assert mine.reservoir == run.reservoir
        assert mine.collected == run.collected
    assert (got.deg == want.deg).all()
    assert got.space_words() == want.space_words()
    res = got.result()
    assert res is not None and FinalGraph(pdf).valid(res, got.d_c)


def test_sequential_queries_leave_no_driver_threads(spark, events, tmp_path):
    """Each query's callbacks arrive on a py4j connection pinned to its
    stream-execution thread; the query shuts it down when it ends, also
    when its step fails, so ten queries in a row leave the driver's
    thread count where it was."""
    ind = str(tmp_path / "in")
    st.write_event_files(events.head(50), ind, n_files=1)

    def query(i, step=st.feed):
        st.run_nd_query(spark, ind, str(tmp_path / f"cp{i}"), _name(),
                        lambda: ExactND(None, 2), step)

    def fails(proc, ev):
        raise RuntimeError("step failed")

    query(0)  # starts py4j's callback server, which stays for the session
    before = threading.active_count()
    for i in range(1, 10):
        query(i)
    with pytest.raises(RuntimeError, match="step failed"):
        query(10, fails)
    deadline = time.monotonic() + 10
    while threading.active_count() > before + 2 and time.monotonic() < deadline:
        time.sleep(0.05)
    assert threading.active_count() <= before + 2


# ---------------------------------------------------------------------- #
# The per-batch step, without Spark
# ---------------------------------------------------------------------- #

def _collected(proc):
    """Each key's count and witnesses in an exact collector."""
    return {k: (c, proc.stored.get(k, [])) for k, c in proc.deg.items()}


def _emitted(rows):
    """The ``(count, witnesses)`` per item of a step's output rows."""
    return {int(i): (int(c), list(ws))
            for i, c, ws in zip(rows["item"], rows["count"], rows["witnesses"])}


def _oracle(events, w):
    """Per item, pandas' count and first ``w`` witnesses by ``ts``."""
    by_ts = events.sort_values("ts", kind="stable").groupby("item")
    return {int(i): (len(g), g["witness"].head(w).tolist()) for i, g in by_ts}


@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_witness_step_matches_pandas_oracle(data):
    """Random events in random micro-batches, rows shuffled within each:
    the processor ends at pandas' counts and first-w witnesses by ts, and
    each trigger emits exactly the items it saw, with their running count
    and witnesses. Between triggers the processor goes through its
    checkpoint, as a restarted query's does."""
    n = data.draw(hst.integers(1, 60), label="events")
    w = data.draw(hst.integers(1, 5), label="w")
    items = data.draw(hst.lists(hst.integers(-3, 9), min_size=n, max_size=n), label="items")
    ts = sorted(data.draw(hst.lists(hst.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    events = pd.DataFrame(
        {"ts": np.int64(ts), "item": np.int64(items), "witness": np.arange(n, dtype=np.int64) + 100}
    )
    cuts = sorted(data.draw(hst.sets(hst.integers(1, n), max_size=4), label="cuts") | {0, n})
    proc = ExactND(None, w)
    for lo, hi in zip(cuts, cuts[1:]):
        trigger = events.iloc[lo:hi]
        # within a trigger Spark gives no row order, so shuffle the rows
        perm = data.draw(hst.permutations(range(hi - lo)), label="order")
        out = st.witness_step(proc, trigger.iloc[perm].reset_index(drop=True))
        assert sorted(out["item"].tolist()) == sorted(set(trigger["item"].tolist()))
        prefix = _oracle(events.iloc[:hi], w)
        assert _emitted(out) == {k: prefix[k] for k in set(trigger["item"].tolist())}
        proc = restore(checkpoint(proc))
    assert _collected(proc) == _oracle(events, w)


@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_exact_collectors_match_pandas_oracle(data):
    """ExactND over unbounded keys, Misra-Gries with a counter to spare
    for every key, and the witness query's step are one collector: on a
    random insertion-only stream at a random batch size (the step: one
    micro-batch in random row order), each ends at pandas' counts and
    first-w witnesses by pos."""
    n = data.draw(hst.integers(1, 80), label="edges")
    w = data.draw(hst.integers(0, 5), label="w")
    pos = sorted(data.draw(hst.lists(hst.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    stream = pd.DataFrame({
        "pos": np.int64(pos),
        "a": np.int64(data.draw(hst.lists(hst.integers(-3, 9), min_size=n, max_size=n))),
        "b": np.int64(data.draw(hst.lists(hst.integers(0, 20), min_size=n, max_size=n))),
        "op": np.int32(1),
    })
    expect = _oracle(stream.rename(columns={"pos": "ts", "a": "item", "b": "witness"}), w)
    batch_size = data.draw(hst.integers(1, n), label="batch")
    exact = run_stream_pandas(ExactND(None, w), stream, batch_size)
    assert _collected(exact) == expect
    k = len(expect) + data.draw(hst.integers(0, 3), label="spare counters")
    mg = run_stream_pandas(MisraGries(k, w), stream, batch_size)
    assert _collected(mg) == expect and mg.error_bound() == 0
    perm = data.draw(hst.permutations(range(n)), label="order")
    events = pd.DataFrame({"ts": stream["pos"], "item": stream["a"], "witness": stream["b"]})
    step = ExactND(None, w)
    rows = st.witness_step(step, events.iloc[perm].reset_index(drop=True))
    assert _collected(step) == expect == _emitted(rows)
