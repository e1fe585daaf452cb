"""Structured Streaming stateful witness-counter operator (repro hint)."""
import json
import os

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core.exact_baseline import ExactND
from repro.core.misra_gries import MisraGries
from repro.streamsim import structured as st
from repro.streamsim.runner import restore, run_stream_pandas

_QUERY_N = [0]


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
    _QUERY_N[0] += 1
    name = f"wtest_{_QUERY_N[0]}"
    ind = os.path.join(str(tmp_path), "in")
    cp = os.path.join(str(tmp_path), "cp")
    st.write_event_files(events, ind, n_files=n_files)
    updates = st.run_witness_query(spark, ind, cp, name, w=w)
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


def test_state_partitions_frozen_at_default_parallelism(spark, events, tmp_path):
    """The query's state partitions follow defaultParallelism and are
    recorded in the checkpoint; the session's own setting is untouched."""
    key = "spark.sql.shuffle.partitions"
    before = spark.conf.get(key)
    _run(spark, events, tmp_path, w=4, n_files=2)
    with open(os.path.join(str(tmp_path), "cp", "offsets", "0")) as f:
        meta = json.loads(f.read().splitlines()[1])
    assert meta["conf"][key] == str(spark.sparkContext.defaultParallelism)
    assert spark.conf.get(key) == before


class FakeState:
    """The part of ``GroupState`` the update function uses."""

    def __init__(self):
        self.exists, self.get = False, None

    def update(self, value):
        self.exists, self.get = True, tuple(value)


def _collected(proc):
    """Each key's count and witnesses in an exact collector."""
    return {k: (c, proc.stored.get(k, [])) for k, c in proc.deg.items()}


def _state_collected(states):
    """The per-key collection of every bucket's state: one checkpointed
    collector each."""
    got = {}
    for state in states.values():
        assert len(state.get) == 1 and type(state.get[0]) is bytes
        got.update(_collected(restore(state.get[0])))
    return got


def _oracle(events, w):
    """Per item, pandas' count and first ``w`` witnesses by ``ts``."""
    by_ts = events.sort_values("ts", kind="stable").groupby("item")
    return {int(i): (len(g), g["witness"].head(w).tolist()) for i, g in by_ts}


@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_update_fn_matches_pandas_oracle(data):
    """Random events in random micro-batches, buckets and Arrow-style
    chunks: the state ends at pandas' counts and first-w witnesses by
    ts, each trigger emits exactly the items it saw, and each bucket's
    state is one checkpointed collector."""
    n = data.draw(hst.integers(1, 60), label="events")
    w = data.draw(hst.integers(1, 5), label="w")
    n_buckets = data.draw(hst.integers(1, 4), label="buckets")
    items = data.draw(hst.lists(hst.integers(-3, 9), min_size=n, max_size=n), label="items")
    ts = sorted(data.draw(hst.lists(hst.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    events = pd.DataFrame(
        {"ts": np.int64(ts), "item": np.int64(items), "witness": np.arange(n, dtype=np.int64) + 100}
    )
    cuts = sorted(data.draw(hst.sets(hst.integers(1, n), max_size=4), label="cuts") | {0, n})
    update_fn = st.make_update_fn(w)
    states: dict[int, FakeState] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        trigger = events.iloc[lo:hi]
        # within a trigger Spark gives no row order, so shuffle the rows
        perm = data.draw(hst.permutations(range(hi - lo)), label="order")
        trigger = trigger.iloc[perm].reset_index(drop=True)
        trigger = trigger.assign(bucket=trigger["item"] % n_buckets)
        emitted = []
        for bucket, rows in trigger.groupby("bucket"):
            cut = data.draw(hst.integers(1, len(rows)), label="chunk")
            chunks = [rows.iloc[:cut], rows.iloc[cut:]] if cut < len(rows) else [rows]
            state = states.setdefault(bucket, FakeState())
            emitted.extend(update_fn((bucket,), iter(chunks), state))
        out = pd.concat(emitted, ignore_index=True)
        assert sorted(out["item"].tolist()) == sorted(set(trigger["item"].tolist()))
    assert _state_collected(states) == _oracle(events, w)


@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_exact_collectors_match_pandas_oracle(data):
    """ExactND over unbounded keys, Misra-Gries with a counter to spare
    for every key, and the operator's update function are one collector:
    on a random insertion-only stream at a random batch size and bucket
    split, each ends at pandas' counts and first-w witnesses by pos."""
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
    n_buckets = data.draw(hst.integers(1, 4), label="buckets")
    events = pd.DataFrame({"ts": stream["pos"], "item": stream["a"], "witness": stream["b"]})
    update_fn, states = st.make_update_fn(w), {}
    for bucket, rows in events.groupby(events["item"] % n_buckets):
        states[bucket] = FakeState()
        list(update_fn((bucket,), iter([rows]), states[bucket]))
    assert _state_collected(states) == expect
