"""Structured Streaming stateful witness-counter operator (repro hint)."""
import json
import os

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.streamsim import structured as st

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


def _plain(v):
    """Only Python ints, in Python lists at any depth."""
    return all(map(_plain, v)) if type(v) is list else type(v) is int


@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_update_fn_matches_pandas_oracle(data):
    """Random events in random micro-batches, buckets and Arrow-style
    chunks: the state ends at pandas' counts and first-w witnesses by
    ts, each trigger emits exactly the items it saw, and the state holds
    only Python ints and lists."""
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
            assert len(state.get) == 3 and _plain(list(state.get))
        out = pd.concat(emitted, ignore_index=True)
        assert sorted(out["item"].tolist()) == sorted(set(trigger["item"].tolist()))
    got = {}
    for state in states.values():
        items_, counts, wits = state.get
        got.update({i: (c, wt) for i, c, wt in zip(items_, counts, wits)})
    by_ts = events.sort_values("ts", kind="stable").groupby("item")
    expect = {
        int(i): (len(g), g["witness"].head(w).tolist()) for i, g in by_ts
    }
    assert got == expect
