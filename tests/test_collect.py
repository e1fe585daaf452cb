"""The stream-order collection kernel against pandas and a per-row loop."""
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collect import append_grouped, first_rows, running_rank

keys_st = st.lists(st.integers(-3, 12), max_size=80)


@settings(max_examples=200, deadline=None)
@given(keys=keys_st)
def test_running_rank_equals_pandas_cumcount(keys):
    a = np.asarray(keys, dtype=np.int64)
    expect = pd.Series(a).groupby(a).cumcount().to_numpy()
    assert running_rank(a).tolist() == expect.tolist()


def first_rows_loop(keys, members, need, start, stop):
    """Row by row: each member takes its key's rows in [start, stop)
    until it has ``need`` of them."""
    rows, counts = [], []
    for v, k, lo, hi in zip(members, need, start, stop):
        mine = [i for i in range(lo, min(hi, len(keys))) if keys[i] == v][: max(k, 0)]
        rows.extend(mine)
        counts.append(len(mine))
    return rows, counts


@settings(max_examples=300, deadline=None)
@given(data=st.data(), keys=keys_st)
def test_first_rows_matches_row_loop(data, keys):
    a = np.asarray(keys, dtype=np.int64)
    members = data.draw(st.lists(st.integers(-3, 14), unique=True, max_size=10))
    m = len(members)
    need = data.draw(st.lists(st.integers(-1, 6), min_size=m, max_size=m))
    start = data.draw(st.lists(st.integers(0, len(a)), min_size=m, max_size=m))
    stop = data.draw(st.lists(st.integers(0, len(a)), min_size=m, max_size=m))
    rows, counts = first_rows(
        a, np.array(members, dtype=np.int64), np.array(need, dtype=np.int64),
        np.array(start, dtype=np.int64), np.array(stop, dtype=np.int64),
    )
    assert (rows.tolist(), counts.tolist()) == first_rows_loop(keys, members, need, start, stop)


def test_first_rows_defaults_cover_the_whole_batch():
    a = np.array([5, 1, 5, 5, 1, 7])
    rows, counts = first_rows(a, np.array([5, 1, 9]), np.array([2, 5, 1]))
    assert rows.tolist() == [0, 2, 1, 4]
    assert counts.tolist() == [2, 2, 0]


def test_append_grouped_extends_in_member_order():
    store = {1: [10]}
    append_grouped(store, np.array([1, 4, 2]), np.array([2, 0, 1]), np.array([11, 12, 20]))
    assert store == {1: [10, 11, 12], 2: [20]}
