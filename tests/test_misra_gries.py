"""Misra-Gries baselines: classic guarantees + witness-buffer semantics."""
import numpy as np
import pandas as pd
import pytest

from repro.core.misra_gries import MisraGries
from repro.streamsim.runner import run_stream_pandas


def items_stream(items, witnesses=None):
    n = len(items)
    return pd.DataFrame(
        {
            "pos": np.arange(n, dtype=np.int64),
            "a": np.asarray(items, dtype=np.int64),
            "b": np.asarray(
                witnesses if witnesses is not None else np.arange(n), dtype=np.int64
            ),
            "op": np.int32(1),
        }
    )


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        MisraGries(0)


def test_counts_exact_when_under_capacity():
    mg = MisraGries(10)
    mg.process_batch(items_stream([1, 1, 2, 3, 3, 3]))
    assert mg.estimate(3) == 3 and mg.estimate(1) == 2 and mg.estimate(2) == 1


def test_counter_capacity_respected():
    mg = MisraGries(4)
    mg.process_batch(items_stream(np.arange(100)))
    assert len(mg.deg) <= 4


@pytest.mark.parametrize("k", [2, 8, 32])
def test_undercount_bounded(k):
    """MG guarantee: f(i) - N/(k+1) <= est(i) <= f(i)."""
    g = np.random.default_rng(k)
    items = g.choice(20, size=2000, p=np.r_[[0.3, 0.2], np.full(18, 0.5 / 18)])
    mg = run_stream_pandas(MisraGries(k), items_stream(items), batch_size=97)  # uneven batches
    truth = pd.Series(items).value_counts()
    for item in range(20):
        f = int(truth.get(item, 0))
        est = mg.estimate(item)
        assert est <= f
        assert est >= f - 2000 // (k + 1)
    assert mg.error_bound() <= 2000 // (k + 1)


def test_heavy_hitter_always_tracked():
    g = np.random.default_rng(3)
    items = np.concatenate([np.full(600, 7), g.integers(100, 200, 1400)])
    g.shuffle(items)
    mg = MisraGries(8)
    mg.process_batch(items_stream(items))
    assert 7 in mg.heavy_hitters(600)


def test_batch_invariance_of_guarantee():
    """Any batching yields valid (possibly different) MG summaries."""
    g = np.random.default_rng(5)
    items = g.choice(10, size=500)
    truth = pd.Series(items).value_counts()
    for bs in (1, 7, 500):
        mg = run_stream_pandas(MisraGries(4), items_stream(items), batch_size=bs)
        for i, f in truth.items():
            assert mg.estimate(int(i)) <= f
            assert mg.estimate(int(i)) >= f - 500 // 5


def test_witness_buffer_bounded_and_valid():
    stream = items_stream([1] * 20 + [2] * 5, witnesses=list(range(25)))
    mg = run_stream_pandas(MisraGries(k=4, w=8), stream)
    assert mg.stored[1] == list(range(8))
    assert len(mg.stored[2]) == 5
    assert mg.estimate(1) == 20


def test_witness_loss_on_eviction():
    """The motivating failure: an early-heavy item evicted mid-stream
    loses its witnesses even if it re-enters later."""
    first = [1] * 5
    flood = list(range(100, 140)) * 3  # 40 distinct items push 1 out (k small)
    again = [1] * 5
    stream = items_stream(first + flood + again)
    mg = run_stream_pandas(MisraGries(k=4, w=100), stream, batch_size=5)
    # item 1 is frequent across the whole stream, but its early witnesses
    # (positions 0..4) are gone
    w = mg.neighborhood(1)
    assert not set(range(5)) <= w


def test_witnesses_dropped_with_counter():
    stream = items_stream(list(range(50)))
    mg = run_stream_pandas(MisraGries(k=4, w=4), stream, batch_size=10)
    assert set(mg.stored) <= set(mg.deg)


def test_witness_space_accounting():
    stream = items_stream([1] * 10, witnesses=list(range(10)))
    mg = run_stream_pandas(MisraGries(k=4, w=3), stream)
    assert mg.space_words() == 2 * len(mg.deg) + 2 + 3


@pytest.mark.parametrize(
    "proc", [MisraGries(k=4), MisraGries(k=4, w=4)], ids=["plain", "witness"]
)
def test_deletion_rejected(proc):
    """A deletion is not one more occurrence: insertion-only summaries
    reject it instead of counting it."""
    stream = items_stream([1, 1], witnesses=[5, 5]).assign(op=np.int32([1, -1]))
    with pytest.raises(ValueError, match="op must be"):
        run_stream_pandas(proc, stream)
