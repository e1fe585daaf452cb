"""Exact O(nd) baseline: max-degree output, first-d storage, checks, space."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core.exact_baseline import ExactND
from repro.streamsim.runner import run_stream_pandas


@pytest.fixture(scope="module")
def inst():
    return synth_data.planted_star_pandas(n=64, m=256, d=16, avg_deg=3.0, seed=73)


def test_exact_finds_max_degree_vertex(inst):
    pdf, info = inst
    p = run_stream_pandas(ExactND(64, 16), pdf)
    v, bs = p.result()
    assert v in info["heavy"]
    assert bs == info["heavy"][v]


def test_exact_stores_first_min_deg_d_edges(inst):
    pdf, _ = inst
    d = 5
    p = run_stream_pandas(ExactND(64, d), pdf)
    ordered = pdf.sort_values("pos")
    for v, lst in p.stored.items():
        expect = ordered[ordered["a"] == v]["b"].head(d).tolist()
        assert lst == expect


def test_exact_rejects_deletions():
    p = ExactND(4, 2)
    with pytest.raises(ValueError):
        p.process_batch(pd.DataFrame({"pos": [0], "a": [0], "b": [0], "op": [-1]}))


@pytest.mark.parametrize("a", [-1, 4, 100])
def test_exact_rejects_out_of_range_vertex(a):
    """a = -1 used to be stored under vertex n - 1 and reported by result()."""
    p = ExactND(4, 2)
    with pytest.raises(ValueError):
        p.process_batch(pd.DataFrame({"pos": [0, 1], "a": [0, a], "b": [0, 1], "op": 1}))
    assert not p.deg and not p.stored


def test_exact_space_words(inst):
    pdf, _ = inst
    d = 4
    p = run_stream_pandas(ExactND(64, d), pdf)
    deg = pdf.groupby("a").size()
    assert p.space_words() == 64 + int(np.minimum(deg, d).sum())

