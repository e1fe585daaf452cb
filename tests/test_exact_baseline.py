"""Exact O(nd) baseline: sequential vs Catalyst vs DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core.exact_baseline import (
    ExactND,
    degrees_spark,
    exact_nd_spark,
    max_degree_spark,
)
from repro.oracle import assert_equivalent
from repro.streamsim.runner import run_stream_pandas


@pytest.fixture(scope="module")
def inst(spark):
    pdf, info = synth_data.planted_star_pandas(
        n=64, m=256, d=16, avg_deg=3.0, seed=73
    )
    return spark.createDataFrame(pdf).cache(), pdf, info


def test_exact_finds_max_degree_vertex(inst):
    _, pdf, info = inst
    p = run_stream_pandas(ExactND(64, 16), pdf)
    v, bs = p.result()
    assert v in info["heavy"]
    assert bs == info["heavy"][v]


def test_exact_stores_first_min_deg_d_edges(inst):
    _, pdf, _ = inst
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
    _, pdf, _ = inst
    d = 4
    p = run_stream_pandas(ExactND(64, d), pdf)
    deg = pdf.groupby("a").size()
    assert p.space_words() == 64 + int(np.minimum(deg, d).sum())


@pytest.mark.parametrize("d", [1, 4, 16])
def test_catalyst_matches_sequential(inst, d):
    df, pdf, _ = inst
    seq = run_stream_pandas(ExactND(64, d), pdf)
    cat = exact_nd_spark(df, d).toPandas()
    seq_set = {(v, b) for v, bs in seq.stored.items() for b in bs}
    assert set(zip(cat["a"], cat["b"])) == seq_set


def test_catalyst_oracle_checked(inst):
    """Window query vs DuckDB over the same input."""
    df, pdf, _ = inst
    d = 8
    assert_equivalent(
        exact_nd_spark(df, d),
        f"""
        select a, b from (
          select a, b, row_number() over (partition by a order by pos) as rn
          from edges
        ) where rn <= {d}
        """,
        edges=pdf,
    )


def test_degrees_oracle_checked_turnstile(spark):
    pdf, _ = synth_data.turnstile_star_pandas(
        n=32, m=64, d=8, avg_deg=2.0, churn=0.5, seed=79
    )
    df = spark.createDataFrame(pdf)
    assert_equivalent(
        degrees_spark(df),
        "select a, cast(sum(op) as bigint) as deg from edges group by a",
        edges=pdf,
    )


def test_max_degree_spark(inst):
    df, pdf, info = inst
    v, delta = max_degree_spark(df)
    assert v in info["heavy"]
    assert delta == 16
