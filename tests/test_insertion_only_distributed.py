"""Distributed (Spark applyInPandas + bottom-k merge) Algorithm 2."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core.deg_res_sampling import _priority
from repro.core.insertion_only import InsertionOnlyND, _partition_pass, run_distributed
from repro.space import reservoir_size
from repro.streamsim.runner import run_stream_pandas
from repro.streamsim.stream import stream_from_pandas
from tests.test_deg_res_sampling import PerEdgeAlg1


@pytest.fixture(scope="module")
def instance(spark):
    n, d = 256, 32
    pdf, info = synth_data.planted_star_pandas(
        n=n, m=1024, d=d, avg_deg=3.0, order="random", seed=51
    )
    return stream_from_pandas(spark, pdf).cache(), info, n, d


def test_priority_deterministic_and_uniformish():
    v = np.arange(10_000)
    p1 = _priority(3, v)
    p2 = _priority(3, v)
    assert (p1 == p2).all()
    assert 0.45 < p1.mean() < 0.55
    assert (p1 >= 0).all() and (p1 < 1).all()
    # different seeds decorrelate (run i of seed t has seed 1000 t + i)
    assert not np.allclose(p1, _priority(1003, v))
    assert not np.allclose(p1, _priority(4, v))


@pytest.mark.parametrize("c", [2, 4])
def test_distributed_finds_valid_neighborhood(instance, c):
    df, info, n, d = instance
    out = run_distributed(df, n, d, c, seed=3, num_partitions=8)
    res = out["result"]
    assert res is not None
    v, bs = res
    assert len(bs) >= max(1, d // c)
    pdf = df.toPandas()
    assert bs <= set(pdf.loc[pdf["a"] == v, "b"])


def test_distributed_candidate_counts_exact(instance):
    """x per run must equal the true number of threshold-reaching vertices
    (degrees are exact because partitioning is by vertex)."""
    df, info, n, d = instance
    out = run_distributed(df, n, d, 2, seed=5, num_partitions=8)
    deg = df.toPandas().groupby("a").size()
    assert out["per_run"][0]["x"] == (deg >= 1).sum()
    assert out["per_run"][1]["x"] == (deg >= d // 2).sum()


def test_distributed_reservoir_capped(instance):
    df, info, n, d = instance
    out = run_distributed(df, n, d, 2, seed=7, num_partitions=8)
    s = reservoir_size(n, 2)
    for run in out["per_run"].values():
        assert len(run["members"]) <= s


def test_distributed_partition_count_invariance(instance):
    """The bottom-k merge makes the sample independent of partitioning."""
    df, info, n, d = instance
    a = run_distributed(df, n, d, 2, seed=11, num_partitions=2)
    b = run_distributed(df, n, d, 2, seed=11, num_partitions=16)
    for i in (0, 1):
        assert set(a["per_run"][i]["members"]) == set(b["per_run"][i]["members"])
        assert a["per_run"][i]["x"] == b["per_run"][i]["x"]


def test_distributed_collections_match_thresholds(instance):
    """Each member's collected edges start at its threshold edge."""
    df, info, n, d = instance
    out = run_distributed(df, n, d, 2, seed=13, num_partitions=8)
    pdf = df.toPandas().sort_values("pos")
    d1 = max(1, d // 2)
    for v, bs in out["per_run"][1]["members"].items():
        edges_v = pdf[pdf["a"] == v]["b"].tolist()
        # collected is a subset of the vertex's edges from index d1-1 on
        assert set(bs) <= set(edges_v[d1 - 1 :])
        assert len(bs) <= d1


@pytest.mark.parametrize("num_partitions", [1, 2, 8])
def test_distributed_equals_sequential(instance, num_partitions):
    """Both modes run the same bottom-k reservoir, so for one seed and s
    each run's x, members and witnesses are the sequential processor's."""
    df, info, n, d = instance
    seq = run_stream_pandas(InsertionOnlyND(n, d, 4, seed=17, s=8), df.toPandas(), 128)
    out = run_distributed(df, n, d, 4, seed=17, num_partitions=num_partitions, s=8)
    for i, run in enumerate(seq.runs):
        got = out["per_run"][i]
        assert got["x"] == run.x
        assert got["members"] == {v: set(ws) for v, ws in run.collected.items()}


def partition_pass_loop(pdf, n, d, c, s, seed):
    """One partition, edge by edge: each run of Algorithm 2 as the
    per-edge bottom-k reference, emitting every member's witnesses."""
    rows = set()
    for run_i, run in enumerate(InsertionOnlyND(n, d, c, seed=seed, s=s).runs):
        ref = PerEdgeAlg1(n, run.d1, run.d2, s, run.seed)
        for a, b in zip(pdf["a"].tolist(), pdf["b"].tolist()):
            ref.edge(a, b)
        rows |= {(run_i, v, ref.key(v)[0], b) for v, bs in ref.coll.items() for b in bs}
        rows.add((run_i, -1, 0.0, ref.x))
    return rows


@pytest.mark.parametrize("seed", range(20))
def test_partition_pass_matches_edge_loop(seed):
    g = np.random.default_rng(seed)
    m = int(g.integers(0, 300))
    s = int(g.integers(1, 8))
    pdf = pd.DataFrame({"pos": g.permutation(m), "a": g.integers(0, 40, m),
                        "b": np.arange(m), "op": 1})
    # d = 12, c = 3: thresholds 1, 4, 8 and d/c = 4 witnesses per member
    out = _partition_pass(pdf, 40, 12, 3, s=s, seed=seed)
    got = set(zip(out["run"], out["v"], out["prio"], out["b"]))
    assert len(got) == len(out)
    assert got == partition_pass_loop(pdf.sort_values("pos"), 40, 12, 3, s, seed)
