"""Distributed (Spark applyInPandas + bottom-k merge) Algorithm 2."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.core.insertion_only import _partition_pass, _priority, run_distributed
from repro.space import reservoir_size


@pytest.fixture(scope="module")
def instance(spark):
    n, d = 256, 32
    df, info = synth_data.planted_star_stream(
        spark, n=n, m=1024, d=d, avg_deg=3.0, order="random", seed=51
    )
    return df.cache(), info, n, d


def test_priority_deterministic_and_uniformish():
    v = np.arange(10_000)
    p1 = _priority(3, 1, v)
    p2 = _priority(3, 1, v)
    assert (p1 == p2).all()
    assert 0.45 < p1.mean() < 0.55
    assert (p1 >= 0).all() and (p1 < 1).all()
    # different run/seed decorrelates
    assert not np.allclose(p1, _priority(3, 2, v))
    assert not np.allclose(p1, _priority(4, 1, v))


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


def partition_pass_loop(pdf, thresholds, d_c, s, seed):
    """One partition, edge by edge: per run a bottom-k sample that
    replaces its largest priority when a smaller one arrives, each member
    collecting up to d_c edges from its candidate edge on."""
    rows = set()
    for run_i, d1 in enumerate(thresholds):
        deg, members, x = {}, {}, 0  # members: v -> (prio, witnesses)
        for a, b in zip(pdf["a"], pdf["b"]):
            deg[a] = deg.get(a, 0) + 1
            if deg[a] == d1:
                x += 1
                p = float(_priority(seed, run_i, np.array([a]))[0])
                if len(members) < s:
                    members[a] = (p, [])
                else:
                    worst = max(members, key=lambda v: members[v][0])
                    if p < members[worst][0]:
                        del members[worst]
                        members[a] = (p, [])
            if a in members and len(members[a][1]) < d_c:
                members[a][1].append(b)
        rows |= {(run_i, v, p, b) for v, (p, bs) in members.items() for b in bs}
        rows.add((run_i, -1, 0.0, x))
    return rows


@pytest.mark.parametrize("seed", range(20))
def test_partition_pass_matches_edge_loop(seed):
    g = np.random.default_rng(seed)
    m = int(g.integers(0, 300))
    s = int(g.integers(1, 8))
    pdf = pd.DataFrame({"pos": g.permutation(m), "a": g.integers(0, 40, m),
                        "b": np.arange(m), "op": 1})
    out = _partition_pass(pdf, [1, 3, 5], d_c=4, s=s, seed=seed)
    got = set(zip(out["run"], out["v"], out["prio"], out["b"]))
    assert len(got) == len(out)
    assert got == partition_pass_loop(pdf.sort_values("pos"), [1, 3, 5], 4, s, seed)
