"""Distributed Algorithm 2: a hash repartition on the A-vertex, mapInPandas
per partition, and a driver-side processor merge."""
import pickle

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


def test_distributed_returns_perfbench_keys(instance):
    """The benchmark reads ``result`` and ``space_words``: the merged
    processor's draw among its full neighbourhoods, and its space."""
    df, info, n, d = instance
    out = run_distributed(df, n, d, 2, seed=3, num_partitions=8)
    proc = out["proc"]
    assert out["space_words"] == proc.space_words()
    v, bs = out["result"]
    assert any(v in run.collected and bs == set(run.collected[v])
               and len(bs) >= run.d2 for run in proc.runs)


def test_distributed_candidate_counts_exact(instance):
    """x per run must equal the true number of threshold-reaching vertices
    (degrees are exact because partitioning is by vertex)."""
    df, info, n, d = instance
    runs = run_distributed(df, n, d, 2, seed=5, num_partitions=8)["proc"].runs
    deg = df.toPandas().groupby("a").size()
    assert runs[0].x == (deg >= 1).sum()
    assert runs[1].x == (deg >= d // 2).sum()


def test_distributed_reservoir_capped(instance):
    df, info, n, d = instance
    out = run_distributed(df, n, d, 2, seed=7, num_partitions=8)
    s = reservoir_size(n, 2)
    for run in out["proc"].runs:
        assert len(run.reservoir) == len(run.collected) <= s


def test_distributed_partition_count_invariance(instance):
    """The merge makes the sample and its witnesses independent of
    partitioning."""
    df, info, n, d = instance
    a = run_distributed(df, n, d, 2, seed=11, num_partitions=2)["proc"]
    b = run_distributed(df, n, d, 2, seed=11, num_partitions=16)["proc"]
    for ra, rb in zip(a.runs, b.runs):
        assert ra.collected == rb.collected
        assert ra.x == rb.x
    assert a.space_words() == b.space_words()


def test_distributed_collections_match_thresholds(instance):
    """Each member's collected edges are its next d/c edges in stream
    order, starting at its threshold edge."""
    df, info, n, d = instance
    run = run_distributed(df, n, d, 2, seed=13, num_partitions=8)["proc"].runs[1]
    pdf = df.toPandas().sort_values("pos")
    d1 = max(1, d // 2)
    assert run.d1 == d1 and len(run.collected) > 0
    for v, bs in run.collected.items():
        edges_v = pdf[pdf["a"] == v]["b"].tolist()
        assert bs == edges_v[d1 - 1 : d1 - 1 + run.d2]


@pytest.mark.parametrize("num_partitions", [1, 2, 8])
def test_distributed_equals_sequential(instance, num_partitions):
    """Both modes run the same bottom-k reservoir, so for one seed and s
    the merged processor is the sequential one: each run's x, members and
    witnesses, the degrees, the space and success."""
    df, info, n, d = instance
    seq = run_stream_pandas(InsertionOnlyND(n, d, 4, seed=17, s=8), df.toPandas(), 128)
    got = run_distributed(df, n, d, 4, seed=17, num_partitions=num_partitions, s=8)["proc"]
    for run, mine in zip(seq.runs, got.runs):
        assert mine.x == run.x
        assert mine.collected == run.collected
    assert (got.deg == seq.deg).all()
    assert got.space_words() == seq.space_words()
    assert got.succeeded() == seq.succeeded()


def assert_same_processor(got, want):
    """Algorithm 2 processors agree in each run's x and witnesses, the
    degrees, the space and success."""
    for mine, run in zip(got.runs, want.runs):
        assert mine.x == run.x
        assert mine.collected == run.collected
    assert (got.deg == want.deg).all()
    assert got.space_words() == want.space_words()
    assert got.succeeded() == want.succeeded()


def test_distributed_with_empty_partitions_equals_sequential(spark):
    """16 partitions over 3 vertices: at least 13 partitions are empty
    and add nothing to the merge."""
    g = np.random.default_rng(5)
    a = np.repeat([1, 4, 6], [9, 5, 2])
    pdf = pd.DataFrame({"pos": g.permutation(len(a)), "a": a,
                        "b": np.arange(len(a)), "op": 1})
    df = stream_from_pandas(spark, pdf)
    seq = run_stream_pandas(InsertionOnlyND(8, 8, 2, seed=9, s=2), pdf, 4)
    got = run_distributed(df, 8, 8, 2, seed=9, num_partitions=16, s=2)["proc"]
    assert got.succeeded()
    assert_same_processor(got, seq)


def test_distributed_over_reverse_pos_frame_equals_sequential(spark, instance):
    """Rows arriving in reverse stream order: each partition orders its
    own edges by pos."""
    df, info, n, d = instance
    pdf = df.toPandas()
    rev = spark.createDataFrame(pdf.sort_values("pos", ascending=False))
    seq = run_stream_pandas(InsertionOnlyND(n, d, 4, seed=19, s=8), pdf, 128)
    got = run_distributed(rev, n, d, 4, seed=19, num_partitions=4, s=8)["proc"]
    assert_same_processor(got, seq)


@pytest.mark.parametrize("seed", range(20))
def test_partition_pass_matches_edge_loop(seed):
    """One partition's shipped processor against Algorithm 1's per-edge
    loop, run by run: members, their priorities, witnesses and x."""
    g = np.random.default_rng(seed)
    m = int(g.integers(0, 300))
    s = int(g.integers(1, 8))
    pdf = pd.DataFrame({"pos": g.permutation(m), "a": g.integers(0, 40, m),
                        "b": np.arange(m), "op": 1})
    # d = 12, c = 3: thresholds 1, 4, 8 and d/c = 4 witnesses per member
    out = _partition_pass(pdf, 40, 12, 3, s=s, seed=seed)
    assert len(out) == 1
    proc = pickle.loads(out["blob"][0])
    assert [r.d1 for r in proc.runs] == [1, 4, 8]
    edges = pdf.sort_values("pos")
    for run in proc.runs:
        ref = PerEdgeAlg1(40, run.d1, run.d2, s, run.seed)
        for a, b in zip(edges["a"].tolist(), edges["b"].tolist()):
            ref.edge(a, b)
        assert dict(zip(run.reservoir, run._prio.tolist())) == {v: ref.key(v)[0] for v in ref.res}
        assert run.collected == ref.coll
        assert list(run.collected) == list(ref.coll)
        assert run.x == ref.x
