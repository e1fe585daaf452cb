"""Benchmarks for Tables 1–7: each case times one table harness at its
EXPERIMENTS.md parameters and checks the paper's claim on its rows."""
import pytest

from repro import tables


def table1_ok(out):
    assert out["success"].all()
    assert (out["measured_words"] < out["exact_baseline_words"]).all()


def table2_ok(out):
    assert (out["success_rate"] >= 0.9).all()
    assert (out["valid_output"] == out["trials"]).all()


def table3_ok(out):
    one = out[out["scenario"] == "one_heavy"]
    assert one["success"].all()


def table4_ok(out):
    # a stalled peel (probability O(1/k)) may cost a few coordinates
    assert (out["yield_median"] == out["yield_target"]).all()
    assert (out["yield_min"] >= 0.9 * out["yield_target"]).all()
    assert (out["deleted_recovered"] == 0).all() and (out["outside_support"] == 0).all()
    assert (out["tv_from_uniform"] <= out["tv_exact_sampler"] + 0.05).all()


def table5_ok(out):
    assert out["solved"].all()


def table6_ok(out):
    assert out["valid_output"].all()
    assert (out["approx_ratio"] <= out["paper_guarantee"]).all()


def table7_ok(out):
    nd = out[out["method"].str.startswith("neighborhood")]
    assert (nd["witnesses"] >= nd["witness_guarantee"]).all()


CASES = [
    # Table 1: insertion-only Algorithm 2 across c (Thm 3.2)
    (tables.table1, dict(n=4096, d=256, cs=(2, 3, 4, 6, 8), seed=0), table1_ok),
    # Table 2: success probability sweep (Lemma 3.1/Thm 3.2)
    (tables.table2, dict(n=1024, d=128, c=4, trials=20, seed=0), table2_ok),
    # Table 3: insertion-deletion Algorithm 3 across c (Thm 5.4)
    (tables.table3, dict(n=256, m=512, d=32, cs=(2, 4, 8, 16, 32), seed=0), table3_ok),
    # Table 4: k-sample l0 sketch quality
    (tables.table4, dict(dims=(1 << 10, 1 << 14, 1 << 17), ks=(8, 64, 512), seed=0), table4_ok),
    # Table 5: constructive lower-bound reductions
    (tables.table5, dict(seed=0), table5_ok),
    # Table 6: Star Detection (Cors 3.3/5.5)
    (tables.table6, dict(ns=(512, 2048), seed=0), table6_ok),
    # Table 7: witness applications at ~SF 0.1 event scale
    (tables.table7, dict(n_events=100_000, attack_frac=0.05, cs=(2, 4), seed=0), table7_ok),
]


@pytest.mark.parametrize(
    "table, kwargs, check",
    [
        pytest.param(*case, id=case[0].__name__,
                     marks=pytest.mark.benchmark(group=case[0].__name__))
        for case in CASES
    ],
)
def test_bench_table(spark, benchmark, table, kwargs, check):
    out = benchmark.pedantic(table, args=(spark,), kwargs=kwargs, rounds=1, iterations=1)
    check(out)
