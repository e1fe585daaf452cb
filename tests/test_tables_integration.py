"""Integration: every table harness runs at reduced scale and its rows
exhibit the paper's qualitative shape (who wins, how things scale)."""
import pandas as pd
import pytest

from repro import tables
from repro.streamsim.stream import FinalGraph


@pytest.fixture(scope="module")
def t1(spark):
    return tables.table1(spark, n=512, d=64, cs=(2, 3, 4), avg_deg=4.0, seed=1)


def test_table1_success_and_validity(t1):
    assert t1["success"].all()
    assert (t1["out_size"] >= t1["required_d_over_c"]).all()
    assert t1["valid_output"].all()


def test_valid_output_checks_non_planted_vertex():
    """Vertex 0 is the planted one. Vertex 1 reported with a witness that
    is not its neighbour, or with fewer than d/c witnesses, is invalid;
    so is one whose witness edge was inserted and then deleted."""
    pdf = pd.DataFrame({"pos": range(5), "a": [0, 0, 0, 1, 1], "b": [1, 2, 3, 4, 5], "op": 1})
    graph = FinalGraph(pdf)
    assert graph.valid((1, {4, 5}), 2)
    assert not graph.valid((1, {4, 9}), 2)
    assert not graph.valid((1, {4}), 2)
    assert not graph.valid((1, [4, 4]), 2)
    assert graph.valid(None, 2)
    churned = pd.concat([pdf, pd.DataFrame({"pos": [5], "a": [1], "b": [5], "op": -1})])
    graph = FinalGraph(churned)
    assert graph.valid((1, {4}), 1)
    assert not graph.valid((1, {4, 5}), 2)
    assert not graph.valid((1, {5}), 1)


def test_table1_space_shape(t1):
    # measured within the paper bound; bound decreasing in c; exact worst
    assert (t1["measured_words"] <= t1["paper_bound_words"]).all()
    assert t1["paper_bound_words"].is_monotonic_decreasing
    assert (t1["measured_words"] < t1["exact_baseline_words"]).all()
    assert (t1["saving_vs_exact"] > 1).all()


def test_table2_success_rates(spark):
    t2 = tables.table2(
        spark, n=256, d=32, c=3, trials=5,
        orderings=("random", "heavy_last"), profiles=("uniform",),
    )
    assert len(t2) == 2
    assert (t2["success_rate"] >= 0.8).all()
    assert (t2["mean_out_size"] >= t2["required"]).all()
    assert (t2["valid_output"] == t2["trials"]).all()


def test_table3_shape(spark):
    t3 = tables.table3(
        spark, n=128, m=256, d=16, cs=(2, 4, 8), scenarios=("one_heavy",),
        seed=2,
    )
    assert t3["success"].all()
    assert (t3["out_size"] >= t3["required_d_over_c"]).all()
    assert t3["valid_output"].all()
    # turnstile space far above the insertion-only bound at same (n,d,c)
    assert (t3["measured_words"] > t3["ins_only_bound_words"]).all()
    # and decreasing in c
    m = t3["measured_words"].tolist()
    assert m[0] > m[1] > m[2]


def test_table3_many_heavy_vertex_strategy(spark):
    t3 = tables.table3(
        spark, n=128, m=256, d=16, cs=(4,), scenarios=("many_heavy",), seed=3
    )
    assert bool(t3.loc[0, "vertex_strategy_ok"])


def test_table4_sampler_quality(spark):
    """Every sketch yields min(k, support) distinct live coordinates, never
    a deleted or outside one, with inclusion frequencies as close to
    uniform as an exact uniform sampler's, and in less space than k
    independent samplers at k = 64 (below that the two extra cells per
    hash and level cost more than the levels saved)."""
    t4 = tables.table4(spark, dims=(1 << 10, 1 << 14), support=32,
                       ks=(4, 16, 64), trials=40, seed=4)
    assert len(t4) == 6
    assert (t4["yield_min"] == t4["yield_target"]).all()
    assert (t4["yield_target"] == t4["k"].clip(upper=32)).all()
    assert (t4["deleted_recovered"] == 0).all() and (t4["outside_support"] == 0).all()
    assert (t4["tv_from_uniform"] <= t4["tv_exact_sampler"] + 0.05).all()
    big = t4[t4["k"] == 64]
    assert (big["words"] < big["k_samplers_words"]).all()


def test_table5_reductions_solve(spark):
    t5 = tables.table5(
        spark,
        bvl_params=((3, 256, 16, 2),),
        disj_params=((3, 128, 4),),
        amri_params=((12, 16, 2),),
        seed=5,
    )
    assert t5["solved"].all()
    assert (t5["measured_msg_bytes"] > 0).all()


def test_table6_star_detection(spark):
    t6 = tables.table6(spark, ns=(256,), seed=6)
    assert list(t6["model"]) == ["insertion_only", "turnstile"]
    assert (t6["found_star"] > 0).all()
    assert t6["valid_output"].all()
    assert (t6["approx_ratio"] <= t6["paper_guarantee"]).all()


def test_table7_witness_guarantees(spark):
    t7 = tables.table7(spark, n_events=20_000, attack_frac=0.1, cs=(2,), seed=7)
    nd = t7[t7["method"].str.startswith("neighborhood")]
    assert nd["target_found"].all()
    assert (nd["witnesses"] >= nd["witness_guarantee"]).all()
    assert nd["witnesses_valid"].all()
    exact = t7[t7["method"].str.startswith("exact")]
    # exact costs the most space among DoS methods
    dos = t7[t7["app"] == "dos"]
    assert exact["space_words"].iloc[0] == dos["space_words"].max()


def test_table7_early_burst_separates_mg_from_nd(spark):
    """The paper's motivation made measurable: under the early-burst
    adversary Misra-Gries loses the target's witnesses, Algorithm 2
    still delivers its d/c guarantee."""
    t7 = tables.table7(spark, n_events=20_000, attack_frac=0.1, cs=(2,), seed=7)
    burst = t7[t7["app"] == "dos-early-burst"]
    nd = burst[burst["method"].str.startswith("neighborhood")].iloc[0]
    mg = burst[burst["method"].str.startswith("misra")].iloc[0]
    assert nd["target_found"] and nd["witnesses"] >= nd["witness_guarantee"]
    assert mg["witnesses"] < nd["witnesses"]
