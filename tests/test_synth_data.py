"""Generator contracts: schemas, determinism, promises, orderings."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.streamsim.stream import FinalGraph

ORDERS = ["random", "heavy_last", "heavy_first", "by_vertex"]
PROFILES = ["uniform", "zipf"]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("profile", PROFILES)
def test_planted_star_promise(order, profile):
    pdf, info = synth_data.planted_star_pandas(
        n=64, m=256, d=16, avg_deg=3.0, order=order, profile=profile, seed=3
    )
    deg = pdf.groupby("a").size()
    for v, nbrs in info["heavy"].items():
        assert deg.loc[v] == len(nbrs) == 16
    others = deg.drop(index=list(info["heavy"]))
    assert (others < 16).all(), "background vertex violates the promise gap"


@pytest.mark.parametrize("order", ORDERS)
def test_planted_star_schema_and_positions(order):
    pdf, _ = synth_data.planted_star_pandas(
        n=32, m=64, d=8, avg_deg=2.0, order=order, seed=0
    )
    assert list(pdf.columns) == ["pos", "a", "b", "op"]
    assert (pdf["op"] == 1).all()
    assert sorted(pdf["pos"].tolist()) == list(range(len(pdf)))


def test_planted_star_simple_graph():
    pdf, _ = synth_data.planted_star_pandas(n=64, m=128, d=16, avg_deg=4.0, seed=1)
    assert not pdf.duplicated(["a", "b"]).any()


def test_planted_star_deterministic():
    a, _ = synth_data.planted_star_pandas(n=64, m=128, d=16, seed=7)
    b, _ = synth_data.planted_star_pandas(n=64, m=128, d=16, seed=7)
    pd.testing.assert_frame_equal(a, b)


def test_planted_star_seed_changes_instance():
    a, _ = synth_data.planted_star_pandas(n=64, m=128, d=16, seed=7)
    b, _ = synth_data.planted_star_pandas(n=64, m=128, d=16, seed=8)
    assert not a.equals(b)


def test_planted_star_heavy_last_order():
    pdf, info = synth_data.planted_star_pandas(
        n=64, m=256, d=16, avg_deg=3.0, order="heavy_last", seed=2
    )
    heavy = set(info["heavy"])
    is_heavy = pdf["a"].isin(heavy).to_numpy()
    first_heavy = np.argmax(is_heavy)
    assert is_heavy[first_heavy:].all(), "heavy edges must be a suffix"


def test_planted_star_multiple_heavy():
    pdf, info = synth_data.planted_star_pandas(
        n=64, m=256, d=16, n_heavy=4, avg_deg=2.0, seed=5
    )
    assert len(info["heavy"]) == 4
    deg = pdf.groupby("a").size()
    for v in info["heavy"]:
        assert deg.loc[v] >= 16


def test_planted_star_heavy_deg_override():
    _, info = synth_data.planted_star_pandas(
        n=64, m=256, d=16, heavy_deg=24, seed=5
    )
    assert all(len(nbrs) == 24 for nbrs in info["heavy"].values())


def test_planted_star_rejects_heavy_deg_over_m():
    with pytest.raises(ValueError):
        synth_data.planted_star_pandas(n=8, m=4, d=8, seed=0)


def test_planted_star_rejects_bad_order():
    with pytest.raises(ValueError):
        synth_data.planted_star_pandas(n=8, m=64, d=4, order="nope", seed=0)


def test_zipf_profile_is_skewed():
    pdf, _ = synth_data.planted_star_pandas(
        n=256, m=2048, d=64, avg_deg=4.0, profile="zipf", n_heavy=1, seed=9
    )
    deg = pdf.groupby("a").size().sort_values(ascending=False)
    # background top vertex should dominate the median background degree
    bg = deg.iloc[1:]
    assert bg.iloc[0] >= 4 * max(1, int(bg.median()))


def test_turnstile_final_graph_is_planted_star():
    pdf, info = synth_data.turnstile_star_pandas(
        n=64, m=256, d=16, avg_deg=3.0, churn=0.5, seed=4
    )
    fg = FinalGraph(pdf)
    for v, nbrs in info["heavy"].items():
        assert fg.neighbours(v).tolist() == sorted(nbrs)
    others = np.setdiff1d(np.arange(64), list(info["heavy"]))
    assert all(len(fg.neighbours(v)) < 16 for v in others)


def test_turnstile_deletes_follow_inserts():
    pdf, _ = synth_data.turnstile_star_pandas(
        n=64, m=256, d=16, churn=0.8, seed=4
    )
    running: dict[tuple, int] = {}
    for row in pdf.itertuples():
        key = (row.a, row.b)
        running[key] = running.get(key, 0) + row.op
        assert running[key] in (0, 1), "multiplicity left {0,1} mid-stream"


def test_turnstile_has_deletions_and_transient_overload():
    pdf, info = synth_data.turnstile_star_pandas(
        n=64, m=512, d=8, avg_deg=2.0, churn=2.0, seed=6
    )
    assert (pdf["op"] == -1).sum() == info["n_churn"] > 0
    # some decoy's *running* degree must exceed d (defeats degree counting)
    run_deg: dict[int, int] = {}
    peak: dict[int, int] = {}
    for row in pdf.itertuples():
        run_deg[row.a] = run_deg.get(row.a, 0) + row.op
        peak[row.a] = max(peak.get(row.a, 0), run_deg[row.a])
    decoy_peaks = [p for v, p in peak.items() if v not in info["heavy"]]
    assert max(decoy_peaks) >= 8


def test_general_graph_info_matches():
    pdf, info = synth_data.general_graph_pandas(n=128, planted_deg=32, seed=3)
    deg = pd.concat([pdf["u"], pdf["v"]]).value_counts()
    assert info["delta"] == deg.max() >= 32
    assert deg.idxmax() == info["argmax"]
    assert (pdf["u"] < pdf["v"]).all()
    assert not pdf.duplicated(["u", "v"]).any()


def test_router_log_ground_truth(spark):
    df, info = synth_data.router_log(
        spark, n_events=2000, n_dst=50, attack_frac=0.1, seed=1
    )
    pdf = df.toPandas()
    counts = pdf["dst"].value_counts()
    assert counts.idxmax() == info["target"]
    assert counts.max() >= 200
    assert set(pdf.loc[pdf["dst"] == info["target"], "ts"]) == info["attack_ts"]


def test_router_log_early_burst(spark):
    df, info = synth_data.router_log(
        spark, n_events=5000, n_dst=100, attack_frac=0.02,
        attack_pattern="early_burst", seed=3,
    )
    pdf = df.toPandas().sort_values("ts").reset_index(drop=True)
    attack_pos = np.flatnonzero((pdf["dst"] == info["target"]).to_numpy())
    head = max(100, 500)
    assert attack_pos.max() < head, "all attack events in the head"
    tail = pdf.iloc[head:]
    assert (tail["dst"] != info["target"]).all()
    assert tail["dst"].nunique() >= 90  # distinct-flood


def test_router_log_rejects_bad_pattern(spark):
    with pytest.raises(ValueError):
        synth_data.router_log(spark, n_events=100, attack_pattern="nope")


def test_db_update_log_hot_keys(spark):
    df, info = synth_data.db_update_log(
        spark, n_events=5000, n_keys=100, n_hot=2, hot_frac=0.05, seed=2
    )
    pdf = df.toPandas()
    counts = pdf["key"].value_counts()
    for hk in info["hot_keys"]:
        assert counts.loc[hk] >= 0.04 * len(pdf)
