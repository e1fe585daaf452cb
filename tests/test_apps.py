"""Witness applications: DoS timestamps and DB hot-key users."""
import pandas as pd
import pytest

from repro import synth_data
from repro.apps import db_hotkeys, dos_detection
from repro.streamsim.stream import log_to_stream, stream_from_pandas


@pytest.fixture(scope="module")
def router(spark):
    df, info = synth_data.router_log(
        spark, n_events=20_000, n_src=500, n_dst=200, attack_frac=0.1, seed=95
    )
    return df.cache(), info


@pytest.fixture(scope="module")
def dblog(spark):
    df, info = synth_data.db_update_log(
        spark, n_events=20_000, n_users=300, n_keys=500, n_hot=2, hot_frac=0.05,
        seed=97,
    )
    return df.cache(), info


def test_log_to_stream_schema(spark, router):
    df, _ = router
    s = log_to_stream(df, "dst", "ts")
    assert s.dtypes == stream_from_pandas(spark, pd.DataFrame({"a": [0], "b": [0]})).dtypes
    assert s.count() == df.count()


def test_dos_target_found_with_witnesses(router):
    df, info = router
    d = 2000
    res, proc = dos_detection.detect_dos(df, n_dst=200, d=d, c=2, seed=1)
    assert res is not None
    target, ts = res
    assert target == info["target"]
    assert len(ts) >= d // 2
    assert ts <= info["attack_ts"], "every reported timestamp must be real"


@pytest.mark.parametrize("c", [2, 4])
def test_dos_witness_guarantee_scales(router, c):
    df, info = router
    d = 2000
    res, _ = dos_detection.detect_dos(df, n_dst=200, d=d, c=c, seed=c)
    assert res is not None and len(res[1]) >= d // c


def test_db_hot_key_found_with_users(dblog):
    df, info = dblog
    d = 900  # hot keys get ~1000+ updates
    res, proc = db_hotkeys.detect_hot_keys(df, n_keys=500, d=d, c=3, seed=2)
    assert res is not None
    key, txns = res
    assert key in info["hot_keys"]
    assert len(txns) >= d // 3
    # witness transactions must belong to the reported key
    pdf = df.toPandas()
    key_txns = set(pdf.loc[pdf["key"] == key, "txn"].tolist())
    assert txns <= key_txns


def test_db_resolve_users_valid(dblog):
    df, info = dblog
    res, _ = db_hotkeys.detect_hot_keys(df, n_keys=500, d=900, c=3, seed=3)
    users = db_hotkeys.resolve_users(df, res[1])
    pdf = df.toPandas()
    true_users = set(pdf.loc[pdf["key"] == res[0], "user"].tolist())
    assert users <= true_users
    assert len(users) > 0


def test_db_resolve_users_empty():
    assert db_hotkeys.resolve_users(None, set()) == set()
