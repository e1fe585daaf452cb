"""l0-sampler sketch: recovery, deletions, linearity, uniformity, Spark merge."""
import numpy as np
import pytest

from repro.core.l0_sampler import L0SamplerBank, _fingerprint, sketch_stream_spark


def test_rejects_huge_dim():
    with pytest.raises(ValueError):
        L0SamplerBank(1, 1 << 40)


def test_rejects_out_of_range_coordinate():
    bank = L0SamplerBank(4, 100)
    with pytest.raises(ValueError):
        bank.update(np.array([100]), 1)
    with pytest.raises(ValueError):
        bank.update(np.array([-1]), 1)


def test_empty_update_is_noop():
    bank = L0SamplerBank(4, 100)
    bank.update(np.array([], dtype=np.int64), 1)
    assert (bank.sample_all() == -1).all()


def test_single_coordinate_always_recovered():
    bank = L0SamplerBank(64, 1 << 16, seed=1)
    bank.update(np.array([12345]), 1)
    rec = bank.sample_all()
    assert (rec == 12345).all()


def test_empty_vector_recovers_nothing():
    bank = L0SamplerBank(32, 1000, seed=2)
    assert (bank.sample_all() == -1).all()


def test_delete_to_zero_recovers_nothing():
    bank = L0SamplerBank(32, 1000, seed=3)
    coords = np.array([1, 7, 500, 999])
    bank.update(coords, 1)
    bank.update(coords, -1)
    assert (bank.sample_all() == -1).all()


@pytest.mark.parametrize("dim", [1 << 8, 1 << 12, 1 << 16])
def test_recovered_always_in_support(dim):
    g = np.random.default_rng(dim)
    alive = g.choice(dim, size=min(64, dim // 4), replace=False)
    dead = np.setdiff1d(g.choice(dim, size=min(64, dim // 4), replace=False), alive)
    bank = L0SamplerBank(256, dim, seed=4)
    bank.update(np.concatenate([alive, dead]), 1)
    bank.update(dead, -1)
    rec = bank.sample_all()
    ok = rec[rec >= 0]
    assert len(ok) > 0
    assert np.isin(ok, alive).all()


def test_success_rate_reasonable():
    """Per-sampler success probability is a constant bounded away from 0."""
    g = np.random.default_rng(9)
    alive = g.choice(1 << 14, size=128, replace=False)
    bank = L0SamplerBank(512, 1 << 14, seed=5)
    bank.update(alive, 1)
    rec = bank.sample_all()
    assert (rec >= 0).mean() > 0.4


def test_near_uniformity_over_support():
    """Empirical distribution close to uniform over the support."""
    support = np.arange(50) * 7 + 3
    hits = np.zeros(50)
    bank = L0SamplerBank(4000, 1 << 10, seed=6)
    bank.update(support, 1)
    rec = bank.sample_all()
    ok = rec[rec >= 0]
    for c in ok:
        hits[(int(c) - 3) // 7] += 1
    freq = hits / hits.sum()
    # every support element sampled, none dominating
    assert (hits > 0).all()
    assert freq.max() < 5 * freq.min() + 0.05


def test_multiplicity_above_one_supported():
    bank = L0SamplerBank(64, 1000, seed=7)
    bank.update(np.array([42]), 3)
    bank.update(np.array([42]), -2)
    assert (bank.sample_all() == 42).all()


def test_merge_equals_single_pass():
    g = np.random.default_rng(11)
    coords = g.choice(1 << 12, size=500)
    deltas = g.choice([-1, 1], size=500)
    whole = L0SamplerBank(32, 1 << 12, seed=8)
    whole.update(coords, deltas)
    part1 = L0SamplerBank(32, 1 << 12, seed=8)
    part2 = L0SamplerBank(32, 1 << 12, seed=8)
    part1.update(coords[:250], deltas[:250])
    part2.update(coords[250:], deltas[250:])
    part1.merge(part2)
    assert (part1.S0 == whole.S0).all()
    assert (part1.S1 == whole.S1).all()
    assert (part1.S2 == whole.S2).all()


def test_merge_rejects_mismatched_banks():
    with pytest.raises(ValueError):
        L0SamplerBank(4, 100, seed=1).merge(L0SamplerBank(4, 100, seed=2))
    with pytest.raises(ValueError):
        L0SamplerBank(4, 100, seed=1).merge(L0SamplerBank(5, 100, seed=1))


def test_update_rows_subset_only():
    bank = L0SamplerBank(8, 1000, seed=9)
    bank.update(np.array([5]), 1, rows=slice(0, 4))
    rec = bank.sample_all()
    assert (rec[:4] == 5).all()
    assert (rec[4:] == -1).all()


def test_chunking_invariance():
    g = np.random.default_rng(13)
    coords = g.choice(1 << 10, size=300)
    a = L0SamplerBank(64, 1 << 10, seed=10)
    b = L0SamplerBank(64, 1 << 10, seed=10)
    a.update(coords, 1, chunk_cells=64)  # force many tiny chunks
    b.update(coords, 1)
    assert (a.S0 == b.S0).all() and (a.S1 == b.S1).all() and (a.S2 == b.S2).all()


def test_fingerprint_is_nonlinear():
    """Regression test: a linear fingerprint makes the 1-sparse test
    vacuous (sum g(i) == S0 * g(S1/S0) identically)."""
    a2 = np.array([[12345]], dtype=np.int64)
    b2 = np.array([[678]], dtype=np.int64)
    i = np.array([10, 20], dtype=np.int64)
    g = _fingerprint(a2, b2, i[None, :])[0]
    g_mid = _fingerprint(a2, b2, np.array([[15]], dtype=np.int64))[0, 0]
    assert (g[0] + g[1]) % ((1 << 31) - 1) != (2 * g_mid) % ((1 << 31) - 1)


def test_two_sparse_levels_rejected():
    """A bank over exactly 2 coordinates must never report a phantom
    third coordinate (the old linear-fingerprint failure mode)."""
    bank = L0SamplerBank(512, 1 << 12, seed=12)
    bank.update(np.array([100, 300]), 1)
    rec = bank.sample_all()
    ok = rec[rec >= 0]
    assert np.isin(ok, [100, 300]).all()


def test_space_words():
    bank = L0SamplerBank(10, 1 << 8, seed=1)
    assert bank.space_words() == 3 * 10 * bank.L + 4 * 10


def test_levels_scale_with_dim():
    assert L0SamplerBank(1, 1 << 6).L < L0SamplerBank(1, 1 << 20).L


def test_sketch_stream_spark_equals_local(spark):
    from pyspark.sql import functions as F

    g = np.random.default_rng(15)
    import pandas as pd

    pdf = pd.DataFrame(
        {"idx": g.choice(1 << 10, size=1000).astype(np.int64),
         "op": g.choice([-1, 1], size=1000).astype(np.int64)}
    )
    df = spark.createDataFrame(pdf).repartition(8)
    mk = lambda: L0SamplerBank(32, 1 << 10, seed=21)
    merged = sketch_stream_spark(df, mk)
    local = mk()
    local.update(pdf["idx"].to_numpy(), pdf["op"].to_numpy())
    assert (merged.S0 == local.S0).all()
    assert (merged.S1 == local.S1).all()
    assert (merged.S2 == local.S2).all()


def test_large_batch_accumulates_exactly():
    """A cell's partial sum past 2^53 must stay exact: one 5M-update
    batch equals five 1M-update batches, and S1 equals the integer sum."""
    dim = (1 << 31) - 2
    coord = np.full(1_000_000, dim - 1, dtype=np.int64)
    whole = L0SamplerBank(1, dim, seed=3)
    whole.update(np.tile(coord, 5), 1)
    parts = L0SamplerBank(1, dim, seed=3)
    for _ in range(5):
        parts.update(coord, 1)
    for cell in ("S0", "S1", "S2"):
        assert (getattr(whole, cell) == getattr(parts, cell)).all()
    assert int(whole.S1.sum()) == 5_000_000 * (dim - 1)
    assert (whole.sample_all() == dim - 1).all()


def test_large_delta_accumulates_exactly():
    dim = (1 << 31) - 2
    delta = (1 << 30) + 1
    bank = L0SamplerBank(4, dim, seed=4)
    bank.update(np.array([dim - 1]), delta)
    assert (bank.S0.sum(axis=1) == delta).all()
    assert (bank.S1.sum(axis=1) == delta * (dim - 1)).all()
    assert (bank.sample_all() == dim - 1).all()


def test_update_blocks_matches_per_block_updates():
    g = np.random.default_rng(17)
    k, blocks, dim = 5, 12, 1 << 10
    coords = g.choice(dim, size=400)
    deltas = g.choice([-2, -1, 1, 3], size=400)
    block = g.integers(0, blocks, size=400)
    got = L0SamplerBank(k * blocks, dim, seed=18)
    got.update_blocks(coords, deltas, block * k, k)
    ref = L0SamplerBank(k * blocks, dim, seed=18)
    for j in range(blocks):
        sel = block == j
        ref.update(coords[sel], deltas[sel], rows=slice(j * k, (j + 1) * k))
    for cell in ("S0", "S1", "S2"):
        assert (getattr(got, cell) == getattr(ref, cell)).all()


def test_update_blocks_rejects_out_of_range_block():
    bank = L0SamplerBank(8, 100)
    with pytest.raises(ValueError):
        bank.update_blocks(np.array([1]), 1, np.array([5]), 4)
    with pytest.raises(ValueError):
        bank.update_blocks(np.array([1]), 1, np.array([-1]), 4)
