"""k-sample l0 sketch: recovery, deletions, linearity, uniformity, Spark merge."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """A one-coordinate support is one pure cell at any seed and size:
    the first slot holds it, every other slot is padding."""
    for num in (1, 2, 64, 1000):
        for seed in range(50):
            bank = L0SamplerBank(num, 1 << 16, seed=seed)
            bank.update(np.array([12345]), 1)
            rec = bank.sample_all()
            assert rec[0] == 12345
            assert (rec[1:] == -1).all()


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
    """The yield is min(k, |support|) distinct coordinates: a support of
    128 comes back whole from a 512-sample sketch, and one of 4,000
    fills all 512 slots."""
    g = np.random.default_rng(9)
    for size in (128, 4000):
        alive = g.choice(1 << 14, size=size, replace=False)
        bank = L0SamplerBank(512, 1 << 14, seed=5)
        bank.update(alive, 1)
        rec = bank.sample_all()
        ok = rec[rec >= 0]
        assert len(np.unique(ok)) == len(ok) == min(512, size)
        assert np.isin(ok, alive).all()


def test_near_uniformity_over_support():
    """Inclusion frequencies over 300 seeded 10-sample sketches of a
    50-element support: each element is expected in 60 samples (binomial
    sd 6.9); none falls outside 4 sd, and the total-variation distance
    from uniform is within 1.5x that of an exact uniform sampler."""
    support = np.arange(50) * 7 + 3
    hits = np.zeros(50)
    ideal = np.zeros(50)
    for seed in range(300):
        bank = L0SamplerBank(10, 1 << 10, seed=seed)
        bank.update(support, 1)
        rec = bank.sample_all()
        ok = rec[rec >= 0]
        assert len(np.unique(ok)) == len(ok) == 10
        hits[(ok - 3) // 7] += 1
        ideal[np.random.default_rng(seed).choice(50, size=10, replace=False)] += 1
    assert 32 <= hits.min() and hits.max() <= 88
    tv = np.abs(hits / hits.sum() - 1 / 50).sum() / 2
    tv_ideal = np.abs(ideal / ideal.sum() - 1 / 50).sum() / 2
    assert tv < 1.5 * tv_ideal


def test_multiplicity_above_one_supported():
    """Net values other than 1, negative ones included, are recovered;
    a coordinate driven back to 0 is not."""
    bank = L0SamplerBank(64, 1000, seed=7)
    bank.update(np.array([42, 77, 500]), np.array([3, -3, 2]))
    bank.update(np.array([42, 500]), np.array([-2, -2]))
    rec = bank.sample_all()
    assert sorted(rec[rec >= 0].tolist()) == [42, 77]
    assert (rec == -1).sum() == 62


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
    with pytest.raises(ValueError):
        L0SamplerBank(4, 100, seed=1).merge(L0SamplerBank(4, 100, seed=1, blocks=2))


def test_update_rows_subset_only():
    """An update addressed to some blocks reaches only those blocks'
    sketches; ``update`` reaches every block."""
    bank = L0SamplerBank(8, 1000, seed=9, blocks=4)
    bank.update_blocks(np.array([5, 5]), 1, np.array([0, 2]))
    rec = bank.sample_all().reshape(4, 8)
    assert (rec[[0, 2], 0] == 5).all()
    assert (rec[[0, 2], 1:] == -1).all() and (rec[[1, 3]] == -1).all()
    assert not bank.S0[[1, 3]].any()
    bank.update(np.array([7]), 1)
    rec = bank.sample_all().reshape(4, 8)
    assert (np.sort(rec[[0, 2], :2], axis=1) == [5, 7]).all()
    assert (rec[[1, 3], 0] == 7).all()


def test_chunking_invariance():
    """The same updates in one call, in chunks of 7, or one at a time
    give identical cells."""
    g = np.random.default_rng(13)
    coords = g.choice(1 << 10, size=300)
    deltas = g.choice([-2, -1, 1, 3], size=300)
    whole = L0SamplerBank(64, 1 << 10, seed=10)
    whole.update(coords, deltas)
    for step in (7, 1):
        parts = L0SamplerBank(64, 1 << 10, seed=10)
        for lo in range(0, len(coords), step):
            parts.update(coords[lo : lo + step], deltas[lo : lo + step])
        for cell in ("S0", "S1", "S2"):
            assert (getattr(parts, cell) == getattr(whole, cell)).all()


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
    """Three words per cell, ceil(0.45k) + 2 cells per hash and level,
    ceil(log2(dim/k)) + 2 levels, plus six hash keys."""
    bank = L0SamplerBank(10, 1 << 8, seed=1)
    assert (bank.L, bank.w) == (7, 7)
    assert bank.S0.shape == (1, 7, 21)
    assert bank.space_words() == 3 * 7 * 21 + 6
    blocks = L0SamplerBank(10, 1 << 8, seed=1, blocks=5)
    assert blocks.space_words() == 5 * 3 * 7 * 21 + 6
    # the edge bank of the turnstile benchmark: 4 levels of 14,829 cells
    edge = L0SamplerBank(10_980, 128 * 256)
    assert (edge.L, 3 * edge.w) == (4, 14_829)


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
    # each update lands in three cells
    assert int(whole.S1.sum()) == 3 * 5_000_000 * (dim - 1)
    assert (whole.sample_all() == dim - 1).all()


def test_large_delta_accumulates_exactly():
    dim = (1 << 31) - 2
    delta = (1 << 30) + 1
    bank = L0SamplerBank(4, dim, seed=4)
    bank.update(np.array([dim - 1]), delta)
    # one cell in each of the three parts of one level
    nz = bank.S0 != 0
    per_part = nz.reshape(bank.L, 3, bank.w).sum(axis=2)
    assert per_part.sum() == 3 and (per_part[per_part.sum(axis=1).argmax()] == 1).all()
    assert (bank.S0[nz] == delta).all()
    assert (bank.S1[nz] == delta * (dim - 1)).all()
    rec = bank.sample_all()
    assert rec[0] == dim - 1 and (rec[1:] == -1).all()


def test_update_blocks_matches_per_block_updates():
    """One call addressing every update to its block equals, block by
    block, a one-block sketch of the same seed fed only that block's
    updates — cells and samples."""
    g = np.random.default_rng(17)
    k, blocks, dim = 5, 12, 1 << 10
    coords = g.choice(dim, size=400)
    deltas = g.choice([-2, -1, 1, 3], size=400)
    block = g.integers(0, blocks, size=400)
    got = L0SamplerBank(k, dim, seed=18, blocks=blocks)
    got.update_blocks(coords, deltas, block)
    rec = got.sample_all().reshape(blocks, k)
    for j in range(blocks):
        ref = L0SamplerBank(k, dim, seed=18)
        sel = block == j
        ref.update(coords[sel], deltas[sel])
        for cell in ("S0", "S1", "S2"):
            assert (getattr(got, cell)[j] == getattr(ref, cell)[0]).all()
        assert (rec[j] == ref.sample_all()).all()


def test_update_blocks_rejects_out_of_range_block():
    bank = L0SamplerBank(8, 100, blocks=4)
    with pytest.raises(ValueError):
        bank.update_blocks(np.array([1]), 1, np.array([4]))
    with pytest.raises(ValueError):
        bank.update_blocks(np.array([1]), 1, np.array([-1]))
    assert not bank.S0.any()


def test_peel_reports_stalled_table():
    """Two coordinates sharing all three cells at one level can never be
    told apart: that level's table stalls, is reported as such, and
    neither coordinate is returned; a third coordinate elsewhere is."""
    bank = L0SamplerBank(1, 1 << 12, seed=3)
    _, cells = bank._hash(np.arange(1 << 12))
    level = cells[:, 0] // (3 * bank.w)
    seen = {}
    for i, key in enumerate(map(tuple, cells.tolist())):
        if key in seen:
            pair = [seen[key], i]
            break
        seen[key] = i
    other = int(np.flatnonzero(level != level[pair[0]])[0])
    bank.update(np.array(pair + [other]), 1)
    block, idx, stalled = bank.peel()
    assert stalled.sum() == 1 and stalled[0, level[pair[0]]]
    assert idx.tolist() == [other] and block.tolist() == [0]
    assert bank.sample_all().tolist() == [other]


# ---------------------------------------------------------------------- #
# Properties over random vectors
# ---------------------------------------------------------------------- #

DIM = 1 << 12
updates = st.lists(
    st.tuples(st.integers(0, DIM - 1), st.sampled_from([-2, -1, 1, 2])),
    min_size=0, max_size=300,
)


def _apply(bank, ups, step):
    coords = np.array([c for c, _ in ups], dtype=np.int64)
    deltas = np.array([d for _, d in ups], dtype=np.int64)
    for lo in range(0, len(ups), step):
        bank.update(coords[lo : lo + step], deltas[lo : lo + step])
    return bank


@settings(max_examples=100, deadline=None)
@given(ups=updates, k=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       cut=st.floats(0, 1), step=st.integers(1, 64))
def test_merge_over_random_split_equals_whole(ups, k, seed, cut, step):
    whole = _apply(L0SamplerBank(k, DIM, seed=seed), ups, len(ups) or 1)
    at = int(cut * len(ups))
    left = _apply(L0SamplerBank(k, DIM, seed=seed), ups[:at], step)
    right = _apply(L0SamplerBank(k, DIM, seed=seed), ups[at:], step)
    left.merge(right)
    for cell in ("S0", "S1", "S2"):
        assert (getattr(left, cell) == getattr(whole, cell)).all()


@settings(max_examples=100, deadline=None)
@given(ups=updates, k=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_insert_then_delete_leaves_empty_sketch(ups, k, seed):
    bank = _apply(L0SamplerBank(k, DIM, seed=seed), ups, len(ups) or 1)
    _apply(bank, [(c, -d) for c, d in ups[::-1]], 17)
    assert not bank.S0.any() and not bank.S1.any() and not bank.S2.any()
    assert (bank.sample_all() == -1).all()


@settings(max_examples=100, deadline=None)
@given(ups=updates, k=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_recovered_distinct_and_nonzero(ups, k, seed):
    bank = _apply(L0SamplerBank(k, DIM, seed=seed), ups, 50)
    net = {}
    for c, d in ups:
        net[c] = net.get(c, 0) + d
    rec = bank.sample_all()
    assert len(rec) == k
    got = rec[rec >= 0]
    assert (rec[len(got):] == -1).all()
    assert len(np.unique(got)) == len(got)
    assert all(net.get(c, 0) != 0 for c in got.tolist())


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
def test_small_support_recovered_whole(data, k, seed):
    """A support of at most k/2 comes back whole unless the peel stalled
    (probability O(1/k); the next test bounds the rate)."""
    size = data.draw(st.integers(1, k // 2))
    support = np.array(data.draw(st.lists(st.integers(0, DIM - 1), min_size=size,
                                          max_size=size, unique=True)))
    bank = L0SamplerBank(k, DIM, seed=seed)
    bank.update(support, 1)
    rec = bank.sample_all()
    got = rec[rec >= 0]
    assert np.isin(got, support).all()
    if not bank.peel()[2].any():
        assert sorted(got.tolist()) == sorted(support.tolist())


@pytest.mark.parametrize("k", [8, 64, 512])
def test_small_support_stall_rate(k):
    """Over 200 seeds a support of exactly k/2 is recovered whole in at
    least 97% of them (a stall needs two of about k/4 coordinates of one
    level to share all three of their cells, probability about 0.2/w)."""
    whole = 0
    for seed in range(200):
        support = np.random.default_rng(seed).choice(DIM, size=k // 2, replace=False)
        bank = L0SamplerBank(k, DIM, seed=seed)
        bank.update(support, 1)
        rec = bank.sample_all()
        whole += sorted(rec[rec >= 0].tolist()) == sorted(support.tolist())
    assert whole >= 194
