"""Algorithm 3 / Theorem 5.4: turnstile correctness, strategies, space."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import space, synth_data
from repro.core.insertion_deletion import InsertionDeletionND
from repro.core.l0_sampler import L0SamplerBank
from repro.streamsim.runner import run_stream_pandas
from repro.streamsim.stream import FinalGraph


def run_on(pdf, n, m, d, c, seed=0):
    return run_stream_pandas(InsertionDeletionND(n, m, d, c, seed=seed), pdf, batch_size=4096)


@pytest.fixture(scope="module")
def one_heavy():
    pdf, info = synth_data.turnstile_star_pandas(
        n=128, m=256, d=16, avg_deg=3.0, churn=0.5, seed=61
    )
    return pdf, info


@pytest.fixture(scope="module")
def many_heavy():
    pdf, info = synth_data.turnstile_star_pandas(
        n=128, m=256, d=16, n_heavy=16, avg_deg=1.0, churn=0.3, seed=67
    )
    return pdf, info


def test_rejects_bad_c():
    with pytest.raises(ValueError):
        InsertionDeletionND(8, 8, 4, 0)


def test_x_parameter_regimes():
    assert InsertionDeletionND(256, 8, 8, 2).x == 128  # n/c
    assert InsertionDeletionND(256, 8, 8, 32).x == 16  # sqrt(n)


@pytest.mark.parametrize("c", [2, 4, 8])
def test_succeeds_on_one_heavy(one_heavy, c):
    pdf, info = one_heavy
    p = run_on(pdf, 128, 256, 16, c, seed=c)
    res = p.result()
    assert res is not None
    assert len(res[1]) >= p.d_c


@pytest.mark.parametrize("c", [2, 4])
def test_output_edges_exist_in_final_graph(one_heavy, c):
    """Deletions must be fully honoured: no reported edge may be a
    deleted (churn) edge."""
    pdf, _ = one_heavy
    p = run_on(pdf, 128, 256, 16, c, seed=10 + c)
    res = p.result()
    assert res is not None and FinalGraph(pdf).valid(res, p.d_c)


def test_churn_would_fool_insertion_only(one_heavy):
    """Sanity: running degree of some decoy transiently exceeds the
    final degree, so degree counting over inserts alone overcounts."""
    pdf, info = one_heavy
    ins_deg = pdf[pdf["op"] == 1].groupby("a").size()
    fg = FinalGraph(pdf)
    decoys = [v for v in ins_deg.index if v not in info["heavy"]]
    assert any(ins_deg[v] > len(fg.neighbours(v)) for v in decoys)


def test_vertex_strategy_wins_on_many_heavy(many_heavy):
    """Lemma 5.2 regime: many vertices of degree >= d/c -> the vertex
    bank alone recovers a full neighborhood."""
    pdf, _ = many_heavy
    p = run_on(pdf, 128, 256, 16, 4, seed=3)
    nbrs: dict[int, set] = {}
    for slot, coord in enumerate(p.vertex_bank.sample_all()):
        if coord >= 0:
            v = int(p.sampled_vertices[slot // p.k_v])
            nbrs.setdefault(v, set()).add(int(coord))
    assert any(len(s) >= p.d_c for s in nbrs.values())


def test_edge_strategy_wins_on_one_heavy():
    """Lemma 5.3 regime: a single Delta-degree vertex among a sparse
    background is caught by the global edge samplers alone."""
    pdf, info = synth_data.turnstile_star_pandas(
        n=64, m=256, d=32, avg_deg=1.0, background_max_deg=4, churn=0.2, seed=71
    )
    p = run_on(pdf, 64, 256, 32, 2, seed=5)
    heavy_v = next(iter(info["heavy"]))
    rec = p.edge_bank.sample_all()
    got = {int(cd % 256) for cd in rec[rec >= 0] if int(cd // 256) == heavy_v}
    assert len(got) >= p.d_c


def test_merge_linearity_split_stream(one_heavy):
    pdf, _ = one_heavy
    mk = lambda: InsertionDeletionND(128, 256, 16, 4, seed=9)
    whole = run_on(pdf, 128, 256, 16, 4, seed=9)
    half = len(pdf) // 2
    p1 = run_stream_pandas(mk(), pdf.iloc[:half])
    p2 = run_stream_pandas(mk(), pdf.iloc[half:])
    p1.merge(p2)
    assert (p1.edge_bank.S0 == whole.edge_bank.S0).all()
    assert (p1.vertex_bank.S1 == whole.vertex_bank.S1).all()


def test_batch_order_irrelevant(one_heavy):
    """Linear sketches: permuting the stream leaves the state identical."""
    pdf, _ = one_heavy
    a = run_on(pdf, 128, 256, 16, 4, seed=11)
    shuffled = pdf.sample(frac=1.0, random_state=0).reset_index(drop=True)
    shuffled["pos"] = np.arange(len(shuffled))
    b = run_on(shuffled, 128, 256, 16, 4, seed=11)
    assert (a.edge_bank.S0 == b.edge_bank.S0).all()
    assert (a.edge_bank.S2 == b.edge_bank.S2).all()


def bank_cells(p):
    return [getattr(bank, cell) for bank in (p.vertex_bank, p.edge_bank)
            for cell in ("S0", "S1", "S2")]


@pytest.mark.parametrize("stream", ["one_heavy", "many_heavy"])
def test_batch_size_invariance(request, stream):
    """Both banks hold the same cells at any batch size, and each block
    of the vertex bank equals a one-block sketch of the same seed fed only
    that vertex's edges. At c = 8 only some vertices are sampled, so
    edges miss the bank too."""
    pdf, _ = request.getfixturevalue(stream)
    mk = lambda: InsertionDeletionND(128, 256, 16, 8, seed=17)
    ref = mk()
    assert 0 < len(ref.sampled_vertices) < 128
    a, b, op = (pdf[col].to_numpy(np.int64) for col in ("a", "b", "op"))
    for i, v in enumerate(ref.sampled_vertices):
        one = L0SamplerBank(ref.k_v, 256, seed=ref.vertex_bank.seed)
        one.update(b[a == v], op[a == v])
        for cell in ("S0", "S1", "S2"):
            getattr(ref.vertex_bank, cell)[i] = getattr(one, cell)[0]
    ref.edge_bank.update(a * 256 + b, op)
    for batch_size in (1, 7, 96, 4096):
        p = run_stream_pandas(mk(), pdf, batch_size=batch_size)
        for got, want in zip(bank_cells(p), bank_cells(ref)):
            assert np.array_equal(got, want)


@st.composite
def turnstile_streams(draw, n=12, m=10):
    """A random turnstile stream: distinct edges inserted, some deleted
    after their insertion, some re-inserted after that."""
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                          unique=True, max_size=60))
    events = [(a, b, 1) for a, b in edges]
    for a, b in draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []:
        events.append((a, b, -1))
        if draw(st.booleans()):
            events.append((a, b, 1))
    order = draw(st.permutations(range(len(events))))
    # keep each edge's events in their original relative order
    by_edge: dict = {}
    for e in events:
        by_edge.setdefault(e[:2], []).append(e)
    slots = [events[i][:2] for i in order]
    stream = [by_edge[key].pop(0) for key in slots]
    return pd.DataFrame(stream or None, columns=["a", "b", "op"]).assign(
        pos=np.arange(len(stream), dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(pdf=turnstile_streams(), batch=st.integers(1, 40), seed=st.integers(0, 1000),
       c=st.sampled_from([1, 2, 4]))
def test_batch_size_invariance_random_streams(pdf, batch, seed, c):
    """Algorithm 3 on a random turnstile stream holds the same cells and
    reports the same neighbourhoods at any batch size, and every reported
    edge is in the final graph."""
    mk = lambda: InsertionDeletionND(12, 10, 4, c, seed=seed)
    whole = run_stream_pandas(mk(), pdf, batch_size=max(1, len(pdf)))
    split = run_stream_pandas(mk(), pdf, batch_size=batch)
    for got, want in zip(bank_cells(split), bank_cells(whole)):
        assert np.array_equal(got, want)
    assert split.neighborhoods() == whole.neighborhoods()
    fg = FinalGraph(pdf)
    for v, bs in whole.neighborhoods().items():
        assert fg.valid((v, bs), 1)


@pytest.mark.parametrize("a, b, op", [(-1, 20, 1), (16, 3, 1), (3, -1, 1), (3, 16, 1),
                                      (3, 4, 2), (3, 4, 0), (-1, 4, 1)])
def test_rejects_bad_batch_before_hashing(a, b, op):
    """Out-of-range ids and ops outside {+1, -1} are rejected and leave
    the sketches untouched (a = -1, b = 20 used to land on edge (0, 4))."""
    p = InsertionDeletionND(16, 16, 8, 2)
    good = pd.DataFrame({"pos": [0], "a": [5], "b": [6], "op": [1]})
    bad = pd.DataFrame({"pos": [1, 2], "a": [5, a], "b": [7, b], "op": [1, op]})
    p.process_batch(good)
    before = [cell.copy() for cell in bank_cells(p)]
    with pytest.raises(ValueError):
        p.process_batch(bad)
    assert all(np.array_equal(x, y) for x, y in zip(bank_cells(p), before))


def test_sampler_counts_match_formulas():
    n, m, d, c = 128, 256, 16, 4
    p = InsertionDeletionND(n, m, d, c, seed=0)
    x = max(n / c, math.sqrt(n))
    assert p.k_v == math.ceil((d / c) * math.log(n))
    assert p.k_e == math.ceil((n * d / c) * (1 / x + 1 / c) * math.log(n * m))
    assert len(p.sampled_vertices) == min(n, math.ceil(x * math.log(n)))


def test_space_decreases_with_c():
    words = [
        InsertionDeletionND(128, 256, 16, c).space_words() for c in (2, 4, 8)
    ]
    assert words[0] > words[1] > words[2]


def test_space_tracks_thm54_shape():
    """Measured cells within a polylog factor of the Theorem 5.4 bound."""
    for c in (2, 4, 8):
        meas = InsertionDeletionND(256, 512, 32, c).space_words()
        bound = space.thm54_words(256, 32, c)
        assert bound / 64 <= meas <= bound * 64


def test_fail_reported_when_graph_empty():
    p = InsertionDeletionND(64, 64, 8, 2, seed=1)
    assert p.result() is None
    assert not p.succeeded()


def test_insert_then_delete_everything(one_heavy):
    """Deleting the entire graph leaves an empty sketch -> fail."""
    pdf, _ = one_heavy
    fg = FinalGraph(pdf)
    anti = pd.DataFrame({"pos": np.arange(len(fg.a)) + pdf["pos"].max() + 1,
                         "a": fg.a, "b": fg.b, "op": -1})
    both = pd.concat([pdf, anti], ignore_index=True)
    p = run_on(both, 128, 256, 16, 4, seed=13)
    assert p.result() is None
