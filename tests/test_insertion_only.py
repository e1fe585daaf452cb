"""Algorithm 2 / Theorem 3.2: correctness, validity, space, orderings."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import space, synth_data
from repro.core.deg_res_sampling import DegResSampling
from repro.core.insertion_only import InsertionOnlyND, run_thresholds
from repro.streamsim.runner import run_stream_pandas
from repro.streamsim.stream import FinalGraph, canonical


def run_on(pdf, n, d, c, seed=0, batch_size=4096):
    return run_stream_pandas(InsertionOnlyND(n, d, c, seed=seed), pdf, batch_size)


@pytest.mark.parametrize("c,expected", [
    (2, [1, 8]),
    (4, [1, 4, 8, 12]),
    (1, [1]),
])
def test_run_thresholds(c, expected):
    assert run_thresholds(16, c) == expected


def test_rejects_c_zero():
    with pytest.raises(ValueError):
        InsertionOnlyND(8, 4, 0)


def test_rejects_deletions():
    p = InsertionOnlyND(8, 4, 2)
    with pytest.raises(ValueError):
        p.process_batch(
            pd.DataFrame({"pos": [0], "a": [0], "b": [0], "op": [-1]})
        )


@pytest.mark.parametrize("a", [-1, 8, 100])
def test_rejects_out_of_range_vertex(a):
    """An A-vertex id outside [0, n) used to be counted in deg[n - 1]
    (a = -1) and reported as vertex -1."""
    p = InsertionOnlyND(8, 2, 2)
    with pytest.raises(ValueError):
        p.process_batch(pd.DataFrame({"pos": [0, 1], "a": [0, a], "b": [0, 1], "op": [1, 1]}))
    assert not p.deg.any()


def test_success_counts_distinct_witnesses():
    """Eight edges of vertex 3 over only two witnesses are 8 >= d/c = 4
    collected edges but 2 distinct neighbours: neither succeeded() nor
    result() may report them. With witnesses 1, 2, 1, 3, 4, 5, 6, 7 the
    first run (d1 = 1) holds 1, 2, 1, 3 and fails; the second (d1 = 4)
    holds 3, 4, 5, 6 and is the one reported."""
    p = InsertionOnlyND(16, 8, 2)
    p.process_batch(pd.DataFrame({"pos": range(8), "a": 3, "b": [1, 2] * 4, "op": 1}))
    assert not p.succeeded()
    assert p.result() is None
    q = InsertionOnlyND(16, 8, 2)
    q.process_batch(pd.DataFrame({"pos": range(8), "a": 3, "b": [1, 2, 1, 3, 4, 5, 6, 7],
                                  "op": 1}))
    assert q.succeeded()
    assert not q.runs[0].succeeded()
    assert q.result() == (3, {3, 4, 5, 6})


def test_reservoir_size_matches_theorem():
    p = InsertionOnlyND(1024, 64, 4)
    assert p.s == space.reservoir_size(1024, 4) == int(np.ceil(np.log(1024) * 1024**0.25))


@pytest.mark.parametrize("order", ["random", "heavy_last", "heavy_first", "by_vertex"])
@pytest.mark.parametrize("c", [2, 3, 4])
def test_success_and_validity_all_orderings(order, c):
    n, d = 128, 32
    pdf, info = synth_data.planted_star_pandas(
        n=n, m=512, d=d, avg_deg=3.0, order=order, seed=13
    )
    p = run_on(pdf, n, d, c, seed=41)
    assert p.succeeded(), f"failed on order={order}, c={c}"
    # output must be a genuine neighborhood of the input graph
    res = p.result()
    assert res is not None and FinalGraph(pdf).valid(res, max(1, d // c))


@pytest.mark.parametrize("profile", ["uniform", "zipf"])
def test_success_across_profiles(profile):
    n, d, c = 128, 32, 4
    pdf, _ = synth_data.planted_star_pandas(
        n=n, m=512, d=d, avg_deg=4.0, profile=profile, seed=17
    )
    assert run_on(pdf, n, d, c).succeeded()


def test_success_rate_meets_whp_bound():
    """Theorem 3.2: success prob >= 1 - 1/n; with n=64 over 60 trials we
    allow at most a couple of failures."""
    n, d, c = 64, 16, 2
    fails = 0
    for t in range(60):
        pdf, _ = synth_data.planted_star_pandas(
            n=n, m=256, d=d, avg_deg=3.0, order="heavy_last", seed=100 + t
        )
        if not run_on(pdf, n, d, c, seed=t).succeeded():
            fails += 1
    assert fails <= 3


def test_many_heavy_vertices_found_by_run0():
    """With Omega(n^{1-1/c}) heavy vertices, the i=0 run succeeds."""
    n, d, c = 128, 16, 2
    pdf, info = synth_data.planted_star_pandas(
        n=n, m=512, d=d, n_heavy=32, avg_deg=1.0, seed=23
    )
    p = run_on(pdf, n, d, c)
    assert p.runs[0].succeeded()


def test_single_heavy_found_by_late_run():
    """One heavy vertex among quiet background: the high-threshold run
    must be the one that catches it (its reservoir sees few candidates)."""
    n, d, c = 256, 64, 4
    pdf, info = synth_data.planted_star_pandas(
        n=n, m=1024, d=d, avg_deg=2.0, background_max_deg=8, seed=29
    )
    p = run_on(pdf, n, d, c)
    assert p.succeeded()
    heavy_v = next(iter(info["heavy"]))
    # the last run's candidates are exactly the vertices of degree >= 3d/4
    assert p.runs[-1].x == 1
    assert p.runs[-1].collected.get(heavy_v) is not None


def test_space_within_paper_bound():
    n, d, c = 256, 32, 2
    pdf, _ = synth_data.planted_star_pandas(n=n, m=1024, d=d, avg_deg=4.0, seed=31)
    p = run_on(pdf, n, d, c)
    assert p.space_words() <= space.thm32_words(n, d, c)
    assert p.space_words() < space.exact_words(n, d)


def test_space_decreases_with_c():
    n, d = 256, 64
    pdf, _ = synth_data.planted_star_pandas(n=n, m=1024, d=d, avg_deg=4.0, seed=37)
    words = [run_on(pdf, n, d, c).space_words() for c in (2, 4, 8)]
    # measured state shrinks overall with c (ties possible at small n);
    # the Theorem 3.2 bound is strictly decreasing
    assert words[0] > words[2]
    bounds = [space.thm32_words(n, d, c) for c in (2, 4, 8)]
    assert bounds[0] > bounds[1] > bounds[2]


def test_output_neighborhood_of_reported_vertex_only():
    n, d, c = 64, 16, 2
    pdf, _ = synth_data.planted_star_pandas(n=n, m=256, d=d, avg_deg=3.0, seed=41)
    p = run_on(pdf, n, d, c)
    res = p.result()
    assert res is not None and FinalGraph(pdf).valid(res, p.d_c)


def test_batch_size_invariance():
    n, d, c = 64, 16, 3
    pdf, _ = synth_data.planted_star_pandas(n=n, m=256, d=d, avg_deg=3.0, seed=43)
    a = run_on(pdf, n, d, c, seed=7, batch_size=11)
    b = run_on(pdf, n, d, c, seed=7, batch_size=997)
    for ra, rb in zip(a.runs, b.runs):
        assert ra.collected == rb.collected


def test_peak_collected_independent_of_batch_size():
    """The peak of the collected witnesses is tracked inside each batch,
    so it does not depend on where the batch boundaries fall."""
    n, d, c = 128, 32, 4
    pdf, _ = synth_data.planted_star_pandas(
        n=n, m=512, d=d, avg_deg=6.0, order="random", seed=43
    )
    peaks = [
        [r.peak_collected for r in run_on(pdf, n, d, c, seed=7, batch_size=bs).runs]
        for bs in (1, 7, 1024, 65536)
    ]
    assert peaks[0] == peaks[1] == peaks[2] == peaks[3]


def test_no_heavy_vertex_no_false_large_output():
    """Without the promise the algorithm may fail, but any output is
    still a genuine neighborhood (soundness)."""
    g = np.random.default_rng(5)
    pdf = pd.DataFrame({
        "pos": np.arange(300), "a": g.integers(0, 64, 300),
        "b": np.arange(300), "op": np.int32(1),
    })
    p = run_on(pdf, 64, 200, 2)
    assert FinalGraph(pdf).valid(p.result(), p.d_c)


def test_neighborhoods_are_largest_collected_set_per_vertex():
    """Each vertex maps to the largest witness set any run collected."""
    n, d, c = 64, 16, 4
    pdf, _ = synth_data.planted_star_pandas(n=n, m=256, d=d, avg_deg=3.0, seed=47)
    p = run_on(pdf, n, d, c, seed=3)
    held: dict[int, list[set[int]]] = {}
    for r in p.runs:
        for v, ws in r.collected.items():
            held.setdefault(v, []).append(set(ws))
    assert any(len({frozenset(s) for s in sets}) > 1 for sets in held.values())
    got = p.neighborhoods()
    assert got.keys() == held.keys()
    for v, sets in held.items():
        assert got[v] in sets and len(got[v]) == max(map(len, sets))


def test_degree_array_shared_across_runs():
    n, d, c = 64, 16, 4
    pdf, _ = synth_data.planted_star_pandas(n=n, m=256, d=d, avg_deg=3.0, seed=47)
    p = run_on(pdf, n, d, c)
    true_deg = pdf.groupby("a").size()
    for v, cnt in true_deg.items():
        assert p.deg[v] == cnt
    for r in p.runs:
        assert r.deg is p.deg


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 10), m=st.integers(1, 12),
       d=st.integers(1, 10), c=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_output_valid_on_random_simple_streams(data, n, m, d, c, seed):
    """On any simple insertion-only stream, at any batch size, a reported
    neighbourhood holds in the final graph with at least d/c distinct
    witnesses, and succeeded() agrees with result()."""
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                               unique=True, max_size=n * m))
    pdf = canonical(pd.DataFrame(edges, columns=["a", "b"]))
    batch_size = data.draw(st.integers(1, len(pdf) + 1))
    p = run_on(pdf, n, d, c, seed=seed, batch_size=batch_size)
    res = p.result()
    assert p.succeeded() == (res is not None)
    assert FinalGraph(pdf).valid(res, p.d_c)


def test_merge_rejects_mismatched_params():
    base = dict(n=16, d=8, c=2, s=3, seed=1)
    for key, val in [("n", 17), ("d", 9), ("c", 4), ("s", 4), ("seed", 2)]:
        with pytest.raises(ValueError):
            InsertionOnlyND(**base).merge(InsertionOnlyND(**{**base, key: val}))


def test_merge_rejects_shared_vertex():
    """A vertex seen by both parts is refused before any run changes."""
    edges = pd.DataFrame({"pos": range(6), "a": [3] * 4 + [5] * 2, "b": range(6), "op": 1})
    p = run_on(edges[edges["a"] == 3], 16, 8, 2, seed=1)
    q = run_on(edges, 16, 8, 2, seed=1)
    with pytest.raises(ValueError):
        p.merge(q)
    assert [r.x for r in p.runs] == [1, 1] and p.deg[3] == 4 and not p.deg[5]
    assert [r.collected for r in p.runs] == [{3: [0, 1, 2, 3]}, {3: [3]}]


def merged(make, parts):
    out = make()
    for part in parts:
        out.merge(part)
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), alg2=st.booleans(), n=st.integers(1, 10), m=st.integers(1, 12),
       d=st.integers(1, 10), c=st.integers(1, 4), s=st.integers(1, 4),
       seed=st.integers(0, 2**16), k=st.integers(1, 5))
def test_merge_of_vertex_parts_equals_whole_stream(data, alg2, n, m, d, c, s, seed, k):
    """Split a simple insertion-only stream by A-vertex into k parts and
    run each at its own batch size: merged in either order, the parts give
    the whole-stream processor's x, collections, degrees, space and
    success, and the two orders give the same result() draw. Checked for
    Algorithm 2 and for a standalone Algorithm 1 run (own degrees)."""
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                               unique=True, max_size=n * m))
    pdf = canonical(pd.DataFrame(edges, columns=["a", "b"]))
    if alg2:
        def make():
            return InsertionOnlyND(n, d, c, seed=seed, s=s)
    else:
        d1, d2 = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))

        def make():
            return DegResSampling(n, d1, d2, s, seed=seed)
    whole = run_stream_pandas(make(), pdf, data.draw(st.integers(1, len(pdf) + 1)))
    part_of = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    parts = []
    for i in range(k):
        sub = pdf[part_of[pdf["a"].to_numpy()] == i]
        parts.append(run_stream_pandas(make(), sub, data.draw(st.integers(1, len(sub) + 1))))
    fwd, rev = merged(make, parts), merged(make, parts[::-1])
    runs = (lambda p: p.runs) if alg2 else (lambda p: [p])
    for w, f, r in zip(runs(whole), runs(fwd), runs(rev)):
        assert f.x == w.x
        assert f.collected == w.collected
        assert list(f.collected.items()) == list(r.collected.items())
    assert (fwd.deg == whole.deg).all()
    assert fwd.space_words() == whole.space_words()
    assert fwd.succeeded() == whole.succeeded()
    assert fwd.result() == rev.result()
