"""Synthetic graph streams for the Neighborhood Detection reproduction.

The paper is a theory paper with no dataset; these generators produce the
promise instances its theorems quantify over (DESIGN.md § Substitutions).
A-vertices are items, B-vertices are witnesses; streams use the canonical
schema of repro.streamsim.stream (pos, a, b, op) and are built through
its ``canonical``. Generators are deterministic in ``seed``.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.streamsim.stream import canonical


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _background_edges(
    g: np.random.Generator,
    n: int,
    m: int,
    avg_deg: float,
    max_deg: int,
    profile: str,
) -> pd.DataFrame:
    """Simple bipartite background: no A-vertex exceeds ``max_deg``."""
    n_edges = int(n * avg_deg)
    if profile == "uniform":
        a = g.integers(0, n, n_edges)
    elif profile == "zipf":
        ranks = np.arange(1, n + 1)
        w = 1.0 / ranks**1.1
        w /= w.sum()
        a = g.choice(n, size=n_edges, p=w)
    else:
        raise ValueError(f"unknown profile {profile!r}")
    b = g.integers(0, m, n_edges)
    pdf = pd.DataFrame({"a": a, "b": b}).drop_duplicates(["a", "b"])
    # Cap per-vertex degree strictly below max_deg so planted vertices are
    # the only ones satisfying the promise.
    pdf["rk"] = pdf.groupby("a").cumcount()
    pdf = pdf[pdf["rk"] < max_deg].drop(columns="rk")
    return pdf.reset_index(drop=True)


def planted_star_pandas(
    *,
    n: int,
    m: int,
    d: int,
    n_heavy: int = 1,
    heavy_deg: int | None = None,
    avg_deg: float = 4.0,
    background_max_deg: int | None = None,
    profile: str = "uniform",
    order: str = "random",
    seed: int = 0,
) -> tuple[pd.DataFrame, dict]:
    """Insertion-only promise instance for Neighborhood Detection(n, d).

    ``n_heavy`` planted A-vertices of degree ``heavy_deg`` (default ``d``);
    background degrees stay below ``background_max_deg`` (default ``d``).
    ``order`` controls the stream order the adversary picks:

    - ``random``      — uniform permutation,
    - ``heavy_last``  — planted edges arrive after all background edges
      (worst case for "detect then collect" — nothing left to collect
      after detection would be the naive failure mode),
    - ``heavy_first`` — planted edges arrive first,
    - ``by_vertex``   — edges grouped by A-vertex.

    Returns ``(stream_pdf, info)`` where ``info['heavy']`` maps each
    planted vertex to its exact neighbor set.
    """
    g = _rng(seed)
    heavy_deg = d if heavy_deg is None else heavy_deg
    if heavy_deg > m:
        raise ValueError("heavy_deg cannot exceed |B|")
    background_max_deg = d if background_max_deg is None else background_max_deg
    heavy_vs = g.choice(n, size=n_heavy, replace=False)
    bg = _background_edges(
        g, n, m, avg_deg, min(background_max_deg, d) - 1, profile
    )
    bg = bg[~bg["a"].isin(heavy_vs)]
    rows = [bg]
    heavy = {}
    for v in heavy_vs:
        nbrs = g.choice(m, size=heavy_deg, replace=False)
        heavy[int(v)] = set(int(x) for x in nbrs)
        rows.append(pd.DataFrame({"a": np.full(heavy_deg, v), "b": nbrs}))
    pdf = pd.concat(rows, ignore_index=True)
    is_heavy = pdf["a"].isin(heavy_vs).to_numpy()
    if order == "random":
        perm = g.permutation(len(pdf))
    elif order == "heavy_last":
        key = is_heavy.astype(int) * len(pdf) + g.permutation(len(pdf))
        perm = np.argsort(key, kind="stable")
    elif order == "heavy_first":
        key = (~is_heavy).astype(int) * len(pdf) + g.permutation(len(pdf))
        perm = np.argsort(key, kind="stable")
    elif order == "by_vertex":
        perm = np.argsort(pdf["a"].to_numpy(), kind="stable")
    else:
        raise ValueError(f"unknown order {order!r}")
    info = {"heavy": heavy, "n": n, "m": m, "d": d}
    return canonical(pdf.iloc[perm]), info


def turnstile_star_pandas(
    *,
    n: int,
    m: int,
    d: int,
    n_heavy: int = 1,
    heavy_deg: int | None = None,
    avg_deg: float = 4.0,
    background_max_deg: int | None = None,
    churn: float = 0.5,
    profile: str = "uniform",
    seed: int = 0,
) -> tuple[pd.DataFrame, dict]:
    """Insertion-deletion promise instance.

    The *final* graph is a planted-star instance; on top, a ``churn``
    fraction of extra edges is inserted and later deleted mid-stream.
    Churn edges deliberately inflate *running* degrees of background
    vertices above ``d`` before deletion, which defeats insertion-only
    degree counting and forces the l0-sketch path.
    """
    g = _rng(seed)
    base, info = planted_star_pandas(
        n=n,
        m=m,
        d=d,
        n_heavy=n_heavy,
        heavy_deg=heavy_deg,
        avg_deg=avg_deg,
        background_max_deg=background_max_deg,
        profile=profile,
        order="random",
        seed=seed + 1,
    )
    final_edges = set(zip(base["a"].tolist(), base["b"].tolist()))
    n_extra = int(len(base) * churn)
    # Concentrate churn on a few decoy vertices so their running degree
    # transiently exceeds d.
    decoys = g.choice(
        [v for v in range(n) if v not in info["heavy"]],
        size=max(1, min(8, n - n_heavy)),
        replace=False,
    )
    ea, eb = [], []
    while len(ea) < n_extra:
        need = n_extra - len(ea)
        ca = g.choice(decoys, size=need)
        cb = g.integers(0, m, need)
        for x, y in zip(ca.tolist(), cb.tolist()):
            if (x, y) not in final_edges:
                final_edges.add((x, y))  # reserve so no duplicate churn edge
                ea.append(x)
                eb.append(y)
    t_base = g.random(len(base))
    t_ins = g.random(n_extra) * 0.8
    t_del = t_ins + (1 - t_ins) * (0.2 + 0.8 * g.random(n_extra))
    ev = pd.concat(
        [
            pd.DataFrame({"t": t_base, "a": base["a"], "b": base["b"], "op": 1}),
            pd.DataFrame({"t": t_ins, "a": ea, "b": eb, "op": 1}),
            pd.DataFrame({"t": t_del, "a": ea, "b": eb, "op": -1}),
        ],
        ignore_index=True,
    ).sort_values("t", kind="stable")
    info["n_churn"] = n_extra
    return canonical(ev), info


def general_graph_pandas(
    *, n: int, avg_deg: float = 4.0, planted_deg: int | None = None, seed: int = 0
) -> tuple[pd.DataFrame, dict]:
    """Power-law general (non-bipartite) graph for Star Detection.

    Returns an undirected edge list (u < v, simple) plus ``info['delta']``
    (the true max degree) and ``info['argmax']``.
    """
    g = _rng(seed)
    ranks = np.arange(1, n + 1)
    w = 1.0 / ranks
    w /= w.sum()
    n_edges = int(n * avg_deg)
    u = g.choice(n, size=n_edges, p=w)
    v = g.integers(0, n, n_edges)
    pdf = pd.DataFrame({"u": np.minimum(u, v), "v": np.maximum(u, v)})
    pdf = pdf[pdf["u"] != pdf["v"]].drop_duplicates().reset_index(drop=True)
    if planted_deg is not None:
        star_c = int(g.integers(0, n))
        others = np.setdiff1d(np.arange(n), [star_c])
        leaves = g.choice(others, size=planted_deg, replace=False)
        extra = pd.DataFrame(
            {"u": np.minimum(star_c, leaves), "v": np.maximum(star_c, leaves)}
        )
        pdf = pd.concat([pdf, extra], ignore_index=True).drop_duplicates()
    pdf = pdf.sample(frac=1.0, random_state=int(g.integers(0, 2**31)))
    pdf = pdf.reset_index(drop=True)
    deg = pd.concat([pdf["u"], pdf["v"]]).value_counts()
    info = {"delta": int(deg.iloc[0]), "argmax": int(deg.index[0])}
    pdf["pos"] = np.arange(len(pdf), dtype=np.int64)
    return pdf[["pos", "u", "v"]].astype("int64"), info


def router_log(
    spark: SparkSession,
    *,
    n_events: int = 100_000,
    n_src: int = 5_000,
    n_dst: int = 2_000,
    attack_frac: float = 0.05,
    attack_pattern: str = "spread",
    seed: int = 0,
) -> tuple[DataFrame, dict]:
    """§1 application: router traffic log with a planted DoS target.

    Each event is ``(ts, src, dst)``; the attack target receives
    ``attack_frac * n_events`` requests from many distinct (spoofed)
    sources. Items = dst, witnesses = timestamps (all distinct).

    ``attack_pattern="spread"`` scatters the attack uniformly;
    ``"early_burst"`` puts every attack event in the first 10% of the
    log and floods the remainder with distinct one-off destinations —
    the adversarial shape under which counter-eviction summaries
    (Misra–Gries) lose the attack's witnesses, while Algorithm 2's
    guarantee is order-oblivious.
    """
    g = _rng(seed)
    n_attack = int(n_events * attack_frac)
    target = int(g.integers(0, n_dst))
    if attack_pattern == "spread":
        dst = g.integers(0, n_dst, n_events)
        dst[g.choice(n_events, size=n_attack, replace=False)] = target
    elif attack_pattern == "early_burst":
        head = max(n_attack, n_events // 10)
        dst = np.empty(n_events, dtype=np.int64)
        dst[:head] = g.integers(0, n_dst, head)
        dst[g.choice(head, size=n_attack, replace=False)] = target
        # flood: (almost) all-distinct destinations, each seen once
        flood = np.arange(n_events - head, dtype=np.int64) % max(n_dst - 1, 1)
        flood[flood >= target] += 1  # never the target
        dst[head:] = flood
    else:
        raise ValueError(f"unknown attack_pattern {attack_pattern!r}")
    pdf = pd.DataFrame(
        {
            "ts": np.arange(n_events, dtype=np.int64),
            "src": g.integers(0, n_src, n_events),
            "dst": dst,
        }
    )
    info = {
        "target": target,
        "attack_ts": set(pdf.loc[pdf["dst"] == target, "ts"].tolist()),
    }
    return spark.createDataFrame(pdf), info


def db_update_log(
    spark: SparkSession,
    *,
    n_events: int = 100_000,
    n_users: int = 2_000,
    n_keys: int = 5_000,
    n_hot: int = 3,
    hot_frac: float = 0.03,
    seed: int = 0,
) -> tuple[DataFrame, dict]:
    """§1 application: database update log with planted hot keys.

    Items = keys, witnesses = the users committing the updates.
    """
    g = _rng(seed)
    key = g.integers(0, n_keys, n_events)
    hot_keys = g.choice(n_keys, size=n_hot, replace=False)
    per_hot = int(n_events * hot_frac)
    for hk in hot_keys:
        key[g.choice(n_events, size=per_hot, replace=False)] = hk
    pdf = pd.DataFrame(
        {
            "txn": np.arange(n_events, dtype=np.int64),
            "user": g.integers(0, n_users, n_events),
            "key": key,
        }
    )
    info = {"hot_keys": [int(k) for k in hot_keys]}
    return spark.createDataFrame(pdf), info
