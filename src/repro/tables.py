"""Experiment harnesses — one function per table in EXPERIMENTS.md.

The paper is a theory paper (no measured tables), so each table here
validates one of its quantitative claims: the function returns a pandas
DataFrame whose rows place the paper's predicted quantity (bound
formula evaluated at the experiment's parameters) next to the measured
value. ``jobs/run_table.py N`` prints these; ``benchmarks/bench_tables.py``
times them; EXPERIMENTS.md records representative output.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import space, synth_data
from repro.commlb import augmented_matrix_row_index as amri
from repro.commlb import bit_vector_learning as bvl
from repro.commlb import set_disjointness as disj
from repro.core.exact_baseline import ExactND
from repro.core.insertion_deletion import InsertionDeletionND
from repro.core.insertion_only import InsertionOnlyND
from repro.core.l0_sampler import L0SamplerBank
from repro.core.misra_gries import MisraGries
from repro.core.star_detection import StarDetection, double_cover
from repro.streamsim.runner import run_stream, run_stream_pandas
from repro.streamsim.stream import FinalGraph, log_to_stream, stream_from_pandas


# ---------------------------------------------------------------------- #
# Table 1 — insertion-only space & approximation vs c (Theorem 3.2)
# ---------------------------------------------------------------------- #

def table1(
    spark: SparkSession,
    n: int = 4096,
    d: int = 256,
    cs: tuple[int, ...] = (2, 3, 4, 6, 8),
    avg_deg: float = 8.0,
    seed: int = 0,
    batch_size: int = 65536,
) -> pd.DataFrame:
    pdf, _ = synth_data.planted_star_pandas(
        n=n, m=4 * n, d=d, avg_deg=avg_deg, order="random", seed=seed
    )
    df, graph = stream_from_pandas(spark, pdf), FinalGraph(pdf)
    rows = []
    for c in cs:
        proc = run_stream(InsertionOnlyND(n, d, c, seed=seed + c), df, batch_size)
        res = proc.result()
        out_size = len(res[1]) if res else 0
        # Theorem 3.2 bounds the peak: the degree array, then per run its
        # members (the reservoir never shrinks) and its peak witnesses.
        peak = n + sum(len(r.reservoir) + r.peak_collected + 2 for r in proc.runs)
        rows.append(
            {
                "c": c,
                "success": proc.succeeded(),
                "out_size": out_size,
                "required_d_over_c": max(1, d // c),
                "valid_output": graph.valid(res, proc.d_c),
                "measured_words": peak,
                "paper_bound_words": space.thm32_words(n, d, c),
                "exact_baseline_words": space.exact_words(n, d),
            }
        )
    out = pd.DataFrame(rows)
    out["saving_vs_exact"] = out["exact_baseline_words"] / out["measured_words"]
    return out


# ---------------------------------------------------------------------- #
# Table 2 — success probability (Lemma 3.1 / Theorem 3.2: >= 1 - 1/n)
# ---------------------------------------------------------------------- #

def table2(
    spark: SparkSession,
    n: int = 1024,
    d: int = 128,
    c: int = 4,
    trials: int = 20,
    orderings: tuple[str, ...] = ("random", "heavy_last", "heavy_first", "by_vertex"),
    profiles: tuple[str, ...] = ("uniform", "zipf"),
    seed: int = 0,
) -> pd.DataFrame:
    """``valid_output`` counts the trials whose output holds in the final
    graph (:meth:`FinalGraph.valid`); a failed trial counts as valid."""
    rows = []
    for order in orderings:
        for profile in profiles:
            ok = valid = 0
            sizes = []
            for t in range(trials):
                pdf, info = synth_data.planted_star_pandas(
                    n=n,
                    m=4 * n,
                    d=d,
                    avg_deg=6.0,
                    profile=profile,
                    order=order,
                    seed=seed + 7919 * t,
                )
                proc = run_stream_pandas(
                    InsertionOnlyND(n, d, c, seed=seed + t), pdf
                )
                res = proc.result()
                if res is not None:
                    ok += 1
                    sizes.append(len(res[1]))
                valid += FinalGraph(pdf).valid(res, proc.d_c)
            rows.append(
                {
                    "ordering": order,
                    "profile": profile,
                    "trials": trials,
                    "success_rate": ok / trials,
                    "paper_bound": 1 - 1 / n,
                    "mean_out_size": float(np.mean(sizes)) if sizes else 0.0,
                    "required": max(1, d // c),
                    "valid_output": valid,
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 3 — insertion-deletion space & strategies vs c (Theorem 5.4)
# ---------------------------------------------------------------------- #

def table3(
    spark: SparkSession,
    n: int = 256,
    m: int = 512,
    d: int = 32,
    cs: tuple[int, ...] = (2, 4, 8, 16, 32),
    scenarios: tuple[str, ...] = ("one_heavy", "many_heavy"),
    seed: int = 0,
) -> pd.DataFrame:
    rows = []
    for scen in scenarios:
        n_heavy = 1 if scen == "one_heavy" else max(2, n // 16)
        pdf, info = synth_data.turnstile_star_pandas(
            n=n, m=m, d=d, n_heavy=n_heavy, avg_deg=3.0, churn=0.5, seed=seed
        )
        graph = FinalGraph(pdf)
        for c in cs:
            proc = run_stream_pandas(
                InsertionDeletionND(n, m, d, c, seed=seed + c), pdf
            )
            res = proc.result()
            # attribute success to the strategy whose bank recovered it
            vertex_ok = any(
                len(s) >= proc.d_c for s in proc.vertex_neighborhoods().values()
            )
            rows.append(
                {
                    "scenario": scen,
                    "c": c,
                    "regime": "c<=sqrt(n)" if c <= math.sqrt(n) else "c>sqrt(n)",
                    "success": res is not None,
                    "out_size": len(res[1]) if res else 0,
                    "required_d_over_c": proc.d_c,
                    "valid_output": graph.valid(res, proc.d_c),
                    "vertex_strategy_ok": bool(vertex_ok),
                    "measured_words": proc.space_words(),
                    "paper_bound_words": round(space.thm54_words(n, d, c)),
                    "ins_only_bound_words": space.thm32_words(n, d, c),
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 4 — k-sample l0 sketch quality
# ---------------------------------------------------------------------- #

def table4(
    spark: SparkSession,
    dims: tuple[int, ...] = (1 << 10, 1 << 14, 1 << 17),
    support: int = 256,
    ks: tuple[int, ...] = (8, 64, 512),
    trials: int = 200,
    churn: float = 1.0,
    seed: int = 0,
) -> pd.DataFrame:
    """Per ``(dim, k)``, over ``trials`` seeded sketches of one vector
    (``support`` live coordinates plus ``churn * support`` inserted and
    then deleted): the distinct yield against ``min(k, support)``, the
    recoveries of deleted coordinates, and the total-variation distance
    of the live coordinates' inclusion frequencies from uniform, next to
    that of an exact uniform ``min(k, support)``-subset drawn as often."""
    rows = []
    for dim in dims:
        g = np.random.default_rng(seed + dim)
        alive = g.choice(dim, size=support, replace=False)
        dead = g.choice(np.setdiff1d(np.arange(dim), alive), size=int(support * churn),
                        replace=False)
        for k in ks:
            want = min(k, support)
            yields, deleted, outside = [], 0, 0
            hits = np.zeros(support)
            ideal = np.zeros(support)
            for t in range(trials):
                bank = L0SamplerBank(k, dim, seed=seed + t)
                bank.update(np.concatenate([alive, dead]), 1)
                bank.update(dead, -1)
                rec = bank.sample_all()
                ok = rec[rec >= 0]
                yields.append(len(np.unique(ok)))
                deleted += int(np.isin(ok, dead).sum())
                outside += int((~np.isin(ok, alive)).sum())
                hits += np.isin(alive, ok)
                ideal[g.choice(support, size=want, replace=False)] += 1
            rows.append(
                {
                    "dim": dim,
                    "support": support,
                    "k": k,
                    "trials": trials,
                    "yield_target": want,
                    "yield_min": int(np.min(yields)),
                    "yield_median": float(np.median(yields)),
                    "deleted_recovered": deleted,
                    "outside_support": outside,
                    "tv_from_uniform": float(np.abs(hits / hits.sum() - 1 / support).sum() / 2)
                    if hits.sum() else 1.0,
                    "tv_exact_sampler": float(np.abs(ideal / ideal.sum() - 1 / support).sum() / 2),
                    "levels": bank.L,
                    "words": bank.space_words(),
                    # k independent one-sample l0 samplers, as this
                    # table measured before: 3 cells per level and 4 keys
                    "k_samplers_words": k * (3 * (math.ceil(math.log2(dim)) + 2) + 4),
                }
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 5 — lower-bound reductions, run constructively
# ---------------------------------------------------------------------- #

def table5(
    spark: SparkSession,
    bvl_params: tuple[tuple[int, int, int, int], ...] = (
        # (p, n, k, c)
        (3, 256, 16, 2),
        (4, 512, 16, 3),
        (5, 625, 16, 4),
    ),
    disj_params: tuple[tuple[int, int, int], ...] = ((3, 128, 4), (4, 128, 6)),
    amri_params: tuple[tuple[int, int, int], ...] = ((24, 16, 2),),
    seed: int = 0,
) -> pd.DataFrame:
    rows = []
    for p, n, k, c in bvl_params:
        inst = bvl.make_instance(p, n, k, seed=seed)
        out = bvl.solve_with_algorithm(inst, c=c, seed=seed)
        lb_bits = space.thm48_lb_words(n, d=k * p, c=c, p=p)
        rows.append(
            {
                "problem": "bit-vector-learning",
                "params": f"p={p},n={n},k={k},c={c}",
                "solved": out["success"],
                "detail": f"bits={out['bits_correct']}/{out['bits_required']}",
                "measured_msg_bytes": out["max_msg_bytes"],
                "lb_formula_words": round(lb_bits),
            }
        )
    for p, n, k in disj_params:
        for intersecting in (False, True):
            inst = disj.make_instance(
                p, n, set_size=8, intersecting=intersecting, seed=seed
            )
            out = disj.solve_with_algorithm(inst, k=k, c=p - 1, seed=seed)
            rows.append(
                {
                    "problem": "set-disjointness",
                    "params": f"p={p},n={n},k={k},int={intersecting}",
                    "solved": out["correct"],
                    "detail": f"max_nbhd={out['max_neighborhood']}",
                    "measured_msg_bytes": out["max_msg_bytes"],
                    "lb_formula_words": round(n / p**2),
                }
            )
    for n, d, c in amri_params:
        inst = amri.make_instance(n, 2 * d, max(1, d // c - 1), seed=seed)
        out = amri.solve_with_algorithm(inst, c=c, seed=seed)
        rows.append(
            {
                "problem": "augmented-matrix-row-index",
                "params": f"n={n},d={d},c={c}",
                "solved": out["correct"],
                "detail": f"ones={out['ones_learned']},zeros={out['zeros_learned']}",
                "measured_msg_bytes": out["message_bytes"],
                "lb_formula_words": round(space.thm64_lb_words(n, d, c)),
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 6 — Star Detection (Corollaries 3.3 and 5.5)
# ---------------------------------------------------------------------- #

def table6(
    spark: SparkSession,
    ns: tuple[int, ...] = (512, 2048),
    seed: int = 0,
) -> pd.DataFrame:
    """``valid_output``: every leaf of the reported star is a neighbour of
    its centre in the final graph (checked on its double cover)."""
    rows = []
    for n in ns:
        pdf, info = synth_data.general_graph_pandas(
            n=n, avg_deg=4.0, planted_deg=n // 8, seed=seed
        )
        sd = StarDetection(n, eps=1.0, seed=seed, model="insertion_only")
        run_stream_pandas(sd, pdf)
        res = sd.result()
        found = len(res[1]) if res else 0
        rows.append(
            {
                "model": "insertion_only",
                "n": n,
                "true_delta": info["delta"],
                "found_star": found,
                "valid_output": FinalGraph(double_cover(pdf)).valid(res, 1),
                "approx_ratio": info["delta"] / max(found, 1),
                "paper_guarantee": (1 + sd.eps) * sd.c,
                "measured_words": sd.space_words(),
                "semi_streaming_budget": round(n * math.log(n) ** 2),
            }
        )
    # turnstile variant at small n (Corollary 5.5)
    n = 128
    pdf, info = synth_data.general_graph_pandas(
        n=n, avg_deg=3.0, planted_deg=n // 4, seed=seed
    )
    sd = StarDetection(n, c=4, eps=1.0, seed=seed, model="turnstile")
    run_stream_pandas(sd, pdf)
    res = sd.result()
    found = len(res[1]) if res else 0
    rows.append(
        {
            "model": "turnstile",
            "n": n,
            "true_delta": info["delta"],
            "found_star": found,
            "valid_output": FinalGraph(double_cover(pdf)).valid(res, 1),
            "approx_ratio": info["delta"] / max(found, 1),
            "paper_guarantee": 2 * 4.0,
            "measured_words": sd.space_words(),
            "semi_streaming_budget": round(n**1.5 * math.log(n)),
        }
    )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------- #
# Table 7 — witness applications (frequent elements with witnesses)
# ---------------------------------------------------------------------- #

def table7(
    spark: SparkSession,
    n_events: int = 100_000,
    attack_frac: float = 0.05,
    cs: tuple[int, ...] = (2, 4),
    seed: int = 0,
) -> pd.DataFrame:
    from repro.apps import db_hotkeys, dos_detection

    rows = []
    n_dst = 2000
    log_df, info = synth_data.router_log(
        spark, n_events=n_events, n_dst=n_dst, attack_frac=attack_frac, seed=seed
    )
    log_df = log_df.cache()
    d = int(n_events * attack_frac)
    stream_pdf = log_to_stream(log_df, "dst", "ts").toPandas()
    graph = FinalGraph(stream_pdf)
    for c in cs:
        res, proc = dos_detection.detect_dos(log_df, n_dst, d, c, seed=seed)
        rows.append(
            {
                "app": "dos",
                "method": f"neighborhood-detection c={c}",
                "target_found": res is not None and res[0] == info["target"],
                "witnesses": len(res[1]) if res else 0,
                "witness_guarantee": max(1, d // c),
                "witnesses_valid": res is not None and graph.valid(res, d // c),
                "space_words": proc.space_words(),
            }
        )
    # witness-augmented Misra-Gries baseline: item found, witnesses best-effort
    mg = MisraGries(k=64, w=max(1, d // 2))
    run_stream_pandas(mg, stream_pdf)
    mg_wit = mg.neighborhood(info["target"])
    rows.append(
        {
            "app": "dos",
            "method": "misra-gries+witnesses k=64",
            "target_found": info["target"] in mg.heavy_hitters(d),
            "witnesses": len(mg_wit & info["attack_ts"]),
            "witness_guarantee": 0,
            "witnesses_valid": mg_wit <= info["attack_ts"],
            "space_words": mg.space_words(),
        }
    )
    exact = run_stream_pandas(ExactND(n_dst, d), stream_pdf)
    res = exact.result()
    rows.append(
        {
            "app": "dos",
            "method": "exact O(nd) baseline",
            "target_found": res[0] == info["target"],
            "witnesses": len(exact.neighborhood(info["target"]) & info["attack_ts"]),
            "witness_guarantee": d,
            "witnesses_valid": graph.valid(res, d),
            "space_words": exact.space_words(),
        }
    )
    log_df.unpersist()
    # adversarial early-burst attack: all attack events early, then a
    # distinct-destination flood. Element-wise Misra-Gries (fine batches)
    # evicts the target mid-stream and loses its witnesses; Algorithm 2's
    # d/c witness guarantee is oblivious to stream order.
    bl_df, bl_info = synth_data.router_log(
        spark,
        n_events=n_events,
        n_dst=n_dst,
        attack_frac=0.01,
        attack_pattern="early_burst",
        seed=seed + 1,
    )
    bl_df = bl_df.cache()
    d_b = int(n_events * 0.01)
    bl_stream = log_to_stream(bl_df, "dst", "ts").toPandas()
    res, proc = dos_detection.detect_dos(bl_df, n_dst, d_b, 2, seed=seed)
    rows.append(
        {
            "app": "dos-early-burst",
            "method": "neighborhood-detection c=2",
            "target_found": res is not None and res[0] == bl_info["target"],
            "witnesses": len(res[1] & bl_info["attack_ts"]) if res else 0,
            "witness_guarantee": max(1, d_b // 2),
            "witnesses_valid": res is not None
            and FinalGraph(bl_stream).valid(res, d_b // 2),
            "space_words": proc.space_words(),
        }
    )
    mg_b = MisraGries(k=16, w=max(1, d_b // 2))
    run_stream_pandas(mg_b, bl_stream, batch_size=64)  # ~element-wise MG
    mgb_wit = mg_b.neighborhood(bl_info["target"])
    rows.append(
        {
            "app": "dos-early-burst",
            "method": "misra-gries+witnesses k=16",
            "target_found": bl_info["target"] in mg_b.deg,
            "witnesses": len(mgb_wit & bl_info["attack_ts"]),
            "witness_guarantee": 0,
            "witnesses_valid": mgb_wit <= bl_info["attack_ts"],
            "space_words": mg_b.space_words(),
        }
    )
    bl_df.unpersist()
    # database hot-keys application
    n_keys = 5000
    db_df, db_info = synth_data.db_update_log(
        spark, n_events=n_events // 2, n_keys=n_keys, seed=seed
    )
    db_df = db_df.cache()
    d_db = int((n_events // 2) * 0.03)
    res, proc = db_hotkeys.detect_hot_keys(db_df, n_keys, d_db, c=2, seed=seed)
    # the guarantee is on witness *transactions* (edges); users dedup
    db_stream = log_to_stream(db_df, "key", "txn").toPandas()
    rows.append(
        {
            "app": "db-hotkeys",
            "method": "neighborhood-detection c=2",
            "target_found": res is not None and res[0] in db_info["hot_keys"],
            "witnesses": len(res[1]) if res else 0,
            "witness_guarantee": max(1, d_db // 2),
            "witnesses_valid": res is not None
            and FinalGraph(db_stream).valid(res, d_db // 2),
            "space_words": proc.space_words(),
        }
    )
    db_df.unpersist()
    return pd.DataFrame(rows)
