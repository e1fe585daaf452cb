"""Layered benchmark for the Neighborhood Detection pipeline.

Run from the root of the repository:

    python3 perfbench/run.py --workload ins-fine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

One run sets the workload up (Spark start, input generation and lifting,
untimed warm-up passes), then runs closed-loop timed passes for
``--seconds`` seconds, checking every pass's outputs. With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it runs an
untraced window and then a traced one of the same length and reports
per-layer metrics, writing the span records to ``.perfbench_out/``.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # input builds per run; set-up reports their median
# Untimed warm-up passes run until this many seconds have passed (at
# least one pass): one pass in a fresh JVM does not reach steady state.
WARMUP_S = 6.0
SPARK_DRIVER_MEMORY = "2g"


# ---------------------------------------------------------------------- #
# Environment
# ---------------------------------------------------------------------- #

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_env(work: Path, token: str) -> None:
    """Keep Spark, the JVM and Python workers inside ``work`` and let the
    workers import ``repro`` from this checkout's ``src``."""
    for sub in ("tmp", "spark-local", "warehouse"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work / 'tmp'}"
    # Marks every process this run starts, so stop_processes can find
    # the Spark workers the JVM forked.
    os.environ["PERFBENCH_RUN"] = token


def start_spark(work: Path):
    """The session ``jobs/_common.get_spark`` builds, on ``local[nproc]``."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{nproc()}]")
        .appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.memory", SPARK_DRIVER_MEMORY)
        .config("spark.local.dir", str(work / "spark-local"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _marked_pids(token: str) -> list[int]:
    mark = f"PERFBENCH_RUN={token}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as f:
                if mark in f.read().split(b"\0"):
                    pids.append(int(entry))
        except OSError:
            continue
    return pids


def stop_processes(token: str, timeout: float = 30.0) -> None:
    """Wait for every process this run started (Spark's Python workers
    outlive the JVM by a moment); kill what is left after ``timeout``."""
    deadline = time.monotonic() + timeout
    while (pids := _marked_pids(token)) and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in pids:
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    while _marked_pids(token) and time.monotonic() < deadline + 10:
        time.sleep(0.2)


def reset_peak_rss() -> None:
    """Reset this process's peak RSS (VmHWM) so the timed phase's peak shows.

    Where the kernel refuses, the peak covers the whole process instead.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError as e:
        print(f"peak RSS not reset ({e}); driver_peak_rss_mb covers set-up too",
              file=sys.stderr)


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #

def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed-loop passes for ``seconds`` seconds (at least one pass).

    Each pass is verified after its timing stops; a pass that raises or
    fails verification counts as failed.
    """
    passes, laps, peaks, failed = [], [], [], 0
    outs = []
    if tracer is None:
        reset_peak_rss()
    end = perf_counter() + seconds
    while not passes or perf_counter() < end:
        if tracer is not None:
            tracer.active = True
        t = perf_counter()
        out = None
        try:
            out = wl.run_pass()
        except Exception:  # a failed pass is counted, not fatal
            traceback.print_exc()
        passes.append(perf_counter() - t)
        if tracer is not None:
            tracer.active = False
        try:
            errors = wl.verify(out) if out is not None else ["run_pass raised"]
        except Exception:
            traceback.print_exc()
            errors = ["verify raised"]
        if errors:
            failed += 1
            print("pass failed: " + "; ".join(errors), file=sys.stderr)
            continue
        laps.extend(out["laps"])
        peaks.append(out["peak_words"])
        outs.append(out)
    return {
        "passes": passes,
        "laps": laps,
        "peak_words": max(peaks) if peaks else 0,
        "failed": failed,
        "rss_mb": peak_rss_mb(),
        "outs": outs,
    }


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolated percentile, 0 for no samples."""
    return float(np.percentile(xs, 100 * q)) if xs else 0.0


def setup(wl, spark_start_s: float) -> dict:
    """Build the inputs SETUP_REPEATS times (median per step), then warm
    up. ``setup_s`` is the Spark start plus these steps."""
    builds = [wl.build() for _ in range(SETUP_REPEATS)]
    steps = {k: statistics.median(b.get(k, 0.0) for b in builds)
             for k in ("gen_s", "lift_s", "files_s")}
    wl.oracle()
    t = perf_counter()
    while perf_counter() - t < WARMUP_S:
        out = wl.run_pass()
        errors = wl.verify(out)
        if errors:
            print("warm-up verification failed: " + "; ".join(errors), file=sys.stderr)
    warmup_s = perf_counter() - t
    steps = {"spark_start_s": spark_start_s, **steps, "warmup_s": warmup_s}
    steps["setup_s"] = sum(steps.values())
    return steps


def end_to_end(wl, m: dict, st: dict) -> dict:
    return {
        "edges_per_s": wl.edges / statistics.median(m["passes"]),
        "batch_ms_p50": 1000 * percentile(m["laps"], 0.50),
        "batch_ms_p90": 1000 * percentile(m["laps"], 0.90),
        "peak_space_words": float(m["peak_words"]),
        "driver_peak_rss_mb": m["rss_mb"],
        "setup_s": st["setup_s"],
    }


def per_layer(wl, tracer, traced: dict, untraced: dict, st: dict) -> dict:
    """Per-layer metrics from the traced window, per timed pass."""
    k = len(traced["passes"])
    tot = lambda name, parent=None: tracer.total(name, parent) / k  # noqa: E731
    calls = lambda name: len(tracer.named(name)) / k  # noqa: E731
    selfs = tracer.self_times()
    last = traced["outs"][-1] if traced["outs"] else {}
    v = {f"setup.{s}": st[s] for s in ("spark_start_s", "gen_s", "lift_s", "files_s", "warmup_s")}

    firsts = [sp for sp in tracer.named("stream.next")
              if sp["parent"] is not None
              and tracer.spans[sp["parent"]]["name"] == "runner.run_stream"
              and sp["id"] == sp["parent"] + 1]
    v["stream.first_batch_s"] = sum(s["end"] - s["start"] for s in firsts) / k
    v["stream.collect_s"] = tot("stream.next")
    v["stream.topandas_s"] = tot("spark.toPandas", "stream.next")
    v["stream.rows"] = sum(s["attrs"]["rows"] for s in tracer.named("stream.next")) / k
    v["runner.self_s"] = (selfs.get("runner.run_stream", 0.0)
                          + selfs.get("runner.run_stream_pandas", 0.0)) / k
    v["runner.batches"] = calls("alg2.process_batch") + calls("alg3.process_batch")

    v["alg2.process_batch_self_s"] = selfs.get("alg2.process_batch", 0.0) / k
    v["alg1.ingest_s"] = tot("alg1.ingest")
    v["alg1.ingest_calls"] = calls("alg1.ingest")
    runs = getattr(last.get("proc"), "runs", [])
    v["alg1.candidates"] = sum(r.x for r in runs)
    v["alg1.members"] = sum(len(r.reservoir) for r in runs)
    v["alg1.collected_edges"] = sum(len(b) for r in runs for b in r.collected.values())
    v["alg1.full_neighborhoods"] = sum(
        sum(len(b) >= r.d2 for b in r.collected.values()) for r in runs)

    v["alg2dist.total_s"] = tot("alg2dist.run_distributed")
    v["alg2dist.spark_s"] = tot("spark.toPandas", "alg2dist.run_distributed")
    v["alg2dist.merge_s"] = v["alg2dist.total_s"] - v["alg2dist.spark_s"]
    v["alg2dist.rows_out"] = sum(
        s["attrs"]["rows"] for s in tracer.named("spark.toPandas", "alg2dist.run_distributed")) / k
    v["alg2dist.space_words"] = last["dist"]["space_words"] if "dist" in last else 0

    v["alg3.process_batch_self_s"] = selfs.get("alg3.process_batch", 0.0) / k
    v["alg3.result_s"] = tot("alg3.result")
    proc = last.get("proc")
    v["alg3.samplers"] = (proc.vertex_bank.num + proc.edge_bank.num
                          if hasattr(proc, "edge_bank") else 0)

    v["l0.update_s"] = tot("l0.update")
    v["l0.update_calls"] = calls("l0.update")
    v["l0.cells"] = sum(s["attrs"]["cells"] for s in tracer.named("l0.update")) / k
    v["l0.cells_per_s"] = v["l0.cells"] / v["l0.update_s"] if v["l0.update_s"] else 0.0
    v["l0.sample_all_s"] = tot("l0.sample_all")
    m = wl.size.get("m")
    for kind, dim in (("vertex", m), ("edge", m and wl.size["n"] * m)):
        recs = [s["attrs"] for s in tracer.named("l0.sample_all") if s["attrs"]["dim"] == dim]
        num = sum(r["num"] for r in recs)
        v[f"l0.recovered_frac.{kind}"] = sum(r["hit"] for r in recs) / num if num else 0.0
    v["l0.sketch_spark_s"] = tot("spark.collect", "l0.sketch_stream_spark")
    v["l0.merge_s"] = tot("l0.merge")
    v["l0.blob_bytes"] = sum(
        s["attrs"]["blob_bytes"] for s in tracer.named("spark.collect", "l0.sketch_stream_spark")) / k

    trig = [t for o in traced["outs"] for t in o.get("triggers", [])]
    log = getattr(wl, "progress", None)
    first = next(iter(log.triggers.values()), [{}])[0] if log and log.triggers else {}
    v["ss.triggers"] = len(trig) / k
    v["ss.first_trigger_ms"] = first.get("trigger_ms", 0.0)
    v["ss.trigger_ms_p50"] = percentile([t["trigger_ms"] for t in trig], 0.5)
    v["ss.add_batch_ms_p50"] = percentile([t["add_batch_ms"] for t in trig], 0.5)
    for key in ("state_rows", "state_mem_bytes", "state_partitions"):
        v[f"ss.{key}"] = trig[-1][key] if trig else 0
    v["ss.final_state_s"] = tot("ss.final_state")

    v["trace.wall_s"] = sum(traced["passes"]) / k
    v["trace.self_sum_s"] = sum(selfs.values()) / k
    v["trace.edges_per_s"] = wl.edges / statistics.median(traced["passes"])
    untraced_eps = wl.edges / statistics.median(untraced["passes"])
    v["trace.overhead_frac"] = 1 - v["trace.edges_per_s"] / untraced_eps
    return {name: float(x) for name, x in v.items()}


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #

def run(args) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no src/repro under {ROOT}; run from a full checkout")
    token = uuid.uuid4().hex
    work = OUT_DIR / f"work-{os.getpid()}"
    prepare_env(work, token)
    spark = None
    try:
        import pandas as pd

        import tracing
        import workloads

        cls = workloads.WORKLOADS[args.workload]
        size = workloads.SIZES["tiny" if args.tiny else "full"][args.workload]
        t = perf_counter()
        if cls.uses_spark:
            spark = start_spark(work)
        spark_start_s = perf_counter() - t
        wl = cls(args.seed, size, spark, str(work))
        st = setup(wl, spark_start_s)

        untraced = measure(wl, args.seconds)
        spans = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced = measure(wl, args.seconds, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(wl, tracer, traced, untraced, st)
            spans = tracer.spans
            attempted = len(untraced["passes"]) + len(traced["passes"])
            failed = untraced["failed"] + traced["failed"]
        else:
            metrics = end_to_end(wl, untraced, st)
            attempted, failed = len(untraced["passes"]), untraced["failed"]

        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": size, "git_commit": git_commit(),
            "nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "pandas": pd.__version__,
            "edges_per_pass": wl.edges, "passes": len(untraced["passes"]),
            "pass_s": untraced["passes"],
            "batch_samples": len(untraced["laps"]),
            "failed_frac": failed / attempted,
        }
        if spark is not None:
            sc = spark.sparkContext
            meta.update({
                "spark": spark.version, "master": sc.master,
                "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
                "default_parallelism": sc.defaultParallelism,
            })
        # BENCHMARK.json names the metrics each mode reports, with units.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        named = spec["per_layer" if args.trace else "end_to_end"]
        return {
            "meta": meta,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in named},
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "batch_s": untraced["laps"],
            "spans": spans,
        }
    finally:
        if spark is not None:
            stop_spark(spark)
        stop_processes(token)
        shutil.rmtree(work, ignore_errors=True)


def report(res: dict) -> None:
    meta = res["meta"]
    print(f"# perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    samples = {"batch_ms_p50": meta["batch_samples"], "batch_ms_p90": meta["batch_samples"],
               "edges_per_s": meta["passes"]}
    for name, m in res["metrics"].items():
        n = samples.get(name)
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']:8s}" + (f" n={n}" if n else ""))
    print(f"{'failed_frac':28s} {meta['failed_frac']:>16.6g} runs     "
          f"({res['failed']}/{res['attempted']} passes failed)")
    print(f"verification: {'ok' if res['correct'] else 'FAILED'}")
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    with open(OUT_DIR / name, "w") as f:
        json.dump({k: res[k] for k in ("meta", "metrics", "correct", "attempted", "failed", "batch_s", "spans")}, f)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


# ---------------------------------------------------------------------- #
# Smoke mode
# ---------------------------------------------------------------------- #

def smoke() -> int:
    """Every workload once at tiny sizes, untraced and traced; check that
    each run exits cleanly, passes verification and emits every metric
    BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = p.stdout.strip().splitlines()
            label = f"{w['name']} trace={trace}"
            if p.returncode != 0 or not lines:
                problems.append(f"{label}: exit {p.returncode}\n{p.stderr[-2000:]}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                problems.append(f"{label}: outputs failed verification")
            missing = {m["name"] for m in spec[key]} - set(res["metrics"])
            if missing:
                problems.append(f"{label}: metrics missing: {sorted(missing)}")
            print(f"smoke {label}: {len(res['metrics'])} metrics, correct={res['correct']}")
    for p in problems:
        print("SMOKE FAILURE: " + p, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["ins-spark", "ins-fine", "turnstile", "witness-stream"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at tiny sizes and check the output")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    report(run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
