"""The benchmark's four workloads, their inputs and their output checks.

Every workload is a closed loop: a *pass* feeds one generated stream
through the library's public entry points, and the next pass starts only
after the previous one has returned. ``build`` makes the inputs from the
seed (generation, then lifting into Spark or writing files); ``run_pass``
is the timed phase; ``verify`` checks the pass's outputs against the
stream's final graph, outside the timed phase.

The library is called through module attributes (``runner.run_stream``,
not a name bound at import) so that the traced run's wrappers see the
calls.
"""
from __future__ import annotations

import functools
import os
import shutil
import threading
from time import perf_counter

import numpy as np
import pandas as pd
from pyspark.sql.streaming import StreamingQueryListener

from repro import synth_data
from repro.core import insertion_only, l0_sampler
from repro.core.insertion_deletion import InsertionDeletionND
from repro.core.insertion_only import InsertionOnlyND
from repro.streamsim import runner, stream, structured

# Input sizes. "full" is what the timed and traced runs use; "tiny" is
# the smoke mode's, small enough that every workload runs in seconds.
SIZES = {
    "full": {
        "ins-spark": {"n": 16384, "d": 512},
        "ins-fine": {"n": 32768, "d": 512},
        "turnstile": {"n": 128, "m": 256, "d": 32},
        "witness-stream": {"events": 30000, "items": 2000},
    },
    "tiny": {
        "ins-spark": {"n": 1024, "d": 64},
        "ins-fine": {"n": 1024, "d": 64},
        "turnstile": {"n": 32, "m": 64, "d": 8},
        "witness-stream": {"events": 500, "items": 50},
    },
}


# ---------------------------------------------------------------------- #
# Oracle
# ---------------------------------------------------------------------- #

class FinalGraph:
    """The graph a (possibly turnstile) stream leaves behind: the
    ``(a, b)`` pairs with positive net multiplicity, indexed by ``a``."""

    def __init__(self, pdf: pd.DataFrame) -> None:
        net = pdf.groupby(["a", "b"])["op"].sum()
        alive = net[net > 0].reset_index()
        self._a = alive["a"].to_numpy(np.int64)
        self._b = alive["b"].to_numpy(np.int64)

    def neighbours(self, v: int) -> set[int]:
        lo, hi = np.searchsorted(self._a, [v, v + 1])
        return set(self._b[lo:hi].tolist())


def check_answer(res, graph: FinalGraph, d_c: int, who: str) -> list[str]:
    """A reported neighbourhood is real and has at least ``d_c`` witnesses."""
    if res is None:
        return [f"{who}: no neighbourhood reported"]
    v, bs = res
    errors = []
    bad = set(bs) - graph.neighbours(int(v))
    if bad:
        errors.append(f"{who}: {len(bad)} reported witnesses are not neighbours of {v}")
    if len(set(bs)) < d_c:
        errors.append(f"{who}: {len(set(bs))} distinct witnesses < d/c = {d_c}")
    return errors


def check_succeeded(proc, res, who: str) -> list[str]:
    if proc.succeeded() != (res is not None):
        return [f"{who}: succeeded()={proc.succeeded()} but result() is {res!r:.40}"]
    return []


class BatchClock:
    """StreamProcessor proxy: times each ``process_batch`` and samples
    ``space_words()`` at every micro-batch boundary."""

    def __init__(self, proc) -> None:
        self.proc = proc
        self.laps: list[float] = []
        self.peak_words = proc.space_words()

    def process_batch(self, batch: pd.DataFrame) -> None:
        t = perf_counter()
        self.proc.process_batch(batch)
        self.laps.append(perf_counter() - t)
        self.peak_words = max(self.peak_words, self.proc.space_words())

    def space_words(self) -> int:
        return self.proc.space_words()


def _timed(fn, *args, **kwargs):
    t = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #

class Workload:
    name: str
    uses_spark: bool = True

    def __init__(self, seed: int, size: dict, spark, work_dir: str) -> None:
        self.seed = seed
        self.size = size
        self.spark = spark
        self.work_dir = work_dir
        self.edges = 0  # stream edges (events) one pass feeds through

    def build(self) -> dict[str, float]:
        """Generate and lift the inputs; return the time of each step."""
        raise NotImplementedError

    def oracle(self) -> None:
        """Prepare what ``verify`` compares against (not set-up time)."""

    def run_pass(self) -> dict:
        """The timed phase. Returns at least ``laps`` (seconds per
        micro-batch) and ``peak_words`` (peak space over the stream)."""
        raise NotImplementedError

    def verify(self, out: dict) -> list[str]:
        raise NotImplementedError


class InsFine(Workload):
    """Algorithm 2 (c=2) on an already-collected stream, 1,024-edge batches."""

    name = "ins-fine"
    uses_spark = False
    c = 2
    batch = 1024

    def build(self):
        n, d = self.size["n"], self.size["d"]
        (self.pdf, _), gen_s = _timed(
            synth_data.planted_star_pandas,
            n=n, m=4 * n, d=d, avg_deg=8.0, order="random", seed=self.seed,
        )
        self.edges = len(self.pdf)
        return {"gen_s": gen_s}

    def oracle(self):
        self.graph = FinalGraph(self.pdf)

    def run_pass(self):
        n, d = self.size["n"], self.size["d"]
        clock = BatchClock(InsertionOnlyND(n, d, self.c, seed=self.seed))
        runner.run_stream_pandas(clock, self.pdf, self.batch)
        return {"laps": clock.laps, "peak_words": clock.peak_words,
                "proc": clock.proc, "result": clock.proc.result()}

    def verify(self, out):
        return check_answer(
            out["result"], self.graph, out["proc"].d_c, "sequential"
        ) + check_succeeded(out["proc"], out["result"], "sequential")


class InsSpark(InsFine):
    """Algorithm 2 over a Spark stream, sequential then distributed (c=4)."""

    name = "ins-spark"
    uses_spark = True
    c = 4
    # About 16 micro-batches per pass, the shape of the 65,536-edge
    # batches over a million-edge stream.
    batch = 8192

    def build(self):
        steps = super().build()
        self.df, steps["lift_s"] = _timed(stream.stream_from_pandas, self.spark, self.pdf)
        return steps

    def run_pass(self):
        n, d = self.size["n"], self.size["d"]
        clock = BatchClock(InsertionOnlyND(n, d, self.c, seed=self.seed))
        runner.run_stream(clock, self.df, self.batch)
        res = clock.proc.result()
        dist = insertion_only.run_distributed(
            self.df, n, d, self.c, seed=self.seed,
            num_partitions=self.spark.sparkContext.defaultParallelism,
        )
        return {"laps": clock.laps, "peak_words": clock.peak_words,
                "proc": clock.proc, "result": res, "dist": dist}

    def verify(self, out):
        return super().verify(out) + check_answer(
            out["dist"]["result"], self.graph, out["proc"].d_c, "distributed"
        )


class Turnstile(Workload):
    """Algorithm 3 (c=2) plus the Spark-built edge sketch it must equal."""

    name = "turnstile"
    c = 2
    # About 8 micro-batches per pass, as 256-edge batches over the
    # 2,000-event stream of Table 3's size.
    batch = 96

    def build(self):
        n, m, d = self.size["n"], self.size["m"], self.size["d"]
        (self.pdf, _), gen_s = _timed(
            synth_data.turnstile_star_pandas,
            n=n, m=m, d=d, avg_deg=3.0, churn=0.5, seed=self.seed,
        )
        vec = pd.DataFrame({
            "idx": self.pdf["a"].to_numpy(np.int64) * m + self.pdf["b"].to_numpy(np.int64),
            "op": self.pdf["op"].to_numpy(np.int64),
        })
        self.df, lift_s = _timed(self.spark.createDataFrame, vec)
        self.edges = len(self.pdf)
        return {"gen_s": gen_s, "lift_s": lift_s}

    def oracle(self):
        self.graph = FinalGraph(self.pdf)

    def run_pass(self):
        n, m, d = self.size["n"], self.size["m"], self.size["d"]
        clock = BatchClock(InsertionDeletionND(n, m, d, self.c, seed=self.seed))
        runner.run_stream_pandas(clock, self.pdf, self.batch)
        res = clock.proc.result()
        eb = clock.proc.edge_bank
        # functools.partial pickles by reference to L0SamplerBank, so the
        # workers build banks with the edge bank's (num, dim, seed).
        merged = l0_sampler.sketch_stream_spark(
            self.df, functools.partial(l0_sampler.L0SamplerBank, eb.num, eb.dim, seed=eb.seed)
        )
        return {"laps": clock.laps, "peak_words": clock.peak_words,
                "proc": clock.proc, "result": res, "merged": merged}

    def verify(self, out):
        proc, merged = out["proc"], out["merged"]
        errors = check_answer(out["result"], self.graph, proc.d_c, "alg3")
        errors += check_succeeded(proc, out["result"], "alg3")
        for cell in ("S0", "S1", "S2"):
            if not np.array_equal(getattr(merged, cell), getattr(proc.edge_bank, cell)):
                errors.append(f"sketch: Spark-merged {cell} differs from the sequential bank")
        return errors


class WitnessStream(Workload):
    """The Structured Streaming witness operator over one event file."""

    name = "witness-stream"
    w = 16
    n_files = 1

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.progress = ProgressLog()
        self.spark.streams.addListener(self.progress)
        self._queries = 0

    def build(self):
        n, items = self.size["events"], self.size["items"]

        def gen():
            g = np.random.default_rng(self.seed)
            ids = np.arange(n, dtype=np.int64)
            item = (g.zipf(1.3, n) % items).astype(np.int64)
            return pd.DataFrame({"ts": ids, "item": item, "witness": ids})

        self.events, gen_s = _timed(gen)
        self.in_dir = os.path.join(self.work_dir, "events")
        shutil.rmtree(self.in_dir, ignore_errors=True)
        _, files_s = _timed(structured.write_event_files, self.events, self.in_dir, self.n_files)
        self.edges = n
        return {"gen_s": gen_s, "files_s": files_s}

    def oracle(self):
        ev = self.events.sort_values("ts")
        self.counts = ev.groupby("item").size().to_dict()
        self.first_w = {k: g["witness"].head(self.w).tolist() for k, g in ev.groupby("item")}

    def run_pass(self):
        self._queries += 1
        name = f"perfbench_{os.getpid()}_{self._queries}"
        cp = os.path.join(self.work_dir, f"checkpoint-{self._queries}")
        updates = structured.run_witness_query(self.spark, self.in_dir, cp, name, w=self.w)
        fs = structured.final_state(updates)
        # State only grows (counts and first-w buffers), so the final
        # state is the peak: per item its id, its count and its witnesses.
        words = int(2 * len(fs) + fs["witnesses"].map(len).sum())
        return {"laps": [], "peak_words": words, "final": fs, "name": name}

    def verify(self, out):
        # Trigger times reach the listener asynchronously, so they are
        # collected here, after the timed phase.
        out["triggers"] = self.progress.wait(out["name"])
        out["laps"] = [t["trigger_ms"] / 1000 for t in out["triggers"]]
        fs = out["final"]
        errors = []
        got = dict(zip(fs["item"].astype(int), fs["count"].astype(int)))
        if got != self.counts:
            errors.append("streaming: final counts differ from a pandas groupby")
        for row in fs.itertuples():
            if list(row.witnesses) != self.first_w.get(int(row.item)):
                errors.append(f"streaming: item {row.item} witnesses are not its first {self.w} by ts")
                break
        self.spark.catalog.dropTempView(out["name"])
        return errors


WORKLOADS = {w.name: w for w in (InsSpark, InsFine, Turnstile, WitnessStream)}


# ---------------------------------------------------------------------- #
# Structured Streaming progress
# ---------------------------------------------------------------------- #

class ProgressLog(StreamingQueryListener):
    """Collects every trigger's progress report, by query name."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._names: dict[str, str] = {}
        self._done: set[str] = set()
        self.triggers: dict[str, list[dict]] = {}

    def onQueryStarted(self, event) -> None:
        with self._cond:
            self._names[str(event.runId)] = event.name

    def onQueryProgress(self, event) -> None:
        p = event.progress
        ops = p.stateOperators
        rec = {
            "trigger_ms": float(p.durationMs.get("triggerExecution", 0)),
            "add_batch_ms": float(p.durationMs.get("addBatch", 0)),
            "rows": int(p.numInputRows),
            "state_rows": int(ops[0].numRowsTotal) if ops else 0,
            "state_mem_bytes": int(ops[0].memoryUsedBytes) if ops else 0,
            "state_partitions": int(ops[0].numShufflePartitions) if ops else 0,
        }
        with self._cond:
            self.triggers.setdefault(p.name, []).append(rec)

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        with self._cond:
            self._done.add(str(event.runId))
            self._cond.notify_all()

    def wait(self, name: str, timeout: float = 60.0) -> list[dict]:
        """The triggers of query ``name``, once its termination has arrived
        (listener events are delivered asynchronously)."""
        def done():
            return any(self._names.get(r) == name for r in self._done)

        with self._cond:
            if not self._cond.wait_for(done, timeout):
                raise TimeoutError(f"no termination event for query {name}")
            return [t for t in self.triggers.get(name, []) if t["rows"] > 0]
