"""Algorithm 2: one-pass c-approximation for insertion-only streams (§3.2).

Runs ``Deg-Res-Sampling(max(1, i*d/c), d/c, s)`` for ``i = 0..c-1`` in
parallel over one shared degree array, with ``s = ceil(n^{1/c} ln n)``
(Theorem 3.2). If the input contains an A-vertex of degree ``>= d``, at
least one run finds a neighborhood of size ``d/c`` w.p. ``>= 1 - 1/n``.

Two execution modes, one reservoir (:class:`DegResSampling`, a bottom-k
sample under per-vertex hash priorities):

- :class:`InsertionOnlyND` — the sequential processor
  (``repro.streamsim.runner.StreamProcessor``). Per micro-batch it finds
  each run's candidate rows from the shared degrees and every row's
  rank among its vertex's rows
  (:func:`repro.core.collect.running_rank`), then lets each run ingest
  the batch.
- :func:`run_distributed` — a Spark variant: one hash ``repartition``
  on the A-vertex, so each partition sees all of a vertex's edges and
  its degrees are exact. Each partition (``mapInPandas``) runs
  :class:`InsertionOnlyND` over its edges as one batch and ships it
  pickled; the driver joins them with :meth:`InsertionOnlyND.merge`. A
  vertex in the global bottom-``s`` is in its partition's bottom-``s``
  from its candidate edge on, and collects the same edges there, so for
  the same seed the merged processor is the sequential one.
"""
from __future__ import annotations

import pickle
from typing import Iterator, Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.collect import running_rank
from repro.core.deg_res_sampling import DegResSampling
from repro.space import reservoir_size
from repro.streamsim import worker
from repro.streamsim.stream import check_batch, in_stream_order


def run_thresholds(d: int, c: int) -> list[int]:
    """The ``c`` candidate thresholds ``max(1, i*d/c)``, ``i=0..c-1``."""
    return [max(1, (i * d) // c) for i in range(c)]


class InsertionOnlyND:
    """Sequential Algorithm 2 (one shared degree array across runs)."""

    def __init__(
        self, n: int, d: int, c: int, seed: int = 0, s: int | None = None
    ) -> None:
        if c < 1:
            raise ValueError("c must be >= 1")
        self.n, self.d, self.c, self.seed = n, d, c, seed
        self.d_c = max(1, d // c)
        self.s = reservoir_size(n, c) if s is None else s
        # 32-bit counters (a degree stays below 2^31): the degree array
        # is the largest part of the processor's memory.
        self.deg = np.zeros(n, dtype=np.int32)
        self.runs = [
            DegResSampling(
                n, d1, self.d_c, self.s, seed=seed * 1000 + i, shared_degrees=self.deg
            )
            for i, d1 in enumerate(run_thresholds(d, c))
        ]
        self.rng = np.random.default_rng(seed)

    def process_batch(self, batch: pd.DataFrame) -> None:
        a, b, _ = check_batch(batch, self.n, insertion_only=True)
        new_deg = self.deg[a] + running_rank(a) + 1
        for run in self.runs:
            run.ingest(a, b, np.flatnonzero(new_deg == run.d1))
        # Distinct vertices plus counts: a third of np.add.at's time on a
        # 1,024-edge batch.
        v, k = np.unique(a, return_counts=True)
        self.deg[v] += k

    def result(self) -> Optional[tuple[int, set[int]]]:
        """Uniform random neighborhood among the successful runs'."""
        winners = [r for r in self.runs if r.succeeded()]
        if not winners:
            return None
        return winners[int(self.rng.integers(len(winners)))].result()

    def succeeded(self) -> bool:
        return any(r.succeeded() for r in self.runs)

    def neighborhoods(self) -> dict[int, set[int]]:
        """Per vertex, the largest witness set any run collected."""
        out: dict[int, set[int]] = {}
        for r in self.runs:
            for v, ws in r.collected.items():
                bs = set(ws)
                if len(bs) > len(out.get(v, ())):
                    out[v] = bs
        return out

    def space_words(self) -> int:
        return self.n + sum(r.space_words() for r in self.runs)

    def merge(self, other: "InsertionOnlyND") -> "InsertionOnlyND":
        """Join a processor over a vertex-disjoint substream, in place (see
        :meth:`DegResSampling.merge`; run 0 refuses a shared vertex first)."""
        if (self.n, self.d, self.c, self.s, self.seed) != (
                other.n, other.d, other.c, other.s, other.seed):
            raise ValueError("cannot merge processors with different parameters")
        for mine, theirs in zip(self.runs, other.runs):
            mine.merge(theirs)
        self.deg += other.deg
        return self


# ---------------------------------------------------------------------- #
# Distributed variant
# ---------------------------------------------------------------------- #

def _partition_pass(
    pdf: pd.DataFrame, n: int, d: int, c: int, s: int, seed: int
) -> pd.DataFrame:
    """Sequential Algorithm 2 over one partition (runs inside Spark).

    The partition is one batch: every edge of a vertex lands in it, so
    its degrees are exact. Emits one row holding the pickled processor.
    """
    proc = InsertionOnlyND(n, d, c, seed=seed, s=s)
    proc.process_batch(in_stream_order(pdf))
    return pd.DataFrame({"blob": [pickle.dumps(proc)]})


def _map_partition(
    frames: Iterator[pd.DataFrame], n: int, d: int, c: int, s: int, seed: int
) -> Iterator[pd.DataFrame]:
    """``mapInPandas`` body: one :func:`_partition_pass` over the whole
    partition, nothing for an empty one."""
    worker.install()
    frames = list(frames)
    if sum(map(len, frames)):
        yield _partition_pass(pd.concat(frames, ignore_index=True), n, d, c, s, seed)


def run_distributed(
    df: DataFrame,
    n: int,
    d: int,
    c: int,
    seed: int = 0,
    num_partitions: int = 16,
    s: int | None = None,
) -> dict:
    """Distributed Algorithm 2 over a Spark edge stream.

    Returns ``{"result": (a, set_b) | None, "space_words": int, "proc":
    InsertionOnlyND}``: the partitions' processors merged into one, its
    draw and its space. Each partition body installs
    :func:`repro.streamsim.worker.install` in its reused Python worker, so
    later tasks skip PySpark's per-task zip-directory re-reads.
    """
    s = reservoir_size(n, c) if s is None else s
    blobs = (
        df.repartition(num_partitions, "a")
        .mapInPandas(
            lambda frames: _map_partition(frames, n, d, c, s, seed),
            schema="blob binary",
        )
        .toPandas()
    )
    merged = InsertionOnlyND(n, d, c, seed=seed, s=s)
    for blob in blobs["blob"]:
        merged.merge(pickle.loads(blob))
    return {"result": merged.result(), "space_words": merged.space_words(), "proc": merged}
