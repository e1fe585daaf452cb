"""Span recorder for the traced run.

The benchmark measures each layer from outside the library: while a
:class:`Tracer` is installed it replaces the public functions and
methods listed in :func:`install` with wrappers that record a span
(name, start, end, parent, attributes) around every call made on the
driver thread. Spans stay in memory and are written out when the run
ends. Calls that run inside Spark's Python workers are not seen; they
are timed at the driver call that waits for them (``toPandas``,
``collect``).
"""
from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        self.t0 = perf_counter()
        # Spans are recorded only while active: around timed passes, not
        # around the benchmark's own checks.
        self.active = False

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.active or threading.get_ident() != self._thread:
            yield {"attrs": {}}
            return
        sp = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": perf_counter() - self.t0,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp["end"] = perf_counter() - self.t0
            self._stack.pop()

    # ------------------------------------------------------------------ #

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`uninstall`.

        ``on_result(args, kwargs, result) -> dict`` adds attributes to
        the span after the call returns.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                out = orig(*args, **kwargs)
                if on_result is not None:
                    sp["attrs"].update(on_result(args, kwargs, out))
                return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Span every ``next()`` of the generator ``owner.attr`` returns."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                with self.span(name) as sp:
                    try:
                        item = next(it)
                    except StopIteration:
                        sp["attrs"]["rows"] = 0
                        return
                    sp["attrs"]["rows"] = len(item)
                yield item

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------ #

    def named(self, name: str, parent: str | None = None) -> list[dict]:
        """Spans called ``name``, optionally only those whose parent is ``parent``."""
        return [
            s
            for s in self.spans
            if s["name"] == name
            and (parent is None or (s["parent"] is not None and self.spans[s["parent"]]["name"] == parent))
        ]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name, parent))

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


def _l0_cells(args, kwargs, out) -> dict:
    bank, idx = args[0], args[1]
    rows = kwargs.get("rows", args[3] if len(args) > 3 else None)
    n_rows = bank.num if rows is None else len(range(bank.num)[rows])
    return {"cells": n_rows * int(np.size(idx))}


def _recovered(args, kwargs, out) -> dict:
    return {"dim": int(args[0].dim), "num": int(len(out)), "hit": int((out >= 0).sum())}


def _collected_blobs(args, kwargs, out) -> dict:
    nbytes = sum(len(r["blob"]) for r in out if "blob" in r.__fields__)
    return {"rows": len(out), "blob_bytes": nbytes}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points the workloads reach."""
    from pyspark.sql.classic.dataframe import DataFrame

    from repro.core import insertion_deletion, insertion_only, l0_sampler
    from repro.core.deg_res_sampling import DegResSampling
    from repro.streamsim import runner, structured

    t = tracer
    t.wrap(runner, "run_stream", "runner.run_stream")
    t.wrap(runner, "run_stream_pandas", "runner.run_stream_pandas")
    # runner imports iter_batches by name, so its own binding is the one
    # run_stream calls.
    t.wrap_generator(runner, "iter_batches", "stream.next")
    t.wrap(DataFrame, "toPandas", "spark.toPandas", lambda a, k, out: {"rows": len(out)})
    t.wrap(DataFrame, "collect", "spark.collect", _collected_blobs)
    t.wrap(insertion_only.InsertionOnlyND, "process_batch", "alg2.process_batch")
    t.wrap(DegResSampling, "ingest", "alg1.ingest")
    t.wrap(insertion_only, "run_distributed", "alg2dist.run_distributed")
    t.wrap(insertion_deletion.InsertionDeletionND, "process_batch", "alg3.process_batch")
    t.wrap(insertion_deletion.InsertionDeletionND, "result", "alg3.result")
    t.wrap(l0_sampler.L0SamplerBank, "update", "l0.update", _l0_cells)
    t.wrap(l0_sampler.L0SamplerBank, "sample_all", "l0.sample_all", _recovered)
    t.wrap(l0_sampler.L0SamplerBank, "merge", "l0.merge")
    t.wrap(l0_sampler, "sketch_stream_spark", "l0.sketch_stream_spark")
    t.wrap(structured, "run_witness_query", "ss.run_witness_query")
    t.wrap(structured, "final_state", "ss.final_state")
