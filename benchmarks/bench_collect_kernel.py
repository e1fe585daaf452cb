"""Benchmark for the stream-order collection kernel: Algorithm 2 at two
batch sizes over one stream.

The per-batch cost of collection is what separates fine from coarse
micro-batches, so the ratio of the two times (reported in
``extra_info``) is the kernel's fixed cost per batch. Outputs must not
depend on the batch size; the timing is reported, not asserted.
"""
from time import perf_counter

import pytest

from repro import synth_data
from repro.core.insertion_only import InsertionOnlyND
from repro.streamsim.runner import run_stream_pandas

N, D, C, SEED = 32768, 512, 2, 21
FINE, COARSE = 1024, 65536


def run(pdf, batch_size):
    return run_stream_pandas(InsertionOnlyND(N, D, C, seed=SEED), pdf, batch_size)


def best_of(pdf, batch_size, rounds=3):
    """Fastest of ``rounds`` runs after one warm-up run."""
    run(pdf, batch_size)
    times = []
    for _ in range(rounds):
        t = perf_counter()
        run(pdf, batch_size)
        times.append(perf_counter() - t)
    return min(times)


@pytest.mark.benchmark(group="collect-kernel")
def test_bench_collect_kernel(benchmark):
    pdf, _ = synth_data.planted_star_pandas(
        n=N, m=4 * N, d=D, avg_deg=8.0, order="random", seed=SEED
    )
    fine = benchmark.pedantic(run, args=(pdf, FINE), rounds=3, warmup_rounds=1, iterations=1)
    coarse = run(pdf, COARSE)
    for rf, rc in zip(fine.runs, coarse.runs):
        assert rf.collected == rc.collected
        assert rf.reservoir == rc.reservoir
        assert rf.x == rc.x
    fine_s, coarse_s = best_of(pdf, FINE), best_of(pdf, COARSE)
    benchmark.extra_info.update(
        edges=len(pdf), fine_batch_s=fine_s, coarse_batch_s=coarse_s,
        fine_over_coarse=fine_s / coarse_s,
    )
    print(f"\nbatch {FINE}: {fine_s:.3f} s, batch {COARSE}: {coarse_s:.3f} s, "
          f"ratio {fine_s / coarse_s:.2f}")
