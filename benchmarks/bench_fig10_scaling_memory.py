"""Benchmarks regenerating Fig. 10 — strong scaling (a) and memory (b).

The scaling half benchmarks the embedding kernel at 1 and 2 threads on the
Orkut twin (the full 1–32 modelled curve is produced by the experiment
module); the memory half benchmarks the byte-accounting sweep and the
measured-allocation comparison of fused vs unfused for the FR pattern.
"""

from __future__ import annotations

import pytest

from repro.baselines import unfused_fusedmm
from repro.core import fusedmm
from repro.experiments import fig10_scaling_memory
from repro.perf import measure_peak_allocation

from _bench_utils import features_for

THREADS = [1, 2]


@pytest.mark.parametrize("threads", THREADS)
def bench_fig10a_scaling_orkut(benchmark, orkut_graph, threads):
    """Embedding kernel (d=256) on the Orkut twin at different thread counts."""
    A = orkut_graph.adjacency
    X = features_for(orkut_graph, 256)
    benchmark.group = "fig10a-orkut-embedding-d256"
    benchmark(lambda: fusedmm(A, X, X, backend="generated", num_threads=threads))


def bench_fig10b_memory_model_sweep(benchmark, ogbprot_graph):
    """Analytical fused-vs-unfused memory sweep of Fig. 10(b)."""
    benchmark.group = "fig10b-memory"
    rows = benchmark.pedantic(
        lambda: fig10_scaling_memory.run_memory(scale=0.5, dims=(16, 64, 256)),
        rounds=1,
        iterations=1,
    )
    # The property under test: the unfused/fused ratio grows with d.
    ratios = [row["ratio"] for row in rows]
    assert ratios == sorted(ratios)


@pytest.mark.parametrize("kernel_name", ["fused", "unfused"])
def bench_fig10b_measured_allocation(benchmark, youtube_graph, kernel_name):
    """Measured peak allocation of the FR pattern (d=64), fused vs unfused —
    the paper's Fig. 10(b) contrast on this substrate."""
    A = youtube_graph.adjacency
    X = features_for(youtube_graph, 64)

    def fused():
        return fusedmm(A, X, X, pattern="fr_layout", backend="generated")

    def unfused():
        return unfused_fusedmm(A, X, X, pattern="fr_layout")

    fn = fused if kernel_name == "fused" else unfused
    benchmark.group = "fig10b-measured-allocation"
    stats = benchmark.pedantic(
        lambda: measure_peak_allocation(fn), rounds=1, iterations=1
    )
    benchmark.extra_info["peak_mb"] = round(stats["peak_mb"], 2)
