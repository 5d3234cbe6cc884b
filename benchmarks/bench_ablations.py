"""Benchmarks for the design-choice ablations of DESIGN.md.

These are not paper tables; they quantify the contribution of each
optimization level (backend ladder), the sensitivity to the edge-block size
(the register/tile-blocking analogue) and the cost of autotuning itself.
"""

from __future__ import annotations

import pytest

from repro.core import (
    autotune,
    compile_kernel,
    fusedmm_edgeblocked,
    fusedmm_rowblocked,
    get_pattern,
)
from repro.core.autotune import clear_tuning_cache

from _bench_utils import features_for

BLOCK_SIZES = [1024, 8192, 65536]


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def bench_ablation_block_size(benchmark, youtube_graph, block_size):
    """Edge-blocked kernel across block sizes (embedding pattern, d=128)."""
    A = youtube_graph.adjacency
    X = features_for(youtube_graph, 128)
    benchmark.group = "ablation-block-size-youtube-d128"
    benchmark(
        lambda: fusedmm_edgeblocked(
            A, X, X, pattern="sigmoid_embedding", block_size=block_size
        )
    )


def bench_ablation_row_blocked(benchmark, ogbprot_graph):
    """Row-blocked kernel on the dense graph (its favourable regime)."""
    A = ogbprot_graph.adjacency
    X = features_for(ogbprot_graph, 128)
    benchmark.group = "ablation-strategy-ogbprot-d128"
    benchmark(lambda: fusedmm_rowblocked(A, X, X, pattern="sigmoid_embedding"))


def bench_ablation_edge_blocked_dense(benchmark, ogbprot_graph):
    """Edge-blocked kernel on the dense graph (for the strategy crossover)."""
    A = ogbprot_graph.adjacency
    X = features_for(ogbprot_graph, 128)
    benchmark.group = "ablation-strategy-ogbprot-d128"
    benchmark(lambda: fusedmm_edgeblocked(A, X, X, pattern="sigmoid_embedding"))


def bench_ablation_generated_kernel(benchmark, ogbprot_graph):
    """Code-generated kernel (compile once, then run)."""
    A = ogbprot_graph.adjacency
    X = features_for(ogbprot_graph, 128)
    kernel = compile_kernel(get_pattern("sigmoid_embedding").resolved())
    benchmark.group = "ablation-strategy-ogbprot-d128"
    benchmark(lambda: kernel(A, X, X))


def bench_ablation_autotune_cost(benchmark, youtube_graph):
    """One full autotuning sweep (strategy + block sizes) — the cost a user
    pays once per (pattern, d, graph-size) combination."""
    A = youtube_graph.adjacency
    X = features_for(youtube_graph, 64)
    benchmark.group = "ablation-autotune"

    def tune():
        clear_tuning_cache()
        return autotune(A, X, X, pattern="sigmoid_embedding", repeats=1)

    result = benchmark.pedantic(tune, rounds=1, iterations=1)
    assert result.block_size > 0
