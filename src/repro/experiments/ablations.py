"""Ablations of the design choices DESIGN.md calls out.

These experiments are not tables of the paper; they probe the design
decisions the paper motivates qualitatively:

* **backend ladder** — generic (Alg. 1) vs optimized (blocked) vs
  generated vs jit kernels on one problem, quantifying how much
  each optimization level contributes (the paper's FusedMM vs FusedMMopt
  split, refined);
* **block-size sweep** — sensitivity of the edge-blocked kernel to its
  block size (the register/tile-blocking analogue the autotuner searches);
* **strategy crossover** — row-blocked vs edge-blocked kernels as the
  average degree changes, validating the dispatcher's degree-based
  heuristic;
* **partition balance** — nnz-balanced 1-D partitioning vs naive equal-row
  partitioning on a skewed graph.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..bench.tables import format_table
from ..core.autotune import DEFAULT_BLOCK_CANDIDATES
from ..core.codegen import compile_kernel
from ..core.fused import fusedmm
from ..core.optimized import fusedmm_edgeblocked, fusedmm_rowblocked
from ..core.partition import part1d, partition_balance
from ..core.patterns import get_pattern
from ..graphs.datasets import load_dataset
from ..graphs.generators import rmat
from ..graphs.features import random_features
from ..perf.timer import time_kernel

__all__ = [
    "run_backend_ladder",
    "run_block_size_sweep",
    "run_strategy_crossover",
    "run_partition_balance",
    "main",
]


def run_backend_ladder(
    *,
    graph: str = "youtube",
    d: int = 128,
    pattern: str = "sigmoid_embedding",
    scale: float = 0.5,
    repeats: int = 3,
) -> List[Dict]:
    """Time every backend on the same problem (generic timed on a sample)."""
    g = load_dataset(graph, scale=scale)
    A = g.adjacency
    X = random_features(A.nrows, d, seed=0)
    resolved = get_pattern(pattern).resolved()
    rows: List[Dict] = []

    sample_rows = max(1, min(A.nrows, 2000))
    A_sample = A.row_slice(0, sample_rows)
    generic_sample_t = time_kernel(
        fusedmm, A_sample, X[:sample_rows], X, pattern=pattern, backend="generic",
        repeats=1, warmup=0,
    ).mean
    generic_t = generic_sample_t * (A.nnz / max(A_sample.nnz, 1))
    rows.append({"backend": "generic (Alg. 1)", "seconds": generic_t, "extrapolated": True})

    for strategy, fn in (("optimized-row", fusedmm_rowblocked), ("optimized-edge", fusedmm_edgeblocked)):
        t = time_kernel(fn, A, X, X, pattern=pattern, repeats=repeats).mean
        rows.append({"backend": strategy, "seconds": t, "extrapolated": False})

    generated = compile_kernel(resolved)
    t = time_kernel(generated, A, X, X, repeats=repeats).mean
    rows.append({"backend": "generated", "seconds": t, "extrapolated": False})

    from ..core.jit import jit_available, jit_supports_pattern

    if jit_available() and jit_supports_pattern(resolved):
        t = time_kernel(
            fusedmm, A, X, X, pattern=pattern, backend="jit", repeats=repeats
        ).mean
        rows.append({"backend": "jit", "seconds": t, "extrapolated": False})

    base = rows[0]["seconds"]
    for row in rows:
        row["speedup_vs_generic"] = round(base / max(row["seconds"], 1e-12), 2)
    return rows


def run_block_size_sweep(
    *,
    graph: str = "youtube",
    d: int = 128,
    pattern: str = "sigmoid_embedding",
    block_sizes: Sequence[int] = DEFAULT_BLOCK_CANDIDATES,
    scale: float = 0.5,
    repeats: int = 3,
) -> List[Dict]:
    """Sensitivity of the edge-blocked kernel to its block size."""
    g = load_dataset(graph, scale=scale)
    A = g.adjacency
    X = random_features(A.nrows, d, seed=0)
    rows = []
    for block in block_sizes:
        t = time_kernel(
            fusedmm_edgeblocked, A, X, X, pattern=pattern, block_size=int(block), repeats=repeats
        ).mean
        rows.append({"block_size": int(block), "seconds": t})
    best = min(r["seconds"] for r in rows)
    for r in rows:
        r["slowdown_vs_best"] = round(r["seconds"] / max(best, 1e-12), 3)
    return rows


def run_strategy_crossover(
    *,
    num_vertices: int = 8000,
    avg_degrees: Sequence[float] = (2, 8, 32, 128),
    d: int = 64,
    pattern: str = "sigmoid_embedding",
    repeats: int = 2,
    seed: int = 0,
) -> List[Dict]:
    """Row- vs edge-blocked kernel time as the average degree grows."""
    rows = []
    for i, degree in enumerate(avg_degrees):
        A = rmat(num_vertices, int(num_vertices * degree / 2), seed=seed + i)
        X = random_features(A.nrows, d, seed=0)
        t_row = time_kernel(
            fusedmm_rowblocked, A, X, X, pattern=pattern, repeats=repeats
        ).mean
        t_edge = time_kernel(
            fusedmm_edgeblocked, A, X, X, pattern=pattern, repeats=repeats
        ).mean
        rows.append(
            {
                "target_avg_degree": degree,
                "realised_avg_degree": round(A.avg_degree(), 2),
                "row_blocked_s": t_row,
                "edge_blocked_s": t_edge,
                "edge_faster": bool(t_edge < t_row),
            }
        )
    return rows


def run_partition_balance(
    *,
    graph: str = "youtube",
    num_parts: int = 8,
    scale: float = 1.0,
    sort_by_degree: bool = True,
) -> List[Dict]:
    """nnz-balanced PART1D vs naive equal-row partitioning on a skewed graph.

    ``sort_by_degree`` reorders rows by decreasing degree first — the
    ordering many real graph dumps ship with (hubs first), and the case
    where naive equal-row partitioning is maximally unbalanced while
    PART1D stays near 1.0.
    """
    g = load_dataset(graph, scale=scale)
    A = g.adjacency
    if sort_by_degree:
        order = np.argsort(-A.row_degrees())
        A = A.select_rows(order)
    balanced = part1d(A, num_parts)
    # Naive equal-row partitioning for comparison.
    bounds = np.linspace(0, A.nrows, num_parts + 1).astype(np.int64)
    from ..core.partition import RowPartition

    naive = [
        RowPartition(int(bounds[i]), int(bounds[i + 1]), int(A.indptr[bounds[i + 1]] - A.indptr[bounds[i]]))
        for i in range(num_parts)
    ]
    return [
        {
            "scheme": "part1d (nnz-balanced)",
            "parts": num_parts,
            "max_nnz": max(p.nnz for p in balanced),
            "balance_factor": round(partition_balance(balanced), 3),
        },
        {
            "scheme": "equal rows (naive)",
            "parts": num_parts,
            "max_nnz": max(p.nnz for p in naive),
            "balance_factor": round(partition_balance(naive), 3),
        },
    ]


def main() -> None:
    """Print all ablations."""
    print(format_table(run_backend_ladder(), title="Ablation: backend ladder"))
    print()
    print(format_table(run_block_size_sweep(), title="Ablation: edge-block size sweep"))
    print()
    print(format_table(run_strategy_crossover(), title="Ablation: row- vs edge-blocking crossover"))
    print()
    print(format_table(run_partition_balance(), title="Ablation: partition balance"))


if __name__ == "__main__":  # pragma: no cover
    main()
