"""Ablations of the design choices DESIGN.md calls out.

These experiments are not tables of the paper; they probe the design
decisions the paper motivates qualitatively:

* **backend ladder** — generic (Alg. 1) vs optimized (edge blocking
  without specialisation, :func:`all_calls_pattern`) vs generated vs jit
  kernels on one problem, quantifying how much each optimization level
  contributes (the paper's FusedMM vs FusedMMopt split, refined);
* **block-size sweep** — sensitivity of the generated kernel to its edge
  block size (the register/tile-blocking analogue the autotuner searches);
* **partition balance** — nnz-balanced 1-D partitioning vs naive equal-row
  partitioning on a skewed graph.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

import numpy as np

from ..bench.tables import format_table
from ..core.autotune import DEFAULT_BLOCK_CANDIDATES
from ..core.codegen import compile_kernel
from ..core.fused import fusedmm
from ..core.partition import part1d, partition_balance
from ..core.patterns import OpPattern, get_pattern
from ..graphs.datasets import load_dataset
from ..graphs.features import random_features
from ..perf.timer import time_kernel

__all__ = [
    "all_calls_pattern",
    "run_backend_ladder",
    "run_block_size_sweep",
    "run_partition_balance",
    "main",
]


def all_calls_pattern(pattern: OpPattern | str) -> OpPattern:
    """``pattern`` rebuilt from copies of its operators without their
    expressions: the generated kernel then calls each step's ``batch_fn``
    and fuses nothing — edge blocking without specialisation (Section
    IV.B), the ladder's ``optimized`` rung."""
    resolved = get_pattern(pattern).resolved()
    ops = {
        slot: op if op.expr is None else replace(op, expr=None)
        for slot, op in resolved.ops().items()
    }
    return OpPattern(name=resolved.name, **ops)


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

    t = time_kernel(
        fusedmm, A, X, X, pattern=all_calls_pattern(pattern), backend="generated",
        repeats=repeats,
    ).mean
    rows.append({"backend": "optimized", "seconds": t, "extrapolated": False})

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
    """Sensitivity of the generated kernel to its edge-block size."""
    g = load_dataset(graph, scale=scale)
    A = g.adjacency
    X = random_features(A.nrows, d, seed=0)
    rows = []
    for block in block_sizes:
        t = time_kernel(
            fusedmm,
            A,
            X,
            X,
            pattern=pattern,
            backend="generated",
            block_size=int(block),
            repeats=repeats,
        ).mean
        rows.append({"block_size": int(block), "seconds": t})
    best = min(r["seconds"] for r in rows)
    for r in rows:
        r["slowdown_vs_best"] = round(r["seconds"] / max(best, 1e-12), 3)
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
    print(format_table(run_partition_balance(), title="Ablation: partition balance"))


if __name__ == "__main__":  # pragma: no cover
    main()
