"""Micro-benchmark: vectorized vs loop ``cache_block_partitions``.

The locality tier tiles (permuted) CSR matrices into cache-sized row
panels.  The original implementation walked rows in a Python loop —
fine at 50k nodes, seconds at millions.  This benchmark times the
chunk-vectorized path against the loop reference on power-law graphs
and checks that the two produce identical panel boundaries (the
equivalence is also property-tested in ``tests/test_reorder.py``).

Run by ``repro bench cache_block [--quick]``.  Identity always gates;
the speedup target (vectorized ≥ 1.2× loop at ≥ 100k nodes) is skipped
under ``--quick`` and waived by ``--no-check``.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Tuple

from ..graphs import rmat
from ..sparse.reorder import cache_block_partitions, reorder_matrix

__all__ = ["bench_cache_block", "MIN_SPEEDUP", "GATE_MIN_NODES"]

TITLE = "cache_block_partitions: vectorized vs loop"

#: The vectorized path must beat the loop by this factor...
MIN_SPEEDUP = 1.2
#: ...on graphs at least this large, where the loop's per-row cost shows.
GATE_MIN_NODES = 100_000


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_cache_block(
    *,
    num_nodes: int = 400_000,
    avg_degree: int = 8,
    dim: int = 128,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Loop vs vectorized panel boundaries on the natural and the
    hub-reordered ordering of one RMAT graph."""
    A = rmat(num_nodes, num_nodes * avg_degree, seed=1)
    rows = []
    for label, M in [("natural", A), ("hub", reorder_matrix(A, "hub").matrix)]:
        p_loop = cache_block_partitions(M, dim=dim, impl="loop")
        p_vec = cache_block_partitions(M, dim=dim, impl="vectorized")
        t_loop = _best_seconds(
            lambda: cache_block_partitions(M, dim=dim, impl="loop"), repeats
        )
        t_vec = _best_seconds(
            lambda: cache_block_partitions(M, dim=dim, impl="vectorized"), repeats
        )
        rows.append(
            {
                "ordering": label,
                "nodes": M.nrows,
                "nnz": M.nnz,
                "dim": dim,
                "panels": len(p_vec),
                "loop_seconds": round(t_loop, 4),
                "vectorized_seconds": round(t_vec, 4),
                "speedup": round(t_loop / t_vec, 3) if t_vec > 0 else float("inf"),
                "identical": p_loop == p_vec,
            }
        )
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--avg-degree", type=int, default=8)
    parser.add_argument("--dim", type=int, default=128)
    parser.add_argument("--repeats", type=int, default=None)


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Dict]:
    """The suite's rows and the ``config`` block of its record."""
    nodes = args.nodes or (20_000 if args.quick else 400_000)
    rows = bench_cache_block(
        num_nodes=nodes,
        avg_degree=args.avg_degree,
        dim=args.dim,
        repeats=args.repeats or (1 if args.quick else 3),
    )
    return rows, {"nodes": nodes, "dim": args.dim}


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of ``rows``."""
    failures = [
        f"{r['ordering']}: vectorized boundaries differ from the loop"
        for r in rows
        if not r["identical"]
    ]
    if not no_check and not quick and rows and rows[0]["nodes"] >= GATE_MIN_NODES:
        worst = min(rows, key=lambda r: r["speedup"])
        if worst["speedup"] < MIN_SPEEDUP:
            failures.append(
                f"vectorized speedup {worst['speedup']:.2f}x ({worst['ordering']}) "
                f"< required {MIN_SPEEDUP:.1f}x"
            )
    return failures
