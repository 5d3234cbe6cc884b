"""Shard-scaling benchmark for the multi-process execution tier.

Measures the throughput of :meth:`KernelRuntime.run_sharded` as the shard
count grows on one fixed graph, always verifying bitwise equality against
the sequential single-process kernel — scaling numbers for results that
differ would be meaningless.

Run by ``repro bench shard [--quick]``.  Bitwise identity always gates;
on multi-core hosts some multi-shard row must also beat the 1-shard row,
a wall-clock target that ``--no-check`` waives.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.fused import fusedmm
from ..core.parallel import available_threads
from ..graphs import rmat
from ..graphs.features import random_features
from ..runtime import KernelRuntime

__all__ = ["bench_shard_scaling"]

TITLE = "Shard scaling (multi-process tier)"

#: On a multi-core host the best multi-shard row must beat the 1-shard
#: row by more than this factor; one core cannot speed anything up.
MIN_SPEEDUP = 1.0


def bench_shard_scaling(
    *,
    num_nodes: int = 20_000,
    avg_degree: int = 16,
    dim: int = 64,
    repeats: int = 3,
    shard_counts: Sequence[int] = (1, 2, 4),
    pattern: str = "sigmoid_embedding",
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Throughput of sharded execution at each shard count.

    The 1-shard row also runs through a worker agent (one agent doing all
    partitions), so reported speedups isolate parallelism from IPC overhead
    rather than flattering the multi-shard rows.  Every row records whether
    the sharded result was bitwise identical to sequential ``fusedmm``.
    """
    A = rmat(num_nodes, num_nodes * avg_degree, seed=seed)
    X = random_features(A.nrows, dim, seed=seed)
    ref = fusedmm(A, X, X, pattern=pattern, num_threads=1)

    rows: List[Dict[str, object]] = []
    for shards in shard_counts:
        runtime = KernelRuntime(num_threads=1, processes=int(shards))
        try:
            Z = runtime.run_sharded(A, X, pattern=pattern)  # warm-up + plan
            identical = bool(np.array_equal(Z, ref))
            total = 0.0
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                runtime.run_sharded(A, X, pattern=pattern)
                total += time.perf_counter() - t0
            seconds = total / max(1, repeats)
            shard_plan = runtime.shard_plan(A, pattern=pattern)
        finally:
            runtime.close()
        edges_per_s = A.nnz / max(seconds, 1e-12)
        rows.append(
            {
                "benchmark": "shard_scaling",
                "graph": f"rmat n={num_nodes}",
                "nnz": A.nnz,
                "d": dim,
                "pattern": pattern,
                "shards": int(shards),
                "busy_shards": shard_plan.busy_shards,
                "balance": shard_plan.balance(),
                "seconds": seconds,
                "edges_per_s": edges_per_s,
                "identical": identical,
            }
        )
    # Baseline for the speedup column is the 1-shard row regardless of the
    # order (or presence) of 1 in ``shard_counts``.
    base = next((r for r in rows if r["shards"] == 1), rows[0] if rows else None)
    for r in rows:
        r["speedup_vs_1shard"] = r["edges_per_s"] / max(base["edges_per_s"], 1e-12)
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4], help="shard counts"
    )
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--avg-degree", type=int, default=16)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Dict]:
    """The suite's rows and the ``config`` block of its record."""
    nodes = args.nodes or (4_000 if args.quick else 20_000)
    dim = args.dim or (32 if args.quick else 64)
    repeats = args.repeats or (2 if args.quick else 3)
    rows = bench_shard_scaling(
        num_nodes=nodes,
        avg_degree=args.avg_degree,
        dim=dim,
        repeats=repeats,
        shard_counts=args.shards,
    )
    return rows, {"nodes": nodes, "dim": dim, "repeats": repeats}


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of ``rows``."""
    failures = [
        f"shard count {r['shards']}: result not bitwise identical"
        for r in rows
        if not r["identical"]
    ]
    multi = [r["speedup_vs_1shard"] for r in rows if r["shards"] > 1]
    if not no_check and multi and available_threads() > 1:
        if max(multi) <= MIN_SPEEDUP:
            failures.append(
                f"no multi-shard speedup (best {max(multi):.2f}x <= "
                f"{MIN_SPEEDUP:.1f}x vs 1 shard)"
            )
    return failures
