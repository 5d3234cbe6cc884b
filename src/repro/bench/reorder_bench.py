"""Locality-tier benchmark: vertex reordering against the natural order.

Measures steady-state epoch throughput of the same FusedMM call through
each ``reorder=`` strategy of the plan cache — the one-time ordering cost
is paid at plan build (reported separately as ``plan_s``), every
subsequent epoch replays the cached plan: operand permutation, the
edge-block driver on the permuted matrix, inverse mapping.  The acceptance
gate of ``repro bench reorder`` requires the best reordered strategy to
beat the natural ordering by ≥1.2× on ``sigmoid_embedding`` at d=128 on a
power-law graph.

The benchmark graph is an RMAT power-law graph with **randomly relabelled
vertices**: RMAT's recursive construction incidentally numbers hubs first,
which is precisely the locality a real ingestion pipeline does not
provide.  Shuffling the labels makes the "none" baseline representative of
arbitrary input IDs; the reorder strategies then have to *earn* their
speedup by recovering the structure.

The speedup gate is skipped under ``--quick``, below ``GATE_MIN_NNZ``
edges and off the gate pattern: when the dense operand already fits in
cache there is no locality to recover.  ``--no-check`` waives it too.
The drift check against the natural-order kernel always gates.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.fused import fusedmm
from ..graphs import rmat
from ..graphs.features import random_features
from ..runtime import KernelRuntime
from ..sparse import REORDER_STRATEGIES, permute_symmetric

__all__ = ["bench_reorder_locality", "MIN_SPEEDUP", "GATE_PATTERN"]

TITLE = "Locality tier (vertex reordering)"

#: Acceptance gate: the best reordered strategy must beat the natural
#: ordering by this factor on the gate pattern (d=128, power-law graph).
MIN_SPEEDUP = 1.2

#: The pattern the gate applies to (the paper's headline kernel).
GATE_PATTERN = "sigmoid_embedding"

#: Below this many edges the working set fits in cache on any recent host
#: and the speedup gate would measure scheduler noise.
GATE_MIN_NNZ = 500_000

#: Reordered results re-associate per-row accumulation; at float32 with
#: degrees in the hundreds this stays well under 1e-3.
MAX_ABS_ERR = 1e-3


def bench_reorder_locality(
    *,
    num_nodes: int = 50_000,
    avg_degree: int = 16,
    dim: int = 128,
    repeats: int = 3,
    pattern: str = GATE_PATTERN,
    strategies: Sequence[str] = REORDER_STRATEGIES,
    backend: str = "auto",
    seed: int = 9,
    shuffle: bool = True,
) -> List[Dict[str, object]]:
    """Per-strategy epoch throughput on one relabelled RMAT graph.

    Every row records correctness (``max_abs_err`` against the natural
    single-threaded kernel), the one-time planning cost (``plan_s``:
    fingerprint + permutation + permuted copy; the kept edge-block
    schedule is built by the untimed first run), the steady-state epoch
    time and the plan-cache hit rate of the measuring runtime — so the
    JSON record shows both the speedup *and* that the cache amortised the
    setup.
    """
    strategies = list(strategies)
    if "none" not in strategies:
        # Every speedup is relative to the natural ordering — measure it
        # even when the caller only asked for reordered strategies.
        strategies.insert(0, "none")
    A = rmat(num_nodes, num_nodes * avg_degree, seed=seed)
    if shuffle:
        rng = np.random.default_rng(seed + 1)
        A = permute_symmetric(A, rng.permutation(A.nrows).astype(np.int64))
    X = random_features(A.nrows, dim, seed=seed)
    ref = fusedmm(A, X, X, pattern=pattern, backend=backend, num_threads=1)

    rows: List[Dict[str, object]] = []
    for strategy in strategies:
        runtime = KernelRuntime(num_threads=1)
        try:
            t0 = time.perf_counter()
            plan = runtime.plan(A, pattern=pattern, backend=backend, reorder=strategy)
            plan_s = time.perf_counter() - t0
            Z = runtime.run(A, X, pattern=pattern, backend=backend, reorder=strategy)
            err = float(
                np.max(
                    np.abs(Z.astype(np.float64) - ref.astype(np.float64)),
                    initial=0.0,
                )
            )
            total = 0.0
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                runtime.run(A, X, pattern=pattern, backend=backend, reorder=strategy)
                total += time.perf_counter() - t0
            seconds = total / max(1, repeats)
            info = plan.describe()
            stats = runtime.stats()
        finally:
            runtime.close()
        rows.append(
            {
                "benchmark": "reorder_locality",
                "graph": f"rmat n={num_nodes}" + (" shuffled" if shuffle else ""),
                "nnz": A.nnz,
                "d": dim,
                "pattern": pattern,
                "reorder": info["reorder"],
                "requested": strategy,
                "kind": info["kind"],
                "plan_s": plan_s,
                "seconds": seconds,
                "edges_per_s": A.nnz / max(seconds, 1e-12),
                "max_abs_err": err,
                "cache_hit_rate": stats["plan_cache"]["hit_rate"],
            }
        )
    base = next(r for r in rows if r["requested"] == "none")
    for r in rows:
        r["speedup_vs_none"] = r["edges_per_s"] / max(base["edges_per_s"], 1e-12)
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--avg-degree", type=int, default=16)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--pattern", default=GATE_PATTERN)
    parser.add_argument(
        "--strategies",
        nargs="+",
        choices=list(REORDER_STRATEGIES),
        default=["none", "degree", "rcm", "hub"],
        help="reorder strategies to measure",
    )


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Dict]:
    """The suite's rows and the ``config`` block of its record."""
    nodes = args.nodes or (4_000 if args.quick else 50_000)
    dim = args.dim or (32 if args.quick else 128)
    repeats = args.repeats or (2 if args.quick else 3)
    rows = bench_reorder_locality(
        num_nodes=nodes,
        avg_degree=args.avg_degree,
        dim=dim,
        repeats=repeats,
        pattern=args.pattern,
        strategies=args.strategies,
    )
    return rows, {"nodes": nodes, "dim": dim, "repeats": repeats}


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of ``rows``."""
    failures = [
        f"strategy {r['requested']}: drifted from the natural-order kernel "
        f"(max_abs_err {r['max_abs_err']:.2e})"
        for r in rows
        if r["max_abs_err"] > MAX_ABS_ERR
    ]
    reordered = [r for r in rows if r["requested"] != "none"]
    speed_gate = (
        not no_check
        and not quick
        and reordered
        and rows[0]["nnz"] >= GATE_MIN_NNZ
        and rows[0]["pattern"] == GATE_PATTERN
    )
    if speed_gate:
        best = max(reordered, key=lambda r: r["speedup_vs_none"])
        if best["speedup_vs_none"] < MIN_SPEEDUP:
            failures.append(
                f"best reordered speedup {best['speedup_vs_none']:.2f}x "
                f"({best['requested']}) < required {MIN_SPEEDUP:.1f}x"
            )
    return failures
