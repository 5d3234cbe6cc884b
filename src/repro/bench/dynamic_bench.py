"""Dynamic-graph benchmark: incremental invalidation vs full rebuild.

Three legs, all anchored on the dynamic-graph identity contract (a kernel
on a mutated version is bitwise identical to the same kernel on a CSR
freshly rebuilt from the same edge set):

``update_vs_rebuild``
    Applies small edge batches (≤ ``churn`` of nnz per round) to a
    :class:`~repro.runtime.dynamic.DynamicGraph` with a warm plan,
    timing :meth:`apply_edges` — row splice and plan refresh — against
    the naive alternative: rebuild the CSR from the full edge set and
    replan on a cold runtime.  The headline gate is the speedup of
    the incremental path (≥ ``MIN_SPEEDUP``).

``shard_identity``
    The mutated graph executed through :meth:`run_sharded` at several
    shard counts over the multi-process tier; every count must return
    the exact bytes of sequential ``fusedmm`` on the rebuilt CSR.

``remote_delta``
    The mutated graph executed on real ``python -m repro worker`` host
    processes.  The first sharded run ships full shards; the mutation
    registers the batch's rows as a delta source, so the next run must
    re-ship only those rows (``delta_ships >= 1``) — and still match the
    rebuilt reference bitwise.

Run by ``repro bench dynamic [--quick]``.  Identity and delta-ship always
gate.  The speedup is wall-clock and only meaningful at full size, so
``--quick`` and ``--no-check`` report it without gating on it.
"""

from __future__ import annotations

import argparse
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fused import fusedmm
from ..graphs import rmat
from ..graphs.features import random_features
from ..runtime import KernelRuntime
from ..runtime.dynamic import DynamicGraph
from ..sparse import CSRMatrix
from ..sparse.coo import COOMatrix

__all__ = ["bench_dynamic_updates", "edge_batch", "rebuild_csr", "MIN_SPEEDUP"]

TITLE = "Dynamic graphs (incremental invalidation)"

#: The incremental path must beat rebuild+replan by at least this factor
#: at <=1% nnz churn (the ROADMAP's dynamic-graph acceptance bar).
MIN_SPEEDUP = 5.0

#: How long to wait for worker hosts to register before giving up.
_JOIN_TIMEOUT_S = 60.0


def edge_batch(
    rng: np.random.Generator,
    A: CSRMatrix,
    n_insert: int,
    n_delete: int,
    n_hot: int = 32,
) -> Tuple[np.ndarray, np.ndarray]:
    """One deterministic mutation batch against the current matrix.

    All ops are concentrated on ``n_hot`` random source vertices — the
    locality a real edge stream exhibits (a handful of vertices gain and
    lose edges at a time) and the case the dirty-row delta ship is built
    for.  Deletes are sampled from edges that
    actually exist in the hot rows (so the batch really shrinks rows);
    inserts go from hot rows to uniform random targets, occasionally
    upserting an existing edge — both paths a write must handle.
    """
    hot = np.sort(rng.choice(A.nrows, size=min(int(n_hot), A.nrows), replace=False))
    starts, stops = A.indptr[hot], A.indptr[hot + 1]
    counts = stops - starts
    if int(counts.sum()):
        idx = np.concatenate(
            [np.arange(lo, hi) for lo, hi in zip(starts, stops)]
        )
        rows_of = np.repeat(hot, counts)
        pick = rng.choice(idx.size, size=min(int(n_delete), idx.size), replace=False)
        delete = np.stack(
            [
                rows_of[pick].astype(np.float64),
                A.indices[idx[pick]].astype(np.float64),
            ],
            axis=1,
        )
    else:
        delete = np.empty((0, 2), dtype=np.float64)
    u = hot[rng.integers(0, hot.size, size=int(n_insert))].astype(np.float64)
    v = rng.integers(0, A.ncols, size=int(n_insert)).astype(np.float64)
    w = (rng.random(int(n_insert)) + 0.5).astype(np.float64)
    insert = np.stack([u, v, w], axis=1)
    return insert, delete


def rebuild_csr(A: CSRMatrix) -> CSRMatrix:
    """A fresh canonical CSR built from ``A``'s full edge set — the
    vectorised COO route, so the rebuild leg is not a strawman."""
    rows = np.repeat(np.arange(A.nrows, dtype=np.int64), np.diff(A.indptr))
    return CSRMatrix.from_coo(
        COOMatrix(A.nrows, A.ncols, rows, A.indices.copy(), A.data.copy())
    )


def bench_dynamic_updates(
    *,
    num_nodes: int = 20_000,
    avg_degree: int = 16,
    dim: int = 64,
    rounds: int = 5,
    churn: float = 0.002,
    shard_counts: Sequence[int] = (1, 2, 4),
    pattern: str = "sigmoid_embedding",
    remote_workers: int = 2,
    remote_leg: bool = True,
    seed: int = 9,
) -> List[Dict[str, object]]:
    """Run all three legs and return the standard benchmark row dicts."""
    rng = np.random.default_rng(seed)
    base = rmat(num_nodes, num_nodes * avg_degree, seed=seed)
    X = random_features(base.nrows, dim, seed=seed)
    rows: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # Leg 1: incremental update vs rebuild-from-scratch
    # ------------------------------------------------------------------ #
    half = max(1, int(base.nnz * churn) // 2)
    rt = KernelRuntime(num_threads=1, cache_size=64)
    identical = True
    update_s: List[float] = []
    rebuild_s: List[float] = []
    try:
        g = DynamicGraph(base, runtime=rt)
        # A warm plan; the mutation loop refreshes it in place.
        rt.run(g.matrix, X, pattern=pattern)
        for _ in range(max(1, rounds)):
            insert, delete = edge_batch(rng, g.matrix, half, half)

            t0 = time.perf_counter()
            g.apply_edges(insert=insert, delete=delete)
            update_s.append(time.perf_counter() - t0)

            # The naive alternative on a cold runtime: rebuild the CSR
            # from the full edge set and replan.
            A_cur = g.matrix
            cold = KernelRuntime(num_threads=1, cache_size=64)
            try:
                t0 = time.perf_counter()
                rebuilt = rebuild_csr(A_cur)
                cold.plan(rebuilt, pattern=pattern)
                rebuild_s.append(time.perf_counter() - t0)
            finally:
                cold.close()

            Z = rt.run(g.matrix, X, pattern=pattern)
            ref = fusedmm(rebuilt, X, X, pattern=pattern, num_threads=1)
            identical = identical and bool(np.array_equal(Z, ref))
        stats = g.stats()
        g.close()
    finally:
        rt.close()
    update_mean = sum(update_s) / len(update_s)
    rebuild_mean = sum(rebuild_s) / len(rebuild_s)
    rows.append(
        {
            "benchmark": "dynamic_updates",
            "leg": "update_vs_rebuild",
            "graph": f"rmat n={num_nodes}",
            "nnz": base.nnz,
            "d": dim,
            "pattern": pattern,
            "churn": churn,
            "rounds": int(max(1, rounds)),
            "seconds": update_mean,
            "rebuild_seconds": rebuild_mean,
            "speedup_vs_rebuild": rebuild_mean / max(update_mean, 1e-12),
            "plans_refreshed": stats["plans_refreshed"],
            "identical": identical,
        }
    )

    # ------------------------------------------------------------------ #
    # Leg 2: bitwise identity across shard counts after mutation
    # ------------------------------------------------------------------ #
    rt = KernelRuntime(
        num_threads=1, processes=max(int(s) for s in shard_counts)
    )
    try:
        g = DynamicGraph(base, runtime=rt)
        for _ in range(2):
            insert, delete = edge_batch(rng, g.matrix, half, half)
            g.apply_edges(insert=insert, delete=delete)
        rebuilt = rebuild_csr(g.matrix)
        ref = fusedmm(rebuilt, X, X, pattern=pattern, num_threads=1)
        for shards in shard_counts:
            t0 = time.perf_counter()
            Z = rt.run_sharded(g.matrix, X, pattern=pattern, shards=int(shards))
            seconds = time.perf_counter() - t0
            rows.append(
                {
                    "benchmark": "dynamic_updates",
                    "leg": "shard_identity",
                    "graph": f"rmat n={num_nodes}",
                    "nnz": g.nnz,
                    "d": dim,
                    "pattern": pattern,
                    "shards": int(shards),
                    "seconds": seconds,
                    "identical": bool(np.array_equal(Z, ref)),
                }
            )
        g.close()
    finally:
        rt.close()

    # ------------------------------------------------------------------ #
    # Leg 3: remote worker hosts — dirty shards re-ship as deltas
    # ------------------------------------------------------------------ #
    if remote_leg:
        from .remote_bench import _reap, spawn_worker

        rt = KernelRuntime(num_threads=1, processes=0, remote_port=0)
        procs: List[subprocess.Popen] = []
        Z1: Optional[np.ndarray] = None
        try:
            controller = rt.controller
            procs = [
                spawn_worker(controller.port, f"dyn{i}")
                for i in range(int(remote_workers))
            ]
            joined = controller.wait_for_hosts(
                int(remote_workers), timeout=_JOIN_TIMEOUT_S
            )
            if joined < int(remote_workers):
                raise RuntimeError(
                    f"only {joined}/{remote_workers} worker hosts registered "
                    f"within {_JOIN_TIMEOUT_S}s"
                )
            g = DynamicGraph(base, runtime=rt)
            rt.run_sharded(g.matrix, X, pattern=pattern)  # full ship + warm
            insert, delete = edge_batch(rng, g.matrix, half, half)
            result = g.apply_edges(insert=insert, delete=delete)
            t0 = time.perf_counter()
            Z1 = rt.run_sharded(g.matrix, X, pattern=pattern)
            seconds = time.perf_counter() - t0
            rebuilt = rebuild_csr(g.matrix)
            ref = fusedmm(rebuilt, X, X, pattern=pattern, num_threads=1)
            remote_stats = rt.stats()["remote"]
            rows.append(
                {
                    "benchmark": "dynamic_updates",
                    "leg": "remote_delta",
                    "graph": f"rmat n={num_nodes}",
                    "nnz": g.nnz,
                    "d": dim,
                    "pattern": pattern,
                    "workers": int(remote_workers),
                    "seconds": seconds,
                    "delta_sources": result.delta_sources,
                    "delta_ships": remote_stats["delta_ships"],
                    "delta_fallbacks": remote_stats["delta_fallbacks"],
                    "identical": Z1 is not None
                    and bool(np.array_equal(Z1, ref)),
                }
            )
            g.close()
        finally:
            rt.close()
            _reap(procs)

    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--avg-degree", type=int, default=16)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument(
        "--churn",
        type=float,
        default=0.002,
        help="edge churn per round as a fraction of nnz (the speedup target "
        "covers any small delta <= 1%%)",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4], help="shard counts"
    )
    parser.add_argument(
        "--no-remote",
        action="store_true",
        help="skip the remote leg (worker hosts + dirty-shard delta ship)",
    )


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Dict]:
    """The suite's rows and the ``config`` block of its record."""
    nodes = args.nodes or (4_000 if args.quick else 20_000)
    dim = args.dim or (32 if args.quick else 64)
    rounds = args.rounds or (3 if args.quick else 5)
    rows = bench_dynamic_updates(
        num_nodes=nodes,
        avg_degree=args.avg_degree,
        dim=dim,
        rounds=rounds,
        churn=args.churn,
        shard_counts=args.shards,
        remote_leg=not args.no_remote,
    )
    config = {"nodes": nodes, "dim": dim, "rounds": rounds, "churn": args.churn}
    return rows, config


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of ``rows``."""
    failures = []
    for r in rows:
        if not r["identical"]:
            failures.append(
                f"{r['leg']} leg: result not bitwise identical to rebuilt CSR"
            )
        if r["leg"] == "remote_delta" and r["delta_ships"] < 1:
            failures.append(
                "remote leg never shipped a delta "
                f"(delta_ships={r['delta_ships']}, "
                f"fallbacks={r['delta_fallbacks']})"
            )
        speed_gate = not (quick or no_check) and r["leg"] == "update_vs_rebuild"
        if speed_gate and r["speedup_vs_rebuild"] < MIN_SPEEDUP:
            failures.append(
                f"incremental update only {r['speedup_vs_rebuild']:.1f}x faster "
                f"than rebuild+replan (target >= {MIN_SPEEDUP:.0f}x)"
            )
    return failures
