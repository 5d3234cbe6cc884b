"""Remote-scaling benchmark for the distributed worker tier.

Measures :meth:`KernelRuntime.run_sharded` when the shards execute on
``repro worker`` host processes over localhost TCP (the real deployment
artifact — ``python -m repro worker`` subprocesses, not in-process
threads), always verifying bitwise equality against the sequential
single-process kernel.  An optional failover leg starts two hosts, one of
them fault-injected to crash on its first RUN request, and asserts the
batch still completes bitwise on the survivor.  A hedge leg stalls one
of two hosts on a late RUN; the controller's speculative hedge must win
(``hedge_wins >= 1``) without changing a byte.

Run by ``repro bench remote [--quick]``.  Every check is a correctness
check — bitwise identity on every leg, and the failover and hedge legs
actually exercising recovery and speculation — so ``--no-check`` waives
nothing here.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fused import fusedmm
from ..graphs import rmat
from ..graphs.features import random_features
from ..runtime import KernelRuntime

__all__ = ["bench_remote_scaling", "spawn_worker"]

TITLE = "Remote scaling (distributed worker tier)"

#: How long to wait for worker hosts to register before giving up.
_JOIN_TIMEOUT_S = 60.0


def spawn_worker(
    port: int,
    name: str,
    *,
    threads: int = 1,
    fault_plan: Optional[str] = None,
    reconnect_delay: Optional[float] = None,
    once: bool = True,
    stderr=subprocess.DEVNULL,
) -> subprocess.Popen:
    """Start one ``python -m repro worker`` subprocess against ``port``.

    ``fault_plan`` passes a ``--fault-plan`` schedule
    (:meth:`repro.resilience.FaultPlan.from_spec` grammar; ``"crash@1+"``
    drops the connection and exits instead of replying to the first RUN).  ``once``
    keeps the historical default — the worker exits when the controller
    disconnects; the chaos harness passes ``once=False`` so agents
    reconnect through their backoff loop, and captures ``stderr`` to
    read the worker's ``CHAOS-FAULT`` coverage lines back.
    """
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--port",
        str(port),
        "--name",
        name,
        "--threads",
        str(threads),
    ]
    if once:
        argv.append("--once")
    if fault_plan:
        argv += ["--fault-plan", fault_plan]
    if reconnect_delay is not None:
        argv += ["--reconnect-delay", str(reconnect_delay)]
    return subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=stderr,
    )


def _reap(procs: List[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def bench_remote_scaling(
    *,
    num_nodes: int = 20_000,
    avg_degree: int = 16,
    dim: int = 64,
    repeats: int = 3,
    worker_counts: Sequence[int] = (1, 2),
    pattern: str = "sigmoid_embedding",
    kill_one: bool = True,
    hedge_leg: bool = True,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Throughput of remote sharded execution at each worker-host count.

    Every row records whether the distributed result was bitwise
    identical to sequential ``fusedmm`` — the tier's identity contract is
    that shard *placement* (local process, remote host, parent fallback)
    never changes the bytes of ``Z``.  With ``kill_one`` a failover row
    runs two hosts, one rigged to crash mid-batch, and reports the
    recovery wall-clock plus the controller's loss/retry counters.  With
    ``hedge_leg`` a straggler row runs two hosts, one rigged to stall on
    a late RUN; the controller's speculative hedge must complete the
    chunk in-parent (``hedge_wins >= 1``) while the bytes stay identical.
    """
    A = rmat(num_nodes, num_nodes * avg_degree, seed=seed)
    X = random_features(A.nrows, dim, seed=seed)
    ref = fusedmm(A, X, X, pattern=pattern, num_threads=1)

    rows: List[Dict[str, object]] = []
    for workers in worker_counts:
        runtime = KernelRuntime(num_threads=1, processes=0, remote_port=0)
        procs: List[subprocess.Popen] = []
        try:
            controller = runtime.controller
            procs = [
                spawn_worker(controller.port, f"w{i}") for i in range(int(workers))
            ]
            joined = controller.wait_for_hosts(int(workers), timeout=_JOIN_TIMEOUT_S)
            if joined < int(workers):
                raise RuntimeError(
                    f"only {joined}/{workers} worker hosts registered within "
                    f"{_JOIN_TIMEOUT_S}s"
                )
            Z = runtime.run_sharded(A, X, pattern=pattern)  # warm-up + plan + ship
            identical = bool(np.array_equal(Z, ref))
            total = 0.0
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                runtime.run_sharded(A, X, pattern=pattern)
                total += time.perf_counter() - t0
            seconds = total / max(1, repeats)
            remote_stats = runtime.stats()["remote"]
        finally:
            runtime.close()
            _reap(procs)
        rows.append(
            {
                "benchmark": "remote_scaling",
                "leg": "scale",
                "graph": f"rmat n={num_nodes}",
                "nnz": A.nnz,
                "d": dim,
                "pattern": pattern,
                "workers": int(workers),
                "seconds": seconds,
                "edges_per_s": A.nnz / max(seconds, 1e-12),
                "identical": identical,
                "hosts_lost": remote_stats["hosts_lost"],
            }
        )

    base = next((r for r in rows if r["workers"] == 1), rows[0] if rows else None)
    for r in rows:
        r["speedup_vs_1worker"] = r["edges_per_s"] / max(base["edges_per_s"], 1e-12)

    if kill_one:
        runtime = KernelRuntime(num_threads=1, processes=0, remote_port=0)
        procs = []
        try:
            controller = runtime.controller
            # One healthy host, one rigged to crash on its first RUN: the
            # controller must detect the loss, re-route the dead host's
            # shard group to the survivor and still return the exact bytes.
            procs = [
                spawn_worker(controller.port, "survivor"),
                spawn_worker(controller.port, "victim", fault_plan="crash@1+"),
            ]
            joined = controller.wait_for_hosts(2, timeout=_JOIN_TIMEOUT_S)
            if joined < 2:
                raise RuntimeError(
                    f"only {joined}/2 worker hosts registered within "
                    f"{_JOIN_TIMEOUT_S}s"
                )
            t0 = time.perf_counter()
            Z = runtime.run_sharded(A, X, pattern=pattern)
            seconds = time.perf_counter() - t0
            identical = bool(np.array_equal(Z, ref))
            remote_stats = runtime.stats()["remote"]
        finally:
            runtime.close()
            _reap(procs)
        rows.append(
            {
                "benchmark": "remote_scaling",
                "leg": "failover",
                "graph": f"rmat n={num_nodes}",
                "nnz": A.nnz,
                "d": dim,
                "pattern": pattern,
                "workers": 2,
                "seconds": seconds,
                "edges_per_s": A.nnz / max(seconds, 1e-12),
                "identical": identical,
                "hosts_lost": remote_stats["hosts_lost"],
                "retries": remote_stats["retries"],
            }
        )

    if hedge_leg:
        warm = 3
        runtime = KernelRuntime(num_threads=1, processes=0, remote_port=0)
        procs = []
        try:
            controller = runtime.controller
            # One steady host, one rigged to stall for 3s on the RUN
            # right after the warm-up batches.  By then the controller
            # has enough per-nnz throughput samples to place a hedge
            # deadline, so the stalled chunk is speculatively recomputed
            # in-parent and the straggler's eventual reply is discarded.
            procs = [
                spawn_worker(controller.port, "steady"),
                spawn_worker(
                    controller.port,
                    "laggard",
                    fault_plan=f"delay@{warm + 1}:3.0",
                ),
            ]
            joined = controller.wait_for_hosts(2, timeout=_JOIN_TIMEOUT_S)
            if joined < 2:
                raise RuntimeError(
                    f"only {joined}/2 worker hosts registered within "
                    f"{_JOIN_TIMEOUT_S}s"
                )
            for _ in range(warm):
                runtime.run_sharded(A, X, pattern=pattern)
            t0 = time.perf_counter()
            Z = runtime.run_sharded(A, X, pattern=pattern)
            seconds = time.perf_counter() - t0
            identical = bool(np.array_equal(Z, ref))
            remote_stats = runtime.stats()["remote"]
        finally:
            runtime.close()
            _reap(procs)
        rows.append(
            {
                "benchmark": "remote_scaling",
                "leg": "hedge",
                "graph": f"rmat n={num_nodes}",
                "nnz": A.nnz,
                "d": dim,
                "pattern": pattern,
                "workers": 2,
                "seconds": seconds,
                "edges_per_s": A.nnz / max(seconds, 1e-12),
                "identical": identical
                and remote_stats["hedge_wins"] >= 1,
                "hedges": remote_stats["hedges"],
                "hedge_wins": remote_stats["hedge_wins"],
            }
        )
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2], help="worker-host counts"
    )
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--avg-degree", type=int, default=16)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--no-kill",
        action="store_true",
        help="skip the failover leg (kill one of two hosts mid-batch)",
    )
    parser.add_argument(
        "--no-hedge",
        action="store_true",
        help="skip the hedge leg (stall one of two hosts on a late RUN)",
    )


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Dict]:
    """The suite's rows and the ``config`` block of its record."""
    nodes = args.nodes or (4_000 if args.quick else 20_000)
    dim = args.dim or (32 if args.quick else 64)
    repeats = args.repeats or (2 if args.quick else 3)
    rows = bench_remote_scaling(
        num_nodes=nodes,
        avg_degree=args.avg_degree,
        dim=dim,
        repeats=repeats,
        worker_counts=args.workers,
        kill_one=not args.no_kill,
        hedge_leg=not args.no_hedge,
    )
    return rows, {"nodes": nodes, "dim": dim, "repeats": repeats}


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of ``rows``; none is a wall-clock target."""
    failures = []
    for r in rows:
        if not r["identical"]:
            failures.append(
                f"{r['leg']} leg, {r['workers']} workers: result not bitwise identical"
            )
        if r["leg"] == "failover" and (r["hosts_lost"] < 1 or r["retries"] < 1):
            failures.append(
                "failover leg did not exercise recovery "
                f"(hosts_lost={r['hosts_lost']}, retries={r['retries']})"
            )
        if r["leg"] == "hedge" and r["hedge_wins"] < 1:
            failures.append(
                "hedge leg did not exercise speculation "
                f"(hedges={r['hedges']}, hedge_wins={r['hedge_wins']})"
            )
    return failures
