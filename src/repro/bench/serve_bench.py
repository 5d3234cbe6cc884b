"""Serving throughput benchmark: micro-batching vs one-at-a-time dispatch.

Starts an in-process :class:`~repro.serve.runner.BackgroundServer`, then
hammers it with N **closed-loop** clients (each fires its next request the
moment the previous response lands — the standard serving-benchmark load
model) in two configurations:

* ``serial``     — ``max_batch=1``: every request dispatches alone; the
  coalescer degenerates to a queue in front of the runtime.
* ``coalesced``  — the configured ``max_batch``/``max_wait_ms``: windows
  of concurrent requests execute as one ``run_batch`` call.

Every response is verified **bitwise** against a locally computed
sequential ``fusedmm`` reference before it counts — a throughput number
from wrong answers is worthless.

Run by ``repro bench serve [--quick]``.  Bitwise identity always gates.
The acceptance gate, coalesced ≥ 1.5× serial at ≥ 8 clients, applies
only on multi-core hosts and at full size, and ``--no-check`` waives it:
serialising everything onto one core hides exactly the concurrency
micro-batching converts into batch parallelism.

The serving stack is imported where it is used: the CLI imports every
suite module to build its parser, and the other suites' sub-millisecond
timing windows must not pay for the serving stack's import graph.
"""

from __future__ import annotations

import argparse
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.fused import fusedmm
from ..core.parallel import available_threads
from ..graphs.features import random_features
from ..sparse import random_csr

__all__ = ["bench_serve_throughput", "MIN_SPEEDUP", "GATE_MIN_CLIENTS"]

TITLE = "Serving throughput (micro-batching vs serial)"

#: Acceptance criterion: coalesced throughput over serial dispatch.
MIN_SPEEDUP = 1.5
#: The gate is only meaningful with real concurrency on the wire.
GATE_MIN_CLIENTS = 8


def _make_workload(
    num_graphs: int, nodes: int, dim: int, pattern: str, seed: int = 0
):
    """A pool of small request problems + their bitwise references."""
    problems = []
    for i in range(num_graphs):
        A = random_csr(nodes, nodes, density=4.0 / nodes, seed=seed + i)
        X = random_features(nodes, dim, seed=seed + 100 + i)
        Z = fusedmm(A, X, X, pattern=pattern, backend="auto")
        problems.append((A, X, Z))
    return problems


def _run_clients(
    host: str,
    port: int,
    problems,
    *,
    clients: int,
    requests_per_client: int,
    pattern: str,
) -> Dict[str, object]:
    """Closed-loop client fleet; returns throughput + correctness stats."""
    from ..serve import ServeClient

    errors: List[str] = []
    mismatches = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def _client(cid: int) -> None:
        try:
            with ServeClient(host, port, timeout=120.0) as client:
                barrier.wait()
                for r in range(requests_per_client):
                    g = (cid + r) % len(problems)
                    _A, X, Z_ref = problems[g]
                    # The registered-graph + raw-npy fast path: the same
                    # wire cost in both modes, so the measured difference
                    # is the dispatch the coalescer amortises.
                    Z = client.kernel_npy(X, model=f"g{g}", pattern=pattern)
                    if not np.array_equal(Z, Z_ref):
                        mismatches[cid] += 1
        except Exception as exc:  # noqa: BLE001 - reported as a row failure
            errors.append(f"client {cid}: {type(exc).__name__}: {exc}")
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [
        threading.Thread(target=_client, args=(cid,), daemon=True)
        for cid in range(clients)
    ]
    for t in threads:
        t.start()
    try:
        barrier.wait()  # release everyone at once; the clock starts here
    except threading.BrokenBarrierError:
        pass  # a client failed during connect; its error is recorded
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - t0
    total = clients * requests_per_client
    return {
        "seconds": seconds,
        "requests": total,
        "rps": total / seconds if seconds > 0 else 0.0,
        "mismatched": int(sum(mismatches)),
        "errors": errors,
    }


def bench_serve_throughput(
    *,
    clients: int = 8,
    requests_per_client: int = 25,
    nodes: int = 96,
    dim: int = 8,
    num_graphs: int = 8,
    pattern: str = "sigmoid_embedding",
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    num_threads: Optional[int] = None,
    dispatch_workers: int = 2,
    modes: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Measure serving throughput with and without micro-batching.

    The request problems are sized to be *packable* (small nnz, small
    dense footprint) — the regime micro-batching exists for: thousands of
    small concurrent requests, not a handful of machine-filling ones.
    Both modes get the same runtime (``num_threads=None`` → all cores)
    and the same dispatch width; what differs is that a coalesced window
    reaches the runtime's thread pool as *one* ``run_batch`` — packed
    kernels, one dispatch, full fan-out — while one-at-a-time dispatch
    pays per-request overhead and is capped at ``dispatch_workers``
    concurrent kernels.  Returns one row per mode; the ``coalesced`` row
    carries ``speedup_vs_serial`` and the coalescer's window stats.
    """
    from ..serve import ServeConfig
    from ..serve.runner import BackgroundServer

    problems = _make_workload(num_graphs, nodes, dim, pattern)
    rows: List[Dict[str, object]] = []
    serial_rps: Optional[float] = None
    for mode in modes or ["serial", "coalesced"]:
        config = ServeConfig(
            port=0,
            models=(),  # kernel traffic only; no model registry cost
            max_batch=1 if mode == "serial" else max_batch,
            max_wait_ms=0.0 if mode == "serial" else max_wait_ms,
            max_queue=max(4 * clients * max_batch, 256),
            num_threads=num_threads or 0,
            dispatch_workers=dispatch_workers,
        )
        bg = BackgroundServer(config)
        # Register the workload graphs by name before the listener opens:
        # clients then ship only the dense operand per request, and the
        # plans are warm in both modes.
        for i, (A, _X, _Z) in enumerate(problems):
            bg.server.registry.register_graph(f"g{i}", A)
        with bg:
            result = _run_clients(
                bg.host,
                bg.port,
                problems,
                clients=clients,
                requests_per_client=requests_per_client,
                pattern=pattern,
            )
            stats = bg.server.statz()
        coal = stats["coalescer"] or {}
        row: Dict[str, object] = {
            "mode": mode,
            "clients": clients,
            "requests": result["requests"],
            "nodes": nodes,
            "dim": dim,
            "pattern": pattern,
            "max_batch": config.max_batch,
            "max_wait_ms": config.max_wait_ms,
            "seconds": round(result["seconds"], 4),
            "rps": round(result["rps"], 1),
            "batches": coal.get("batches", 0),
            "mean_window_occupancy": coal.get("mean_window_occupancy", 0.0),
            "wait_ms_p50": coal.get("wait_ms_p50", 0.0),
            "wait_ms_p99": coal.get("wait_ms_p99", 0.0),
            "bitwise_identical": result["mismatched"] == 0 and not result["errors"],
            "cache_hit_rate": stats.get("plan_cache_hit_rate", 0.0),
        }
        if result["errors"]:
            row["errors"] = result["errors"][:3]
        if mode == "serial":
            serial_rps = result["rps"]
        elif serial_rps:
            row["speedup_vs_serial"] = round(result["rps"] / serial_rps, 3)
        rows.append(row)
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None, help="per client")
    parser.add_argument("--nodes", type=int, default=96)
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Dict]:
    """The suite's rows and the ``config`` block of its record."""
    clients = args.clients or (4 if args.quick else 8)
    requests = args.requests or (10 if args.quick else 40)
    rows = bench_serve_throughput(
        clients=clients,
        requests_per_client=requests,
        nodes=args.nodes,
        dim=args.dim,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
    )
    config = {
        "clients": clients,
        "requests_per_client": requests,
        "nodes": args.nodes,
        "dim": args.dim,
    }
    return rows, config


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of ``rows``."""
    failures = [
        f"mode {r['mode']}: responses drifted from the sequential fusedmm "
        f"reference ({r.get('errors', 'value mismatch')})"
        for r in rows
        if not r["bitwise_identical"]
    ]
    coalesced = next((r for r in rows if r["mode"] == "coalesced"), None)
    speed_gate = (
        not no_check
        and not quick
        and coalesced is not None
        and coalesced["clients"] >= GATE_MIN_CLIENTS
        and available_threads() > 1
    )
    if speed_gate:
        speedup = coalesced.get("speedup_vs_serial", 0.0)
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"coalesced speedup {speedup:.2f}x < required {MIN_SPEEDUP:.1f}x "
                f"({coalesced['clients']} clients, {available_threads()} cpus)"
            )
    return failures
