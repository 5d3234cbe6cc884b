"""Transport benchmark: the binary wire protocol vs the HTTP front-end.

One in-process server exposes both transports off the same coalescer and
is hammered by the same closed-loop client fleet over HTTP and over the
framed wire protocol (pipelined).  The acceptance gate is wire ≥ 1.3×
HTTP on tiny payloads; the large-payload leg is a sanity check, not a
gate: once kernel time dominates, the transports should converge.

Run by ``repro bench wire [--quick]``.  The speedup gate holds on any
core count — it measures transport overhead, not parallelism — and
``--no-check`` waives it; bitwise correctness always gates, on both legs
and both transports.  The serving stack is imported where it is used, as
in :mod:`repro.bench.serve_bench`.
"""

from __future__ import annotations

import argparse
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .serve_bench import _make_workload, _run_clients

__all__ = ["bench_wire_vs_http", "MIN_SPEEDUP"]

TITLE = "Serving transport (wire vs HTTP)"

#: Acceptance criterion: wire transport over HTTP on tiny payloads.
MIN_SPEEDUP = 1.3


def _run_wire_clients(
    host: str,
    port: int,
    problems,
    *,
    clients: int,
    requests_per_client: int,
    pattern: str,
    pipeline: int,
) -> Dict[str, object]:
    """Wire-protocol client fleet with a sliding pipeline window.

    Each client keeps up to ``pipeline`` requests outstanding (bounded by
    the server's credit grant) — pipelining is the capability the framed
    protocol adds over the request/response HTTP client, so the benchmark
    exercises it deliberately.  Every response is still verified bitwise.
    """
    from ..serve import WireClient

    errors: List[str] = []
    mismatches = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def _client(cid: int) -> None:
        try:
            with WireClient(host, port, timeout=120.0) as client:
                depth = max(1, min(pipeline, client.credits))
                barrier.wait()
                sent = 0
                inflight: Dict[int, int] = {}
                while sent < requests_per_client or inflight:
                    while sent < requests_per_client and len(inflight) < depth:
                        g = (cid + sent) % len(problems)
                        rid = client.send_kernel(
                            model=f"g{g}", x=problems[g][1], pattern=pattern
                        )
                        inflight[rid] = g
                        sent += 1
                    rid, value = client.recv()
                    g = inflight.pop(rid)
                    if isinstance(value, Exception):
                        raise value
                    if not np.array_equal(value, problems[g][2]):
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
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
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


def bench_wire_vs_http(
    *,
    clients: int = 6,
    requests_per_client: int = 25,
    num_graphs: int = 4,
    pattern: str = "sigmoid_embedding",
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    pipeline: int = 4,
    num_threads: Optional[int] = None,
    dispatch_workers: int = 2,
) -> List[Dict[str, object]]:
    """Compare the binary wire protocol against the HTTP front-end.

    One server per payload leg serves **both** transports off the same
    coalescer, so the measured difference is pure transport cost:

    * ``tiny``  — 96-node graphs, dim-8 operands: the HTTP-parse-bound
      regime the wire protocol exists for (gate: ≥ ``MIN_SPEEDUP``).
    * ``large`` — 1500-node graphs, dim-64 operands: kernel time
      dominates, so the transports should converge (sanity leg, no gate).

    Every response on every leg is verified bitwise against the serial
    ``fusedmm`` reference.  Returns one row per (leg, transport); wire
    rows carry ``speedup_vs_http``.
    """
    from ..serve import ServeConfig
    from ..serve.runner import BackgroundServer

    legs = [
        ("tiny", 96, 8, requests_per_client),
        ("large", 1500, 64, max(4, requests_per_client // 5)),
    ]
    rows: List[Dict[str, object]] = []
    for leg, nodes, dim, leg_requests in legs:
        problems = _make_workload(num_graphs, nodes, dim, pattern)
        config = ServeConfig(
            port=0,
            wire_port=0,
            wire_credits=max(pipeline, 4),
            models=(),
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max(4 * clients * max_batch, 256),
            num_threads=num_threads or 0,
            dispatch_workers=dispatch_workers,
        )
        bg = BackgroundServer(config)
        for i, (A, _X, _Z) in enumerate(problems):
            bg.server.registry.register_graph(f"g{i}", A)
        with bg:
            http = _run_clients(
                bg.host,
                bg.port,
                problems,
                clients=clients,
                requests_per_client=leg_requests,
                pattern=pattern,
            )
            wire = _run_wire_clients(
                bg.host,
                bg.wire_port,
                problems,
                clients=clients,
                requests_per_client=leg_requests,
                pattern=pattern,
                pipeline=pipeline,
            )
        for transport, result in (("http", http), ("wire", wire)):
            row: Dict[str, object] = {
                "payload": leg,
                "transport": transport,
                "clients": clients,
                "requests": result["requests"],
                "nodes": nodes,
                "dim": dim,
                "pipeline": pipeline if transport == "wire" else 1,
                "seconds": round(result["seconds"], 4),
                "rps": round(result["rps"], 1),
                "bitwise_identical": result["mismatched"] == 0
                and not result["errors"],
            }
            if result["errors"]:
                row["errors"] = result["errors"][:3]
            if transport == "wire" and http["rps"]:
                row["speedup_vs_http"] = round(
                    result["rps"] / http["rps"], 3
                )
            rows.append(row)
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None, help="per client")
    parser.add_argument("--pipeline", type=int, default=4)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Dict]:
    """The suite's rows and the ``config`` block of its record."""
    clients = args.clients or (4 if args.quick else 6)
    requests = args.requests or (15 if args.quick else 40)
    rows = bench_wire_vs_http(
        clients=clients,
        requests_per_client=requests,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        pipeline=args.pipeline,
    )
    config = {
        "clients": clients,
        "requests_per_client": requests,
        "pipeline": args.pipeline,
    }
    return rows, config


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of ``rows``."""
    failures = [
        f"{r['payload']}/{r['transport']}: responses drifted from the "
        f"sequential fusedmm reference ({r.get('errors', 'value mismatch')})"
        for r in rows
        if not r["bitwise_identical"]
    ]
    tiny_wire = next(
        (r for r in rows if r["payload"] == "tiny" and r["transport"] == "wire"),
        None,
    )
    if not no_check and tiny_wire is not None:
        speedup = tiny_wire.get("speedup_vs_http", 0.0)
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"tiny-payload wire speedup {speedup:.2f}x < required "
                f"{MIN_SPEEDUP:.1f}x"
            )
    return failures
