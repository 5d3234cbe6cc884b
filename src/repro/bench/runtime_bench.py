"""Throughput benchmarks for the batched kernel runtime.

Three measurements, run by ``repro bench runtime [--quick]``:

* **plan-cache amortisation** — repeated calls on one fixed adjacency.
  The cold path re-plans on every call (pattern resolution, partitioning,
  autotuning — what a naive per-call user of :class:`repro.core.FusedMM`
  pays each time); the warm path goes through
  :meth:`~repro.runtime.KernelRuntime.run` and hits the plan cache after
  the first call.

* **batch packing** — many small same-pattern requests issued as
  sequential :func:`~repro.core.fused.fusedmm` calls versus one
  :meth:`~repro.runtime.KernelRuntime.run_batch`, which packs them into a
  block-diagonal super-problem (results stay bitwise identical).

* **planned small requests** — :meth:`~repro.runtime.KernelRuntime.run_batch`
  one request at a time on serve-sized graphs (256 vertices, d=16) whose
  plans are cached, as a registered graph's warm plans are, versus an
  unplanned copy of the same matrices: the planned request replays its
  plan's kept edge-block schedule.

All three speedups are wall-clock targets, so ``--no-check`` waives them;
the planned results must equal the unplanned ones bitwise, always.
"""

from __future__ import annotations

import argparse
import gc
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.autotune import clear_tuning_cache
from ..core.fused import FusedMM, fusedmm
from ..graphs import rmat
from ..graphs.features import random_features
from ..runtime import KernelRequest, KernelRuntime
from ..sparse import random_csr
from .harness import _interleaved_medians

__all__ = [
    "bench_plan_cache",
    "bench_batch_packing",
    "bench_planned_small",
    "run_throughput_benchmark",
]

TITLE = "Kernel-runtime throughput"

#: Plan-cached repeated calls must beat cold re-planned calls by this
#: factor at full size.
PLAN_CACHE_MIN_SPEEDUP = 2.0
#: ``--quick`` graphs are small enough that only a win is required.
PLAN_CACHE_QUICK_MIN_SPEEDUP = 1.0
#: One packed ``run_batch`` must beat the sequential ``fusedmm`` calls.
BATCH_MIN_SPEEDUP = 1.0
#: A planned small request must beat the same request on an unplanned copy.
PLANNED_MIN_SPEEDUP = 1.0


def _mean_seconds(fn, repeats: int) -> float:
    # Pay down collector debt from setup/allocation before timing: these
    # windows are sub-millisecond, and a cyclic-GC pass landing inside
    # one (its cost scales with the whole process's object count, i.e.
    # with whatever else happens to be imported) would swamp the signal.
    gc.collect()
    total = 0.0
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        total += time.perf_counter() - t0
    return total / max(1, repeats)


def bench_plan_cache(
    *,
    num_nodes: int = 10_000,
    avg_degree: int = 8,
    dim: int = 64,
    repeats: int = 3,
    pattern: str = "sigmoid_embedding",
    num_threads: int = 1,
    seed: int = 1,
) -> Dict[str, object]:
    """Cold (re-planned, re-tuned every call) vs plan-cached repeated calls."""
    A = rmat(num_nodes, num_nodes * avg_degree, seed=seed)
    X = random_features(A.nrows, dim, seed=seed)

    def cold_call() -> None:
        # What every epoch pays without a runtime: resolution, partitioning
        # and autotuning from scratch (the tuning cache is cleared so the
        # measurement reflects a genuinely cold plan).
        clear_tuning_cache()
        kernel = FusedMM(
            A, pattern=pattern, autotune=True, autotune_dim=dim,
            num_threads=num_threads,
        )
        kernel(X)

    cold_s = _mean_seconds(cold_call, repeats)

    runtime = KernelRuntime(
        num_threads=num_threads, autotune=True, autotune_dim=dim
    )
    runtime.run(A, X, pattern=pattern)  # first call builds + tunes the plan
    warm_s = _mean_seconds(lambda: runtime.run(A, X, pattern=pattern), repeats)
    stats = runtime.stats()
    runtime.close()

    return {
        "benchmark": "plan_cache",
        "graph": f"rmat n={num_nodes}",
        "nnz": A.nnz,
        "d": dim,
        "pattern": pattern,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / max(warm_s, 1e-12),
        "cache_hits": stats["plan_cache"]["hits"],
        "cache_hit_rate": stats["plan_cache"]["hit_rate"],
    }


def bench_batch_packing(
    *,
    num_requests: int = 32,
    nodes: int = 96,
    density: float = 0.04,
    dim: int = 16,
    repeats: int = 3,
    pattern: str = "sigmoid_embedding",
    num_threads: Optional[int] = None,
    seed: int = 7,
) -> Dict[str, object]:
    """Sequential ``fusedmm`` calls vs one packed ``run_batch``."""
    problems = []
    for i in range(num_requests):
        A = random_csr(nodes, nodes, density=density, seed=seed + i)
        X = random_features(nodes, dim, seed=seed + i)
        problems.append((A, X))

    def sequential() -> List[np.ndarray]:
        return [
            fusedmm(A, X, pattern=pattern, num_threads=1) for A, X in problems
        ]

    seq_s = _mean_seconds(sequential, repeats)

    runtime = KernelRuntime(num_threads=num_threads)
    requests = [KernelRequest(A, X, pattern=pattern) for A, X in problems]
    # Include one cold batch (plans built) in the reported first-call time,
    # then measure the steady state the serving loop actually sees.
    t0 = time.perf_counter()
    runtime.run_batch(requests)
    batch_cold_s = time.perf_counter() - t0
    batch_s = _mean_seconds(lambda: runtime.run_batch(requests), repeats)
    stats = runtime.stats()
    runtime.close()

    return {
        "benchmark": "batch_packing",
        "graph": f"{num_requests}×({nodes}², {density})",
        "nnz": sum(A.nnz for A, _ in problems),
        "d": dim,
        "pattern": pattern,
        "sequential_s": seq_s,
        "batch_cold_s": batch_cold_s,
        "batch_s": batch_s,
        "speedup": seq_s / max(batch_s, 1e-12),
        "packed_requests": stats["packed_requests"],
        "cache_hit_rate": stats["plan_cache"]["hit_rate"],
    }


def bench_planned_small(
    *,
    graphs: int = 8,
    nodes: int = 256,
    avg_degree: int = 8,
    dim: int = 16,
    repeats: int = 30,
    pattern: str = "sigmoid_embedding",
    num_threads: int = 1,
    seed: int = 11,
) -> Dict[str, object]:
    """``run_batch`` per request on planned graphs vs unplanned copies.

    Each sweep submits one request per graph, one ``run_batch`` call each
    (too large to pack: ``(2 × 256) × 16`` dense elements).  The two
    sweeps are timed as medians of interleaved rounds.
    """
    mats = [
        random_csr(nodes, nodes, density=avg_degree / nodes, seed=seed + i)
        for i in range(graphs)
    ]
    feats = [random_features(nodes, dim, seed=seed + i) for i in range(graphs)]
    runtime = KernelRuntime(num_threads=num_threads)
    for A in mats:  # what registering a graph does
        runtime.plan(A, pattern=pattern, reorder="none")
    planned = [KernelRequest(A, X, pattern=pattern) for A, X in zip(mats, feats)]
    unplanned = [
        KernelRequest(A.copy(), X, pattern=pattern) for A, X in zip(mats, feats)
    ]

    def sweep(requests):
        return lambda: [runtime.run_batch([r])[0] for r in requests]

    planned_s, unplanned_s = _interleaved_medians(
        sweep(planned), sweep(unplanned), repeats=repeats
    )
    bitwise = all(
        np.array_equal(a, b) for a, b in zip(sweep(planned)(), sweep(unplanned)())
    )
    stats = runtime.stats()
    runtime.close()
    return {
        "benchmark": "planned_small",
        "graph": f"{graphs}×({nodes}², degree {avg_degree})",
        "nnz": sum(A.nnz for A in mats),
        "d": dim,
        "pattern": pattern,
        "planned_s": planned_s / graphs,
        "unplanned_s": unplanned_s / graphs,
        "speedup": unplanned_s / max(planned_s, 1e-12),
        "bitwise": bitwise,
        "cache_hit_rate": stats["plan_cache"]["hit_rate"],
    }


def run_throughput_benchmark(
    *,
    quick: bool = False,
    num_threads: int = 1,
    dims=(64,),
) -> List[Dict[str, object]]:
    """The full runtime benchmark grid (scaled down under ``--quick``)."""
    nodes = 2_000 if quick else 10_000
    repeats = 2 if quick else 3
    num_requests = 8 if quick else 32
    rows: List[Dict[str, object]] = []
    for d in dims:
        rows.append(
            bench_plan_cache(
                num_nodes=nodes,
                dim=int(d),
                repeats=repeats,
                num_threads=num_threads,
            )
        )
    rows.append(
        bench_batch_packing(
            num_requests=num_requests,
            repeats=repeats,
            num_threads=num_threads,
        )
    )
    rows.append(bench_planned_small(repeats=10 * repeats, num_threads=num_threads))
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=1)


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Dict]:
    """The suite's rows and the ``config`` block of its record."""
    rows = run_throughput_benchmark(quick=args.quick, num_threads=args.threads)
    return rows, {"quick": args.quick, "threads": args.threads}


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of ``rows``: the speedup targets are
    wall-clock; planned results that differ from unplanned ones always
    fail."""
    failures = [
        f"planned_small results differ from unplanned ones ({r['graph']})"
        for r in rows
        if r["benchmark"] == "planned_small" and not r["bitwise"]
    ]
    if no_check:
        return failures
    plan_target = PLAN_CACHE_QUICK_MIN_SPEEDUP if quick else PLAN_CACHE_MIN_SPEEDUP
    targets = {
        "plan_cache": plan_target,
        "batch_packing": BATCH_MIN_SPEEDUP,
        "planned_small": PLANNED_MIN_SPEEDUP,
    }
    for r in rows:
        target = targets[r["benchmark"]]
        if r["speedup"] < target:
            failures.append(
                f"{r['benchmark']} speedup {r['speedup']:.2f}x < {target:.1f}x "
                f"({r['graph']})"
            )
    return failures
