"""JIT-backend speedup benchmark (the paper's Table VI row, Python-scale).

Times the same FusedMM call through three rungs on one RMAT graph:
``optimized`` (edge blocking without specialisation — the generator's
all-calls form, :func:`~repro.experiments.ablations.all_calls_pattern`),
``generated`` (the code-generated kernel) and ``jit`` (Numba compiled).
It reports per-rung throughput plus the jit-over-optimized speedup — the
repo's acceptance gate requires ≥3× on ``sigmoid_embedding`` at d=128
when numba is installed.

Without numba the jit rows are skipped (the interpreted fallback exists
for correctness testing, not for timing) and the record notes
``jit_available: false`` so the trend tooling does not compare apples to
oranges; the gate then has nothing to check.

Run by ``repro bench jit [--quick]``.  The drift check always gates;
``--no-check`` waives only the speedup target.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import jit as jit_backend
from ..core.fused import fusedmm
from ..graphs import rmat
from ..graphs.features import random_features

__all__ = ["bench_jit_speedup", "MIN_SPEEDUP"]

TITLE = "JIT backend speedup (vs NumPy backends)"

#: The pattern the gate applies to (the paper's headline kernel).
GATE_PATTERN = "sigmoid_embedding"

#: Acceptance gate: jit must beat the optimized rung by this factor on
#: the gate pattern (d=128) when numba is installed.
MIN_SPEEDUP = 3.0

#: The compiled kernel may drift from the optimized one by at most this.
MAX_ABS_ERR = 1e-3


def bench_jit_speedup(
    *,
    num_nodes: int = 20_000,
    avg_degree: int = 16,
    dim: int = 128,
    repeats: int = 3,
    patterns: Sequence[str] = ("sigmoid_embedding", "fr_layout", "gcn"),
    seed: int = 11,
) -> List[Dict[str, object]]:
    """Per-rung timings for each pattern on one RMAT graph.

    The jit backend is warmed (compiled) before timing — compilation is a
    one-off cost the ``cache=True`` kernels amortise across processes, not
    part of steady-state throughput.  Every jit row records ``max_abs_err``
    against the optimized result as a cheap sanity check.
    """
    from ..experiments.ablations import all_calls_pattern

    A = rmat(num_nodes, num_nodes * avg_degree, seed=seed)
    X = random_features(A.nrows, dim, seed=seed)
    available = jit_backend.jit_available()
    if available:
        jit_backend.warmup()

    rows: List[Dict[str, object]] = []
    for pattern in patterns:
        timings: Dict[str, float] = {}
        results: Dict[str, np.ndarray] = {}
        rungs = {
            "optimized": dict(pattern=all_calls_pattern(pattern), backend="generated"),
            "generated": dict(pattern=pattern, backend="generated"),
            "jit": dict(pattern=pattern, backend="jit"),
        }
        for backend, call in rungs.items():
            if backend == "jit" and not available:
                continue
            fusedmm(A, X, X, **call)  # warm-up
            best = float("inf")
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                Z = fusedmm(A, X, X, **call)
                best = min(best, time.perf_counter() - t0)
            timings[backend] = best
            results[backend] = Z
        for backend, seconds in timings.items():
            row: Dict[str, object] = {
                "benchmark": "jit_speedup",
                "graph": f"rmat n={num_nodes}",
                "nnz": A.nnz,
                "d": dim,
                "pattern": pattern,
                "backend": backend,
                "jit_available": available,
                "seconds": seconds,
                "edges_per_s": A.nnz / max(seconds, 1e-12),
                "speedup_vs_optimized": timings["optimized"] / max(seconds, 1e-12),
            }
            if backend == "jit":
                row["max_abs_err"] = float(
                    np.max(
                        np.abs(
                            results["jit"].astype(np.float64)
                            - results["optimized"].astype(np.float64)
                        )
                    )
                )
            rows.append(row)
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--avg-degree", type=int, default=16)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--patterns", nargs="+", default=[GATE_PATTERN, "fr_layout", "gcn"]
    )


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Optional[Dict]]:
    """The suite's rows; its record carries no ``config`` block."""
    rows = bench_jit_speedup(
        num_nodes=args.nodes or (4_000 if args.quick else 20_000),
        avg_degree=args.avg_degree,
        dim=args.dim or (32 if args.quick else 128),
        repeats=args.repeats or (2 if args.quick else 3),
        patterns=args.patterns,
    )
    return rows, None


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of the jit rows on the gate pattern."""
    failures = []
    for r in rows:
        if r["backend"] != "jit" or r["pattern"] != GATE_PATTERN:
            continue
        if r["max_abs_err"] > MAX_ABS_ERR:
            failures.append(f"jit result drifted from optimized: {r['max_abs_err']}")
        if not no_check and r["speedup_vs_optimized"] < MIN_SPEEDUP:
            failures.append(
                f"jit speedup {r['speedup_vs_optimized']:.2f}x < required "
                f"{MIN_SPEEDUP:.1f}x on {GATE_PATTERN}"
            )
    return failures
