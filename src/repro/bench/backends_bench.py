"""Backend benchmark: each kernel against SciPy's loop and the Eq. 4 floor.

Times one FusedMM call per pattern on the flickr twin at d=16 and d=128
through ``generated`` (the edge-block driver) and ``generic`` (the
Algorithm 1 reference), beside two floors: one whole-matrix call of the
compiled CSR SpMM loop the driver sums with (``csr_matvecs``, ``Z = A·Y``,
no per-edge work), and the Eq. 4 traffic model
(:func:`~repro.perf.machine.traffic_bytes`) over the host's measured
STREAM bandwidth.  ``over_floor`` and ``over_matvecs`` say how far the
generated kernel sits above each; the paper's claim is that FusedMM is
memory-bound (Section III, Fig. 7), so the Eq. 4 floor is the target.

The identity check always gates, ``--no-check`` included: the generated
result must be bitwise equal across block sizes (each row is summed left
to right in the message dtype, whatever cuts it) and allclose to
``generic``.  There is no wall-clock target.

Run by ``repro bench backends [--quick]``.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.fused import fusedmm
from ..core.optimized import _csr_matvecs
from ..graphs import load_dataset
from ..graphs.features import random_features
from ..perf.machine import traffic_bytes
from ..perf.roofline import measure_stream_bandwidth
from ..perf.timer import time_kernel

__all__ = ["bench_backends", "BLOCK_SIZES", "DIMS", "MAX_ABS_ERR", "PATTERNS"]

TITLE = "Backends against the whole-matrix SpMM loop and the Eq. 4 floor"

#: Feature widths timed: a narrow and a wide one.
DIMS = (16, 128)

#: The patterns timed: the paper's embedding, layout and GNN kernels.
PATTERNS = ("sigmoid_embedding", "fr_layout", "gcn")

#: Block sizes the identity check compares: the first two cut the
#: flickr twin's long rows, the default does not cut most of them.
BLOCK_SIZES = (37, 64, 8192)

#: ``generated`` may differ from ``generic`` (float64 row sums) by this
#: much: float32 features scaled by 0.1, rows of up to a few thousand edges.
MAX_ABS_ERR = 1e-3


def bench_backends(
    *, scale: float = 1.0, repeats: int = 5, seed: int = 5
) -> List[Dict[str, object]]:
    """One row per (pattern, d) of :data:`PATTERNS` × :data:`DIMS`: the
    generated kernel's best of ``repeats`` seconds, the generic and
    whole-matrix ``csr_matvecs`` seconds, the Eq. 4 floor and the
    identity check's two numbers (``block_drift``, the largest
    difference across :data:`BLOCK_SIZES`, and ``max_abs_err`` against
    ``generic``)."""
    A = load_dataset("flickr", scale=scale).adjacency
    bandwidth = measure_stream_bandwidth()
    rows: List[Dict[str, object]] = []
    for d in DIMS:
        # Scaled so sigmoid inputs stay in its sensitive range.
        X = (0.1 * random_features(A.nrows, d, seed=seed)).astype(np.float32)

        def matvecs() -> np.ndarray:
            Z = np.zeros((A.nrows, d), np.float32)
            _csr_matvecs(A.nrows, A.ncols, d, A.indptr, A.indices, A.data, X, Z)
            return Z

        matvecs_s = time_kernel(matvecs, repeats=repeats).best
        floor_s = traffic_bytes(A, d, fused=True) / (bandwidth * 1e9)
        for pattern in PATTERNS:
            opts = dict(pattern=pattern, backend="generated")
            # The untimed first call gives the result and warms the kernel.
            Z = fusedmm(A, X, X, **opts)
            seconds = time_kernel(
                fusedmm, A, X, X, repeats=repeats, warmup=0, **opts
            ).best
            blocked = [fusedmm(A, X, X, block_size=b, **opts) for b in BLOCK_SIZES]
            bitwise = all(np.array_equal(Zb, Z) for Zb in blocked)
            drift = max(float(np.max(np.abs(Zb - Z), initial=0.0)) for Zb in blocked)
            del blocked
            t0 = time.perf_counter()
            G = fusedmm(A, X, X, pattern=pattern, backend="generic")
            generic_s = time.perf_counter() - t0
            rows.append(
                {
                    "benchmark": "backends",
                    "graph": f"flickr twin n={A.nrows}",
                    "nnz": A.nnz,
                    "d": d,
                    "pattern": pattern,
                    "seconds": seconds,
                    "generic_s": generic_s,
                    "matvecs_s": matvecs_s,
                    "floor_ms": 1e3 * floor_s,
                    "over_floor": seconds / floor_s,
                    "over_matvecs": seconds / matvecs_s,
                    "block_bitwise": bitwise,
                    "block_drift": drift,
                    "max_abs_err": float(
                        np.max(np.abs(Z.astype(np.float64) - G), initial=0.0)
                    ),
                }
            )
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=None)


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Optional[Dict]]:
    """The suite's rows and the ``config`` block of its record."""
    scale = args.scale or (0.1 if args.quick else 1.0)
    repeats = args.repeats or (2 if args.quick else 5)
    rows = bench_backends(scale=scale, repeats=repeats)
    return rows, {"scale": scale, "dims": list(DIMS), "repeats": repeats}


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The identity check's failures (it has no wall-clock target, so
    ``quick``/``no_check`` waive nothing)."""
    failures = []
    for r in rows:
        where = f"{r['pattern']} d={r['d']}"
        if not r["block_bitwise"]:
            failures.append(
                f"{where}: generated differs across block sizes {BLOCK_SIZES} "
                f"(max |diff| {r['block_drift']:.2e})"
            )
        if r["max_abs_err"] > MAX_ABS_ERR:
            failures.append(
                f"{where}: generated drifted from generic (max_abs_err {r['max_abs_err']:.2e})"
            )
    return failures
