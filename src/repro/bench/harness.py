"""Kernel-comparison harness shared by the experiment modules.

The central measurement of the paper (Table VI, Figs. 8–9, Fig. 11) is a
three-way kernel comparison on one graph, one application pattern and one
feature dimension:

* ``dgl``        — the unfused SDDMM → H → SpMM pipeline,
* ``fusedmm``    — the general (unoptimized) fused kernel (Alg. 1 reference),
* ``fusedmmopt`` — the optimized fused kernel (``backend="auto"``: jit
  where numba is importable, else the generated kernel).

:func:`compare_kernels` runs exactly that comparison with the paper's
timing protocol and returns a row dictionary with times and speedups;
:func:`kernel_callables` exposes the three callables individually for
pytest-benchmark targets.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..baselines.unfused import unfused_fusedmm
from ..core.fused import fusedmm
from ..core.patterns import OpPattern
from ..graphs.features import random_features
from ..sparse import CSRMatrix, as_csr
from ..perf.timer import time_kernel

__all__ = ["kernel_callables", "compare_kernels", "make_operands"]

#: The generic reference kernel is O(nnz) *Python-level* iterations; cap the
#: problem size it is timed on so Table VI regeneration stays tractable, and
#: scale the measured time back up (documented in EXPERIMENTS.md).
GENERIC_TIMING_MAX_NNZ = 60_000


def make_operands(
    A,
    d: int,
    *,
    seed: int = 0,
    square_shares_features: bool = True,
):
    """Random single-precision feature operands (X, Y) for a kernel run."""
    A = as_csr(A)
    X = random_features(A.nrows, d, seed=seed)
    if square_shares_features and A.nrows == A.ncols:
        Y = X
    else:
        Y = random_features(A.ncols, d, seed=seed + 1)
    return X, Y


def kernel_callables(
    A,
    X: np.ndarray,
    Y: np.ndarray,
    *,
    pattern: OpPattern | str,
    num_threads: int = 1,
) -> Dict[str, Callable[[], np.ndarray]]:
    """The three comparands as zero-argument callables."""
    A = as_csr(A)

    def dgl() -> np.ndarray:
        return unfused_fusedmm(A, X, Y, pattern=pattern)

    def fused_generic() -> np.ndarray:
        return fusedmm(A, X, Y, pattern=pattern, backend="generic")

    def fused_opt() -> np.ndarray:
        return fusedmm(A, X, Y, pattern=pattern, backend="auto", num_threads=num_threads)

    return {"dgl": dgl, "fusedmm": fused_generic, "fusedmmopt": fused_opt}


def _scaled_generic_time(
    A: CSRMatrix,
    X: np.ndarray,
    Y: np.ndarray,
    pattern,
    repeats: int,
) -> float:
    """Time the reference kernel on a row prefix capped at
    ``GENERIC_TIMING_MAX_NNZ`` nonzeros and scale linearly to the full nnz
    (its cost is linear in nnz by construction)."""
    if A.nnz <= GENERIC_TIMING_MAX_NNZ:
        timing = time_kernel(
            fusedmm, A, X, Y, pattern=pattern, backend="generic", repeats=repeats, warmup=0
        )
        return timing.mean
    stop = int(np.searchsorted(A.indptr, GENERIC_TIMING_MAX_NNZ, side="left"))
    stop = max(1, min(stop, A.nrows))
    A_sample = A.row_slice(0, stop)
    timing = time_kernel(
        fusedmm,
        A_sample,
        X[:stop],
        Y,
        pattern=pattern,
        backend="generic",
        repeats=max(1, repeats // 2),
        warmup=0,
    )
    scale = A.nnz / max(A_sample.nnz, 1)
    return timing.mean * scale


def _interleaved_medians(*fns: Callable[[], object], repeats: int) -> Tuple[float, ...]:
    """Median seconds per call of each of ``fns``: one warm-up call each,
    then ``repeats`` rounds that call every function once.  Interleaving
    puts every comparand under the same host and allocator state, so a
    drift during the measurement moves all of them, not only the one timed
    last; the median keeps a single 2-4x spike of one call from deciding
    the comparison, as it would a mean of a few calls."""
    for fn in fns:
        fn()
    seconds = [[] for _ in fns]
    for _ in range(max(1, repeats)):
        for fn, acc in zip(fns, seconds):
            t0 = time.perf_counter()
            fn()
            acc.append(time.perf_counter() - t0)
    return tuple(float(np.median(acc)) for acc in seconds)


def compare_kernels(
    graph_name: str,
    A,
    d: int,
    *,
    pattern: OpPattern | str,
    app_name: Optional[str] = None,
    repeats: int = 3,
    num_threads: int = 1,
    include_generic: bool = True,
    seed: int = 0,
) -> Dict[str, object]:
    """Run the DGL / FusedMM / FusedMMopt comparison and return one row.

    The row contains the three times (seconds), the two speedups the
    paper reports (FusedMMopt over DGL, and FusedMMopt over the generic
    FusedMM), and the problem parameters.  The DGL and FusedMMopt times
    are medians of interleaved calls (:func:`_interleaved_medians`).
    """
    A = as_csr(A)
    X, Y = make_operands(A, d, seed=seed)
    callables = kernel_callables(A, X, Y, pattern=pattern, num_threads=num_threads)

    dgl_time, opt_time = _interleaved_medians(
        callables["dgl"], callables["fusedmmopt"], repeats=repeats
    )
    row: Dict[str, object] = {
        "graph": graph_name,
        "app": app_name or (pattern if isinstance(pattern, str) else pattern.name),
        "d": int(d),
        "dgl_s": dgl_time,
        "fusedmmopt_s": opt_time,
        "speedup_opt_vs_dgl": dgl_time / max(opt_time, 1e-12),
    }
    if include_generic:
        gen_time = _scaled_generic_time(A, X, Y, pattern, repeats)
        row["fusedmm_s"] = gen_time
        row["speedup_gen_vs_dgl"] = dgl_time / max(gen_time, 1e-12)
        row["speedup_opt_vs_gen"] = gen_time / max(opt_time, 1e-12)
    return row
