"""Autotuning of FusedMM execution parameters.

The paper's library tunes its generated kernels per architecture: register
blocking factors, which vectors to prioritise for blocking, and a blocking
threshold for large dimensions (Section IV.B).  The tunable parameter of
the Python kernels is the **edge block size** (how many edges worth of
intermediates are alive at once — the register/L2-tile analogue), plus,
where numba is importable, whether the compiled jit tier beats them.

:func:`autotune` measures a small number of timed trial runs for each
candidate block size, through the generated kernel the plan runs, on (a
sample of) the actual operands and returns the fastest.  Results are
cached per ``(pattern, d, nnz-bucket, jit candidate)`` so repeated
calls (e.g. every training epoch) pay the tuning cost once — the same
usage model as ATLAS-style install-time tuning, scaled down to call-time.

The block choice touches no bitwise contract: the edge-block driver sums
each row left to right in the message dtype across block boundaries
(:mod:`repro.core.optimized`), so every candidate gives the same bits,
and the sweep trades speed and footprint only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..sparse import CSRMatrix
from . import jit as jit_backend
from .optimized import DEFAULT_BLOCK_SIZE
from .patterns import OpPattern, get_pattern
from .validation import validate_operands

__all__ = [
    "TuningResult",
    "autotune",
    "clear_tuning_cache",
    "tuning_cache_info",
    "DEFAULT_BLOCK_CANDIDATES",
]

#: Candidate edge-block sizes swept by default (powers of four around the
#: default, covering L1-sized to LLC-sized intermediate tiles).
DEFAULT_BLOCK_CANDIDATES: Tuple[int, ...] = (1024, 4096, 16384, 65536)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one autotuning sweep."""

    #: whether the jit candidate measured fastest (``auto`` then takes the
    #: jit tier, see :func:`repro.core.fused.resolve_backend`)
    jit_won: bool
    block_size: int
    best_time: float
    #: every (kind, block_size) → measured seconds; the jit candidate is
    #: ``("jit", 0)``
    trials: Dict[Tuple[str, int], float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for reports."""
        return {
            "jit_won": self.jit_won,
            "block_size": self.block_size,
            "best_time": self.best_time,
            "num_trials": len(self.trials),
        }


_TUNING_CACHE: Dict[Tuple, TuningResult] = {}


def clear_tuning_cache() -> None:
    """Drop all cached tuning results (mainly for tests)."""
    _TUNING_CACHE.clear()


def tuning_cache_info() -> Dict[str, int]:
    """Number of cached tuning results."""
    return {"cached_results": len(_TUNING_CACHE)}


def _nnz_bucket(nnz: int) -> int:
    """Bucket nnz on a log2 scale so similar problem sizes share a cache
    entry."""
    return int(math.log2(max(nnz, 1)))


def _sample_rows(A: CSRMatrix, max_nnz: int, seed: int = 0) -> CSRMatrix:
    """A contiguous row slice of ``A`` holding roughly ``max_nnz`` nonzeros,
    used so tuning runs stay cheap on huge graphs."""
    if A.nnz <= max_nnz:
        return A
    stop = int(np.searchsorted(A.indptr, max_nnz, side="left"))
    stop = max(1, min(stop, A.nrows))
    return A.row_slice(0, stop)


def autotune(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    jit: Optional[bool] = None,
    block_candidates: Sequence[int] = DEFAULT_BLOCK_CANDIDATES,
    repeats: int = 2,
    max_sample_nnz: int = 200_000,
    num_threads: int = 1,
    use_cache: bool = True,
    **pattern_overrides,
) -> TuningResult:
    """Pick the fastest block size for the given operands, timed through
    the generated kernel (the kind a plan runs unless the jit tier wins).

    Parameters
    ----------
    jit:
        Whether the jit backend competes as one more candidate.  The
        default (``None``) adds it whenever numba is importable and the
        pattern maps onto the compiled dispatch table; a winning jit trial
        makes ``auto`` pin the jit backend for the planned kernel.
    block_candidates:
        Edge block sizes to sweep.
    repeats:
        Timed repetitions per configuration; the minimum is kept.
    max_sample_nnz:
        Tuning runs on a row prefix of ``A`` holding at most this many
        nonzeros, so tuning stays cheap relative to the real call.
    """
    from .fused import resolve_backend  # the resolver imports this module

    A_csr, X_arr, Y_arr = validate_operands(A, X, Y)
    op_pattern = get_pattern(pattern, **pattern_overrides)
    resolved = op_pattern.resolved()
    if jit is None:
        jit = jit_backend.jit_available() and jit_backend.jit_supports_pattern(resolved)
    key = (
        tuple(sorted(resolved.op_names().items())),
        X_arr.shape[1],
        _nnz_bucket(A_csr.nnz),
        bool(jit),
        tuple(block_candidates),
        num_threads,
    )
    if use_cache and key in _TUNING_CACHE:
        return _TUNING_CACHE[key]

    sample = _sample_rows(A_csr, max_sample_nnz)
    Xs = X_arr[: sample.nrows]
    trials: Dict[Tuple[str, int], float] = {}

    def _time(fn, *args, **kwargs) -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            fn(*args, **kwargs)
            best = min(best, time.perf_counter() - t0)
        return best

    _, kernel = resolve_backend(op_pattern, "generated")
    for block in block_candidates:
        trials[("generated", int(block))] = _time(
            kernel, sample, Xs, Y_arr, block_size=int(block), num_threads=num_threads
        )
    if jit:
        trials[("jit", 0)] = _time(
            jit_backend.fusedmm_jit, sample, Xs, Y_arr, pattern=op_pattern
        )

    (best_kind, best_block), best_time = min(trials.items(), key=lambda kv: kv[1])
    jit_won = best_kind == "jit"
    result = TuningResult(
        jit_won=jit_won,
        block_size=DEFAULT_BLOCK_SIZE if jit_won else best_block,
        best_time=best_time,
        trials=trials,
    )
    if use_cache:
        _TUNING_CACHE[key] = result
    return result
