"""Vectorized FusedMM kernels (the paper's "FusedMMopt").

The paper obtains its optimized kernel by (a) register-blocking ``x_u`` and
``z_u`` in SIMD registers, (b) streaming the neighbour vectors ``y_v``
through the registers, and (c) writing ``z_u`` once per row with
non-temporal stores (Section IV.A, Fig. 5).  The Python analogue of those
three ideas is *blocking*:

* **Row-blocked kernel** (:func:`fusedmm_rowblocked`): for each output row,
  all neighbour features are gathered into one ``(k, d)`` array and the
  five steps run as single vectorized NumPy expressions over that array.
  ``x_u``/``z_u`` stay in cache for the whole row — the direct analogue of
  register-blocking them — and ``Z`` is written exactly once per row.
  Best when the average degree is high (Ogbprot., Orkut, Harvard).

* **Edge-blocked kernel** (:func:`fusedmm_edgeblocked`): edges are processed
  in fixed-size blocks; for each block the source and destination features
  are gathered, the five steps run vectorized over the block, and the block
  results are segment-reduced into ``Z`` using the CSR ordering (edges of
  the same row are contiguous, so ``np.ufunc.reduceat`` on the row-change
  boundaries does the aggregation without materialising anything larger
  than the block).  The intermediate footprint is ``O(block_size × d)``
  **independent of nnz** — this is what preserves the paper's memory-

  advantage claim (Fig. 10b) relative to the unfused baselines, which hold
  the full ``nnz × d`` message matrix H.  Best for low-degree graphs
  (Youtube, Amazon, Pubmed) where per-row vectorization is too short.

Both kernels accept any operator pattern via the registry's batched
callables, run over 1-D nnz-balanced partitions, and are property-tested
against the reference kernel of :mod:`repro.core.generic`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np

from .operators import Operator
from .parallel import ParallelConfig, run_partitioned
from .partition import RowPartition
from .patterns import OpPattern, ResolvedPattern, get_pattern
from .validation import resolve_out_window, validate_operands

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "fusedmm_rowblocked",
    "fusedmm_edgeblocked",
    "fusedmm_optimized",
    "auto_strategy",
]


# ---------------------------------------------------------------------- #
# Shared ``out=``/``row_offset=`` plumbing
# ---------------------------------------------------------------------- #
def _window_parts(A, w0: int, w1: int, parts, num_parts: int = 1):
    """The partition list for a windowed call: the caller's, or an
    nnz-balanced split of exactly the window rows (``None`` keeps the
    kernel's default full-matrix partitioning).

    The window is split into up to ``num_parts`` contiguous pieces so a
    windowed ``out=`` call still fans out over the thread pool.  Any row
    partitioning yields bitwise-identical results (edge blocks align to
    the absolute edge grid), so the split count is free to follow the
    thread count here.
    """
    if parts is not None:
        return parts
    if w0 == 0 and w1 == A.nrows:
        return None
    indptr = A.indptr
    nnz_lo, nnz_hi = int(indptr[w0]), int(indptr[w1])
    total = nnz_hi - nnz_lo
    n = max(1, min(int(num_parts), w1 - w0))
    bounds = [w0]
    for i in range(1, n):
        target = nnz_lo + (total * i) // n
        cut = int(np.searchsorted(indptr, target, side="left"))
        bounds.append(min(max(cut, bounds[-1]), w1))
    bounds.append(w1)
    return [
        RowPartition(a, b, int(indptr[b] - indptr[a]))
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]


def _alloc_accumulator(out, w0: int, w1: int, d: int, identity: float) -> np.ndarray:
    """The float64 accumulation buffer for the window ``[w0, w1)``.

    When ``out`` itself is a contiguous float64 array it is used directly
    (zero extra allocation); otherwise a window-sized scratch is created —
    never a full ``(nrows, d)`` matrix.  Accumulating in float64 and
    casting once at the end is what keeps ``out=`` results bitwise equal
    to the plain path.
    """
    if out is not None and out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]:
        out[...] = identity
        return out
    if identity == 0.0:
        return np.zeros((w1 - w0, d), dtype=np.float64)
    return np.full((w1 - w0, d), identity, dtype=np.float64)


def _finalize_output(Z: np.ndarray, out, result_dtype) -> np.ndarray:
    """Cast the float64 accumulator into ``out`` (or a fresh result)."""
    if out is None:
        return Z.astype(result_dtype)
    if Z is not out:
        out[...] = Z
    return out


#: Default number of edges per block for the edge-blocked kernel.  Chosen so
#: a block of d=128 single-precision messages (~4 MB) fits in the last-level
#: cache of the machines in Table IV; the autotuner refines it per problem.
DEFAULT_BLOCK_SIZE = 8192


# ---------------------------------------------------------------------- #
# Shared step executor (batched)
# ---------------------------------------------------------------------- #
def _run_steps_batch(
    pattern: ResolvedPattern,
    Xs: np.ndarray,
    Yd: np.ndarray,
    vals: np.ndarray,
) -> np.ndarray:
    """Run VOP → ROP → SOP → MOP over a batch of edges.

    ``Xs`` and ``Yd`` are the gathered ``(k, d)`` source/destination feature
    blocks (``Xs`` may be a single ``(d,)`` vector in the row-blocked
    kernel, which broadcasts), ``vals`` the ``(k,)`` edge values.  Returns
    the per-edge messages ``M`` with shape ``(k, d)`` or ``(k,)``.
    """
    vop, rop, sop, mop = pattern.vop, pattern.rop, pattern.sop, pattern.mop
    W = Yd if vop.is_noop else vop.batch_fn(Xs, Yd, vals)
    S = W if rop.is_noop else rop.batch_fn(W)
    H = S if sop.is_noop else sop.batch_fn(S)
    M = H if mop.is_noop else mop.batch_fn(H, Yd, vals, W)
    return M


def _accumulate_rowwise(aop: Operator, out_row: np.ndarray, M: np.ndarray) -> None:
    """Reduce the per-edge messages of one row into its output row."""
    if M.ndim == 1:
        # Scalar messages broadcast over the feature dimension.
        M = M[:, None]
    if aop.name == "ASUM":
        out_row += M.sum(axis=0)
    else:
        out_row[...] = aop.batch_fn(out_row, M)


# ---------------------------------------------------------------------- #
# Row-blocked kernel
# ---------------------------------------------------------------------- #
def fusedmm_rowblocked(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    num_threads: int = 1,
    parts_per_thread: int = 1,
    parts: Optional[Sequence[RowPartition]] = None,
    pool: Optional[ThreadPoolExecutor] = None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    **pattern_overrides,
) -> np.ndarray:
    """FusedMM with per-row vectorization (register-blocking analogue)."""
    A, X, Y = validate_operands(A, X, Y)
    resolved = get_pattern(pattern, **pattern_overrides).resolved()
    m, d = X.shape
    w0, w1 = resolve_out_window(out, row_offset, m, d)
    parts = _window_parts(
        A, w0, w1, parts, ParallelConfig(num_threads, parts_per_thread).num_parts
    )
    Z = _alloc_accumulator(out, w0, w1, d, 0.0)
    identity = resolved.aop.accumulator_identity
    indptr, indices, data = A.indptr, A.indices, A.data

    def kernel(part: RowPartition, z_slice: np.ndarray) -> None:
        for u in range(part.start, part.stop):
            lo, hi = indptr[u], indptr[u + 1]
            if lo == hi:
                continue
            cols = indices[lo:hi]
            vals = data[lo:hi]
            Yd = Y[cols]
            # Broadcast x_u over the neighbour dimension so every step sees
            # unambiguous (k, d) operands (a bare (d,) vector would be
            # indistinguishable from a (k,) per-edge scalar when k == d).
            Xs = np.broadcast_to(X[u], Yd.shape)
            M = _run_steps_batch(resolved, Xs, Yd, vals)
            row = z_slice[u - part.start]
            if identity not in (0.0, None):
                row[...] = identity
            _accumulate_rowwise(resolved.aop, row, np.atleast_1d(M))

    run_partitioned(
        A, Z, kernel, config=ParallelConfig(num_threads, parts_per_thread),
        parts=parts, pool=pool, row_offset=w0,
    )
    return _finalize_output(Z, out, X.dtype)


# ---------------------------------------------------------------------- #
# Edge-blocked kernel
# ---------------------------------------------------------------------- #
def _edge_block_ranges(lo: int, hi: int, block_size: int):
    """Yield ``[start, stop)`` edge ranges of at most ``block_size`` edges.

    Block boundaries are aligned to the *absolute* edge grid (multiples of
    ``block_size``), not to ``lo``: a row's edges are therefore chunked
    identically no matter which partition it lands in, which is what makes
    the partition-parallel results bitwise identical across thread counts
    (the invariant promised in :mod:`repro.core.parallel`).  For ``lo == 0``
    this is the plain fixed-size chunking.
    """
    start = lo
    while start < hi:
        stop = min((start // block_size + 1) * block_size, hi)
        yield start, stop
        start = stop


def fusedmm_edgeblocked(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    block_size: int = DEFAULT_BLOCK_SIZE,
    num_threads: int = 1,
    parts_per_thread: int = 1,
    parts: Optional[Sequence[RowPartition]] = None,
    pool: Optional[ThreadPoolExecutor] = None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    **pattern_overrides,
) -> np.ndarray:
    """FusedMM processing edges in fixed-size blocks with segment reduction.

    The intermediate arrays never exceed ``block_size × d`` elements, so the
    memory footprint stays flat in nnz and in d per block — the fused-kernel
    property the paper exploits (Section II, "The need for a fused kernel").
    """
    A, X, Y = validate_operands(A, X, Y)
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    resolved = get_pattern(pattern, **pattern_overrides).resolved()
    m, d = X.shape
    w0, w1 = resolve_out_window(out, row_offset, m, d)
    parts = _window_parts(
        A, w0, w1, parts, ParallelConfig(num_threads, parts_per_thread).num_parts
    )
    identity = resolved.aop.accumulator_identity
    aop_ufunc = resolved.aop.accumulate_ufunc
    use_sum = resolved.aop.name == "ASUM"
    Z = _alloc_accumulator(out, w0, w1, d, 0.0 if use_sum else identity)
    indptr, indices, data = A.indptr, A.indices, A.data
    # Row id of every edge, computed once: CSR guarantees these are sorted.
    edge_rows = np.repeat(np.arange(m, dtype=np.int64), A.row_degrees())

    def kernel(part: RowPartition, z_slice: np.ndarray) -> None:
        lo, hi = int(indptr[part.start]), int(indptr[part.stop])
        for e0, e1 in _edge_block_ranges(lo, hi, block_size):
            src = edge_rows[e0:e1]
            dst = indices[e0:e1]
            vals = data[e0:e1]
            Xs = X[src]
            Yd = Y[dst]
            M = _run_steps_batch(resolved, Xs, Yd, vals)
            M = np.atleast_1d(M)
            if M.ndim == 1:
                M = M[:, None]
            # Segment-reduce the block: edges of the same row are contiguous.
            change = np.flatnonzero(np.diff(src)) + 1
            starts = np.concatenate(([0], change))
            seg_rows = src[starts] - part.start
            if use_sum:
                seg = np.add.reduceat(M, starts, axis=0)
                z_slice[seg_rows] += seg
            else:
                seg = aop_ufunc.reduceat(M, starts, axis=0)
                z_slice[seg_rows] = aop_ufunc(z_slice[seg_rows], seg)

    run_partitioned(
        A, Z, kernel, config=ParallelConfig(num_threads, parts_per_thread),
        parts=parts, pool=pool, row_offset=w0,
    )
    if not use_sum:
        # Rows that never received a message hold the accumulator identity
        # (±inf); normalise them to zero like every other backend.
        empty = A.row_degrees()[w0:w1] == 0
        if np.any(empty):
            Z[empty] = 0.0
    return _finalize_output(Z, out, X.dtype)


# ---------------------------------------------------------------------- #
# Strategy dispatcher
# ---------------------------------------------------------------------- #
def auto_strategy(A) -> str:
    """The data-dependent row/edge choice of ``strategy="auto"``: edge
    blocking below an average degree of 32, where per-row vectorization is
    too short to pay off."""
    return "row" if A.avg_degree() >= 32 else "edge"


def fusedmm_optimized(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    strategy: str = "auto",
    block_size: Optional[int] = None,
    num_threads: int = 1,
    parts_per_thread: int = 1,
    parts: Optional[Sequence[RowPartition]] = None,
    pool: Optional[ThreadPoolExecutor] = None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    **pattern_overrides,
) -> np.ndarray:
    """Vectorized FusedMM choosing between the row-blocked and edge-blocked
    kernels.

    Parameters
    ----------
    strategy:
        ``"row"``, ``"edge"`` or ``"auto"`` (:func:`auto_strategy`: pick
        edge-blocking when the average degree is below 32 — short rows make
        per-row vectorization ineffective, mirroring the paper's
        observation that dense graphs amortise memory latency better).
    block_size:
        Edge-block size for the edge-blocked kernel; ``None`` uses
        :data:`DEFAULT_BLOCK_SIZE` (the autotuner may override it).
    """
    A_csr, X_arr, Y_arr = validate_operands(A, X, Y)
    if strategy not in {"auto", "row", "edge"}:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        strategy = auto_strategy(A_csr)
    if strategy == "row":
        return fusedmm_rowblocked(
            A_csr,
            X_arr,
            Y_arr,
            pattern=pattern,
            num_threads=num_threads,
            parts_per_thread=parts_per_thread,
            parts=parts,
            pool=pool,
            out=out,
            row_offset=row_offset,
            **pattern_overrides,
        )
    return fusedmm_edgeblocked(
        A_csr,
        X_arr,
        Y_arr,
        pattern=pattern,
        block_size=block_size or DEFAULT_BLOCK_SIZE,
        num_threads=num_threads,
        parts_per_thread=parts_per_thread,
        parts=parts,
        pool=pool,
        out=out,
        row_offset=row_offset,
        **pattern_overrides,
    )
