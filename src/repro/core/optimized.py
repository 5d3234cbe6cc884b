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
  results are segment-summed into ``Z``.  The intermediate footprint is
  ``O(block_size × d)`` **independent of nnz** — this is what preserves the
  paper's memory-advantage claim (Fig. 10b) relative to the unfused
  baselines, which hold the full ``nnz × d`` message matrix H.  Best for
  low-degree graphs (Youtube, Amazon, Pubmed) where per-row vectorization
  is too short.

Every edge-blocked backend (this module, :mod:`repro.core.codegen` and
the unfused baseline's
:func:`~repro.baselines.spmm.gspmm`) runs through one driver,
:func:`run_edge_blocks`.  It owns validation, the output window, the
absolute edge grid and the reduction; a backend supplies only the block
body, which maps a block's edges to their messages.

**Summation order.**  Within each edge block, a row's partial sum
accumulates left to right in CSR edge order, in the message dtype, and is
then added into the float64 ``Z`` (:func:`segment_order`,
:func:`segment_sum`).  The driver hands the body a block's edges already
in the order the sum reads them, so the messages are never gathered a
second time.  ``max``/``min`` aggregations use ``ufunc.reduceat``, which
is exact in any order.  The row-blocked kernel (``strategy="row"``) is
outside this contract: its per-row ``M.sum(axis=0)`` is left to NumPy.

Both kernels accept any operator pattern via the registry's batched
callables, run over 1-D nnz-balanced partitions, and are property-tested
against the reference kernel of :mod:`repro.core.generic`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from ..sparse import as_csr
from .operators import Operator
from .parallel import ParallelConfig, run_partitioned
from .partition import RowPartition
from .patterns import OpPattern, ResolvedPattern, get_pattern
from .validation import ensure_float_matrix, resolve_out_window, validate_operands

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "fusedmm_rowblocked",
    "fusedmm_edgeblocked",
    "fusedmm_optimized",
    "auto_strategy",
    "run_edge_blocks",
    "segment_order",
    "segment_sum",
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


#: Segments up to this long are summed together, one edge position at a
#: time; each longer one is summed by one NumPy reduction.
_SHORT_SEGMENT = 32


def segment_order(seg_ptr: np.ndarray) -> Tuple[np.ndarray, Callable]:
    """Plan the left-to-right sums of one edge block's row segments.

    Segment ``i`` covers the block's edges ``[seg_ptr[i], seg_ptr[i+1])``.
    Returns ``(perm, fold)``: ``perm`` lists the block's edges in the order
    ``fold`` reads them, and ``fold(M)`` maps those edges' messages (the
    rows of ``M``, in ``perm`` order) to one sum per segment.  Each sum adds
    its segment's messages left to right in edge order, in the message
    dtype: a long segment in one reduction along the slow axis of its
    ``(edges, d)`` messages, which NumPy adds element by element (the
    notes of ``np.sum``); the short ones together, one edge position at a
    time.
    """
    lengths = np.diff(seg_ptr)
    order = np.argsort(-lengths, kind="stable")  # longest first
    n_long = int(np.count_nonzero(lengths > _SHORT_SEGMENT))
    long, short = order[:n_long], order[n_long:]
    # Short segments in position-major order: position 0 of every one, then
    # position 1 of those still running (a prefix, longest first), ...
    pos = np.arange(lengths[short[0]] if len(short) else 0)[:, None]
    running = pos < lengths[short]
    active = np.count_nonzero(running, axis=1)
    perm = (seg_ptr[short] + pos)[running]
    if n_long:  # long segments go first, whole and in edge order
        long_lengths = lengths[long]
        offsets = np.repeat(seg_ptr[long] - (np.cumsum(long_lengths) - long_lengths), long_lengths)
        perm = np.concatenate((np.arange(len(offsets)) + offsets, perm))

    def fold(M: np.ndarray) -> np.ndarray:
        M = np.ascontiguousarray(M)  # so a segment's slow axis is its edges
        d = M.shape[1]
        out = np.empty((len(lengths), d), M.dtype)
        lo = 0
        for s in long:
            seg = M[lo:lo + lengths[s]]
            lo += lengths[s]
            # A single column is the fast axis, which np.sum sums pairwise.
            out[s] = np.add.reduce(seg, axis=0) if d > 1 else np.add.accumulate(seg)[-1]
        acc = np.zeros((len(short), d), M.dtype)
        for n in active:
            acc[:n] += M[lo:lo + n]
            lo += n
        out[short] = acc
        return out

    return perm, fold


def segment_sum(seg_ptr: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Left-to-right sums of the row segments of ``M`` (edges in block
    order; see :func:`segment_order`)."""
    perm, fold = segment_order(seg_ptr)
    return fold(M[perm])


def run_edge_blocks(
    A,
    X,
    Y,
    body: Callable,
    *,
    aop: Optional[Operator] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    num_threads: int = 1,
    parts_per_thread: int = 1,
    parts: Optional[Sequence[RowPartition]] = None,
    pool: Optional[ThreadPoolExecutor] = None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
) -> np.ndarray:
    """The one edge-blocked FusedMM driver.

    ``body(X, Y, src, dst, vals, edges)`` returns the messages of one block
    of edges — ``(k, d)``, or ``(k,)`` scalars broadcast over the features:
    ``edges`` indexes the CSR edge arrays, ``src``/``dst`` are the edges'
    row and column ids and ``vals`` their values.  The edges come in
    summation order (:func:`segment_order`), not CSR order, so a body must
    compute each edge's message on its own.  ``aop`` is the aggregation
    operator (``None`` sums).  ``X=None`` is the SpMM form, ``Z = A · Y``,
    whose body never reads source features.

    Blocks align to the absolute edge grid, so any row partitioning chunks
    a row's edges identically and results are bitwise identical across
    thread counts.  The intermediates never exceed a few ``block_size × d``
    arrays, so the footprint stays flat in nnz — the fused-kernel property
    the paper exploits (Section II).
    """
    if X is None:
        A, Y = as_csr(A), ensure_float_matrix(Y, "Y")
        if Y.shape[0] != A.ncols:
            raise ShapeError(
                f"Y must have shape ({A.ncols}, d) for A of shape {A.shape}, "
                f"got {Y.shape}"
            )
    else:
        A, X, Y = validate_operands(A, X, Y)
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    m, d = A.nrows, Y.shape[1]
    w0, w1 = resolve_out_window(out, row_offset, m, d)
    config = ParallelConfig(num_threads, parts_per_thread)
    parts = _window_parts(A, w0, w1, parts, config.num_parts)
    ufunc = np.add if aop is None else aop.accumulate_ufunc
    use_sum = ufunc is np.add
    Z = _alloc_accumulator(out, w0, w1, d, 0.0 if use_sum else aop.accumulator_identity)
    indptr, indices, data = A.indptr, A.indices, A.data
    # Row id of every edge of the window, computed once (CSR guarantees
    # these are sorted): a windowed call pays for its own edges, not nnz.
    base = int(indptr[w0])
    degrees = np.diff(indptr[w0 : w1 + 1])
    edge_rows = np.repeat(np.arange(w0, w1, dtype=np.int64), degrees)

    def kernel(part: RowPartition, z_slice: np.ndarray) -> None:
        lo, hi = int(indptr[part.start]), int(indptr[part.stop])
        for e0, e1 in _edge_block_ranges(lo, hi, block_size):
            src = edge_rows[e0 - base : e1 - base]
            # Row segments of the block: a row's edges are contiguous.
            seg_ptr = np.concatenate(([0], np.flatnonzero(np.diff(src)) + 1, [e1 - e0]))
            rows = src[seg_ptr[:-1]] - part.start
            if use_sum:
                perm, fold = segment_order(seg_ptr)
                edges, src = e0 + perm, src[perm]
            else:
                edges = slice(e0, e1)  # max/min are exact in any order
            M = np.atleast_1d(body(X, Y, src, indices[edges], data[edges], edges))
            if M.ndim == 1:
                M = M[:, None]
            if use_sum:
                z_slice[rows] += fold(M)
            else:
                seg = ufunc.reduceat(M, seg_ptr[:-1], axis=0)
                z_slice[rows] = ufunc(z_slice[rows], seg)

    run_partitioned(A, Z, kernel, config=config, parts=parts, pool=pool, row_offset=w0)
    if not use_sum:
        # Rows that never received a message hold the accumulator identity
        # (±inf); normalise them to zero like every other backend.
        empty = degrees == 0
        if np.any(empty):
            Z[empty] = 0.0
    return _finalize_output(Z, out, (Y if X is None else X).dtype)


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
    """FusedMM processing edges in fixed-size blocks (:func:`run_edge_blocks`)
    with the registry's batched operators as the block body."""
    resolved = get_pattern(pattern, **pattern_overrides).resolved()

    def body(X, Y, src, dst, vals, edges):
        Xs, Yd = np.take(X, src, axis=0), np.take(Y, dst, axis=0)
        return _run_steps_batch(resolved, Xs, Yd, vals)

    return run_edge_blocks(
        A, X, Y, body, aop=resolved.aop, block_size=block_size,
        num_threads=num_threads, parts_per_thread=parts_per_thread,
        parts=parts, pool=pool, out=out, row_offset=row_offset,
    )


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
