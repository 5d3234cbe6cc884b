"""The edge-blocked FusedMM driver (the paper's "FusedMMopt" blocking).

The paper obtains its optimized kernel by (a) register-blocking ``x_u`` and
``z_u`` in SIMD registers, (b) streaming the neighbour vectors ``y_v``
through the registers, and (c) writing ``z_u`` once per row with
non-temporal stores (Section IV.A, Fig. 5).  The Python analogue of those
three ideas is *edge blocking* (:func:`run_edge_blocks`): edges are
processed in fixed-size blocks; for each block a body gathers the source
and destination features and runs the five steps vectorized over the
block, and the block results are segment-summed into ``Z``.  The
intermediate footprint is ``O(block_size × d)`` **independent of nnz** —
this is what preserves the paper's memory-advantage claim (Fig. 10b)
relative to the unfused baselines, which hold the full ``nnz × d`` message
matrix H.  The block size is the one blocking parameter; the autotuner
sweeps it, as the paper's generator tunes its blocking factors (Section
IV.B).

Every edge-blocked kernel (the generated kernels of
:mod:`repro.core.codegen` and the unfused baseline's
:func:`~repro.baselines.spmm.gspmm`) runs through this one driver.  It
owns validation, the output window, the absolute edge grid and the
reduction; a kernel supplies only the block body, which maps a block's
edges to their messages.  What the driver derives from the matrix alone
— per partition, each block's edge range, output rows and row segments —
is an :class:`EdgeSchedule` (:func:`edge_schedule`); a planned matrix
keeps its schedule
(:meth:`repro.runtime.plan.KernelPlan.bound_schedule`), so its later
calls do only the per-edge arithmetic.

**Summation order.**  Each row's sum starts from zero and adds the row's
messages left to right in CSR edge order, in the message dtype, straight
into the output: one accumulator per row partition, which is the
output's own window when the dtypes match (one cast from a scratch
buffer otherwise).  A summed block continues its rows' sums in place with
one call of SciPy's compiled CSR SpMM loop (``csr_matvecs``, loaded
without importing ``scipy.sparse``), so a row cut by a block boundary
goes on where the previous block stopped, and a row's bits depend on
neither the block size nor the partitioning.  A body whose messages are
a per-edge scalar times a feature buffer returns the two, and that call
applies the scale as it sums, as the paper's kernel scales ``y_v`` in
registers and keeps ``z_u`` in registers of the data type (Fig. 5).  A
product ``Z = A · Y`` (``body=None``) has no per-edge work, so it is one
such call per row partition, with no blocks.  ``max``/``min``
aggregations use ``ufunc.reduceat``, which is exact in any order.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ShapeError
from ..sparse import as_csr
from .operators import Operator
from .parallel import ParallelConfig, run_partitioned
from .partition import RowPartition, part1d
from .validation import ensure_float_matrix, resolve_out_window, validate_operands

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "EdgeBlock",
    "EdgeSchedule",
    "edge_schedule",
    "run_edge_blocks",
    "segment_sum",
]


# ---------------------------------------------------------------------- #
# Shared ``out=``/``row_offset=`` plumbing
# ---------------------------------------------------------------------- #
def _window_parts(A, w0: int, w1: int, parts, num_parts: int = 1):
    """The partition list for a call: the caller's, or an nnz-balanced
    split of exactly the window rows into up to ``num_parts`` contiguous
    pieces (:func:`~repro.core.partition.part1d` for the whole matrix).

    A windowed ``out=`` call therefore still fans out over the thread
    pool.  Any row partitioning yields bitwise-identical results (each
    row is summed whole, and edge blocks align to the absolute edge
    grid), so the split count is free to follow the thread count here.
    """
    if parts is not None:
        return parts
    if w0 == 0 and w1 == A.nrows:
        return part1d(A, num_parts)
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


#: Default number of edges per block for the edge-blocked kernel.  Chosen so
#: a block of d=128 single-precision messages (~4 MB) fits in the last-level
#: cache of the machines in Table IV; the autotuner refines it per problem.
DEFAULT_BLOCK_SIZE = 8192


# ---------------------------------------------------------------------- #
# Edge-blocked kernel
# ---------------------------------------------------------------------- #
def _edge_block_ranges(lo: int, hi: int, block_size: int):
    """Yield ``[start, stop)`` edge ranges of at most ``block_size`` edges.

    Block boundaries are aligned to the *absolute* edge grid (multiples of
    ``block_size``), not to ``lo``: a row's edges are therefore chunked
    identically no matter which partition it lands in, so a body whose
    messages depend on the block's shape (a user operator calling a BLAS
    product, say) still gives bitwise-identical results across thread
    counts (the invariant promised in :mod:`repro.core.parallel`).  For
    ``lo == 0`` this is the plain fixed-size chunking.
    """
    start = lo
    while start < hi:
        stop = min((start // block_size + 1) * block_size, hi)
        yield start, stop
        start = stop


def _load_sparsetools():
    """SciPy's compiled sparse routines, ``scipy.sparse._sparsetools``,
    loaded from their extension file: importing ``scipy.sparse`` would add
    about 20 MB of RSS to every process.  Falls back to that import when
    the file is not where SciPy's package keeps it."""
    spec = importlib.util.find_spec("scipy")
    name = "scipy.sparse._sparsetools"
    for location in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools

    return _sparsetools


#: ``csr_matvecs(n_row, n_col, n_vecs, Ap, Aj, Ax, Xx, Yx)``: ``Y += A · X``
#: for a CSR ``A`` and row-major ``X``/``Y``, the loop behind
#: ``scipy.sparse``'s CSR × dense product.  Row ``i`` of ``Y`` adds
#: ``Ax[jj] * X[Aj[jj]]`` for ``jj`` from ``Ap[i]`` to ``Ap[i+1]``, left to
#: right, in the dtype of ``Ax``/``X``/``Y``.
_csr_matvecs = _load_sparsetools().csr_matvecs


def _message_dtype(coef, M) -> np.dtype:
    """The dtype the messages ``coef * M`` are summed in:
    ``np.result_type(coef, M)``, float16 widened to float32."""
    T = np.asarray(M).dtype if coef is None else np.result_type(coef, M)
    # csr_matvecs has no half-precision loop
    return np.dtype(np.float32) if T == np.float16 else T


def _sum_into(acc: np.ndarray, seg_ptr: np.ndarray, M, coef=None, cols=None) -> None:
    """Add the row segments of the messages ``coef[e] * M[cols[e]]`` into
    the rows of ``acc``, left to right, in ``acc``'s dtype: segment ``i``
    (messages ``[seg_ptr[i], seg_ptr[i+1])``) continues the sum in
    ``acc[i]``.  One call of SciPy's ``csr_matvecs`` with ``seg_ptr`` as
    the row pointer; ``acc`` must be C-contiguous, as wide as the
    messages.  See :func:`segment_sum` for ``coef``/``cols``."""
    T = acc.dtype
    k = int(seg_ptr[-1])
    M = np.atleast_1d(M)
    if cols is not None and M.dtype != T:  # cast the rows read, not all of M
        M, cols = np.take(M, cols, axis=0), None
    if cols is None:
        cols, in_range = np.arange(k), k <= len(M)
    else:
        cols = np.asarray(cols)
        in_range = len(cols) == k and (k == 0 or 0 <= cols.min() <= cols.max() < len(M))
    M = (M[:, None] if M.ndim == 1 else M).astype(T, copy=False)
    # csr_matvecs checks no bounds: each segment and row it reads, and each
    # row it writes, must exist.
    if (
        not in_range
        or M.ndim != 2
        or acc.shape != (len(seg_ptr) - 1, M.shape[1])
        or seg_ptr[0] < 0
        or np.any(np.diff(seg_ptr) < 0)
    ):
        raise ShapeError(f"segment_sum: segments or rows out of range for messages {M.shape}")
    coef = np.ones(k, T) if coef is None else np.asarray(coef, T).reshape(k)
    _csr_matvecs(len(acc), len(M), M.shape[1], seg_ptr, cols, coef, M, acc)


def segment_sum(seg_ptr: np.ndarray, M: np.ndarray, coef=None, cols=None) -> np.ndarray:
    """Left-to-right sums of the row segments of the messages
    ``coef[e] * M[cols[e]]``, one row of the result per segment.

    Segment ``i`` covers the messages ``[seg_ptr[i], seg_ptr[i+1])``;
    ``coef`` defaults to ones and ``cols`` to ``0, 1, …``, so
    ``segment_sum(seg_ptr, M)`` sums the rows of ``M``.  ``M`` is ``(n, d)``,
    or ``(n,)`` for one value per message.  Each sum starts from zero and
    adds its messages in order, every product and sum in the dtype
    ``np.result_type(coef, M)`` (float16 widened to float32): one call of
    SciPy's ``csr_matvecs`` with ``seg_ptr`` as the row pointer.
    """
    M = np.atleast_1d(M)
    width = 1 if M.ndim == 1 else M.shape[-1]
    out = np.zeros((len(seg_ptr) - 1, width), _message_dtype(coef, M))
    _sum_into(out, seg_ptr, M, coef, cols)
    return out


class EdgeBlock(NamedTuple):
    """One grid-aligned edge block of a row partition, ready for a body.

    ``edges`` is the block's slice of the CSR edge arrays, and
    ``src``/``dst``/``vals`` are views of its row ids, column ids and
    values, in CSR order.  Segment ``i`` of the block covers its edges
    ``[seg_ptr[i], seg_ptr[i+1])``, all in output row ``rows[i]``
    (relative to the partition start).  A summed block's ``rows`` is the
    slice of rows its edges span, rows without edges among them as empty
    segments; a max/min block's lists the rows it has edges in.
    """

    rows: Union[slice, np.ndarray]
    src: np.ndarray
    dst: np.ndarray
    vals: np.ndarray
    edges: slice
    seg_ptr: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes the block allocated (its edge arrays are views)."""
        rows = self.rows.nbytes if isinstance(self.rows, np.ndarray) else 0
        return rows + self.seg_ptr.nbytes


class EdgeSchedule(NamedTuple):
    """Everything about an edge-blocked call that depends on the matrix
    alone (:func:`edge_schedule`): for each row partition, its grid-aligned
    edge blocks.  Executing it (:func:`run_edge_blocks` with
    ``schedule=``) leaves only the per-edge arithmetic to the call, as the
    paper's kernels settle blocking once per matrix (Section IV.A–B).

    A kept schedule holds each partition's blocks as a list and replays
    them on every call; a one-call schedule builds each block as it runs,
    so its footprint stays one block.
    """

    shape: Tuple[int, int]
    nnz: int
    #: ``[w0, w1)``: the output rows the schedule writes
    window: Tuple[int, int]
    #: summed (``True``) or max/min aggregation
    use_sum: bool
    parts: Sequence[RowPartition]
    blocks: Sequence[Iterable[EdgeBlock]]
    #: window rows without edges (max/min leave the identity there)
    empty: Optional[np.ndarray]

    @property
    def nbytes(self) -> int:
        """Bytes a kept schedule retains (the row ids its blocks' ``src``
        views share included)."""
        total = sum(b.nbytes for blocks in self.blocks for b in blocks)
        total += 8 * sum(p.nnz for p in self.parts)
        return total + (0 if self.empty is None else self.empty.nbytes)


def edge_schedule(
    A,
    parts: Sequence[RowPartition],
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    aop: Optional[Operator] = None,
    window: Optional[Tuple[int, int]] = None,
    keep: bool = True,
) -> EdgeSchedule:
    """The block schedule of ``A``'s rows ``window`` (default: all), split
    into row partitions ``parts``, with ``block_size`` edges per block.

    ``aop`` only decides between a sum (``None`` or an ``add``
    accumulator) and max/min.  Blocks align to the absolute edge grid, so
    any row partitioning chunks a row's edges identically.  ``keep=False``
    makes a one-call schedule whose blocks are built as they run.
    """
    A = as_csr(A)
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    w0, w1 = (0, A.nrows) if window is None else window
    use_sum = aop is None or aop.accumulate_ufunc is np.add
    indptr, indices, data = A.indptr, A.indices, A.data
    # Row id of every edge of the window, computed once (CSR guarantees
    # these are sorted): a windowed call pays for its own edges, not nnz.
    base = int(indptr[w0])
    degrees = indptr[w0 + 1 : w1 + 1] - indptr[w0:w1]
    edge_rows = np.repeat(np.arange(w0, w1, dtype=np.int64), degrees)

    def blocks_of(part: RowPartition) -> Iterator[EdgeBlock]:
        lo, hi = int(indptr[part.start]), int(indptr[part.stop])
        for e0, e1 in _edge_block_ranges(lo, hi, block_size):
            src = edge_rows[e0 - base : e1 - base]
            if use_sum:
                # The rows the block spans, each row's edges clipped to it.
                r0, r1 = int(src[0]), int(src[-1]) + 1
                seg_ptr = np.clip(indptr[r0 : r1 + 1], e0, e1) - e0
                rows = slice(r0 - part.start, r1 - part.start)
            else:
                # Row segments of the block: a row's edges are contiguous.
                starts = np.flatnonzero(src[1:] != src[:-1]) + 1
                seg_ptr = np.concatenate(([0], starts, [e1 - e0]))
                rows = src[seg_ptr[:-1]] - part.start
            edges = slice(e0, e1)
            yield EdgeBlock(rows, src, indices[edges], data[edges], edges, seg_ptr)

    work = [p for p in parts if p.num_rows > 0]
    return EdgeSchedule(
        A.shape,
        A.nnz,
        (w0, w1),
        use_sum,
        work,
        [list(blocks_of(p)) if keep else blocks_of(p) for p in work],
        None if use_sum else np.flatnonzero(degrees == 0),
    )


def _accumulator(z_slice: np.ndarray, dtype, width: int, identity: float) -> np.ndarray:
    """A partition's accumulator, ``width`` columns of ``dtype`` per row
    of its output slice ``z_slice``, holding the aggregation identity: the
    slice itself when it has that dtype and width and is C-contiguous
    (already zero, set to the identity otherwise), else a scratch buffer
    the partition casts into ``z_slice`` once at its end."""
    if z_slice.dtype == dtype and z_slice.shape[1] == width and z_slice.flags["C_CONTIGUOUS"]:
        if identity != 0.0:
            z_slice[...] = identity
        return z_slice
    return np.full((len(z_slice), width), identity, dtype)


def _product_messages(X, Y, src, dst, vals, edges):
    """The block body of ``Z = A · Y``: each edge's value times its row of
    ``Y``, scaled as the sum reads it."""
    return vals, Y, dst


def run_edge_blocks(
    A,
    X,
    Y,
    body: Optional[Callable],
    *,
    aop: Optional[Operator] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    num_threads: int = 1,
    parts_per_thread: int = 1,
    parts: Optional[Sequence[RowPartition]] = None,
    pool: Optional[ThreadPoolExecutor] = None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    schedule: Optional[EdgeSchedule] = None,
) -> np.ndarray:
    """The one edge-blocked FusedMM driver: execute ``A``'s block schedule.

    ``body(X, Y, src, dst, vals, edges)`` returns the messages of one block
    of edges, in CSR order (see :class:`EdgeBlock`): ``(k, d)``, or
    ``(k,)`` scalars broadcast over the features.  ``aop`` is the
    aggregation operator (``None`` sums).  A summed body may instead
    return ``(coef, buf)`` for the messages ``coef[:, None] * buf``, or
    ``(coef, buf, cols)`` for ``coef[:, None] * buf[cols]``; the sum then
    applies the per-edge scale as it adds (:func:`segment_sum`), and no
    message array is formed.  ``X=None`` is the SpMM form, whose body
    never reads source features.  ``body=None`` is the product
    ``Z = A · Y`` itself (the messages ``vals[e] * Y[dst[e]]``, summed):
    one sum per row partition over ``A``'s own edge arrays, so it has no
    blocks, and ``block_size``/``schedule`` do not apply.

    ``schedule`` is a kept :func:`edge_schedule` of ``A`` for this call's
    output window and ``aop``; it fixes the partitions and the block size,
    so ``parts``/``block_size`` are then ignored.  A call without one
    builds a one-call schedule and executes it.

    Each row is aggregated left to right in the message dtype, in one
    accumulator per partition (the module's summation order), so results
    are bitwise identical across block sizes, thread counts and row
    partitionings.  The intermediates never exceed a few
    ``block_size × d`` arrays, so the footprint stays flat in nnz — the
    fused-kernel property the paper exploits (Section II).
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
    m, d = A.nrows, Y.shape[1]
    w0, w1 = resolve_out_window(out, row_offset, m, d)
    config = ParallelConfig(num_threads, parts_per_thread)
    ufunc = np.add if aop is None else aop.accumulate_ufunc
    use_sum = ufunc is np.add
    identity = 0.0 if use_sum else aop.accumulator_identity
    # Zero: rows outside every partition, and the partitions that sum
    # straight into their output slice, start there.
    if out is None:
        Z = np.zeros((w1 - w0, d), (Y if X is None else X).dtype)
    else:
        Z = out
        Z[...] = 0.0

    if body is None:
        if not use_sum:
            raise ValueError("body=None is the summed product A · Y; it takes no max/min")
        # No per-edge work: each row partition is one block over A's edges.
        Y = Y.astype(_message_dtype(A.data, Y), copy=False)
        body = _product_messages
        indptr = A.indptr
        work = list(_window_parts(A, w0, w1, parts, config.num_parts))

        def whole(p: RowPartition) -> EdgeBlock:
            e = slice(int(indptr[p.start]), int(indptr[p.stop]))
            seg_ptr = indptr[p.start : p.stop + 1] - e.start
            return EdgeBlock(slice(0, p.num_rows), None, A.indices[e], A.data[e], e, seg_ptr)

        blocks = [[whole(p)] for p in work]
        schedule = EdgeSchedule(A.shape, A.nnz, (w0, w1), True, work, blocks, None)
    elif schedule is None:
        schedule = edge_schedule(
            A,
            _window_parts(A, w0, w1, parts, config.num_parts),
            block_size=block_size,
            aop=aop,
            window=(w0, w1),
            keep=False,
        )
    elif (schedule.shape, schedule.nnz, schedule.window, schedule.use_sum) != (
        A.shape, A.nnz, (w0, w1), use_sum
    ):
        raise ValueError(
            "the edge schedule was built for another matrix, window or aggregation"
        )
    blocks_of = {id(p): blocks for p, blocks in zip(schedule.parts, schedule.blocks)}

    def kernel(part: RowPartition, z_slice: np.ndarray) -> None:
        acc = None  # made from the first block's messages: their dtype and width
        for b in blocks_of[id(part)]:
            M = body(X, Y, b.src, b.dst, b.vals, b.edges)
            if use_sum:
                coef, M, *cols = M if isinstance(M, tuple) else (None, M)
                if acc is None:
                    width = 1 if np.ndim(M) == 1 else M.shape[1]
                    acc = _accumulator(z_slice, _message_dtype(coef, M), width, 0.0)
                _sum_into(acc[b.rows], b.seg_ptr, M, coef, *cols)
            else:
                M = np.atleast_1d(M)
                M = M.reshape(len(M), -1)
                if acc is None:
                    acc = _accumulator(z_slice, M.dtype, M.shape[1], identity)
                seg = ufunc.reduceat(M, b.seg_ptr[:-1], axis=0)
                acc[b.rows] = ufunc(acc[b.rows], seg)
            # Free this block's messages before the next block is built, so
            # the footprint stays one block.
            del b, M
        if acc is not None and acc is not z_slice:
            z_slice[...] = acc

    run_partitioned(
        A, Z, kernel, config=config, parts=schedule.parts, pool=pool, row_offset=w0
    )
    if not use_sum and len(schedule.empty):
        # Rows that never received a message hold the accumulator identity
        # (±inf); normalise them to zero like every other backend.
        Z[schedule.empty] = 0.0
    return Z
