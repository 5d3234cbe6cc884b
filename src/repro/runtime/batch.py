"""Request batching: packing small jobs, splitting large ones.

The runtime's scheduling policy is nnz-aware:

* **Small requests** (``nnz <= pack_nnz``) that share a compatible plan —
  same resolved pattern, backend kind, blocking parameters, feature
  dimension and operand dtypes — are *packed* into one block-diagonal
  super-problem and executed in a single kernel invocation, amortising the
  per-call Python dispatch/validation/gather overhead across the batch.

* **Large requests** are *split* over their plan's nnz-balanced 1-D
  partitions (the existing ``part1d``) and fanned out across the runtime's
  shared thread pool.

Bitwise equivalence
-------------------
Packing is numerically transparent: the edge-blocked kernels start their
edge blocks at each partition's first edge, so executing the packed matrix
with one :class:`~repro.core.partition.RowPartition` per request replays
*exactly* the arithmetic of a standalone single-threaded call — same
gathers, same segment reductions, same accumulation order.  The test suite
asserts bitwise equality of ``run_batch`` against sequential ``fusedmm``
calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.partition import RowPartition
from ..errors import ShapeError
from ..sparse import CSRMatrix, as_csr

__all__ = ["KernelRequest", "PackedBatch", "pack_requests", "pack_group_key"]


@dataclass
class KernelRequest:
    """One ``Z = FusedMM(A, X, Y)`` request for :meth:`KernelRuntime.run_batch`.

    ``Y`` defaults to ``X`` for square ``A`` (the whole-graph case).
    ``tag`` is an opaque correlation id echoed back untouched — useful when
    requests are collected from concurrent producers.
    """

    A: object
    X: Optional[np.ndarray]
    Y: Optional[np.ndarray] = None
    pattern: object = "sigmoid_embedding"
    backend: str = "auto"
    block_size: Optional[int] = None
    overrides: Mapping[str, object] = field(default_factory=dict)
    tag: object = None

    def normalized(self) -> "KernelRequest":
        """Canonicalise operands: CSR ``A``, float arrays, explicit ``Y``."""
        A = as_csr(self.A)
        X = None if self.X is None else np.ascontiguousarray(self.X)
        Y = self.Y
        if Y is None:
            if A.nrows != A.ncols:
                raise ShapeError(
                    f"Y may only be omitted for square A; got shape {A.shape}"
                )
            Y = X
        if Y is not None:
            Y = np.ascontiguousarray(Y)
        if X is None and Y is None:
            raise ShapeError(
                "a request needs at least one operand matrix: pass X "
                "(and optionally Y), or Y alone for SpMM-like patterns"
            )
        if X is not None and (X.ndim != 2 or X.shape[0] != A.nrows):
            raise ShapeError(
                f"X must have shape ({A.nrows}, d) for A of shape {A.shape}"
            )
        if Y is not None and (Y.ndim != 2 or Y.shape[0] != A.ncols):
            raise ShapeError(
                f"Y must have shape ({A.ncols}, d) for A of shape {A.shape}"
            )
        return KernelRequest(
            A=A,
            X=X,
            Y=Y,
            pattern=self.pattern,
            backend=self.backend,
            block_size=self.block_size,
            overrides=self.overrides,
            tag=self.tag,
        )


def pack_group_key(plan, req: "KernelRequest") -> Tuple:
    """Grouping key under which requests may be packed together.

    Everything that influences the kernel's arithmetic must appear here:
    the resolved pattern, backend kind, block size and the operand dtypes
    (mixing dtypes in one packed call would change NumPy's promotion
    behaviour relative to the standalone calls).
    """
    d = None if req.X is None else req.X.shape[1]
    if d is None and req.Y is not None:
        d = req.Y.shape[1]
    return (
        plan.key.pattern,
        plan.kind,
        plan.block_size,
        d,
        None if req.X is None else req.X.dtype.str,
        None if req.Y is None else req.Y.dtype.str,
        as_csr(req.A).data.dtype.str,
        req.X is None,
    )


@dataclass
class PackedBatch:
    """A block-diagonal super-problem built from several small requests."""

    A: CSRMatrix
    X: Optional[np.ndarray]
    Y: np.ndarray
    #: one partition per request, in request order
    parts: List[RowPartition]
    #: output row ranges, one ``(start, stop)`` per request
    row_ranges: List[Tuple[int, int]]

    def split_result(self, Z: np.ndarray) -> List[np.ndarray]:
        """Slice the packed output back into per-request results."""
        return [np.ascontiguousarray(Z[start:stop]) for start, stop in self.row_ranges]


def pack_requests(requests: Sequence[KernelRequest]) -> PackedBatch:
    """Stack normalised requests into one block-diagonal problem.

    The packed adjacency places each request's matrix on the diagonal, so
    every edge of request *i* points into request *i*'s slice of the packed
    ``Y`` — requests can never read each other's features.
    """
    if not requests:
        raise ValueError("cannot pack an empty request list")
    total_rows = sum(r.A.nrows for r in requests)
    total_cols = sum(r.A.ncols for r in requests)

    indptr = np.empty(total_rows + 1, dtype=np.int64)
    indptr[0] = 0
    indices_chunks: List[np.ndarray] = []
    data_chunks: List[np.ndarray] = []
    parts: List[RowPartition] = []
    row_ranges: List[Tuple[int, int]] = []

    row_off = col_off = nnz_off = 0
    pos = 1
    for req in requests:
        A = req.A
        indptr[pos : pos + A.nrows] = A.indptr[1:] + nnz_off
        pos += A.nrows
        indices_chunks.append(A.indices + col_off)
        data_chunks.append(A.data)
        parts.append(RowPartition(start=row_off, stop=row_off + A.nrows, nnz=A.nnz))
        row_ranges.append((row_off, row_off + A.nrows))
        row_off += A.nrows
        col_off += A.ncols
        nnz_off += A.nnz

    indices = (
        np.concatenate(indices_chunks)
        if indices_chunks
        else np.empty(0, dtype=np.int64)
    )
    data = (
        np.concatenate(data_chunks)
        if data_chunks
        else np.empty(0, dtype=np.float32)
    )
    A_packed = CSRMatrix(total_rows, total_cols, indptr, indices, data, check=False)

    X_packed = (
        None
        if requests[0].X is None
        else np.concatenate([r.X for r in requests], axis=0)
    )
    Y_packed = np.concatenate([r.Y for r in requests], axis=0)
    return PackedBatch(
        A=A_packed, X=X_packed, Y=Y_packed, parts=parts, row_ranges=row_ranges
    )
