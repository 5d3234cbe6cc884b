"""Compressed Sparse Row (CSR) matrix.

CSR is the storage format every kernel in this package operates on, exactly
as in the paper: the adjacency matrix ``A`` is stored with a row-pointer
array (``indptr``), a column-index array (``indices``) and a value array
(``data``).  The FusedMM memory model of Section IV.C (12 bytes per nonzero
with 8-byte indices and 4-byte single-precision values) corresponds to this
layout.

The class provides exactly what the kernels and baselines need:

* structural validation and canonicalisation (sorted column indices within
  each row, duplicates summed),
* row slicing (for 1-D partitioning and minibatching),
* degree statistics (for the arithmetic-intensity model of Eq. 4),
* multiplication helpers used by the baselines,
* conversions to/from COO, dense and SciPy.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from ..errors import ShapeError, SparseFormatError

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A sparse matrix in compressed sparse row format.

    Parameters
    ----------
    nrows, ncols:
        Matrix dimensions.
    indptr:
        ``int64`` array of length ``nrows + 1``; ``indptr[i]:indptr[i+1]``
        is the slice of ``indices``/``data`` holding row ``i``.
    indices:
        ``int64`` array of column indices.
    data:
        Value array; defaults to all-ones ``float32`` when omitted
        (unweighted graph).
    check:
        When true (default) the structure is validated; pass ``False`` only
        from internal constructors that guarantee validity.
    """

    # ``__weakref__`` lets the runtime's plan cache memoise per-matrix
    # fingerprints without keeping matrices alive.
    __slots__ = ("nrows", "ncols", "indptr", "indices", "data", "__weakref__")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray | None = None,
        *,
        check: bool = True,
    ) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if data is None:
            self.data = np.ones(self.indices.shape[0], dtype=np.float32)
        else:
            data = np.ascontiguousarray(data)
            if not np.issubdtype(data.dtype, np.floating):
                data = data.astype(np.float32)
            self.data = data
        if check:
            self._validate()

    # ------------------------------------------------------------------ #
    # Validation and canonical form
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise ShapeError("matrix dimensions must be non-negative")
        if self.indptr.ndim != 1 or self.indptr.shape[0] != self.nrows + 1:
            raise SparseFormatError(
                f"indptr must have length nrows+1={self.nrows + 1}, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape[0] != nnz or self.data.shape[0] != nnz:
            raise SparseFormatError(
                "indices/data length must equal indptr[-1]="
                f"{nnz}, got {self.indices.shape[0]}/{self.data.shape[0]}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= self.ncols):
            raise SparseFormatError("column index out of range")

    def has_sorted_indices(self) -> bool:
        """True when column indices are strictly increasing within each row."""
        for u in range(self.nrows):
            row = self.indices[self.indptr[u] : self.indptr[u + 1]]
            if row.size > 1 and np.any(np.diff(row) <= 0):
                return False
        return True

    def sort_indices(self) -> "CSRMatrix":
        """Return an equivalent matrix with sorted, de-duplicated columns in
        every row (duplicates summed)."""
        return CSRMatrix.from_coo(self.to_coo().deduplicate(op="sum"))

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the stored values."""
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.data.dtype})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.data, other.data)
        )

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------ #
    # Degree statistics (used by the performance model)
    # ------------------------------------------------------------------ #
    def row_degrees(self) -> np.ndarray:
        """Number of stored entries per row."""
        return np.diff(self.indptr)

    def avg_degree(self) -> float:
        """Average number of nonzeros per row (δ in Eq. 4)."""
        return float(self.nnz) / max(self.nrows, 1)

    def max_degree(self) -> int:
        """Maximum number of nonzeros in any row."""
        if self.nrows == 0:
            return 0
        return int(self.row_degrees().max())

    def memory_bytes(self, index_bytes: int = 8, value_bytes: int = 4) -> int:
        """Bytes needed to store the matrix with the paper's accounting
        (Section IV.C): ``12 * nnz`` for 8-byte indices + 4-byte values,
        plus the row pointer array."""
        return (
            (index_bytes + value_bytes) * self.nnz
            + index_bytes * (self.nrows + 1)
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, coo) -> "CSRMatrix":
        """Build from a :class:`repro.sparse.coo.COOMatrix`; duplicate
        coordinates are summed and columns are sorted within rows."""
        from .coo import COOMatrix  # local import to avoid cycle

        if not isinstance(coo, COOMatrix):
            raise TypeError("from_coo expects a COOMatrix")
        dedup = coo.deduplicate(op="sum")
        order = np.lexsort((dedup.cols, dedup.rows))
        rows = dedup.rows[order]
        cols = dedup.cols[order]
        vals = dedup.vals[order]
        indptr = np.zeros(coo.nrows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(coo.nrows, coo.ncols, indptr, cols, vals, check=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense array keeping entries with ``|x| > tol``."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(np.abs(dense) > tol)
        vals = dense[rows, cols].astype(np.float32)
        from .coo import COOMatrix

        return cls.from_coo(COOMatrix(dense.shape[0], dense.shape[1], rows, cols, vals))

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        nrows: int,
        ncols: int | None = None,
        values: Sequence[float] | None = None,
    ) -> "CSRMatrix":
        """Build directly from an edge list."""
        from .coo import COOMatrix

        return cls.from_coo(COOMatrix.from_edges(edges, nrows, ncols, values))

    @classmethod
    def identity(cls, n: int, dtype=np.float32) -> "CSRMatrix":
        """The n×n identity matrix."""
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        data = np.ones(n, dtype=dtype)
        return cls(n, n, indptr, indices, data, check=False)

    @classmethod
    def empty(cls, nrows: int, ncols: int, dtype=np.float32) -> "CSRMatrix":
        """An all-zero matrix."""
        return cls(
            nrows,
            ncols,
            np.zeros(nrows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=dtype),
            check=False,
        )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_coo(self):
        """Convert to :class:`repro.sparse.coo.COOMatrix`."""
        from .coo import COOMatrix

        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_degrees())
        return COOMatrix(self.nrows, self.ncols, rows, self.indices.copy(), self.data.copy())

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ndarray (testing only)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_degrees())
        dense[rows, self.indices] = self.data.astype(np.float64)
        return dense

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (requires SciPy)."""
        from scipy import sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()), shape=self.shape
        )

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any SciPy sparse matrix."""
        csr = mat.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(
            csr.shape[0],
            csr.shape[1],
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
            csr.data.astype(np.float32),
            check=False,
        )

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(
            self.nrows,
            self.ncols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    def astype(self, dtype) -> "CSRMatrix":
        """Return a copy with values cast to ``dtype``."""
        out = self.copy()
        out.data = out.data.astype(dtype)
        return out

    # ------------------------------------------------------------------ #
    # Row access and slicing
    # ------------------------------------------------------------------ #
    def row(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(column indices, values)`` of row ``u`` as views."""
        if not 0 <= u < self.nrows:
            raise IndexError(f"row index {u} out of range for {self.nrows} rows")
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_slice(self, start: int, stop: int) -> "CSRMatrix":
        """Return the submatrix of rows ``start:stop`` (all columns kept).

        This is the operation behind 1-D partitioning (Fig. 4) and
        minibatching: a contiguous block of rows of ``A`` together with the
        full ``Y`` is what one FusedMM thread/minibatch processes.
        """
        if not (0 <= start <= stop <= self.nrows):
            raise IndexError(f"invalid row slice [{start}, {stop}) for {self.nrows} rows")
        lo, hi = self.indptr[start], self.indptr[stop]
        indptr = (self.indptr[start : stop + 1] - lo).astype(np.int64)
        return CSRMatrix(
            stop - start,
            self.ncols,
            indptr,
            self.indices[lo:hi].copy(),
            self.data[lo:hi].copy(),
            check=False,
        )

    def select_rows(self, rows: Sequence[int]) -> "CSRMatrix":
        """Return the submatrix containing the given rows, in the given
        order (used for minibatch sampling)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.nrows):
            raise IndexError("row index out of range in select_rows")
        starts = self.indptr[rows]
        degs = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        # One gather: output slot k of selected row i reads source entry
        # starts[i] + (k - indptr[i]).
        nnz = int(indptr[-1])
        gather = np.repeat(starts - indptr[:-1], degs) + np.arange(nnz, dtype=np.int64)
        return CSRMatrix(
            rows.shape[0],
            self.ncols,
            indptr,
            self.indices[gather],
            self.data[gather],
            check=False,
        )

    # ------------------------------------------------------------------ #
    # Reference multiplications (used by baselines and tests)
    # ------------------------------------------------------------------ #
    def spmm(self, dense: np.ndarray) -> np.ndarray:
        """Reference sparse × dense product ``self @ dense`` computed row
        by row.  The optimized SpMM lives in :mod:`repro.core.specialized`;
        this method exists as an always-correct reference."""
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != self.ncols:
            raise ShapeError(
                f"dense operand must have shape ({self.ncols}, d), got {dense.shape}"
            )
        out = np.zeros((self.nrows, dense.shape[1]), dtype=np.result_type(self.data, dense))
        for u in range(self.nrows):
            cols, vals = self.row(u)
            if cols.size:
                out[u] = vals @ dense[cols]
        return out

    def transpose(self) -> "CSRMatrix":
        """Return the transposed matrix in CSR form."""
        return CSRMatrix.from_coo(self.to_coo().transpose())

    def scale_rows(self, scale: np.ndarray) -> "CSRMatrix":
        """Return a copy with row ``u`` multiplied by ``scale[u]`` (used for
        normalised adjacency in GCN)."""
        scale = np.asarray(scale, dtype=self.data.dtype)
        if scale.shape != (self.nrows,):
            raise ShapeError(f"scale must have shape ({self.nrows},), got {scale.shape}")
        out = self.copy()
        out.data = out.data * np.repeat(scale, self.row_degrees())
        return out

    def scale_cols(self, scale: np.ndarray) -> "CSRMatrix":
        """Return a copy with column ``v`` multiplied by ``scale[v]``."""
        scale = np.asarray(scale, dtype=self.data.dtype)
        if scale.shape != (self.ncols,):
            raise ShapeError(f"scale must have shape ({self.ncols},), got {scale.shape}")
        out = self.copy()
        out.data = out.data * scale[out.indices]
        return out
