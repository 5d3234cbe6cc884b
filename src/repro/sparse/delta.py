"""One edge batch spliced onto one canonical CSR.

Every cache tier of the runtime — plan cache, worker agents' matrix
LRUs — keys on an immutable matrix fingerprint, so a mutable
graph is a sequence of immutable versions.  Each version is exactly one
canonical :class:`~repro.sparse.csr.CSRMatrix`, named by a **versioned
fingerprint** ``<lineage>@v<N>`` where ``lineage`` is the content hash of
the original matrix and ``N`` increments once per applied batch.

A write is a :class:`DeltaCSR`: the current version's CSR plus the rows
one edge batch rewrites.  :meth:`DeltaCSR.apply` computes those rows
against the CSR; :meth:`DeltaCSR.materialize` splices them onto it and
returns the next version's CSR.  Nothing carries over between batches:
the next write starts from the new CSR, and the old one lives only as
long as a reader holds it.

Bitwise contract
----------------
The canonical CSR form (columns sorted within rows, one entry per
``(u, v)`` pair) is *unique* for a given edge set.  The rewritten rows
are built in exactly that form and every other row is copied verbatim,
so each version is byte-for-byte the same ``indptr``/``indices``/``data``
as :meth:`CSRMatrix.from_coo` on its full edge list.  Kernels therefore
cannot distinguish a mutated version from a freshly rebuilt matrix: the
existing bitwise-determinism contract (thread counts, shard counts,
local vs remote) extends to dynamic graphs for free, and the tests
assert it at every version.

Edge-batch semantics
--------------------
A batch carries ``delete`` pairs ``(u, v)`` and ``insert`` triples
``(u, v, w)`` (``w`` defaults to 1).  Deletes are applied first, then
inserts **upsert** (an existing edge's weight is replaced, a missing edge
is created) — so an edge both deleted and inserted in one batch ends up
present with the inserted weight.  Duplicate inserts of the same edge
within one batch resolve to the last occurrence.  Deleting a missing edge
is a no-op (counted, not an error).

:func:`splice_rows` is the shared low-level primitive: the remote worker
agent uses the same function to reconstruct a new matrix version from a
``LOAD_DELTA`` frame (base key + the batch's rows), so controller and
agent can never disagree on the spliced bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from .csr import CSRMatrix

__all__ = [
    "DeltaCSR",
    "EdgeBatchResult",
    "splice_rows",
]


# ---------------------------------------------------------------------- #
# Splice: the one primitive both a write and the remote agent use
# ---------------------------------------------------------------------- #
def splice_rows(
    base: CSRMatrix,
    rows: np.ndarray,
    counts: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
) -> CSRMatrix:
    """Replace ``rows`` of ``base`` with new contents; all other rows are
    copied verbatim.

    ``rows`` must be sorted and unique; ``counts[i]`` is the new length of
    ``rows[i]``; ``indices``/``data`` hold the new rows' (sorted-column)
    contents concatenated in row order.  The result is a fresh canonical
    CSR — bitwise identical to rebuilding the same edge set from scratch.
    Copies run per contiguous clean *gap*, not per row, so a small delta
    costs a handful of ``memcpy``-s regardless of graph size.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if rows.shape != counts.shape:
        raise ShapeError("rows and counts must have the same length")
    if rows.size and (rows[0] < 0 or rows[-1] >= base.nrows):
        raise ShapeError("dirty row index out of range")
    lengths = np.diff(base.indptr)
    new_lengths = lengths.copy()
    new_lengths[rows] = counts
    indptr = np.zeros(base.nrows + 1, dtype=np.int64)
    np.cumsum(new_lengths, out=indptr[1:])
    nnz = int(indptr[-1])
    out_indices = np.empty(nnz, dtype=np.int64)
    out_data = np.empty(nnz, dtype=base.data.dtype)
    prev = 0  # first base row of the pending clean gap
    dpos = 0  # cursor into the concatenated dirty arrays
    for i in range(rows.size):
        r = int(rows[i])
        if prev < r:  # clean gap [prev, r): one bulk copy
            b_lo, b_hi = int(base.indptr[prev]), int(base.indptr[r])
            n_lo = int(indptr[prev])
            out_indices[n_lo : n_lo + (b_hi - b_lo)] = base.indices[b_lo:b_hi]
            out_data[n_lo : n_lo + (b_hi - b_lo)] = base.data[b_lo:b_hi]
        c = int(counts[i])
        n_lo = int(indptr[r])
        out_indices[n_lo : n_lo + c] = indices[dpos : dpos + c]
        out_data[n_lo : n_lo + c] = data[dpos : dpos + c]
        dpos += c
        prev = r + 1
    if prev < base.nrows:  # tail gap
        b_lo, b_hi = int(base.indptr[prev]), int(base.indptr[base.nrows])
        n_lo = int(indptr[prev])
        out_indices[n_lo : n_lo + (b_hi - b_lo)] = base.indices[b_lo:b_hi]
        out_data[n_lo : n_lo + (b_hi - b_lo)] = base.data[b_lo:b_hi]
    return CSRMatrix(base.nrows, base.ncols, indptr, out_indices, out_data, check=False)


@dataclass(frozen=True)
class EdgeBatchResult:
    """What one applied batch did (returned next to the new version)."""

    inserted: int  # edges created
    updated: int  # existing edges whose weight was replaced
    deleted: int  # edges removed
    ignored_deletes: int  # delete ops for edges that did not exist
    touched_rows: np.ndarray  # sorted unique row ids the batch modified


#: The ``splice_rows`` arguments of one batch: ``(rows, counts, indices, data)``.
Splice = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------- #
# One write
# ---------------------------------------------------------------------- #
class DeltaCSR:
    """One graph version as a base CSR plus the rows one batch rewrote.

    ``DeltaCSR(A, lineage, version=N)`` is version ``N`` whose CSR is
    ``A``.  :meth:`apply` returns version ``N + 1``: this version's CSR as
    the base and the batch's rewritten rows as :attr:`splice`, the exact
    arguments of :func:`splice_rows` (and of the ``LOAD_DELTA`` payload).
    :meth:`materialize` splices them in.
    """

    __slots__ = ("base", "lineage", "version", "splice")

    def __init__(
        self,
        base: CSRMatrix,
        lineage: str,
        *,
        version: int = 0,
        splice: Optional[Splice] = None,
    ) -> None:
        self.base = base
        self.lineage = str(lineage)
        self.version = int(version)
        self.splice = splice

    @property
    def fingerprint(self) -> str:
        """The versioned fingerprint ``<lineage>@v<N>`` every cache tier
        keys on."""
        return f"{self.lineage}@v{self.version}"

    @property
    def delta_bytes(self) -> int:
        """Bytes of the rewritten rows (paper Section IV.C convention:
        8-byte indices, value bytes from the dtype); 0 with no batch."""
        if self.splice is None:
            return 0
        _, _, indices, data = self.splice
        return 8 * int(indices.size) + int(data.nbytes)

    def apply(
        self,
        insert: Optional[Iterable[Sequence[float]]] = None,
        delete: Optional[Iterable[Sequence[int]]] = None,
    ) -> Tuple["DeltaCSR", EdgeBatchResult]:
        """Apply one edge batch; returns ``(next version, batch result)``.

        Deletes first, then upsert inserts (see module docstring).  Only
        the touched rows are read, all at once: each edge is keyed by
        ``(index of its row among the touched rows) * ncols + column``,
        so sorted keys are the rewritten rows in canonical order.
        """
        base = self.materialize()
        ins = _as_edge_array(insert, with_weight=True, dtype=base.data.dtype)
        dels = _as_edge_array(delete, with_weight=False)
        _check_bounds(ins, dels, base.nrows, base.ncols)

        touched = np.unique(np.concatenate([ins[0], dels[0]]))
        old = base.select_rows(touched)
        ncols = np.int64(base.ncols)
        old_keys = np.repeat(np.arange(touched.size), np.diff(old.indptr)) * ncols
        old_keys += old.indices
        del_keys = np.unique(np.searchsorted(touched, dels[0]) * ncols + dels[1])
        hit = np.isin(del_keys, old_keys)
        keep = ~np.isin(old_keys, del_keys)
        kept_keys, kept_vals = old_keys[keep], old.data[keep]
        # Last occurrence wins within the batch: the first of each key in
        # the reversed batch.
        rev_keys = (np.searchsorted(touched, ins[0]) * ncols + ins[1])[::-1]
        ins_keys, first = np.unique(rev_keys, return_index=True)
        ins_vals = ins[2][::-1][first]
        exists = np.isin(ins_keys, kept_keys)
        survive = ~np.isin(kept_keys, ins_keys)
        keys = np.concatenate([kept_keys[survive], ins_keys])
        vals = np.concatenate([kept_vals[survive], ins_vals])
        order = np.argsort(keys)  # keys are unique
        keys, vals = keys[order], vals[order]
        counts = np.bincount(keys // ncols, minlength=touched.size).astype(np.int64)

        result = EdgeBatchResult(
            inserted=int(ins_keys.size - np.count_nonzero(exists)),
            updated=int(np.count_nonzero(exists)),
            deleted=int(np.count_nonzero(hit)),
            ignored_deletes=int(hit.size - np.count_nonzero(hit)),
            touched_rows=touched,
        )
        splice = (touched, counts, keys % ncols, vals)
        return DeltaCSR(base, self.lineage, version=self.version + 1, splice=splice), result

    def materialize(self) -> CSRMatrix:
        """This version's canonical CSR (bitwise identical to a full
        :meth:`CSRMatrix.from_coo` rebuild of the same edge set).  A
        version built by :meth:`apply` gets a fresh matrix, even for an
        empty batch, so two versions never share one instance."""
        if self.splice is None:
            return self.base
        return splice_rows(self.base, *self.splice)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rows = 0 if self.splice is None else self.splice[0].size
        return f"DeltaCSR({self.fingerprint}, shape={self.base.shape}, rows={rows})"


# ---------------------------------------------------------------------- #
# Input normalisation
# ---------------------------------------------------------------------- #
def _as_edge_array(
    edges, *, with_weight: bool, dtype=np.float32
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, weights)`` int64/int64/value-dtype arrays.

    Accepts ``None``, an ``(n, 2)``/``(n, 3)`` array, or an iterable of
    tuples; insert tuples may omit the weight (defaults to 1).  Tuples are
    packed into the array form first, so both spellings pass the same
    checks: integral endpoints and finite weights.
    """
    if edges is not None and not isinstance(edges, np.ndarray):
        width = 3 if with_weight else 2
        try:
            tuples = [tuple(edge) for edge in edges]
        except TypeError as exc:
            raise ShapeError(f"edges must be (u, v[, weight]) tuples: {exc}") from exc
        for edge in tuples:
            if not 2 <= len(edge) <= width:
                raise ShapeError(f"bad edge tuple {edge!r}")
        try:
            edges = np.array(
                [edge + (1.0,) * (width - len(edge)) for edge in tuples],
                dtype=np.float64,
            ).reshape(-1, width)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"edge values must be numbers: {exc}") from exc
    if edges is None or edges.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=dtype),
        )
    arr = np.asarray(edges, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ShapeError(
            f"edge array must have shape (n, 2) or (n, 3), got {arr.shape}"
        )
    ends = arr[:, :2]
    if not np.isfinite(ends).all() or not np.array_equal(ends, np.trunc(ends)):
        raise ShapeError("edge endpoints must be integers")
    rows = ends[:, 0].astype(np.int64)
    cols = ends[:, 1].astype(np.int64)
    if with_weight and arr.shape[1] == 3:
        weights = arr[:, 2].astype(dtype)
        if not np.isfinite(weights).all():
            raise ShapeError(f"edge weights must be finite in {np.dtype(dtype).name}")
    else:
        weights = np.ones(rows.shape[0], dtype=dtype)
    return rows, cols, weights


def _check_bounds(ins, dels, nrows: int, ncols: int) -> None:
    for rows, cols, *_ in (ins, dels):
        if rows.size == 0:
            continue
        if rows.min() < 0 or rows.max() >= nrows:
            raise ShapeError(f"edge row index out of range for {nrows} rows")
        if cols.min() < 0 or cols.max() >= ncols:
            raise ShapeError(f"edge column index out of range for {ncols} columns")
