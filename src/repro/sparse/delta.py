"""Delta-CSR overlay: mutable graphs over an immutable CSR base.

Every cache tier of the runtime — plan cache (with its reordered copies
and cache-blocked panels), worker shared memory, remote host LRUs — keys
on an immutable matrix fingerprint.  :class:`DeltaCSR` is what makes
*mutation* compatible with that design: an immutable base
:class:`~repro.sparse.csr.CSRMatrix` plus a per-row override log.
Applying an edge batch produces a **new snapshot** (readers holding the
old one are never torn), identified by a **versioned fingerprint**
``<lineage>@v<N>`` where ``lineage`` is the content hash of the original
base and ``N`` increments once per applied batch.  Compaction folds the
overrides into a fresh base; the edge set is unchanged, so the versioned
fingerprint — and every cache entry keyed on it — survives.

Bitwise contract
----------------
The canonical CSR form (columns sorted within rows, one entry per
``(u, v)`` pair) is *unique* for a given edge set.  Overrides are kept in
exactly that form, so :meth:`DeltaCSR.materialize` — which splices the
override rows into the base arrays — produces byte-for-byte the same
``indptr``/``indices``/``data`` as :meth:`CSRMatrix.from_coo` on the full
edge list.  Kernels therefore cannot distinguish an overlay snapshot from
a freshly rebuilt matrix: the existing bitwise-determinism contract
(thread counts, shard counts, local vs remote) extends to dynamic graphs
for free, and the tests assert it at every compaction point.

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
``LOAD_DELTA`` frame (base key + dirty rows), so controller and agent can
never disagree on the spliced bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from .csr import CSRMatrix

__all__ = [
    "CompactionPolicy",
    "DeltaCSR",
    "EdgeBatchResult",
    "splice_rows",
]


# ---------------------------------------------------------------------- #
# Splice: the one primitive both the overlay and the remote agent use
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


# ---------------------------------------------------------------------- #
# Compaction policy
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CompactionPolicy:
    """When an overlay folds its override log into a fresh base.

    ``max_delta_ratio``
        Compact once the overridden rows hold more than this fraction of
        the base's nonzeros (overlay bookkeeping stops being "small").
    ``max_log``
        Compact after this many applied edge operations regardless of the
        nnz ratio (bounds per-row merge work for hot rows).
    """

    max_delta_ratio: float = 0.25
    max_log: int = 50_000

    def __post_init__(self) -> None:
        if self.max_delta_ratio <= 0 or self.max_log < 1:
            raise ShapeError(
                "max_delta_ratio must be > 0 and max_log >= 1, got "
                f"{self.max_delta_ratio}/{self.max_log}"
            )


@dataclass(frozen=True)
class EdgeBatchResult:
    """What one applied batch did (returned next to the new snapshot)."""

    inserted: int  # edges created
    updated: int  # existing edges whose weight was replaced
    deleted: int  # edges removed
    ignored_deletes: int  # delete ops for edges that did not exist
    touched_rows: np.ndarray  # sorted unique row ids the batch modified


# ---------------------------------------------------------------------- #
# The overlay
# ---------------------------------------------------------------------- #
class DeltaCSR:
    """One immutable snapshot of a mutable graph.

    Holds the base CSR, a ``{row: (cols, vals)}`` override map (each
    override already in canonical sorted-column form) and the version
    lineage.  :meth:`apply` returns a *new* snapshot sharing the base and
    all untouched overrides — the receiver of an old snapshot keeps a
    consistent view forever.
    """

    __slots__ = (
        "base",
        "lineage",
        "version",
        "policy",
        "compactions",
        "log_ops",
        "_rows",
        "_nnz",
    )

    def __init__(
        self,
        base: CSRMatrix,
        lineage: str,
        *,
        version: int = 0,
        policy: Optional[CompactionPolicy] = None,
        _rows: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] = None,
        _log_ops: int = 0,
        _compactions: int = 0,
    ) -> None:
        self.base = base
        self.lineage = str(lineage)
        self.version = int(version)
        self.policy = policy or CompactionPolicy()
        self._rows = dict(_rows) if _rows else {}
        self.log_ops = int(_log_ops)
        self.compactions = int(_compactions)
        delta = 0
        for r, (cols, _vals) in self._rows.items():
            delta += cols.shape[0] - (int(base.indptr[r + 1]) - int(base.indptr[r]))
        self._nnz = base.nnz + delta

    # ------------------------------------------------------------------ #
    # Shape / identity
    # ------------------------------------------------------------------ #
    @property
    def nrows(self) -> int:
        return self.base.nrows

    @property
    def ncols(self) -> int:
        return self.base.ncols

    @property
    def shape(self) -> Tuple[int, int]:
        return self.base.shape

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def fingerprint(self) -> str:
        """The versioned fingerprint ``<lineage>@v<N>`` every cache tier
        keys on.  Compaction keeps it (the edge set is unchanged)."""
        return f"{self.lineage}@v{self.version}"

    @property
    def delta_rows(self) -> int:
        """Number of rows currently overridden."""
        return len(self._rows)

    @property
    def delta_nnz(self) -> int:
        """Nonzeros held by override rows (the overlay's working set)."""
        return sum(cols.shape[0] for cols, _ in self._rows.values())

    def dirty_rows(self) -> np.ndarray:
        """Sorted row ids that differ from the base (may be empty)."""
        return np.array(sorted(self._rows), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Row queries (no materialisation)
    # ------------------------------------------------------------------ #
    def row(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of row ``u`` at this version."""
        if not 0 <= u < self.nrows:
            raise IndexError(f"row index {u} out of range for {self.nrows} rows")
        entry = self._rows.get(int(u))
        if entry is not None:
            return entry
        return self.base.row(u)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def apply(
        self,
        insert: Optional[Iterable[Sequence[float]]] = None,
        delete: Optional[Iterable[Sequence[int]]] = None,
    ) -> Tuple["DeltaCSR", EdgeBatchResult]:
        """Apply one edge batch; returns ``(new snapshot, batch result)``.

        Deletes first, then upsert inserts (see module docstring).  The
        new snapshot's version is ``self.version + 1``; ``self`` is left
        untouched.
        """
        ins = _as_edge_array(insert, with_weight=True, dtype=self.base.data.dtype)
        dels = _as_edge_array(delete, with_weight=False)
        _check_bounds(ins, dels, self.nrows, self.ncols)

        touched = np.unique(np.concatenate([ins[0], dels[0]]))
        rows = dict(self._rows)
        inserted = updated = deleted = ignored = 0
        # Group both op streams by row once (stable, so within-row insert
        # order — and therefore last-wins — survives), then slice each
        # row's segment out by binary search.  Keeps the per-row work
        # proportional to that row's ops instead of the whole batch.
        d_order = np.argsort(dels[0], kind="stable")
        d_rows, d_cols = dels[0][d_order], dels[1][d_order]
        i_order = np.argsort(ins[0], kind="stable")
        i_rows, i_cols, i_vals = ins[0][i_order], ins[1][i_order], ins[2][i_order]
        d_lo = np.searchsorted(d_rows, touched, side="left")
        d_hi = np.searchsorted(d_rows, touched, side="right")
        i_lo = np.searchsorted(i_rows, touched, side="left")
        i_hi = np.searchsorted(i_rows, touched, side="right")
        for k, r in enumerate(touched.tolist()):
            entry = rows.get(r)
            if entry is None:
                entry = self.base.row(r)
            cols, vals = entry
            del_cols = d_cols[d_lo[k] : d_hi[k]]
            ins_cols = i_cols[i_lo[k] : i_hi[k]]
            ins_vals = i_vals[i_lo[k] : i_hi[k]]
            if ins_cols.size:
                # Last occurrence wins within the batch: reverse, keep the
                # first of each column, restore ascending order.
                rev_cols = ins_cols[::-1]
                rev_vals = ins_vals[::-1]
                _, first = np.unique(rev_cols, return_index=True)
                ins_cols = rev_cols[first]
                ins_vals = rev_vals[first]
            hit_del = np.isin(del_cols, cols)
            deleted_now = int(np.unique(del_cols[hit_del]).size)
            ignored += int(np.unique(del_cols).size) - deleted_now
            deleted += deleted_now
            keep = ~np.isin(cols, del_cols)
            kept_cols = cols[keep]
            kept_vals = vals[keep]
            if ins_cols.size:
                exists = np.isin(ins_cols, kept_cols)
                updated += int(np.count_nonzero(exists))
                inserted += int(ins_cols.size - np.count_nonzero(exists))
                survive = ~np.isin(kept_cols, ins_cols)
                merged_cols = np.concatenate([kept_cols[survive], ins_cols])
                merged_vals = np.concatenate(
                    [kept_vals[survive], ins_vals.astype(kept_vals.dtype, copy=False)]
                )
                order = np.argsort(merged_cols, kind="stable")
                new_cols = np.ascontiguousarray(merged_cols[order])
                new_vals = np.ascontiguousarray(merged_vals[order])
            else:
                new_cols = np.ascontiguousarray(kept_cols)
                new_vals = np.ascontiguousarray(kept_vals)
            rows[r] = (new_cols, new_vals)
        result = EdgeBatchResult(
            inserted=inserted,
            updated=updated,
            deleted=deleted,
            ignored_deletes=ignored,
            touched_rows=touched,
        )
        snapshot = DeltaCSR(
            self.base,
            self.lineage,
            version=self.version + 1,
            policy=self.policy,
            _rows=rows,
            _log_ops=self.log_ops + int(ins[0].size + dels[0].size),
            _compactions=self.compactions,
        )
        return snapshot, result

    # ------------------------------------------------------------------ #
    # Materialisation and compaction
    # ------------------------------------------------------------------ #
    def materialize(self) -> CSRMatrix:
        """This version as a fresh canonical CSR (bitwise identical to a
        full :meth:`CSRMatrix.from_coo` rebuild of the same edge set)."""
        if not self._rows:
            return self.base
        rows = self.dirty_rows()
        counts = np.array(
            [self._rows[int(r)][0].shape[0] for r in rows], dtype=np.int64
        )
        total = int(counts.sum())
        indices = np.empty(total, dtype=np.int64)
        data = np.empty(total, dtype=self.base.data.dtype)
        pos = 0
        for r in rows.tolist():
            cols, vals = self._rows[r]
            indices[pos : pos + cols.shape[0]] = cols
            data[pos : pos + vals.shape[0]] = vals
            pos += cols.shape[0]
        return splice_rows(self.base, rows, counts, indices, data)

    def should_compact(self) -> bool:
        """Whether the policy says this snapshot's log is due for folding."""
        if self.log_ops >= self.policy.max_log:
            return True
        base_nnz = max(self.base.nnz, 1)
        return self.delta_nnz / base_nnz > self.policy.max_delta_ratio

    def compacted(self) -> "DeltaCSR":
        """Fold the overrides into a fresh base.

        The edge set — and therefore the versioned fingerprint — is
        unchanged: caches keyed on :attr:`fingerprint` stay valid across
        the representation change.
        """
        return DeltaCSR(
            self.materialize(),
            self.lineage,
            version=self.version,
            policy=self.policy,
            _rows=None,
            _log_ops=0,
            _compactions=self.compactions + 1,
        )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def memory(self) -> Dict[str, int]:
        """Byte accounting for ``/statz`` (paper Section IV.C convention:
        8-byte indices, value bytes from the dtype)."""
        value_bytes = int(self.base.data.dtype.itemsize)
        delta_bytes = sum(
            8 * cols.shape[0] + value_bytes * vals.shape[0]
            for cols, vals in self._rows.values()
        )
        return {
            "base_bytes": self.base.memory_bytes(value_bytes=value_bytes),
            "delta_bytes": delta_bytes,
            "delta_rows": len(self._rows),
            "delta_nnz": self.delta_nnz,
            "log_ops": self.log_ops,
            "compactions": self.compactions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaCSR({self.fingerprint}, shape={self.shape}, nnz={self.nnz}, "
            f"dirty_rows={self.delta_rows})"
        )


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
