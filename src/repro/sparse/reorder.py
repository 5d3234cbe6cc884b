"""Vertex reordering and cache-blocked CSR row panels (the locality tier).

FusedMM is memory-bound: the kernels stream the edges of ``A`` and gather
one dense feature row ``Y[v]`` per nonzero, so throughput is governed by
how often those gathers hit cache.  The paper attacks the problem with
register blocking inside a row (Section IV.A); this module attacks it
*across* rows by renumbering the vertices so that edges processed together
point at feature rows stored together:

* **Reverse Cuthill–McKee** (``"rcm"``) — the classic bandwidth-reducing
  BFS ordering.  Neighbours end up numbered close to each other, so the
  destination gathers of consecutive edge blocks touch a narrow window of
  ``Y``.
* **Degree sort** (``"degree"``) — vertices in decreasing degree order.
  On power-law graphs most edges point at the few hubs; packing the hubs
  into the first rows of ``Y`` turns the dominant gathers into hits on a
  cache-resident prefix.
* **Hub clustering** (``"hub"``) — each hub is placed next to its
  neighbourhood (hubs in decreasing degree order, their not-yet-placed
  neighbours immediately after), so a hub row's gather window is one
  contiguous span instead of a scatter across the whole matrix.

A reordering is a *symmetric* permutation ``A_p[i, j] = A[perm[i],
perm[j]]`` — rows and columns move together, which is what lets callers
permute ``X``/``Y`` once per call and map the permuted output back with
``inv_perm``.  Reordering therefore only applies to square matrices.

Reordered execution changes the order in which a row's neighbours are
accumulated (columns are re-sorted under the new numbering), so results
are *allclose*-equivalent to the natural ordering — exactly equal at
float64 up to reassociation — rather than bitwise identical.  The
``"none"`` strategy keeps the original matrix untouched and preserves the
repo's bitwise-identity guarantees.

:func:`cache_block_partitions` is the second half of the tier: it tiles a
(permuted) CSR matrix into contiguous row panels whose *working set* — the
panel's output rows plus the distinct ``Y`` rows its edges gather — fits a
last-level-cache budget, so each panel's dense operand slice is loaded
once and reused for every edge of the panel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import BackendError, ShapeError
from .csr import CSRMatrix

__all__ = [
    "REORDER_STRATEGIES",
    "REORDER_CHOICES",
    "ReorderResult",
    "PanelBlock",
    "validate_reorder",
    "reorder_permutation",
    "permute_symmetric",
    "reorder_matrix",
    "cache_block_partitions",
    "build_panels",
    "DEFAULT_PANEL_BUDGET_BYTES",
]

#: Concrete reordering strategies (``"none"`` keeps the natural order).
REORDER_STRATEGIES: Tuple[str, ...] = ("none", "degree", "rcm", "hub")

#: Everything a ``reorder=`` knob accepts: the concrete strategies plus
#: ``"auto"`` (measured selection by the plan builder / autotuner).
REORDER_CHOICES: Tuple[str, ...] = REORDER_STRATEGIES + ("auto",)

#: Default cache budget for one row panel's working set.  Sized at half a
#: typical 2 MB private L2: the panel keeps its output rows, its compacted
#: dense-operand rows and one edge block's intermediates simultaneously
#: hot, with headroom for the kernel's temporaries.  Measured on the repo's
#: power-law benchmark (d=128 sigmoid_embedding) this is the sweet spot —
#: LLC-sized panels are too coarse to change the gather behaviour.
DEFAULT_PANEL_BUDGET_BYTES: int = 1024 * 1024


def validate_reorder(strategy: str) -> str:
    """Validate a ``reorder=`` knob value and return it.

    The one shared gate for every surface that accepts the knob (runtime,
    plans, the four app configs), so the accepted set and the error shape
    cannot drift between layers.
    """
    if strategy not in REORDER_CHOICES:
        raise BackendError(
            f"unknown reorder strategy {strategy!r}; "
            f"expected one of {REORDER_CHOICES}"
        )
    return strategy


@dataclass(frozen=True)
class ReorderResult:
    """A vertex reordering of one square CSR matrix.

    Attributes
    ----------
    strategy:
        The strategy that produced the permutation.
    matrix:
        The symmetrically permuted matrix ``A_p`` with
        ``A_p[i, j] = A[perm[i], perm[j]]`` (canonical CSR: columns sorted
        within each row under the new numbering).
    perm:
        ``perm[new] = old`` — row ``new`` of ``matrix`` is row
        ``perm[new]`` of the original.  Permute operands with
        ``X_p = X[perm]``.
    inv_perm:
        ``inv_perm[old] = new`` — map permuted outputs back with
        ``Z = Z_p[inv_perm]``.
    """

    strategy: str
    matrix: CSRMatrix
    perm: np.ndarray
    inv_perm: np.ndarray


# ---------------------------------------------------------------------- #
# Permutation strategies
# ---------------------------------------------------------------------- #
def _degree_permutation(A: CSRMatrix) -> np.ndarray:
    """Vertices in decreasing degree order (stable, so ties keep their
    natural relative order)."""
    return np.argsort(-A.row_degrees(), kind="stable").astype(np.int64)


def _rcm_permutation(A: CSRMatrix) -> np.ndarray:
    """Reverse Cuthill–McKee: BFS from a minimum-degree seed per connected
    component, neighbours visited in increasing degree order, final order
    reversed.

    The structure is taken as given (out-neighbours); for the symmetric
    adjacencies every generator in :mod:`repro.graphs` produces this is
    the textbook algorithm.
    """
    n = A.nrows
    degrees = A.row_degrees()
    indptr, indices = A.indptr, A.indices
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    # Seeds in increasing degree order: each unvisited seed starts its
    # component's BFS from a peripheral (low-degree) vertex.
    for seed in np.argsort(degrees, kind="stable"):
        if visited[seed]:
            continue
        visited[seed] = True
        queue = deque((int(seed),))
        while queue:
            u = queue.popleft()
            order[pos] = u
            pos += 1
            nbrs = indices[indptr[u] : indptr[u + 1]]
            nbrs = nbrs[~visited[nbrs]]
            if nbrs.size:
                nbrs = nbrs[np.argsort(degrees[nbrs], kind="stable")]
                visited[nbrs] = True
                queue.extend(int(v) for v in nbrs)
    return order[::-1].copy()


def _hub_permutation(A: CSRMatrix, hub_factor: float = 4.0) -> np.ndarray:
    """Hub clustering: hubs (degree ≥ ``hub_factor`` × average) in
    decreasing degree order, each immediately followed by its not-yet-
    placed neighbours; non-hub leftovers keep their natural order."""
    n = A.nrows
    degrees = A.row_degrees()
    if n == 0:
        return np.empty(0, dtype=np.int64)
    threshold = max(float(degrees.mean()) * hub_factor, 2.0)
    hubs = np.flatnonzero(degrees >= threshold)
    hubs = hubs[np.argsort(-degrees[hubs], kind="stable")]
    placed = np.zeros(n, dtype=bool)
    chunks: List[np.ndarray] = []
    indptr, indices = A.indptr, A.indices
    for h in hubs:
        if not placed[h]:
            placed[h] = True
            chunks.append(np.asarray([h], dtype=np.int64))
        nbrs = indices[indptr[h] : indptr[h + 1]]
        fresh = nbrs[~placed[nbrs]]
        if fresh.size:
            placed[fresh] = True
            chunks.append(fresh.astype(np.int64))
    rest = np.flatnonzero(~placed).astype(np.int64)
    if rest.size:
        chunks.append(rest)
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


_STRATEGY_FNS = {
    "degree": _degree_permutation,
    "rcm": _rcm_permutation,
    "hub": _hub_permutation,
}


def reorder_permutation(A: CSRMatrix, strategy: str) -> np.ndarray:
    """The ``perm[new] = old`` vertex permutation for ``strategy``.

    ``"none"`` returns the identity.  Raises :class:`ShapeError` for
    non-square matrices (a symmetric permutation needs matching row and
    column index spaces) and :class:`~repro.errors.BackendError` — the
    same shape as :func:`validate_reorder` — for anything that is not a
    concrete strategy (``"auto"`` included: measured selection lives in
    the plan builder, not here).
    """
    if A.nrows != A.ncols:
        raise ShapeError(
            f"vertex reordering needs a square matrix, got {A.shape}"
        )
    if strategy == "none":
        return np.arange(A.nrows, dtype=np.int64)
    fn = _STRATEGY_FNS.get(strategy)
    if fn is None:
        detail = (
            "'auto' is resolved by the plan builder (pass reorder='auto' to "
            "KernelRuntime.plan); this function needs a concrete strategy"
            if strategy == "auto"
            else f"expected one of {REORDER_STRATEGIES}"
        )
        raise BackendError(f"unknown reorder strategy {strategy!r}; {detail}")
    return fn(A)


# ---------------------------------------------------------------------- #
# Symmetric permutation
# ---------------------------------------------------------------------- #
def permute_symmetric(A: CSRMatrix, perm: np.ndarray) -> CSRMatrix:
    """Apply ``perm`` to rows *and* columns: ``A_p[i, j] = A[perm[i], perm[j]]``.

    O(nnz log d_max): one vectorized edge gather plus a per-row column
    re-sort to restore canonical CSR under the new numbering.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = A.nrows
    if A.nrows != A.ncols:
        raise ShapeError(f"symmetric permutation needs a square matrix, got {A.shape}")
    if perm.shape != (n,):
        raise ShapeError(f"perm must have shape ({n},), got {perm.shape}")
    if n and (
        perm.min() < 0
        or perm.max() >= n
        or np.bincount(perm, minlength=n).max() > 1
    ):
        # A non-bijective perm would leave inv_perm slots uninitialised and
        # silently build a corrupt matrix (construction skips validation).
        raise ShapeError("perm must be a permutation of range(nrows)")
    inv_perm = np.empty(n, dtype=np.int64)
    inv_perm[perm] = np.arange(n, dtype=np.int64)

    degrees = A.row_degrees()
    new_degrees = degrees[perm]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_degrees, out=indptr[1:])
    nnz = int(indptr[-1])
    # Edge gather: position k of the new layout reads old edge
    # old_start(row) + (k - new_start(row)).
    within = np.arange(nnz, dtype=np.int64) - np.repeat(indptr[:-1], new_degrees)
    src = np.repeat(A.indptr[perm], new_degrees) + within
    cols = inv_perm[A.indices[src]]
    vals = A.data[src]
    # Restore sorted columns within each row (rows are already grouped).
    rows = np.repeat(np.arange(n, dtype=np.int64), new_degrees)
    order = np.lexsort((cols, rows))
    return CSRMatrix(n, n, indptr, cols[order], vals[order], check=False)


def reorder_matrix(A: CSRMatrix, strategy: str) -> ReorderResult:
    """The reordering of ``A`` under ``strategy``.

    Not cached here: the plan that binds a reordering owns it, so the
    plan cache is the one cache of a matrix's permuted copy.
    """
    perm = reorder_permutation(A, strategy)
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(perm.shape[0], dtype=np.int64)
    matrix = A if strategy == "none" else permute_symmetric(A, perm)
    return ReorderResult(
        strategy=strategy, matrix=matrix, perm=perm, inv_perm=inv_perm
    )


# ---------------------------------------------------------------------- #
# Cache-blocked row panels
# ---------------------------------------------------------------------- #
def _panel_boundaries_loop(
    A: CSRMatrix, row_bytes: int, col_bytes: int, budget_bytes: int
) -> List[int]:
    """Reference implementation: one Python iteration per row.

    Kept as the semantic ground truth (and the fallback for non-canonical
    matrices with duplicate columns inside a row): the vectorized path is
    asserted equal to this, row for row, by the test suite and by
    ``repro bench cache_block``.
    """
    n = A.nrows
    indptr, indices = A.indptr, A.indices
    # Stamp array: which panel last touched each column.  O(ncols) memory,
    # O(nnz) total time — but with Python-level loop overhead per row,
    # which is what the vectorized path removes.
    stamp = np.full(A.ncols, -1, dtype=np.int64)
    boundaries = [0]
    panel_id = 0
    ws = 0
    for u in range(n):
        cols = indices[indptr[u] : indptr[u + 1]]
        fresh = int(np.count_nonzero(stamp[cols] != panel_id))
        row_cost = row_bytes + fresh * col_bytes + cols.shape[0] * 12
        if u > boundaries[-1] and ws + row_cost > budget_bytes:
            # Close the panel before this row and re-count its columns
            # against the fresh panel.
            boundaries.append(u)
            panel_id += 1
            fresh = cols.shape[0]
            row_cost = row_bytes + fresh * col_bytes + cols.shape[0] * 12
            ws = 0
        stamp[cols] = panel_id
        ws += row_cost
    boundaries.append(n)
    return boundaries


def _panel_boundaries_vectorized(
    A: CSRMatrix, row_bytes: int, col_bytes: int, budget_bytes: int
) -> List[int]:
    """Chunk-vectorized panel boundary computation (no per-row Python loop).

    Key observation: the candidate row slab always *starts at the panel
    start*, so an edge gathers a **fresh** column iff it is the first
    occurrence of that column within the slab — detectable with one
    slab-local stable sort, no global preprocessing and no O(nnz)
    temporaries.  Per panel, fresh counts, row costs and the cumulative
    working set are then pure NumPy over the slab, and the boundary is
    the first index over the budget threshold.

    Exactly equivalent to :func:`_panel_boundaries_loop` for matrices with
    strictly increasing columns within each row (canonical CSR — what
    every generator and :func:`permute_symmetric` produce); callers
    pre-check and fall back to the loop otherwise.
    """
    n = A.nrows
    indptr = A.indptr.astype(np.int64, copy=False)
    indices = A.indices

    # A panel holds at most this many rows (each row costs >= row_bytes).
    max_rows = max(int(budget_bytes // max(row_bytes, 1)), 1) + 1

    boundaries = [0]
    b = 0
    # Adaptive slab: size the candidate row chunk from the previous
    # panel's length (panels of a given matrix are similar) and double on
    # a miss — so the vectorized work per panel stays proportional to the
    # panel itself, not to the worst-case budget/row_bytes bound.
    guess = min(max_rows, 64)
    while b < n:
        end = None
        slab = guess
        while True:
            hi = min(n, b + min(slab, max_rows))
            s, e = int(indptr[b]), int(indptr[hi])
            cols = indices[s:e]
            m = e - s
            # Fresh = first occurrence of the column within the slab (the
            # slab starts exactly at the panel start).  Pack (column,
            # slab position) into one int64 key and plain-sort it: run
            # heads of the column part mark first occurrences, and the
            # position part recovers where they live — ~8x cheaper than a
            # stable argsort at typical slab sizes.
            fresh = np.ones(m, dtype=bool)
            shift = int(m).bit_length()
            if m > 1 and int(A.ncols) >> (62 - shift) == 0:
                key = (cols.astype(np.int64) << shift) | np.arange(
                    m, dtype=np.int64
                )
                key.sort()
                slab_cols = key >> shift
                head = np.empty(m, dtype=bool)
                head[0] = True
                np.not_equal(slab_cols[1:], slab_cols[:-1], out=head[1:])
                fresh[:] = False
                fresh[key[head] & ((1 << shift) - 1)] = True
            elif m > 1:  # pragma: no cover - astronomically wide matrices
                order = np.argsort(cols, kind="stable")
                sorted_cols = cols[order]
                fresh[order[1:]] = sorted_cols[1:] != sorted_cols[:-1]
            # Per-row fresh counts via a cumulative sum (robust to empty
            # rows, unlike reduceat).
            cum = np.empty(e - s + 1, dtype=np.int64)
            cum[0] = 0
            np.cumsum(fresh, out=cum[1:])
            starts = indptr[b : hi + 1] - s
            fresh_per_row = cum[starts[1:]] - cum[starts[:-1]]
            deg = starts[1:] - starts[:-1]
            cost = row_bytes + fresh_per_row * col_bytes + deg * 12
            total = np.cumsum(cost)
            over = np.flatnonzero(total > budget_bytes)
            if over.size:
                # First row whose inclusion overflows the budget closes
                # the panel — but a panel always keeps at least its first
                # row.
                end = b + max(int(over[0]), 1)
                break
            if hi == n or hi - b >= max_rows:
                # Budget never overflows on what is left (cost >=
                # row_bytes per row makes overflow certain at max_rows).
                end = hi
                break
            slab *= 2
        boundaries.append(end)
        guess = min(max_rows, max(2 * (end - b), 16))
        b = end
    return boundaries


def _rows_strictly_sorted(A: CSRMatrix) -> bool:
    """Vectorized check that columns strictly increase within every row
    (no duplicates) — the precondition of the vectorized panel path."""
    nnz = A.indices.shape[0]
    if nnz < 2:
        return True
    d = np.diff(A.indices)
    # Positions where an edge starts a new row may decrease freely.  A
    # trailing run of empty rows puts ``nnz`` itself in indptr[1:-1];
    # there is no edge there, so those entries are irrelevant.
    starts = A.indptr[1:-1]
    row_starts = np.zeros(nnz, dtype=bool)
    row_starts[starts[starts < nnz]] = True
    return bool(np.all((d > 0) | row_starts[1:]))


def cache_block_partitions(
    A: CSRMatrix,
    *,
    dim: int = 128,
    budget_bytes: int = DEFAULT_PANEL_BUDGET_BYTES,
    value_bytes: int = 4,
    min_parts: int = 1,
    max_parts: int = 4096,
    impl: str = "auto",
) -> List:
    """Tile ``A`` into contiguous row panels whose working set fits ``budget_bytes``.

    The working set of a panel is what its kernel execution keeps hot:

    * the float64 output accumulator rows (``rows × dim × 8``),
    * the *distinct* dense operand rows its edges gather
      (``distinct_cols × dim × value_bytes``) — after reordering this is
      the quantity vertex renumbering shrinks,
    * the CSR edge data itself (``nnz × 12`` per the paper's memory model).

    Returns a list of :class:`~repro.core.partition.RowPartition` covering
    ``[0, nrows)`` contiguously — the same contract as
    :func:`~repro.core.partition.part1d`, so the panels slot straight into
    the runtime's partition/shard plumbing.  ``min_parts``/``max_parts``
    bound the panel count: at least ``min_parts`` (so a reordered plan
    fans out no less than an unordered one) and at most ``max_parts`` (so
    scheduling overhead stays bounded); both respect contiguity.

    ``impl`` selects the boundary computation: ``"auto"`` (default) uses
    the chunk-vectorized path for canonical matrices and falls back to
    the row loop when a row holds duplicate columns; ``"vectorized"`` /
    ``"loop"`` force a path (the micro-benchmark and the equivalence
    tests).  Both produce identical boundaries.
    """
    from ..core.partition import RowPartition, part1d  # late: avoid cycle

    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    if budget_bytes <= 0:
        raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
    if min_parts < 1 or max_parts < min_parts:
        raise ValueError(
            f"need 1 <= min_parts <= max_parts, got {min_parts}/{max_parts}"
        )
    if impl not in ("auto", "vectorized", "loop"):
        raise ValueError(f"impl must be auto|vectorized|loop, got {impl!r}")
    n = A.nrows
    if n == 0:
        return part1d(A, min_parts)

    indptr = A.indptr
    row_bytes = dim * 8  # float64 accumulator row
    col_bytes = dim * value_bytes  # one gathered dense operand row
    if impl == "loop" or (impl == "auto" and not _rows_strictly_sorted(A)):
        boundaries = _panel_boundaries_loop(A, row_bytes, col_bytes, budget_bytes)
    else:
        boundaries = _panel_boundaries_vectorized(
            A, row_bytes, col_bytes, budget_bytes
        )

    # Enforce the panel-count bounds while keeping contiguity.
    if len(boundaries) - 1 > max_parts:
        picks = np.linspace(0, len(boundaries) - 1, max_parts + 1)
        boundaries = [boundaries[int(round(i))] for i in picks]
    if len(boundaries) - 1 < min_parts:
        return part1d(A, min_parts)
    return [
        RowPartition(a, b, int(indptr[b] - indptr[a]))
        for a, b in zip(boundaries, boundaries[1:])
    ]


# ---------------------------------------------------------------------- #
# Compacted panel execution structure
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PanelBlock:
    """One cache-blocked row panel, pre-compacted for execution.

    ``matrix`` is the panel's rows as a standalone sub-CSR whose column
    indices are *localised* to the panel's distinct destinations, so a
    kernel call on ``(matrix, X[start:stop], Y[cols])`` gathers from a
    compact, cache-resident dense buffer instead of the full operand.
    ``cols`` is ``None`` when the panel touches (nearly) every column —
    compaction would just copy ``Y`` — in which case callers should run
    the panel as a windowed call on the full matrix instead.
    """

    start: int
    stop: int
    nnz: int
    matrix: Optional[CSRMatrix]
    cols: Optional[np.ndarray]

    @property
    def num_rows(self) -> int:
        return self.stop - self.start


def build_panels(
    A: CSRMatrix, parts, *, compact_threshold: float = 0.9
) -> List[PanelBlock]:
    """Pre-compact each row panel of ``A`` for cache-blocked execution.

    One-time O(nnz log nnz) structural work (no feature data involved):
    for every partition the distinct destination columns are extracted and
    the panel's column indices rewritten against them.  Panels whose
    distinct-column set covers more than ``compact_threshold`` of all
    columns skip compaction (``matrix``/``cols`` set to ``None``) — the
    gather would degenerate into a full copy of the dense operand.
    """
    panels: List[PanelBlock] = []
    indptr, indices, data = A.indptr, A.indices, A.data
    for p in parts:
        lo, hi = int(indptr[p.start]), int(indptr[p.stop])
        cols = indices[lo:hi]
        uniq = np.unique(cols)
        if uniq.shape[0] > compact_threshold * max(A.ncols, 1):
            panels.append(
                PanelBlock(p.start, p.stop, p.nnz, matrix=None, cols=None)
            )
            continue
        local = np.searchsorted(uniq, cols)
        sub_indptr = (indptr[p.start : p.stop + 1] - lo).astype(np.int64)
        sub = CSRMatrix(
            p.stop - p.start,
            int(uniq.shape[0]),
            sub_indptr,
            local,
            data[lo:hi],
            check=False,
        )
        panels.append(
            PanelBlock(p.start, p.stop, p.nnz, matrix=sub, cols=uniq)
        )
    return panels
