"""Vertex reordering (the locality tier).

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

A reordering is a permutation only: the plan that binds one runs the
permuted matrix through the same edge-block driver as a natural-order
plan.  Each permuted row keeps its source row's edge order, and that
driver sums a row left to right whatever its position, so a reordered
``generated`` result is bitwise identical to the natural ordering
(other kinds are allclose to it).  The ``"none"``
strategy keeps the original matrix untouched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import BackendError, ShapeError
from .csr import CSRMatrix

__all__ = [
    "REORDER_STRATEGIES",
    "REORDER_CHOICES",
    "ReorderResult",
    "validate_reorder",
    "reorder_permutation",
    "permute_symmetric",
    "reorder_matrix",
]

#: Concrete reordering strategies (``"none"`` keeps the natural order).
REORDER_STRATEGIES: Tuple[str, ...] = ("none", "degree", "rcm", "hub")

#: Everything a ``reorder=`` knob accepts: the concrete strategies plus
#: ``"auto"`` (measured selection by the plan builder / autotuner).
REORDER_CHOICES: Tuple[str, ...] = REORDER_STRATEGIES + ("auto",)


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
        ``A_p[i, j] = A[perm[i], perm[j]]``; row ``i`` keeps the edge
        order of row ``perm[i]`` of the original.
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

    O(nnz): one vectorized edge gather (:meth:`CSRMatrix.select_rows`) and
    the column renaming.  Row ``i`` of the result keeps the edge order of
    row ``perm[i]`` of ``A``, so its columns are not re-sorted: a kernel
    then reads the same messages in the same order as on ``A``, which is
    what makes a reordered ``generated`` result bitwise equal to natural
    order.
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
    rows = A.select_rows(perm)
    return CSRMatrix(n, n, rows.indptr, inv_perm[rows.indices], rows.data, check=False)


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
