"""Extensions beyond the paper's core kernel.

The paper singles out attention-based GNNs as the one family whose edge
messages are *not* immediately aggregated (Section I: "In almost all
applications (except in attention-based GNNs), messages generated on edges
are immediately aggregated"), and lists GPU support and further patterns as
future work.  This module implements the CPU-side pieces of that future
work that fit the same substrate:

* :func:`edge_softmax` — normalise per-edge scores within each row (the
  attention normalisation GAT needs).  It is the one genuinely two-pass
  operation: scores must exist for the whole row before they can be
  normalised, so it composes an SDDMM-style score pass with a fused
  aggregation pass rather than a single FusedMM call.
* :func:`attention_aggregate` — a single attention head:
  ``z_u = Σ_v softmax_v(score(x_u, y_v)) · y_v`` with a leaky-ReLU dot
  score, built from :func:`edge_softmax` plus the fused SpMM.
* :func:`sage_mean_aggregate` — GraphSAGE-mean aggregation (neighbour mean
  concatenated with the self feature), expressed with the SpMM
  specialisation and a degree normalisation.

All three reuse the CSR substrate and the fused kernels, so they inherit
the memory behaviour studied in the paper; they are covered by unit tests
and an ablation-style benchmark.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from ..sparse import CSRMatrix, as_csr
from .fused import fusedmm
from .optimized import segment_sum

__all__ = ["edge_softmax", "attention_scores", "attention_aggregate", "sage_mean_aggregate"]


def _spmm(A, Y, num_threads):
    """``Z = A · Y`` on the SpMM specialisation (generated kernel)."""
    return fusedmm(
        A, None, Y, pattern="spmm", backend="generated", num_threads=num_threads
    )


def attention_scores(
    A,
    X: np.ndarray,
    Y: Optional[np.ndarray] = None,
    *,
    negative_slope: float = 0.2,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Per-edge attention logits ``leaky_relu(x_u · y_v / scale)``.

    Returns an ``(nnz,)`` array aligned with ``A.indices`` — the SDDMM half
    of an attention layer.  ``scale`` defaults to ``sqrt(d)`` as in scaled
    dot-product attention.
    """
    A = as_csr(A)
    X = np.ascontiguousarray(X, dtype=np.float32)
    Y = X if Y is None else np.ascontiguousarray(Y, dtype=np.float32)
    if X.shape[0] != A.nrows or Y.shape[0] != A.ncols:
        raise ShapeError("X/Y row counts must match the adjacency dimensions")
    if X.shape[1] != Y.shape[1]:
        raise ShapeError("X and Y must share the feature dimension")
    scale = float(np.sqrt(X.shape[1])) if scale is None else float(scale)
    rows = np.repeat(np.arange(A.nrows, dtype=np.int64), A.row_degrees())
    scores = np.einsum("ij,ij->i", X[rows], Y[A.indices]) / max(scale, 1e-12)
    return np.where(scores >= 0, scores, negative_slope * scores).astype(np.float32)


def edge_softmax(A, scores: np.ndarray) -> np.ndarray:
    """Softmax-normalise per-edge scores within each row of ``A``.

    ``scores`` must be an ``(nnz,)`` array aligned with ``A.indices``; the
    result has the same layout and sums to 1 within every non-empty row.
    """
    A = as_csr(A)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (A.nnz,):
        raise ShapeError(f"scores must have shape ({A.nnz},), got {scores.shape}")
    if A.nnz == 0:
        return scores.astype(np.float32)
    indptr = A.indptr
    degrees = A.row_degrees()
    # Row-wise numerically-stable softmax over the CSR segments: the edges
    # of one row are contiguous, so the non-empty rows' starts delimit the
    # segments of the per-row max and (left-to-right) sum.
    starts = indptr[:-1][degrees > 0]
    seg_id = np.cumsum(np.isin(np.arange(A.nnz), starts)) - 1
    row_max = np.maximum.reduceat(scores, starts)
    exp = np.exp(scores - row_max[seg_id])
    row_sum = segment_sum(np.append(starts, A.nnz), exp[:, None])[:, 0]
    out = exp / row_sum[seg_id]
    return out.astype(np.float32)


def attention_aggregate(
    A,
    X: np.ndarray,
    Y: Optional[np.ndarray] = None,
    *,
    negative_slope: float = 0.2,
    num_threads: int = 1,
) -> np.ndarray:
    """One dot-product attention head over the graph:
    ``z_u = Σ_v α_uv y_v`` with ``α = edge_softmax(leaky_relu(x_u·y_v/√d))``.

    The score pass materialises one scalar per edge (unavoidable — the
    softmax needs the whole row), after which the aggregation reuses the
    fused SpMM specialisation with the attention weights as edge values.
    """
    A = as_csr(A)
    Y_arr = np.ascontiguousarray(X if Y is None else Y, dtype=np.float32)
    scores = attention_scores(A, X, Y_arr, negative_slope=negative_slope)
    alpha = edge_softmax(A, scores)
    weighted = CSRMatrix(
        A.nrows, A.ncols, A.indptr.copy(), A.indices.copy(), alpha, check=False
    )
    return _spmm(weighted, Y_arr, num_threads)


def sage_mean_aggregate(
    A,
    X: np.ndarray,
    Y: Optional[np.ndarray] = None,
    *,
    num_threads: int = 1,
) -> np.ndarray:
    """GraphSAGE-mean aggregation: ``[x_u ‖ mean_{v∈N(u)} y_v]``.

    Returns an ``(m, 2d)`` matrix (self features concatenated with the
    neighbour mean); vertices without neighbours get a zero mean part.
    """
    A = as_csr(A)
    X = np.ascontiguousarray(X, dtype=np.float32)
    Y_arr = X if Y is None else np.ascontiguousarray(Y, dtype=np.float32)
    if X.shape[0] != A.nrows:
        raise ShapeError("X must have one row per row of A")
    ones = A.copy()
    ones.data = np.ones_like(ones.data)
    neighbour_sum = _spmm(ones, Y_arr, num_threads)
    degrees = np.maximum(A.row_degrees().astype(np.float32), 1.0)
    neighbour_mean = neighbour_sum / degrees[:, None]
    return np.concatenate([X, neighbour_mean.astype(np.float32)], axis=1)
