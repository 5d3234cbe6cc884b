"""Hand-specialized fused kernels for the known patterns of Table III.

Section IV of the paper explains that when the five operators match a known
pattern — e.g. (MUL, RSUM, SIGMOID, MUL, ASUM) for sigmoid graph embedding —
the library dispatches a kernel in which the steps are fused into a single
pass with no per-step temporaries and architecture-tuned intrinsics.  The
Python analogue fuses the steps into single NumPy expressions (``einsum``
for the dot products) and eliminates the operator-dispatch overhead of the
general :mod:`repro.core.optimized` kernels.

Each kernel is only its block math: the edge-block loop, the output window
and the left-to-right segment sum belong to
:func:`~repro.core.optimized.run_edge_blocks`, whose keywords
(``block_size``, ``num_threads``, ``parts``, ``pool``, ``out``,
``row_offset``, …) every kernel here accepts.

Available specializations (mirroring the first three rows of Table III plus
the SpMM specialisation used in the MKL comparison):

* :func:`sigmoid_embedding_kernel` — ``z_u = Σ_v σ(x_u·y_v) · y_v``
* :func:`sigmoid_residual_kernel`  — ``z_u = Σ_v (σ(x_u·y_v) − a_uv) · y_v``,
  the Force2Vec/VERSE gradient in one pass
* :func:`fr_layout_kernel`        — ``z_u = Σ_v f(‖x_u−y_v‖) · (x_u−y_v)``
* :func:`spmm_kernel`             — ``Z = A · Y`` (also the GCN aggregation)
* :func:`gcn_kernel`              — :func:`spmm_kernel` with the ``(A, X, Y)``
  signature

:func:`get_specialized_kernel` maps a resolved pattern to its specialization
(or ``None`` when there is none), which is how the backend resolver in
:mod:`repro.core.fused` selects them automatically.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .mathops import sigmoid as _sigmoid
from .optimized import run_edge_blocks
from .patterns import ResolvedPattern

__all__ = [
    "sigmoid_embedding_kernel",
    "sigmoid_residual_kernel",
    "fr_layout_kernel",
    "spmm_kernel",
    "gcn_kernel",
    "get_specialized_kernel",
]


# Row gathers use np.take: for narrow rows it is several times faster
# than fancy indexing, with the same result.
def _sigmoid_messages(X, Y, src, dst, vals, edges):
    Yd = np.take(Y, dst, axis=0)
    # VOP + ROP fused into one einsum (the "dot1/dot2" of Fig. 5), then
    # SOP and MOP: each neighbour row scaled by its sigmoid score.
    return _sigmoid(np.einsum("ij,ij->i", np.take(X, src, axis=0), Yd))[:, None] * Yd


def _sigmoid_residual(X, Y, src, dst, vals, edges):
    Yd = np.take(Y, dst, axis=0)
    # As _sigmoid_messages, with the edge's label taken off its score.
    H = _sigmoid(np.einsum("ij,ij->i", np.take(X, src, axis=0), Yd))
    return (H - vals)[:, None] * Yd


def _fr_forces(X, Y, src, dst, vals, edges):
    diff = np.take(X, src, axis=0) - np.take(Y, dst, axis=0)
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return (1.0 / (1.0 + np.square(dist)))[:, None] * diff


def _scaled_rows(X, Y, src, dst, vals, edges):
    return vals[:, None] * np.take(Y, dst, axis=0)


def sigmoid_embedding_kernel(A, X, Y=None, **blocking) -> np.ndarray:
    """Fused sigmoid-embedding kernel: ``z_u = Σ_v σ(x_uᵀ y_v) y_v``.

    This is the kernel of Fig. 5: the dot product (VOP+ROP), the sigmoid
    (SOP) and the scaling (MOP) are one expression per edge block, and the
    driver's segment sum is the accumulation (AOP).
    """
    return run_edge_blocks(A, X, Y, _sigmoid_messages, **blocking)


def sigmoid_residual_kernel(A, X, Y=None, **blocking) -> np.ndarray:
    """Fused embedding-gradient kernel: ``z_u = Σ_v (σ(x_uᵀ y_v) − a_uv) y_v``.

    With label 1 on real edges and 0 on sampled negatives this is the whole
    Force2Vec minibatch gradient with each neighbour vector gathered once;
    a sigmoid aggregation plus a plain SpMM over the same rows gathers it
    twice.
    """
    return run_edge_blocks(A, X, Y, _sigmoid_residual, **blocking)


def fr_layout_kernel(A, X, Y=None, **blocking) -> np.ndarray:
    """Fused force-directed-layout kernel (attractive forces):
    ``z_u = Σ_v 1/(1+‖x_u−y_v‖²) · (x_u−y_v)``.

    The per-edge message here is a *d-dimensional vector*, which is exactly
    the case where the unfused pipeline's intermediate H costs ``nnz × d``
    floats (the out-of-memory column of Table VI and Fig. 10b); the fused
    kernel keeps only one block of differences alive at a time.
    """
    return run_edge_blocks(A, X, Y, _fr_forces, **blocking)


def spmm_kernel(A, Y, **blocking) -> np.ndarray:
    """SpMM specialisation of FusedMM: ``Z = A · Y``.

    This is the kernel compared against MKL in Table VII and the
    aggregation used by GCN (Table III row 3).  Note it takes only ``A``
    and ``Y`` — the GCN pattern ignores the source features entirely.
    """
    return run_edge_blocks(A, None, Y, _scaled_rows, **blocking)


def gcn_kernel(A, X, Y=None, **blocking) -> np.ndarray:
    """GCN aggregation specialisation — identical math to :func:`spmm_kernel`
    but with the standard (A, X, Y) FusedMM signature so the dispatcher can
    call it interchangeably with the other specializations."""
    return run_edge_blocks(A, X, Y, _scaled_rows, **blocking)


def get_specialized_kernel(pattern: ResolvedPattern) -> Optional[Callable]:
    """Return the specialized kernel for a resolved pattern, or ``None``.

    The mapping mirrors Section IV: the library recognises the op tuples of
    the first three rows of Table III and substitutes its tuned kernels;
    everything else falls back to the general optimized implementation.
    """
    if pattern.is_sigmoid_embedding:
        return sigmoid_embedding_kernel
    if pattern.is_sigmoid_residual:
        return sigmoid_residual_kernel
    if pattern.is_fr_layout:
        return fr_layout_kernel
    if pattern.is_spmm_like:
        return gcn_kernel
    return None
