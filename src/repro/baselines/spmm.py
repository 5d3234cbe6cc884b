"""General SpMM — the vertex-wise aggregation kernel of the unfused baseline.

Reproduces DGL's general SpMM (Eq. 3 of the paper): consume a materialised
edge-message matrix H (the output of :mod:`repro.baselines.sddmm`) and
aggregate the messages on the target vertices,

``z_u = ⊕_{h_uv ≠ 0} φ(y_v, h_uv)``

with user-defined multiply (``MOP``) and accumulate (``AOP``) operators.
The messages are *read back* from H — this second pass over an
``O(d · nnz)`` array is the memory-traffic cost the fused kernel removes.
The aggregation itself is the fused kernels' edge-block driver and segment
sum (:func:`~repro.core.optimized.run_edge_blocks`), so a fused/unfused
comparison measures fusion, not two different summation routines.  A
neighbour row scaled by its scalar message (``MUL``, DGL's ``u_mul_e``)
is the product ``H · Y`` of the messages as a CSR matrix, which the
driver sums one row partition at a time, as it runs the fused ``gcn``.
"""

from __future__ import annotations

import numpy as np

from ..core.operators import is_builtin
from ..core.optimized import run_edge_blocks
from ..core.patterns import OpPattern, ResolvedPattern, get_pattern
from ..sparse import CSRMatrix
from .sddmm import SDDMMResult

__all__ = ["gspmm"]


def gspmm(
    H: SDDMMResult,
    Y: np.ndarray,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    block_size: int = 65536,
    **pattern_overrides,
) -> np.ndarray:
    """Aggregate materialised edge messages into the output matrix Z.

    Parameters
    ----------
    H:
        The :class:`~repro.baselines.sddmm.SDDMMResult` holding per-edge
        messages aligned with the CSR structure of A.
    Y:
        ``(n, d)`` destination feature matrix (needed because MOP may
        multiply the message with the neighbour features, as in the
        embedding pattern).
    pattern:
        The same pattern used for the SDDMM phase; only its MOP/AOP slots
        are used here.
    """
    resolved: ResolvedPattern = get_pattern(pattern, **pattern_overrides).resolved()
    mop = resolved.mop
    messages = H.messages
    summed = resolved.aop.accumulate_ufunc is np.add
    u_mul_e = summed and is_builtin(mop) and mop.name == "MUL" and messages.ndim == 1

    if u_mul_e:
        A = H.A
        product = CSRMatrix(A.nrows, A.ncols, A.indptr, A.indices, messages, check=False)
        return run_edge_blocks(product, None, Y, None)

    def body(X, Y, src, dst, vals, edges):
        Hb = messages[edges]
        return Hb if mop.is_noop else mop.batch_fn(Hb, np.take(Y, dst, axis=0), vals, None)

    return run_edge_blocks(H.A, None, Y, body, aop=resolved.aop, block_size=block_size)
