"""The unfused SDDMM → SpMM pipeline (the paper's "DGL" baseline).

DGL implements message passing as two separate kernels: a general SDDMM
produces the edge-message matrix H, which is materialised in memory, and a
general SpMM reads H back to aggregate the messages on the target vertices
(Section II of the paper, Fig. 3).  This module chains
:mod:`repro.baselines.sddmm` and :mod:`repro.baselines.spmm` the same way so
the fused kernel can be compared against an *equivalent-result* unfused
pipeline on the same substrate:

* same operator pattern objects, hence bit-comparable outputs,
* H is genuinely allocated (``nnz`` or ``nnz × d`` values) and traversed a
  second time during aggregation — the extra memory traffic the paper's
  speedups come from,
* :func:`unfused_memory_bytes` reports the size of that intermediate for
  the memory-consumption comparison of Fig. 10(b).

The pipeline automatically decides where to split the pattern: patterns
whose MOP needs the VOP output (vector messages such as the FR layout) fold
the MOP into the SDDMM phase, because the aggregation kernel alone cannot
recompute the difference vectors — this matches how such models must be
expressed in DGL (``copy_e``-style aggregation of precomputed edge
vectors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.codegen import mop_reads_vop_output
from ..core.patterns import OpPattern, ResolvedPattern, get_pattern
from ..core.validation import validate_operands
from .sddmm import SDDMMResult, sddmm
from .spmm import gspmm

__all__ = ["UnfusedResult", "unfused_fusedmm", "unfused_memory_bytes", "needs_vector_messages"]


def needs_vector_messages(resolved: ResolvedPattern) -> bool:
    """True when the pattern's per-edge message must be materialised as a
    full d-dimensional vector by an unfused pipeline.

    That happens when the MOP may read the VOP output ``W`` (``MULDIFF``
    in the FR layout, or any user MOP that can) — the aggregation kernel
    cannot rebuild it from the scalar H — or, more generally, when the
    message entering aggregation is not a scalar.  SpMM-like patterns (GCN row of Table III) are the
    exception: DGL implements them as a single SpMM whose "messages" are
    just the scalar edge weights, so no d-dimensional intermediate is ever
    stored and the fair unfused baseline must not store one either.
    """
    if resolved.is_spmm_like:
        return False
    return mop_reads_vop_output(resolved) or not resolved.message_is_scalar


@dataclass
class UnfusedResult:
    """Output of the unfused pipeline plus accounting of the intermediate."""

    Z: np.ndarray
    intermediate_bytes: int
    message_dim: int


def unfused_fusedmm(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    block_size: int = 65536,
    return_details: bool = False,
    **pattern_overrides,
):
    """Compute the same result as :func:`repro.fusedmm` with separate SDDMM
    and SpMM kernels, materialising the intermediate H.

    Returns the output matrix ``Z``; pass ``return_details=True`` to get an
    :class:`UnfusedResult` carrying the intermediate-size accounting used
    by the memory experiment (Fig. 10b).
    """
    A, X, Y = validate_operands(A, X, Y)
    op_pattern = get_pattern(pattern, **pattern_overrides)
    resolved = op_pattern.resolved()

    if resolved.is_spmm_like:
        # DGL maps this directly onto its SpMM kernel: the "messages" are
        # the scalar edge weights already stored in A, so the SDDMM phase
        # degenerates to reading them out.
        H = SDDMMResult(A=A, messages=A.data.astype(X.dtype).copy())
        agg_pattern = op_pattern.with_ops(vop="NOOP", rop="NOOP", sop="NOOP", mop="MUL")
        Z = gspmm(H, Y, pattern=agg_pattern, block_size=block_size)
    elif needs_vector_messages(resolved):
        # SDDMM materialises the complete d-dimensional message; the SpMM
        # phase only aggregates (copy_e + reduce in DGL terms).
        H: SDDMMResult = sddmm(
            A, X, Y, pattern=op_pattern, block_size=block_size, include_mop=True
        )
        agg_pattern = op_pattern.with_ops(vop="NOOP", rop="NOOP", sop="NOOP", mop="NOOP")
        Z = gspmm(H, Y, pattern=agg_pattern, block_size=block_size)
    else:
        # Scalar messages: SDDMM produces the nnz-sized H, SpMM applies the
        # MOP (u_mul_e style) and the reduction.
        H = sddmm(A, X, Y, pattern=op_pattern, block_size=block_size, include_mop=False)
        Z = gspmm(H, Y, pattern=op_pattern, block_size=block_size)

    Z = Z.astype(X.dtype)
    if not return_details:
        return Z
    return UnfusedResult(
        Z=Z, intermediate_bytes=H.memory_bytes(), message_dim=H.message_dim
    )


def unfused_memory_bytes(
    A,
    d: int,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    value_bytes: int = 4,
    index_bytes: int = 8,
    **pattern_overrides,
) -> int:
    """Analytical memory requirement of the unfused pipeline, following the
    paper's accounting of Section IV.C: operand storage (8md + 4nd + 12nnz
    bytes) **plus** the intermediate H, which costs ``12·nnz`` bytes for
    scalar messages and ``12·nnz·d`` bytes for vector messages (values and
    indices of a sparse tensor with d values per nonzero)."""
    from ..sparse import as_csr

    A = as_csr(A)
    resolved = get_pattern(pattern, **pattern_overrides).resolved()
    m, n, nnz = A.nrows, A.ncols, A.nnz
    operands = 2 * value_bytes * m * d + value_bytes * n * d + (index_bytes + value_bytes) * nnz
    per_entry = index_bytes + value_bytes * (d if needs_vector_messages(resolved) else 1)
    return operands + per_entry * nnz
