"""Reference implementation of FusedMM — Algorithm 1 of the paper.

This is the faithful per-row, per-nonzero translation of the pseudo-code:

.. code-block:: text

    procedure UPDATE_U(a_u, x_u, Y):
        z_u ← identity of AOP
        for each v with a_uv ≠ 0:
            y_v ← Y[v, :]
            w   ← VOP(x_u, y_v, a_uv)
            s   ← ROP(w)                (skipped when ROP is NOOP)
            h   ← SOP(s or w)
            m   ← MOP(h, y_v, a_uv, w)
            z_u ← AOP(z_u, m)
        return z_u

It accepts arbitrary Python callables (through the operator registry) and
is used for three things:

1. as the always-correct oracle the generated/jit kernels
   are property-tested against,
2. as the fallback backend for user-defined operators that have no batched
   implementation,
3. as the "FusedMM (unoptimized)" row of Table VI (the paper's general
   implementation before SIMD vectorization).

It never materialises the intermediate message matrix H — that is the
entire point of the fusion — but it also makes no attempt at vectorization
beyond what the individual operators do internally.
"""

from __future__ import annotations

import numpy as np

from .patterns import OpPattern, ResolvedPattern, get_pattern
from .validation import resolve_out_window, validate_operands

__all__ = ["fusedmm_generic", "update_u"]


def update_u(
    pattern: ResolvedPattern,
    x_u: np.ndarray,
    neighbour_ids: np.ndarray,
    edge_vals: np.ndarray,
    Y: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Message generation + aggregation for one vertex (UPDATE_U in Alg. 1).

    Parameters
    ----------
    pattern:
        Resolved operator pattern.
    x_u:
        ``(d,)`` feature vector of the target vertex.
    neighbour_ids, edge_vals:
        Column indices and values of the vertex's adjacency row.
    Y:
        Full ``(n, d)`` destination feature matrix.
    out:
        ``(d,)`` output row, already initialised to the AOP identity; updated
        in place and returned.
    """
    vop, rop, sop, mop, aop = pattern.vop, pattern.rop, pattern.sop, pattern.mop, pattern.aop
    for v, a_uv in zip(neighbour_ids, edge_vals):
        y_v = Y[v]
        w = y_v if vop.is_noop else vop.edge_fn(x_u, y_v, a_uv)
        if rop.is_noop:
            s = w
        else:
            s = rop.edge_fn(w)
        h = s if sop.is_noop else sop.edge_fn(s)
        m = h if mop.is_noop else mop.edge_fn(h, y_v, a_uv, w)
        out[...] = aop.edge_fn(out, m)
    return out


def fusedmm_generic(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    out: np.ndarray | None = None,
    row_offset: int = 0,
    **pattern_overrides,
) -> np.ndarray:
    """Compute ``Z = FusedMM(A, X, Y)`` with the reference algorithm.

    Parameters
    ----------
    A, X, Y:
        The operands of Fig. 2 (``Y`` defaults to ``X`` for square ``A``).
    pattern:
        A pattern name, an :class:`~repro.core.patterns.OpPattern`, or
        ``None`` plus explicit ``vop=...``/``rop=...`` overrides.
    out, row_offset:
        Optional preallocated output slab: row ``u`` of the result is
        written to ``out[u - row_offset]`` and only the rows the slab
        covers are computed.  Accumulation still happens in float64 (cast
        into ``out`` once per row), so results match the plain path
        bitwise.
    """
    A, X, Y = validate_operands(A, X, Y)
    resolved = get_pattern(pattern, **pattern_overrides).resolved()
    m, d = X.shape
    w0, w1 = resolve_out_window(out, row_offset, m, d)
    identity = resolved.aop.accumulator_identity
    Z = np.full((w1 - w0, d), identity, dtype=np.float64)
    indptr, indices, data = A.indptr, A.indices, A.data
    for u in range(w0, w1):
        lo, hi = indptr[u], indptr[u + 1]
        if lo == hi:
            # No neighbours: the output row stays at the AOP identity for
            # max/min accumulators but is defined as zero for sums; for
            # consistency with the unfused baselines we zero empty rows.
            Z[u - w0] = 0.0
            continue
        update_u(resolved, X[u], indices[lo:hi], data[lo:hi], Y, Z[u - w0])
    # Rows whose accumulator never received a message keep ±inf for AMAX /
    # AMIN; normalise those to zero as well (cannot happen after the loop
    # above, but user AOPs may produce non-finite values legitimately).
    if out is None:
        return Z.astype(np.float32 if X.dtype == np.float32 else X.dtype)
    out[...] = Z
    return out
