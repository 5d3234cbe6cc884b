"""JIT-compiled FusedMM kernels (the Numba backend tier).

The paper's generated SIMD kernels compile the five-operator pipeline into
one register-blocked, allocation-free pass per row (Section IV.B).  This
module is the closest Python analogue: Numba ``@njit(parallel=True,
cache=True)`` kernels that fuse VOP→ROP→SOP→MOP→AOP into a single loop
nest with no per-edge temporaries — only a ``(d,)`` scratch vector and a
``(d,)`` float64 accumulator per row, cast into the output row once.

Three hand-fused fast paths cover the Table III patterns the paper
specializes (``sigmoid_embedding``, ``fr_layout``, ``spmm``/``gcn``); every
other pattern built from standard registry operators runs through one
generic compiled kernel driven by a *dispatch table* of integer opcodes
(:data:`_VOP_CODES` …) — the operator branches compile to jumps, not
Python dispatch.

Determinism
-----------
Each output row is produced by one sequential pass over its own edges, so
results are bitwise identical for any ``prange`` thread count, any
partition list and any shard count — the same invariant the NumPy
backends guarantee via grid-aligned edge blocks falls out of the row-wise
formulation for free.

Optional dependency
-------------------
Numba is an optional extra (``pip install repro-fusedmm[jit]``).  Without
it this module still imports cleanly: ``njit`` degrades to a no-op
decorator and the same kernel bodies execute interpreted — correct but
slow, so the ``auto`` backend never selects the tier unless
:func:`jit_available` is true.  Requesting ``backend="jit"`` explicitly
always works (interpreted when Numba is absent), which keeps the kernels
property-testable everywhere.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import BackendError
from .mathops import SIGMOID_CLAMP, sigmoid_scalar
from .optimized import DEFAULT_BLOCK_SIZE
from .operators import Operator, is_builtin, scal_expr
from .patterns import OpPattern, ResolvedPattern, get_pattern
from .validation import resolve_out_window, validate_operands

__all__ = [
    "NUMBA_AVAILABLE",
    "jit_available",
    "jit_supports_pattern",
    "fusedmm_jit",
    "get_jit_kernel",
    "warmup",
]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - default in minimal installs
    NUMBA_AVAILABLE = False
    prange = range

    def njit(*args, **kwargs):  # noqa: D401 - decorator shim
        """No-op ``numba.njit`` stand-in: kernels run interpreted."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


def jit_available() -> bool:
    """Whether the real Numba compiler is importable.

    Dispatchers consult this dynamically (tests monkeypatch
    :data:`NUMBA_AVAILABLE` to exercise the fallback path without
    uninstalling anything).
    """
    return NUMBA_AVAILABLE


# ---------------------------------------------------------------------- #
# Opcode dispatch tables for the generic pipeline kernel
# ---------------------------------------------------------------------- #
# A NOOP in the VOP slot passes the neighbour feature through (the reference
# kernel's ``w = y_v``), i.e. it is SEL2ND.
_VOP_CODES = {"NOOP": 0, "SEL2ND": 0, "ADD": 1, "SUB": 2, "MUL": 3, "SEL1ST": 4}
_ROP_CODES = {"NOOP": 0, "RSUM": 1, "RMUL": 2, "RMAX": 3, "NORM": 4}
_SOP_CODES = {
    "NOOP": 0,
    "SIGMOID": 1,
    "RELU": 2,
    "TANH": 3,
    "EXP": 4,
    "TDIST": 5,
    # SCAL (any alpha) is code 6; the alpha rides along as a kernel arg.
}
_SCAL_CODE = 6
_MOP_CODES = {
    "NOOP": 0,
    "MUL": 1,
    "EDGESCALE": 2,
    "MULDIFF": 3,
    "SEL1ST": 4,
    "SEL2ND": 5,
    "ADD": 6,
    "SUB": 7,
    "RESIDUAL": 8,
}
_AOP_CODES = {"ASUM": 0, "AMAX": 1, "AMIN": 2}


def _sop_code(op: Operator) -> Optional[int]:
    if is_builtin(op) and op.name in _SOP_CODES:
        return _SOP_CODES[op.name]
    # Any operator whose expression is SCAL's for its alpha computes alpha·s.
    if "alpha" in op.params and op.expr == scal_expr(op.params["alpha"]):
        return _SCAL_CODE
    return None


def _codes(resolved: ResolvedPattern) -> Optional[tuple]:
    """The opcodes of ``resolved`` (plus the SCAL alpha), or ``None`` when a
    slot has no compiled form.  Only built-in operators (and SCALs) map: a
    user operator is never taken for the built-in of the same name."""
    table = (
        (resolved.vop, _VOP_CODES),
        (resolved.rop, _ROP_CODES),
        (resolved.mop, _MOP_CODES),
        (resolved.aop, _AOP_CODES),
    )
    sop = _sop_code(resolved.sop)
    if sop is None or not all(is_builtin(op) and op.name in t for op, t in table):
        return None
    vop, rop, mop, aop = (t[op.name] for op, t in table)
    return vop, rop, sop, mop, aop, float(resolved.sop.params.get("alpha", 1.0))


def jit_supports_pattern(pattern: ResolvedPattern) -> bool:
    """Whether every slot of ``pattern`` maps onto the compiled dispatch
    table (standard registry operators only — user callables cannot cross
    into nopython code)."""
    return _codes(pattern) is not None


# ---------------------------------------------------------------------- #
# Compiled kernels
# ---------------------------------------------------------------------- #
# The scalar clipped sigmoid is the *shared* definition from
# repro.core.mathops, compiled as-is — the jit and NumPy backends cannot
# drift on the clamp bounds because they execute the same source.
_jit_sigmoid = njit(cache=True)(sigmoid_scalar)


@njit(parallel=True, cache=True)
def _sigmoid_embedding_rows(
    indptr, indices, X, Y, out, row_start, row_stop, row_offset
):
    """Fused ``z_u = Σ_v σ(x_u·y_v) y_v`` — one pass, zero edge temporaries."""
    d = Y.shape[1]
    for u in prange(row_start, row_stop):
        lo = indptr[u]
        hi = indptr[u + 1]
        r = u - row_offset
        if lo == hi:
            for j in range(d):
                out[r, j] = 0.0
            continue
        acc = np.zeros(d, dtype=np.float64)
        for e in range(lo, hi):
            v = indices[e]
            s = 0.0
            for j in range(d):
                s += X[u, j] * Y[v, j]
            h = _jit_sigmoid(s)
            for j in range(d):
                acc[j] += h * Y[v, j]
        for j in range(d):
            out[r, j] = acc[j]


@njit(parallel=True, cache=True)
def _fr_layout_rows(indptr, indices, X, Y, out, row_start, row_stop, row_offset):
    """Fused FR attractive forces ``z_u = Σ_v (x_u−y_v)/(1+‖x_u−y_v‖²)``."""
    d = Y.shape[1]
    for u in prange(row_start, row_stop):
        lo = indptr[u]
        hi = indptr[u + 1]
        r = u - row_offset
        if lo == hi:
            for j in range(d):
                out[r, j] = 0.0
            continue
        acc = np.zeros(d, dtype=np.float64)
        diff = np.empty(d, dtype=np.float64)
        for e in range(lo, hi):
            v = indices[e]
            s = 0.0
            for j in range(d):
                w = X[u, j] - Y[v, j]
                diff[j] = w
                s += w * w
            dist = math.sqrt(s)
            force = 1.0 / (1.0 + dist * dist)
            for j in range(d):
                acc[j] += force * diff[j]
        for j in range(d):
            out[r, j] = acc[j]


@njit(parallel=True, cache=True)
def _spmm_rows(indptr, indices, data, Y, out, row_start, row_stop, row_offset):
    """Fused ``z_u = Σ_v a_uv y_v`` (the GCN/SpMM row of Table III)."""
    d = Y.shape[1]
    for u in prange(row_start, row_stop):
        lo = indptr[u]
        hi = indptr[u + 1]
        r = u - row_offset
        if lo == hi:
            for j in range(d):
                out[r, j] = 0.0
            continue
        acc = np.zeros(d, dtype=np.float64)
        for e in range(lo, hi):
            v = indices[e]
            a = data[e]
            for j in range(d):
                acc[j] += a * Y[v, j]
        for j in range(d):
            out[r, j] = acc[j]


@njit(parallel=True, cache=True)
def _pipeline_rows(
    indptr,
    indices,
    data,
    X,
    Y,
    out,
    row_start,
    row_stop,
    row_offset,
    vop,
    rop,
    sop,
    mop,
    aop,
    alpha,
):
    """Generic five-operator pipeline driven by the compiled dispatch table.

    The opcode branches are resolved per edge (per element on the vector
    path), but inside compiled code they are integer compares — the same
    trade the paper's generated kernels make when they inline the operator
    bodies.  Semantics mirror :func:`repro.core.generic.update_u` exactly,
    including the scalar-message broadcast of patterns whose MOP keeps the
    reduced message (``sddmm_dot``).
    """
    d = Y.shape[1]
    for u in prange(row_start, row_stop):
        lo = indptr[u]
        hi = indptr[u + 1]
        r = u - row_offset
        if lo == hi:
            for j in range(d):
                out[r, j] = 0.0
            continue
        acc = np.empty(d, dtype=np.float64)
        if aop == 0:
            for j in range(d):
                acc[j] = 0.0
        elif aop == 1:
            for j in range(d):
                acc[j] = -np.inf
        else:
            for j in range(d):
                acc[j] = np.inf
        w = np.empty(d, dtype=np.float64)
        for e in range(lo, hi):
            v = indices[e]
            a = data[e]
            # VOP — build the per-edge vector w.
            if vop == 0:
                for j in range(d):
                    w[j] = Y[v, j]
            elif vop == 1:
                for j in range(d):
                    w[j] = X[u, j] + Y[v, j]
            elif vop == 2:
                for j in range(d):
                    w[j] = X[u, j] - Y[v, j]
            elif vop == 3:
                for j in range(d):
                    w[j] = X[u, j] * Y[v, j]
            else:
                for j in range(d):
                    w[j] = X[u, j]
            if rop != 0:
                # Scalar-message path: ROP reduces w, SOP scales the scalar.
                s = 0.0
                if rop == 1:
                    for j in range(d):
                        s += w[j]
                elif rop == 2:
                    s = 1.0
                    for j in range(d):
                        s *= w[j]
                elif rop == 3:
                    s = w[0]
                    for j in range(1, d):
                        if w[j] > s:
                            s = w[j]
                else:
                    for j in range(d):
                        s += w[j] * w[j]
                    s = math.sqrt(s)
                if sop == 0:
                    h = s
                elif sop == 1:
                    h = _jit_sigmoid(s)
                elif sop == 2:
                    h = s if s > 0.0 else 0.0
                elif sop == 3:
                    h = math.tanh(s)
                elif sop == 4:
                    c = s
                    if c > SIGMOID_CLAMP:
                        c = SIGMOID_CLAMP
                    elif c < -SIGMOID_CLAMP:
                        c = -SIGMOID_CLAMP
                    h = math.exp(c)
                elif sop == 5:
                    h = 1.0 / (1.0 + s * s)
                else:
                    h = alpha * s
                for j in range(d):
                    if mop == 0 or mop == 4:
                        m = h
                    elif mop == 1:
                        m = h * Y[v, j]
                    elif mop == 2:
                        m = a * h
                    elif mop == 3:
                        m = h * w[j]
                    elif mop == 5:
                        m = Y[v, j]
                    elif mop == 6:
                        m = h + Y[v, j]
                    elif mop == 7:
                        m = h - Y[v, j]
                    else:
                        m = (h - a) * Y[v, j]
                    if aop == 0:
                        acc[j] += m
                    elif aop == 1:
                        if m > acc[j]:
                            acc[j] = m
                    else:
                        if m < acc[j]:
                            acc[j] = m
            else:
                # Vector-message path: SOP/MOP/AOP fuse per element.
                for j in range(d):
                    wj = w[j]
                    if sop == 0:
                        h = wj
                    elif sop == 1:
                        h = _jit_sigmoid(wj)
                    elif sop == 2:
                        h = wj if wj > 0.0 else 0.0
                    elif sop == 3:
                        h = math.tanh(wj)
                    elif sop == 4:
                        c = wj
                        if c > SIGMOID_CLAMP:
                            c = SIGMOID_CLAMP
                        elif c < -SIGMOID_CLAMP:
                            c = -SIGMOID_CLAMP
                        h = math.exp(c)
                    elif sop == 5:
                        h = 1.0 / (1.0 + wj * wj)
                    else:
                        h = alpha * wj
                    if mop == 0 or mop == 4:
                        m = h
                    elif mop == 1:
                        m = h * Y[v, j]
                    elif mop == 2:
                        m = a * h
                    elif mop == 3:
                        m = h * wj
                    elif mop == 5:
                        m = Y[v, j]
                    elif mop == 6:
                        m = h + Y[v, j]
                    elif mop == 7:
                        m = h - Y[v, j]
                    else:
                        m = (h - a) * Y[v, j]
                    if aop == 0:
                        acc[j] += m
                    elif aop == 1:
                        if m > acc[j]:
                            acc[j] = m
                    else:
                        if m < acc[j]:
                            acc[j] = m
        for j in range(d):
            out[r, j] = acc[j]


# ---------------------------------------------------------------------- #
# Dispatch
# ---------------------------------------------------------------------- #
def _pattern_codes(resolved: ResolvedPattern):
    codes = _codes(resolved)
    if codes is None:
        raise BackendError(
            f"the jit backend has no compiled operators for pattern "
            f"{resolved.name!r} (ops {resolved.op_names()}); "
            "use backend='generated' or 'auto'"
        )
    return codes


def fusedmm_jit(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    block_size: int = DEFAULT_BLOCK_SIZE,
    num_threads: int = 1,
    parts: Optional[Sequence] = None,
    pool=None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    **pattern_overrides,
) -> np.ndarray:
    """Compute ``Z = FusedMM(A, X, Y)`` with the JIT backend.

    Accepts the same surface as the other backends.  ``block_size``,
    ``num_threads`` and ``pool`` are accepted for signature compatibility
    but ignored: the compiled kernels are row-fused (no edge blocking) and
    parallelise internally with ``prange``, and because every output row is
    one sequential pass over its own edges the result is bitwise identical
    at any thread, partition or shard count.  ``parts`` selects *which*
    rows are computed; ``out=``/``row_offset=`` write them straight into a
    caller-provided slab (``out[u - row_offset] = z_u``) with no
    full-size allocation — the shard workers' allocation-free path.
    """
    del block_size, num_threads, pool  # signature compatibility only
    resolved = get_pattern(pattern, **pattern_overrides).resolved()
    A, X, Y = validate_operands(A, X, Y)
    m, d = X.shape
    w0, w1 = resolve_out_window(out, row_offset, m, d)
    Z = np.zeros((m, d), dtype=X.dtype) if out is None else out

    if parts is None:
        ranges = [(w0, w1)]
    else:
        ranges = [(p.start, p.stop) for p in parts if p.stop > p.start]
        for start, stop in ranges:
            if start < w0 or stop > w1:
                raise BackendError(
                    f"partition rows [{start}, {stop}) fall outside the "
                    f"output window [{w0}, {w1})"
                )

    indptr, indices, data = A.indptr, A.indices, A.data
    if resolved.is_spmm_like:
        for start, stop in ranges:
            _spmm_rows(indptr, indices, data, Y, Z, start, stop, w0)
    elif resolved.is_sigmoid_embedding:
        for start, stop in ranges:
            _sigmoid_embedding_rows(indptr, indices, X, Y, Z, start, stop, w0)
    elif resolved.is_fr_layout:
        for start, stop in ranges:
            _fr_layout_rows(indptr, indices, X, Y, Z, start, stop, w0)
    else:
        codes = _pattern_codes(resolved)
        for start, stop in ranges:
            _pipeline_rows(indptr, indices, data, X, Y, Z, start, stop, w0, *codes)
    return Z


def get_jit_kernel(pattern: ResolvedPattern | OpPattern | str) -> Callable:
    """A plan-cacheable kernel callable bound to one resolved pattern.

    Matches the kernel calling convention that
    :func:`repro.core.fused.resolve_backend` adapts; raises
    :class:`~repro.errors.BackendError` for unsupported patterns.
    """
    if isinstance(pattern, ResolvedPattern):
        op_pattern = OpPattern(
            name=pattern.name,
            vop=pattern.vop,
            rop=pattern.rop,
            sop=pattern.sop,
            mop=pattern.mop,
            aop=pattern.aop,
        )
        resolved = pattern
    else:
        op_pattern = get_pattern(pattern)
        resolved = op_pattern.resolved()
    _pattern_codes(resolved)  # raises for a pattern the tier cannot run

    def jit_kernel(A, X, Y=None, **kwargs):
        return fusedmm_jit(A, X, Y, pattern=op_pattern, **kwargs)

    jit_kernel.__name__ = f"fusedmm_jit_{resolved.name}"
    return jit_kernel


# ---------------------------------------------------------------------- #
# Warm-up
# ---------------------------------------------------------------------- #
def warmup(dtypes=(np.float32,)) -> int:
    """Compile the common kernel signatures on a two-vertex toy problem.

    Shard workers call this once at spawn so the first real request never
    pays compilation latency; with ``cache=True`` the machine code persists
    on disk, so across worker generations the cost is paid once per
    machine.  Returns the number of kernel launches performed (0 when
    Numba is absent — interpreted kernels have nothing to warm).
    """
    if not jit_available():
        return 0
    indptr = np.array([0, 2, 4], dtype=np.int64)
    indices = np.array([0, 1, 0, 1], dtype=np.int64)
    launches = 0
    for dtype in dtypes:
        data = np.ones(4, dtype=dtype)
        X = np.ones((2, 4), dtype=dtype)
        out = np.zeros((2, 4), dtype=dtype)
        _sigmoid_embedding_rows(indptr, indices, X, X, out, 0, 2, 0)
        _fr_layout_rows(indptr, indices, X, X, out, 0, 2, 0)
        _spmm_rows(indptr, indices, data, X, out, 0, 2, 0)
        _pipeline_rows(indptr, indices, data, X, X, out, 0, 2, 0, 3, 1, 1, 1, 0, 1.0)
        launches += 4
    return launches
