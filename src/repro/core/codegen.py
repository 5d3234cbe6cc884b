"""Kernel code generation (the ATLAS-style generator of Section IV.B).

The paper generates architecture-specific SIMD kernels from base files
written in the ``extract`` metalanguage: for each predefined operator
pattern, a source file with the right intrinsics, register blocking and
unrolling is produced, compiled, and selected by the autotuner.

The Python analogue generates *NumPy source code* specialized for one
operator pattern: the five steps are inlined as concrete array expressions
(with the VOP+ROP dot-product fusion applied when possible) into the body
of one edge block, and the source is compiled with :func:`compile`/``exec``
and cached.  The emitted source is that block body alone: the edge-block
loop, the output window and the left-to-right segment sum come from
:func:`~repro.core.optimized.run_edge_blocks`, as for every other
edge-blocked backend.  The body gathers only the feature rows its
expressions read and frees each temporary after its last read, so it
holds no more block arrays than one hand-written expression.  Generated
kernels remove all per-step operator dispatch — the same benefit the
paper gets from pattern-specialized C kernels — and they are the one
pattern-kernel tier: every Table III row of standard operators runs on
one.  The generated source can be inspected
(:func:`generate_kernel_source`, or ``.source`` on a compiled kernel) for
debugging or curiosity, exactly like the generated ``.c`` files of the
original library.

Only *registered standard* operators can be inlined; patterns containing
user-defined operators fall back to the general optimized kernel (the
dispatcher in :mod:`repro.core.fused` handles that automatically).
"""

from __future__ import annotations

import re
import textwrap
from typing import Callable, Dict, Tuple

import numpy as np

from ..errors import CodegenError
from .mathops import sigmoid
from .optimized import run_edge_blocks
from .patterns import ResolvedPattern

__all__ = [
    "supports_pattern",
    "generate_kernel_source",
    "compile_kernel",
    "clear_kernel_cache",
    "kernel_cache_info",
]


# ---------------------------------------------------------------------- #
# Expression templates for the standard operators
# ---------------------------------------------------------------------- #
# Each template is a Python expression over the block-local variables
#   Xs   (k, d) gathered source features
#   Yd   (k, d) gathered destination features
#   vals (k,)   edge values
#   W    VOP output, S ROP output, H SOP output
_VOP_EXPR: Dict[str, str] = {
    "NOOP": "Yd",
    "MUL": "Xs * Yd",
    "ADD": "Xs + Yd",
    "SUB": "Xs - Yd",
    "SEL1ST": "Xs",
    "SEL2ND": "Yd",
    # EDGESCALE scales its first (message) operand by the edge value; in the
    # VOP slot the message operand is the source feature block.
    "EDGESCALE": "vals[:, None] * Xs",
}

_ROP_EXPR: Dict[str, str] = {
    "NOOP": "W",
    "RSUM": "np.sum(W, axis=1)",
    "RMUL": "np.prod(W, axis=1)",
    "RMAX": "np.max(W, axis=1)",
    "NORM": "np.sqrt(np.einsum('ij,ij->i', W, W))",
}

# Fused VOP+ROP expressions: when the pair matches, the intermediate W is
# never formed (the "dot product in registers" of Fig. 5).
_FUSED_VOP_ROP: Dict[Tuple[str, str], str] = {
    ("MUL", "RSUM"): "np.einsum('ij,ij->i', Xs, Yd)",
    ("SUB", "NORM"): "np.sqrt(np.einsum('ij,ij->i', Xs - Yd, Xs - Yd))",
    ("ADD", "RSUM"): "np.sum(Xs + Yd, axis=1)",
}

_SOP_EXPR: Dict[str, str] = {
    "NOOP": "S",
    # ``sigmoid`` is repro.core.mathops.sigmoid, injected into the compile
    # namespace — one clamp definition shared with every other backend.
    "SIGMOID": "sigmoid(S)",
    "TDIST": "1.0 / (1.0 + np.square(S))",
    "RELU": "np.maximum(S, 0.0)",
    "TANH": "np.tanh(S)",
    "EXP": "np.exp(np.clip(S, -60.0, 60.0))",
    "SCAL": "S",
}

# MOP templates keyed by (name, message_is_scalar).  Scalar messages need
# the broadcast axis inserted.
_MOP_EXPR: Dict[Tuple[str, bool], str] = {
    ("NOOP", True): "H[:, None]",
    ("NOOP", False): "H",
    ("MUL", True): "H[:, None] * Yd",
    ("MUL", False): "H * Yd",
    ("MULDIFF", True): "H[:, None] * W",
    ("MULDIFF", False): "H * W",
    ("RESIDUAL", True): "(H - vals)[:, None] * Yd",
    ("RESIDUAL", False): "(H - vals[:, None]) * Yd",
    ("EDGESCALE", True): "vals[:, None] * H[:, None]",
    ("EDGESCALE", False): "vals[:, None] * H",
    ("SEL2ND", True): "Yd",
    ("SEL2ND", False): "Yd",
    ("SEL1ST", True): "H[:, None]",
    ("SEL1ST", False): "H",
    ("ADD", True): "H[:, None] + Yd",
    ("ADD", False): "H + Yd",
    ("SUB", True): "H[:, None] - Yd",
    ("SUB", False): "H - Yd",
}

_AOP_SUPPORTED = {"ASUM", "AMAX", "AMIN"}


def supports_pattern(pattern: ResolvedPattern) -> bool:
    """Whether the generator can emit source for this pattern (all five
    slots are standard operators with expression templates)."""
    names = pattern.op_names()
    scalar = pattern.message_is_scalar
    return (
        names["vop"] in _VOP_EXPR
        and names["rop"] in _ROP_EXPR
        and names["sop"] in _SOP_EXPR
        and (names["mop"], scalar) in _MOP_EXPR
        and names["aop"] in _AOP_SUPPORTED
    )


# ---------------------------------------------------------------------- #
# Source generation
# ---------------------------------------------------------------------- #
_BODY_TEMPLATE = '''\
def _generated_block_kernel(X, Y, src, dst, vals, edges):
    """Auto-generated FusedMM block body for pattern {pattern_name!r}.

    Steps inlined:
      VOP = {vop}, ROP = {rop}, SOP = {sop}, MOP = {mop}, AOP = {aop}
    """
{body}
    return M
'''

# Row gathers use np.take: for narrow rows it is several times faster than
# fancy indexing, with the same result.
_GATHERS = [("Xs", "np.take(X, src, axis=0)"), ("Yd", "np.take(Y, dst, axis=0)")]


def _uses(expr: str, name: str) -> int:
    return len(re.findall(rf"\b{name}\b", expr))


def _inline(steps, name):
    """``steps`` without the assignment to ``name``, its value substituted
    into every read."""
    value = dict(steps)[name]
    return [
        (n, re.sub(rf"\b{name}\b", lambda _: value, e)) for n, e in steps if n != name
    ]


def generate_kernel_source(pattern: ResolvedPattern) -> str:
    """Emit the Python source of the block body specialized for ``pattern``.

    The body maps one edge block to its messages ``M``;
    :func:`~repro.core.optimized.run_edge_blocks` supplies the block loop
    and the aggregation.  Raises :class:`~repro.errors.CodegenError` when
    the pattern contains an operator without an expression template.
    """
    if not supports_pattern(pattern):
        raise CodegenError(
            f"pattern {pattern.name!r} uses operators without codegen templates: "
            f"{pattern.op_names()}"
        )
    names = pattern.op_names()
    scalar = pattern.message_is_scalar

    fused = _FUSED_VOP_ROP.get((names["vop"], names["rop"]))
    mop_expr = _MOP_EXPR[(names["mop"], scalar)]
    steps = list(_GATHERS)
    if fused is not None and "W" not in mop_expr:
        steps.append(("S", fused))
    else:
        steps += [("W", _VOP_EXPR[names["vop"]]), ("S", _ROP_EXPR[names["rop"]])]
    steps += [("H", _SOP_EXPR[names["sop"]]), ("M", mop_expr)]
    # A step that only renames a value (``S = W`` for a NOOP ROP) is not
    # emitted.
    for name, _ in steps[:-1]:
        if dict(steps)[name].isidentifier():
            steps = _inline(steps, name)
    # Keep only what the messages depend on (the SpMM body never reads X).
    live = steps[-1:]
    for name, expr in reversed(steps[:-1]):
        if any(_uses(e, name) for _, e in live):
            live.insert(0, (name, expr))
    # A gather read once goes straight into its reader, where NumPy can
    # reuse the gathered buffer for the result (temporary elision), as it
    # does in a hand-written expression.
    for name, _ in _GATHERS:
        if name in dict(live) and sum(_uses(e, name) for _, e in live) == 1:
            live = _inline(live, name)
    # Free every other temporary after its last read, so a block holds no
    # more arrays than a hand-written expression would.
    lines = []
    for i, (name, expr) in enumerate(live):
        lines.append(f"{name} = {expr}")
        dead = [
            n
            for n, _ in live[:i]
            if _uses(expr, n) and not any(_uses(e, n) for _, e in live[i + 1 :])
        ]
        if dead and i < len(live) - 1:
            lines.append(f"del {', '.join(dead)}")
    body = textwrap.indent("\n".join(lines), " " * 4)

    return _BODY_TEMPLATE.format(
        pattern_name=pattern.name,
        body=body,
        **names,
    )


# ---------------------------------------------------------------------- #
# Compilation and caching
# ---------------------------------------------------------------------- #
_KERNEL_CACHE: Dict[Tuple[str, ...], Callable] = {}


def _cache_key(pattern: ResolvedPattern) -> Tuple[str, ...]:
    names = pattern.op_names()
    return (names["vop"], names["rop"], names["sop"], names["mop"], names["aop"])


def clear_kernel_cache() -> None:
    """Drop all compiled generated kernels (mainly for tests)."""
    _KERNEL_CACHE.clear()


def kernel_cache_info() -> Dict[str, int]:
    """Number of compiled kernels currently cached."""
    return {"cached_kernels": len(_KERNEL_CACHE)}


def compile_kernel(pattern: ResolvedPattern) -> Callable:
    """Compile (or fetch from cache) the generated kernel for ``pattern``.

    Returns ``kernel(A, X, Y, **blocking) -> Z``: the generated block body
    run by :func:`~repro.core.optimized.run_edge_blocks`, whose keywords
    (``block_size``, ``num_threads``, ``parts``, ``out``, …) it takes.
    """
    key = _cache_key(pattern)
    if key in _KERNEL_CACHE:
        return _KERNEL_CACHE[key]

    source = generate_kernel_source(pattern)
    namespace: Dict[str, object] = {"np": np, "sigmoid": sigmoid}
    try:
        code = compile(source, filename=f"<generated:{pattern.name}>", mode="exec")
        exec(code, namespace)  # noqa: S102 - deliberate, this is the code generator
    except SyntaxError as exc:  # pragma: no cover - template bug guard
        raise CodegenError(f"generated source failed to compile: {exc}\n{source}") from exc
    body = namespace["_generated_block_kernel"]

    def generated_fusedmm(A, X, Y=None, **blocking) -> np.ndarray:
        return run_edge_blocks(A, X, Y, body, aop=pattern.aop, **blocking)

    generated_fusedmm.__name__ = f"fusedmm_generated_{pattern.name}"
    generated_fusedmm.source = source  # type: ignore[attr-defined]
    _KERNEL_CACHE[key] = generated_fusedmm
    return generated_fusedmm
