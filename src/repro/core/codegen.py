"""Kernel code generation (the ATLAS-style generator of Section IV.B).

The paper generates architecture-specific SIMD kernels from base files
written in the ``extract`` metalanguage: for each predefined operator
pattern, a source file with the right intrinsics, register blocking and
unrolling is produced, compiled, and selected by the autotuner.

The Python analogue generates *NumPy source code* specialized for one
operator pattern: the five steps are inlined as concrete array expressions
(with the VOP+ROP dot-product fusion applied when possible) into the body
of one edge block, and the source is compiled with :func:`compile`/``exec``
and cached.  Each step's expression is the operator's own ``expr``
(:mod:`repro.core.operators`), so an operator is defined once for every
kernel; an operator without one (a user callable such as the MLP of the
GNN row) becomes a call to its ``batch_fn``.  Every pattern therefore has
a generated kernel.  The emitted source is that block body alone: the
edge-block loop, the output window and the left-to-right segment sum come
from :func:`~repro.core.optimized.run_edge_blocks`.  The body gathers only
the feature rows its expressions read and frees each temporary after its
last read, so it holds no more block arrays than one hand-written
expression.  A message that scales a ``(k, d)`` buffer by a lifted
per-edge scalar (``H[:, None] * Yd``, ``vals[:, None] * Yd``) is not
formed (:func:`_scaled_message`): a summed body returns the scale and the
buffer, and the driver's compiled sum applies the scale as it adds, so
spmm's body gathers no rows at all; a max/min body writes the product over
its buffer.  An SpMM-shaped pattern (``gcn``, ``spmm``) runs as the
driver's product ``Z = A · Y``, one sum per row partition with no edge
blocks; its source is still emitted for inspection.  Generated kernels
remove all per-step operator dispatch — the same benefit the paper gets
from pattern-specialized C kernels.  The
generated source can be inspected (:func:`generate_kernel_source`, or
``.source`` on a compiled kernel) for debugging or curiosity, exactly like
the generated ``.c`` files of the original library.
"""

from __future__ import annotations

import ast
import re
import textwrap
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import CodegenError
from .operators import EXPR_NAMESPACE, STEP_INPUT, OpKind, is_builtin
from .optimized import run_edge_blocks
from .patterns import ResolvedPattern, pattern_key

__all__ = [
    "generate_kernel_source",
    "compile_kernel",
    "clear_kernel_cache",
    "kernel_cache_info",
    "mop_reads_vop_output",
]


# ---------------------------------------------------------------------- #
# Step expressions
# ---------------------------------------------------------------------- #
# Fused VOP+ROP expressions: when the pair matches in a standard pattern,
# the intermediate W is never formed (the "dot product in registers" of
# Fig. 5).
_FUSED_VOP_ROP: Dict[Tuple[str, str], str] = {
    ("MUL", "RSUM"): "np.einsum('ij,ij->i', Xs, Yd)",
    ("SUB", "NORM"): "np.sqrt(np.einsum('ij,ij->i', Xs - Yd, Xs - Yd))",
    ("ADD", "RSUM"): "np.sum(Xs + Yd, axis=1)",
}

_STEPS = (OpKind.VOP, OpKind.ROP, OpKind.SOP, OpKind.MOP)
#: The arguments of a ``batch_fn`` call, per step.
_CALL_ARGS = {
    OpKind.VOP: "Xs, Yd, vals",
    OpKind.ROP: "W",
    OpKind.SOP: "S",
    OpKind.MOP: "H, Yd, vals, W",
}


def _sub(expr: str, name: str, value: str) -> str:
    return re.sub(rf"\b{name}\b", lambda _: value, expr)


def _step_expr(op, kind: str, scalar_message: bool) -> str:
    """The expression computing step ``kind`` of a block with ``op``."""
    if op.is_noop:
        expr = "Yd" if kind == OpKind.VOP else STEP_INPUT[kind]
    elif op.expr is not None:
        expr = _sub(op.expr, op.input_name, STEP_INPUT[kind])
    elif op.batch_fn is not None:
        # The callable is bound under the step's name in the namespace.
        return f"{kind}({_CALL_ARGS[kind]})"
    else:
        raise CodegenError(f"operator {op.name!r} has neither an expression nor a batch_fn")
    if kind in (OpKind.VOP, OpKind.MOP):
        # Per-edge scalars meet (k, d) features here: lift them to columns.
        expr = _sub(expr, "vals", "vals[:, None]")
        if kind == OpKind.MOP and scalar_message:
            expr = _sub(expr, "H", "H[:, None]")
    return expr


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
'''

# Row gathers use np.take: for narrow rows it is several times faster than
# fancy indexing, with the same result.  Keyed by the gather, each value is
# its array and index: the ``buf, cols`` of a scaled message.
_GATHER_ARGS = {f"np.take({args}, axis=0)": args for args in ("X, src", "Y, dst")}
_GATHERS = list(zip(("Xs", "Yd"), _GATHER_ARGS))


def _uses(expr: str, name: str) -> int:
    return len(re.findall(rf"\b{name}\b", expr))


def mop_reads_vop_output(pattern: ResolvedPattern) -> bool:
    """Whether the pattern's MOP step reads the VOP output ``W``:
    ``MULDIFF``, any expression naming ``W`` besides its input, and any
    MOP given only as a callable, which is handed ``W``."""
    mop_expr = _step_expr(pattern.mop, OpKind.MOP, pattern.message_is_scalar)
    return _uses(mop_expr, "W") > 0


def _scaled_message(pattern: ResolvedPattern, expr: str, named) -> Optional[Tuple[str, str]]:
    """``(a, buf)`` when the message ``expr`` is the product ``a * buf`` of
    a lifted per-edge scalar ``a`` (``H[:, None]`` and/or
    ``vals[:, None]``) and a ``(k, d)`` block buffer ``buf``: a gather, or
    a built-in VOP's output ``W`` the body assigned; else ``None``.

    A sum returns ``a`` and ``buf`` (a gather as its array and index,
    :data:`_GATHER_ARGS`) for the driver to scale as it sums.  A max/min
    body writes the product over a named ``buf``: the message is the last
    step, so nothing reads ``buf`` after it, and
    ``np.multiply(a, buf, out=buf)`` runs the same ufunc loop on the same
    operands as ``a * buf``, the same bits with one array fewer."""
    node = ast.parse(expr, mode="eval").body
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return None
    a, buf = (ast.get_source_segment(expr, n) for n in (node.left, node.right))
    buffers = {"Xs", "Yd"} | ({"W"} if is_builtin(pattern.vop) else set())
    if not (buf in buffers & set(named) or buf in _GATHER_ARGS) or "[:, None]" not in a:
        return None
    # Nothing but the lifted scalars and the expression namespace.
    rest = a.replace("H[:, None]", "1").replace("vals[:, None]", "1")
    names = {n.id for n in ast.walk(ast.parse(rest, mode="eval")) if isinstance(n, ast.Name)}
    return (a, buf) if names <= set(EXPR_NAMESPACE) else None


def _inline(steps, name):
    """``steps`` without the assignment to ``name``, its value substituted
    into every read."""
    value = dict(steps)[name]
    return [(n, _sub(e, name, value)) for n, e in steps if n != name]


def generate_kernel_source(pattern: ResolvedPattern) -> str:
    """Emit the Python source of the block body specialized for ``pattern``.

    The body maps one edge block to its messages ``M``;
    :func:`~repro.core.optimized.run_edge_blocks` supplies the block loop
    and the aggregation.  Raises :class:`~repro.errors.CodegenError` when
    an operator has neither an expression nor a ``batch_fn``.
    """
    ops = pattern.ops()
    exprs = {
        kind: _step_expr(ops[kind], kind, pattern.message_is_scalar) for kind in _STEPS
    }
    fused = (
        _FUSED_VOP_ROP.get((pattern.vop.name, pattern.rop.name))
        if pattern.is_standard
        else None
    )
    steps = list(_GATHERS)
    if fused is not None and not mop_reads_vop_output(pattern):
        steps.append(("S", fused))
    else:
        steps += [("W", exprs[OpKind.VOP]), ("S", exprs[OpKind.ROP])]
    steps += [("H", exprs[OpKind.SOP]), ("M", exprs[OpKind.MOP])]
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
    a, buf = _scaled_message(pattern, live[-1][1], dict(live[:-1])) or (None, None)
    if buf is not None and pattern.aop.accumulate_ufunc is np.add:
        lines[-1] = f"return {a}, {_GATHER_ARGS.get(buf, buf)}"
    elif pattern.message_is_scalar and buf in dict(live):  # a buffer, not a gather
        # Written over the buffer only when the product has its dtype
        # (float32 features with float64 edge values do not).
        lines[-1:] = [
            f"M = {a}",
            f"M = np.multiply(M, {buf}, out={buf} if np.result_type(M, {buf}) == {buf}.dtype else None)",
        ]
    if not lines[-1].startswith("return"):
        lines.append("return M")
    body = textwrap.indent("\n".join(lines), " " * 4)

    return _BODY_TEMPLATE.format(
        pattern_name=pattern.name,
        body=body,
        **pattern.op_names(),
    )


# ---------------------------------------------------------------------- #
# Compilation and caching
# ---------------------------------------------------------------------- #
_KERNEL_CACHE: Dict[Tuple, Callable] = {}
#: Kernels are keyed by operator identity (:func:`pattern_key`), so a
#: caller minting new operators per call would grow the cache without
#: bound: beyond this many entries the oldest is dropped.
_KERNEL_CACHE_CAPACITY = 256


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
    An SpMM-shaped pattern's kernel runs the driver's product
    ``Z = A · Y`` instead (``body=None``, no blocks); its body is still
    generated and compiled, so ``.source`` shows what the product
    computes, but it does not run.  The cache entry holds ``pattern``,
    which keeps its key's operators alive.
    """
    key = pattern_key(pattern)
    if key in _KERNEL_CACHE:
        return _KERNEL_CACHE[key]

    source = generate_kernel_source(pattern)
    namespace: Dict[str, object] = dict(EXPR_NAMESPACE)
    namespace.update((kind, op.batch_fn) for kind, op in pattern.ops().items())
    try:
        code = compile(source, filename=f"<generated:{pattern.name}>", mode="exec")
        exec(code, namespace)  # noqa: S102 - deliberate, this is the code generator
    except SyntaxError as exc:
        raise CodegenError(f"generated source failed to compile: {exc}\n{source}") from exc
    # An SpMM-shaped pattern's body only hands the edge values and Y's rows
    # to the sum: the driver runs that product without blocks.
    body = None if pattern.is_spmm_like else namespace["_generated_block_kernel"]

    def generated_fusedmm(A, X, Y=None, **blocking) -> np.ndarray:
        return run_edge_blocks(A, X, Y, body, aop=pattern.aop, **blocking)

    generated_fusedmm.__name__ = f"fusedmm_generated_{pattern.name}"
    generated_fusedmm.source = source  # type: ignore[attr-defined]
    while len(_KERNEL_CACHE) >= _KERNEL_CACHE_CAPACITY:
        _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
    _KERNEL_CACHE[key] = generated_fusedmm
    return generated_fusedmm
