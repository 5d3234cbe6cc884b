"""The five-step operator abstraction of FusedMM (paper Section III).

FusedMM decomposes message generation + aggregation into five steps, each of
which accepts a user-defined function:

``VOP``  element-wise "multiplication" of the two node feature vectors
``ROP``  reduction of the VOP output to a scalar (or NOOP)
``SOP``  scaling of the ROP/VOP output by a linear or nonlinear function
``MOP``  element-wise "multiplication" of the message with the neighbour
         feature vector (or with the VOP output / edge value)
``AOP``  accumulation of the per-edge contribution into the output row

This module defines:

* :class:`Operator` — a named operator with a *per-edge* callable used by
  the faithful reference kernel (:mod:`repro.core.generic`) and one NumPy
  *expression* over an edge block, which the code generator
  (:mod:`repro.core.codegen`) inlines into its kernels and from which the
  batched callable is compiled; plus metadata the kernels use (does ROP
  reduce?  what does AOP accumulate with?).
* The standard operator registry of Table II (ADD, MUL, SEL2ND, SIGMOID,
  SCAL, RSUM, RMUL, NORM, ASUM, AMAX, …) plus a few extras the applications
  need (SUB, EDGESCALE, RESIDUAL, MLP hook, ReLU, …).  These built-ins can
  never be replaced, so their names identify them.
* :func:`get_op` / :func:`register_op` for lookup and user extension.

Expressions
-----------
An operator's ``expr`` is a NumPy expression over the variables of one
edge block of ``k`` edges:

``Xs``    the ``(k, d)`` gathered source features
``Yd``    the ``(k, d)`` gathered destination features
``vals``  the ``(k,)`` edge values
``W``     the VOP output, ``(k, d)``
``S``     the ROP output, ``(k,)`` when the ROP reduces, else ``(k, d)``
``H``     the SOP output, shaped like ``S``

plus ``np`` and ``sigmoid`` (:func:`repro.core.mathops.sigmoid`).  It reads
the input of its step through the variable of its first kind (:data:`STEP_INPUT`:
``Xs`` for a VOP, ``W`` for a ROP, ``S`` for a SOP, ``H`` for a MOP); used in
another step, that variable names the other step's input.  Per-edge scalars
are written as ``(k,)`` arrays: where a VOP or MOP meets ``(k, d)`` features,
``vals`` and a scalar message are lifted to columns.  ROP and SOP
expressions read only their input.  An operator without an expression (a
user callable such as :func:`make_mlp_vop`) supplies ``batch_fn`` itself,
called as ``vop(Xs, Yd, vals)``, ``rop(W)``, ``sop(S)`` and
``mop(H, Yd, vals, W)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import OperatorError
from .mathops import SIGMOID_CLAMP, sigmoid

__all__ = [
    "OpKind",
    "Operator",
    "STEP_INPUT",
    "EXPR_NAMESPACE",
    "get_op",
    "register_op",
    "list_ops",
    "is_builtin",
    "make_scal",
    "scal_expr",
    "make_mlp_vop",
    "NOOP",
]


class OpKind:
    """Step names an operator may be used in (an operator may serve several)."""

    VOP = "vop"
    ROP = "rop"
    SOP = "sop"
    MOP = "mop"
    AOP = "aop"

    ALL = (VOP, ROP, SOP, MOP, AOP)


#: The block variable through which each step reads its input.
STEP_INPUT = {OpKind.VOP: "Xs", OpKind.ROP: "W", OpKind.SOP: "S", OpKind.MOP: "H"}

#: The names an expression may call besides the block variables.
EXPR_NAMESPACE = {"np": np, "sigmoid": sigmoid}


@dataclass(frozen=True)
class Operator:
    """A named FusedMM step operator.

    Attributes
    ----------
    name:
        Registry name (upper-case, e.g. ``"MUL"``).
    kinds:
        The steps this operator may legally occupy.
    edge_fn:
        Per-edge callable used by the reference kernel.  Signature depends
        on the step — see the module docstring of
        :mod:`repro.core.generic`.
    batch_fn:
        Vectorized callable over an edge block (see the module docstring
        for its arguments).  Compiled from ``expr`` when not given.
    expr:
        The NumPy expression of the operator over an edge block (module
        docstring); ``None`` for an operator that only has callables.
    is_noop:
        True for the identity/pass-through operator.
    reduces:
        For ROP operators: True when the output is a scalar per edge.
    accumulator_identity:
        For AOP operators: the identity element used to initialise the
        output row (0 for sums, ``-inf`` for max, ``+inf`` for min).
    accumulate_ufunc:
        For AOP operators: the NumPy ufunc implementing the accumulation,
        used by the edge-blocked kernels (``np.add`` / ``np.maximum`` /
        ``np.minimum``).
    params:
        Free-form parameter dict (e.g. the α of SCAL).
    """

    name: str
    kinds: tuple
    edge_fn: Callable
    batch_fn: Optional[Callable] = None
    expr: Optional[str] = None
    is_noop: bool = False
    reduces: bool = False
    accumulator_identity: Optional[float] = None
    accumulate_ufunc: Optional[np.ufunc] = None
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.batch_fn is None and self.expr is not None:
            object.__setattr__(self, "batch_fn", _compile_batch_fn(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Operator({self.name})"

    @property
    def input_name(self) -> str:
        """The block variable through which ``expr`` reads its input."""
        return STEP_INPUT[self.kinds[0]]

    def allowed_in(self, kind: str) -> bool:
        """Whether this operator may occupy step ``kind``."""
        return kind in self.kinds


def _column(v):
    return v[:, None] if np.ndim(v) == 1 else v


def _compile_batch_fn(op: Operator) -> Callable:
    """The batched callable of ``op``'s expression.

    A call with ``(k, d)`` destination features is a VOP or MOP call: a
    ``(k,)`` input and the edge values are lifted to columns, as the code
    generator lifts them.
    """
    code = compile(op.expr, f"<operator {op.name}>", "eval")
    var = op.input_name

    def batch_fn(x, Yd=None, vals=None, W=None):
        if np.ndim(Yd) == 2:
            x, vals = _column(x), _column(vals)
        env = {"Yd": Yd, "vals": vals, "W": W, var: x}  # a ROP's input is W
        return eval(code, EXPR_NAMESPACE, env)  # noqa: S307

    batch_fn.__name__ = f"batch_{op.name}"
    return batch_fn


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, Operator] = {}
#: The standard operators below, filled once the module has registered
#: them; :func:`register_op` never replaces one.
_BUILTINS: Dict[str, Operator] = {}


def register_op(op: Operator, *, overwrite: bool = False) -> Operator:
    """Register ``op`` under ``op.name`` so patterns can refer to it by name.

    User-defined operators are first-class citizens: once registered, they
    can be used in :class:`repro.core.patterns.OpPattern` and executed by
    every backend exactly like the built-ins.  ``overwrite`` replaces an
    earlier user operator of the same name, never a built-in.
    """
    key = op.name.upper()
    if key in _REGISTRY and not overwrite:
        raise OperatorError(f"operator {key!r} is already registered")
    if key in _BUILTINS and _BUILTINS[key] is not op:
        raise OperatorError(f"operator {key!r} is built in and cannot be replaced")
    _REGISTRY[key] = op
    return op


def get_op(name_or_op) -> Operator:
    """Resolve an operator by name (case-insensitive) or pass through an
    :class:`Operator` instance."""
    if isinstance(name_or_op, Operator):
        return name_or_op
    if not isinstance(name_or_op, str):
        raise OperatorError(f"expected operator name or Operator, got {type(name_or_op)!r}")
    key = name_or_op.upper()
    if key not in _REGISTRY:
        raise OperatorError(
            f"unknown operator {name_or_op!r}; registered: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]


def list_ops(kind: str | None = None) -> list:
    """Names of registered operators, optionally filtered by step kind."""
    if kind is None:
        return sorted(_REGISTRY)
    return sorted(name for name, op in _REGISTRY.items() if op.allowed_in(kind))


def is_builtin(op: Operator) -> bool:
    """Whether ``op`` is one of the standard operators of this module (not
    merely an operator with a standard name)."""
    return _BUILTINS.get(op.name.upper()) is op


# ---------------------------------------------------------------------- #
# Standard operators (Table II of the paper, plus application extras)
# ---------------------------------------------------------------------- #
# The numerically stable clipped sigmoid lives in repro.core.mathops so the
# registry, the code generator and the JIT backend
# all share one clamp definition.

NOOP = register_op(
    Operator(
        name="NOOP",
        kinds=OpKind.ALL,
        edge_fn=lambda *args: args[0] if args else None,
        is_noop=True,
    )
)

# --- Binary element-wise operators (VOP / MOP) ------------------------- #
register_op(
    Operator(
        name="ADD",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: x + y,
        expr="Xs + Yd",
    )
)

register_op(
    Operator(
        name="SUB",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: x - y,
        expr="Xs - Yd",
    )
)

register_op(
    Operator(
        name="MUL",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: x * y,
        expr="Xs * Yd",
    )
)

register_op(
    Operator(
        name="SEL1ST",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: x if np.ndim(x) else np.asarray(x),
        expr="Xs",
    )
)

register_op(
    Operator(
        name="SEL2ND",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: y,
        expr="Yd",
    )
)

register_op(
    Operator(
        name="EDGESCALE",
        kinds=(OpKind.VOP, OpKind.MOP),
        # Scale the message by the edge value a_uv.  This is what the paper
        # calls "MUL for MOP" in the GCN row of Table III: messages are
        # multiplied by edge features before pooling.
        edge_fn=lambda x, y, a, w=None: a * x,
        expr="vals * Xs",
    )
)

register_op(
    Operator(
        name="MULDIFF",
        kinds=(OpKind.MOP,),
        # Multiply the (scalar) message by the VOP output w — needed by the
        # force-directed layout pattern where the aggregated direction is
        # (x_u - x_v), i.e. the VOP output, not y_v.
        edge_fn=lambda h, y, a=None, w=None: h * (w if w is not None else y),
        expr="H * W",
    )
)

register_op(
    Operator(
        name="RESIDUAL",
        kinds=(OpKind.MOP,),
        # Scale the neighbour feature by the message minus the edge value,
        # (h - a_uv) · y_v: with a_uv as the label of an edge, the
        # sigmoid-embedding gradient Σ (σ(x_u·y_v) - label) y_v is one pass.
        edge_fn=lambda h, y, a, w=None: (h - a) * y,
        expr="(H - vals) * Yd",
    )
)

# --- Unary scaling operators (SOP / MOP) -------------------------------- #
register_op(
    Operator(
        name="SIGMOID",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest: sigmoid(x),
        expr="sigmoid(S)",
    )
)

register_op(
    Operator(
        name="RELU",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest: np.maximum(x, 0.0),
        expr="np.maximum(S, 0.0)",
    )
)

register_op(
    Operator(
        name="TANH",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest: np.tanh(x),
        expr="np.tanh(S)",
    )
)

register_op(
    Operator(
        name="EXP",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest: np.exp(np.clip(x, -SIGMOID_CLAMP, SIGMOID_CLAMP)),
        expr=f"np.exp(np.clip(S, -{SIGMOID_CLAMP!r}, {SIGMOID_CLAMP!r}))",
    )
)

register_op(
    Operator(
        name="TDIST",
        kinds=(OpKind.SOP,),
        # Student-t kernel 1 / (1 + s^2) used by t-SNE-style layout forces.
        edge_fn=lambda x, *rest: 1.0 / (1.0 + np.square(x)),
        expr="1.0 / (1.0 + np.square(S))",
    )
)


def make_scal(alpha: float, name: str | None = None, *, register: bool = False) -> Operator:
    """Create a SCAL operator multiplying its input by the constant ``alpha``
    (Table II's SCAL).  Optionally register it under ``name``."""
    op = Operator(
        name=name or f"SCAL[{alpha:g}]",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest, _a=alpha: _a * x,
        expr=scal_expr(alpha),
        params={"alpha": float(alpha)},
    )
    if register:
        register_op(op, overwrite=True)
    return op


def scal_expr(alpha: float) -> str:
    """The expression of a SCAL operator with factor ``alpha``."""
    return f"{float(alpha)!r} * S"


# A default unit-scale SCAL so patterns can name "SCAL" directly.
register_op(make_scal(1.0, name="SCAL"))

# --- Reduction operators (ROP) ------------------------------------------ #
register_op(
    Operator(
        name="RSUM",
        kinds=(OpKind.ROP,),
        edge_fn=lambda w: np.sum(w, axis=-1),
        expr="np.sum(W, axis=1)",
        reduces=True,
    )
)

register_op(
    Operator(
        name="RMUL",
        kinds=(OpKind.ROP,),
        edge_fn=lambda w: np.prod(w, axis=-1),
        expr="np.prod(W, axis=1)",
        reduces=True,
    )
)

register_op(
    Operator(
        name="RMAX",
        kinds=(OpKind.ROP,),
        edge_fn=lambda w: np.max(w, axis=-1),
        expr="np.max(W, axis=1)",
        reduces=True,
    )
)

register_op(
    Operator(
        name="NORM",
        kinds=(OpKind.ROP,),
        # Note: the paper points out its ASUM/NORM differ from L1 BLAS; this
        # is the Euclidean norm of the VOP output.
        edge_fn=lambda w: np.sqrt(np.sum(np.square(w), axis=-1)),
        expr="np.sqrt(np.einsum('ij,ij->i', W, W))",
        reduces=True,
    )
)

# --- Accumulation operators (AOP) ---------------------------------------- #
# The edge-blocked kernels aggregate a block with ``accumulate_ufunc``.
register_op(
    Operator(
        name="ASUM",
        kinds=(OpKind.AOP,),
        edge_fn=lambda z, w: z + w,
        accumulator_identity=0.0,
        accumulate_ufunc=np.add,
    )
)

register_op(
    Operator(
        name="AMAX",
        kinds=(OpKind.AOP,),
        edge_fn=lambda z, w: np.maximum(z, w),
        accumulator_identity=-np.inf,
        accumulate_ufunc=np.maximum,
    )
)

register_op(
    Operator(
        name="AMIN",
        kinds=(OpKind.AOP,),
        edge_fn=lambda z, w: np.minimum(z, w),
        accumulator_identity=np.inf,
        accumulate_ufunc=np.minimum,
    )
)

_BUILTINS.update(_REGISTRY)


# ---------------------------------------------------------------------- #
# User-defined operator helpers
# ---------------------------------------------------------------------- #
def make_mlp_vop(
    weight1: np.ndarray,
    weight2: np.ndarray | None = None,
    *,
    name: str = "MLP",
    register: bool = False,
) -> Operator:
    """Build the MLP message operator of the GNN pattern (Table III row 4).

    The message on edge ``(u, v)`` is ``MLP([x_u ; y_v])``: the two feature
    vectors are concatenated, passed through one (or two) dense layers with
    ReLU, and the output is a d-dimensional vector message.

    Parameters
    ----------
    weight1:
        ``(2d, hidden)`` dense weight of the first layer.
    weight2:
        Optional ``(hidden, d)`` weight of the second layer.  When omitted
        the first layer must map ``2d -> d`` directly.
    """
    w1 = np.ascontiguousarray(weight1, dtype=np.float32)
    w2 = None if weight2 is None else np.ascontiguousarray(weight2, dtype=np.float32)

    def _edge(x, y, a=None, w=None, _w1=w1, _w2=w2):
        concat = np.concatenate([np.atleast_1d(x), np.atleast_1d(y)], axis=-1)
        hidden = np.maximum(concat @ _w1, 0.0)
        return hidden if _w2 is None else hidden @ _w2

    def _batch(x, y, a=None, w=None, _w1=w1, _w2=w2):
        x_b = np.broadcast_to(x, np.shape(y)) if np.ndim(x) < np.ndim(y) else x
        concat = np.concatenate([x_b, y], axis=-1)
        hidden = np.maximum(concat @ _w1, 0.0)
        return hidden if _w2 is None else hidden @ _w2

    op = Operator(name=name, kinds=(OpKind.VOP,), edge_fn=_edge, batch_fn=_batch)
    if register:
        register_op(op, overwrite=True)
    return op
