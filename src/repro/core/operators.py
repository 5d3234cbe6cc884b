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

* :class:`Operator` — a named operator with both a *per-edge* callable used
  by the faithful reference kernel (:mod:`repro.core.generic`) and a
  *batched* callable used by the vectorized kernels
  (:mod:`repro.core.optimized`), plus metadata the optimizer uses to pick
  specializations (does ROP reduce?  is AOP a sum?).
* The standard operator registry of Table II (ADD, MUL, SEL2ND, SIGMOID,
  SCAL, RSUM, RMUL, NORM, ASUM, AMAX, …) plus a few extras the applications
  need (SUB, EDGESCALE, RESIDUAL, MLP hook, ReLU, …).
* :func:`get_op` / :func:`register_op` for lookup and user extension.

Batched conventions
-------------------
For a vertex ``u`` with ``k`` neighbours, the batched callables receive

``xu``    the ``(d,)`` feature vector of ``u`` (broadcast over neighbours)
``Yn``    the ``(k, d)`` matrix of neighbour features
``av``    the ``(k,)`` edge values
``W``     the ``(k, d)`` VOP output
``H``     the ``(k,)`` or ``(k, d)`` message after SOP

and produce arrays with the leading ``k`` dimension preserved.  The same
callables are reused by the edge-blocked whole-matrix kernels where ``xu``
becomes an ``(k, d)`` matrix of gathered source features — every standard
operator below is written to broadcast correctly in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import OperatorError
from .mathops import SIGMOID_CLAMP
from .mathops import sigmoid as _sigmoid

__all__ = [
    "OpKind",
    "Operator",
    "get_op",
    "register_op",
    "list_ops",
    "make_scal",
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
        Vectorized callable used by the optimized kernels; same semantics
        with a leading neighbour/edge dimension.
    is_noop:
        True for the identity/pass-through operator.
    reduces:
        For ROP operators: True when the output is a scalar per edge.
    accumulator_identity:
        For AOP operators: the identity element used to initialise the
        output row (0 for sums, ``-inf`` for max, ``+inf`` for min).
    accumulate_ufunc:
        For AOP operators: the NumPy ufunc implementing the accumulation,
        used by the scatter-based whole-matrix kernels (``np.add`` /
        ``np.maximum`` / ``np.minimum``).
    params:
        Free-form parameter dict (e.g. the α of SCAL).
    """

    name: str
    kinds: tuple
    edge_fn: Callable
    batch_fn: Callable
    is_noop: bool = False
    reduces: bool = False
    accumulator_identity: Optional[float] = None
    accumulate_ufunc: Optional[np.ufunc] = None
    params: Dict[str, float] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Operator({self.name})"

    def allowed_in(self, kind: str) -> bool:
        """Whether this operator may occupy step ``kind``."""
        return kind in self.kinds


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, Operator] = {}


def register_op(op: Operator, *, overwrite: bool = False) -> Operator:
    """Register ``op`` under ``op.name`` so patterns can refer to it by name.

    User-defined operators are first-class citizens: once registered, they
    can be used in :class:`repro.core.patterns.OpPattern` and executed by
    the generic and optimized backends exactly like the built-ins.
    """
    key = op.name.upper()
    if key in _REGISTRY and not overwrite:
        raise OperatorError(f"operator {key!r} is already registered")
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
        batch_fn=lambda *args: args[0] if args else None,
        is_noop=True,
    )
)

# --- Binary element-wise operators (VOP / MOP) ------------------------- #
register_op(
    Operator(
        name="ADD",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: x + y,
        batch_fn=lambda x, y, a=None, w=None: x + y,
    )
)

register_op(
    Operator(
        name="SUB",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: x - y,
        batch_fn=lambda x, y, a=None, w=None: x - y,
    )
)

register_op(
    Operator(
        name="MUL",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: x * y,
        batch_fn=lambda x, y, a=None, w=None: _mul_broadcast(x, y),
    )
)

def _sel1st_batch(x, y, a=None, w=None):
    """Batched SEL1ST.  Used as VOP it broadcasts the (single) source
    vector over the neighbour dimension; used as MOP on a per-edge scalar
    message it passes the scalars through unchanged."""
    x_arr = np.asarray(x)
    y_arr = np.asarray(y)
    if x_arr.ndim < y_arr.ndim:
        if x_arr.ndim >= 1 and x_arr.shape[0] == y_arr.shape[0]:
            return x_arr
        return np.broadcast_to(x_arr, y_arr.shape).copy()
    return x_arr


register_op(
    Operator(
        name="SEL1ST",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: x if np.ndim(x) else np.asarray(x),
        batch_fn=_sel1st_batch,
    )
)

register_op(
    Operator(
        name="SEL2ND",
        kinds=(OpKind.VOP, OpKind.MOP),
        edge_fn=lambda x, y, a=None, w=None: y,
        batch_fn=lambda x, y, a=None, w=None: y,
    )
)

register_op(
    Operator(
        name="EDGESCALE",
        kinds=(OpKind.VOP, OpKind.MOP),
        # Scale the message by the edge value a_uv.  This is what the paper
        # calls "MUL for MOP" in the GCN row of Table III: messages are
        # multiplied by edge features before pooling.
        edge_fn=lambda x, y, a=None, w=None: (1.0 if a is None else a) * _first_vector(x, y),
        batch_fn=lambda x, y, a=None, w=None: _edge_scale_batch(x, y, a),
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
        batch_fn=lambda h, y, a=None, w=None: _mul_broadcast(h, w if w is not None else y),
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
        batch_fn=lambda h, y, a, w=None: _residual_batch(h, y, a),
    )
)

# --- Unary scaling operators (SOP / MOP) -------------------------------- #
register_op(
    Operator(
        name="SIGMOID",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest: _sigmoid(x),
        batch_fn=lambda x, *rest: _sigmoid(x),
    )
)

register_op(
    Operator(
        name="RELU",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest: np.maximum(x, 0.0),
        batch_fn=lambda x, *rest: np.maximum(x, 0.0),
    )
)

register_op(
    Operator(
        name="TANH",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest: np.tanh(x),
        batch_fn=lambda x, *rest: np.tanh(x),
    )
)

register_op(
    Operator(
        name="EXP",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest: np.exp(np.clip(x, -SIGMOID_CLAMP, SIGMOID_CLAMP)),
        batch_fn=lambda x, *rest: np.exp(np.clip(x, -SIGMOID_CLAMP, SIGMOID_CLAMP)),
    )
)

register_op(
    Operator(
        name="TDIST",
        kinds=(OpKind.SOP,),
        # Student-t kernel 1 / (1 + s^2) used by t-SNE-style layout forces.
        edge_fn=lambda x, *rest: 1.0 / (1.0 + np.square(x)),
        batch_fn=lambda x, *rest: 1.0 / (1.0 + np.square(x)),
    )
)


def make_scal(alpha: float, name: str | None = None, *, register: bool = False) -> Operator:
    """Create a SCAL operator multiplying its input by the constant ``alpha``
    (Table II's SCAL).  Optionally register it under ``name``."""
    op = Operator(
        name=name or f"SCAL[{alpha:g}]",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest, _a=alpha: _a * x,
        batch_fn=lambda x, *rest, _a=alpha: _a * x,
        params={"alpha": float(alpha)},
    )
    if register:
        register_op(op, overwrite=True)
    return op


# A default unit-scale SCAL so patterns can name "SCAL" directly.
register_op(
    Operator(
        name="SCAL",
        kinds=(OpKind.SOP, OpKind.MOP),
        edge_fn=lambda x, *rest: 1.0 * x,
        batch_fn=lambda x, *rest: 1.0 * x,
        params={"alpha": 1.0},
    )
)

# --- Reduction operators (ROP) ------------------------------------------ #
register_op(
    Operator(
        name="RSUM",
        kinds=(OpKind.ROP,),
        edge_fn=lambda w: np.sum(w, axis=-1),
        batch_fn=lambda w: np.sum(w, axis=-1),
        reduces=True,
    )
)

register_op(
    Operator(
        name="RMUL",
        kinds=(OpKind.ROP,),
        edge_fn=lambda w: np.prod(w, axis=-1),
        batch_fn=lambda w: np.prod(w, axis=-1),
        reduces=True,
    )
)

register_op(
    Operator(
        name="RMAX",
        kinds=(OpKind.ROP,),
        edge_fn=lambda w: np.max(w, axis=-1),
        batch_fn=lambda w: np.max(w, axis=-1),
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
        batch_fn=lambda w: np.sqrt(np.sum(np.square(w), axis=-1)),
        reduces=True,
    )
)

# --- Accumulation operators (AOP) ---------------------------------------- #
register_op(
    Operator(
        name="ASUM",
        kinds=(OpKind.AOP,),
        edge_fn=lambda z, w: z + w,
        batch_fn=lambda z, w_block: z + np.sum(w_block, axis=0),
        accumulator_identity=0.0,
        accumulate_ufunc=np.add,
    )
)

register_op(
    Operator(
        name="AMAX",
        kinds=(OpKind.AOP,),
        edge_fn=lambda z, w: np.maximum(z, w),
        batch_fn=lambda z, w_block: np.maximum(z, np.max(w_block, axis=0))
        if np.shape(w_block)[0]
        else z,
        accumulator_identity=-np.inf,
        accumulate_ufunc=np.maximum,
    )
)

register_op(
    Operator(
        name="AMIN",
        kinds=(OpKind.AOP,),
        edge_fn=lambda z, w: np.minimum(z, w),
        batch_fn=lambda z, w_block: np.minimum(z, np.min(w_block, axis=0))
        if np.shape(w_block)[0]
        else z,
        accumulator_identity=np.inf,
        accumulate_ufunc=np.minimum,
    )
)


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


# ---------------------------------------------------------------------- #
# Broadcasting helpers shared by the standard operators
# ---------------------------------------------------------------------- #
def _mul_broadcast(h, y):
    """Multiply a message (scalar-per-edge or vector-per-edge) with a
    per-edge vector, inserting the trailing axis when needed."""
    h_arr = np.asarray(h)
    y_arr = np.asarray(y)
    if h_arr.ndim == y_arr.ndim - 1:
        return h_arr[..., None] * y_arr
    return h_arr * y_arr


def _residual_batch(h, y, a):
    """Batched RESIDUAL: ``(h - a) · y`` with the per-edge value ``a``
    broadcast over a vector message."""
    h_arr = np.asarray(h)
    a_arr = np.asarray(a)
    if a_arr.ndim == h_arr.ndim - 1:
        a_arr = a_arr[..., None]
    return _mul_broadcast(h_arr - a_arr, y)


def _first_vector(x, y):
    """Pick the message operand for EDGESCALE: the first argument when it is
    vector-like, otherwise the second (neighbour features)."""
    return x if np.ndim(x) >= 1 else y


def _edge_scale_batch(h, y, a):
    """Batched EDGESCALE: multiply the message by the per-edge value."""
    if a is None:
        return _mul_broadcast(h, y) if np.ndim(h) < np.ndim(y) else np.asarray(h)
    a_arr = np.asarray(a)
    msg = h if np.ndim(h) >= np.ndim(y) else y
    msg = np.asarray(msg)
    if a_arr.ndim == msg.ndim - 1:
        return a_arr[..., None] * msg
    return a_arr * msg
