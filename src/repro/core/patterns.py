"""Application operator patterns (paper Table III).

A :class:`OpPattern` names the five operators occupying the VOP/ROP/SOP/
MOP/AOP slots.  The built-in patterns reproduce the four rows of Table III:

=====================  ========  ======  ========  =========  =====
Application            VOP       ROP     SOP       MOP        AOP
=====================  ========  ======  ========  =========  =====
``fr_layout``          SUB       NORM    TDIST     MULDIFF    ASUM
``sigmoid_embedding``  MUL       RSUM    SIGMOID   MUL        ASUM
``sigmoid_residual``   MUL       RSUM    SIGMOID   RESIDUAL   ASUM
``gcn``                SEL2ND    NOOP    NOOP      EDGESCALE  ASUM
``gnn_mlp``            MLP(user) NOOP    SIGMOID   MUL        AMAX
``spmm``               SEL2ND    NOOP    NOOP      EDGESCALE  ASUM
``sddmm_dot``          MUL       RSUM    NOOP      SEL1ST     ASUM
=====================  ========  ======  ========  =========  =====

Differences from the paper's table, and why
-------------------------------------------
* The FR row of Table III lists ``ADD`` for VOP and ``SCAL`` for SOP.  The
  actual force computation shown in Fig. 1(a) is a *difference* of the two
  position vectors scaled by a function of their distance; we therefore use
  ``SUB`` for VOP and the Student-t force kernel ``TDIST`` for SOP (the same
  kernel the authors' Force2Vec/BatchLayout code uses), and ``MULDIFF`` so
  the aggregated direction is the VOP output rather than the neighbour
  feature.  The *structure* (vector VOP → scalar ROP → scalar SOP → vector
  MOP → sum AOP) is identical to the paper's row.
* The GCN row's "MUL for MOP" means "multiply the message by the edge
  feature"; the explicit name here is ``EDGESCALE``.
* ``spmm`` is the SpMM specialisation of FusedMM used in the MKL comparison
  (Table VII); it is the same op tuple as ``gcn``.
* ``sigmoid_residual`` is not a Table III row: it is the Force2Vec/VERSE
  *gradient*, ``Σ_v (σ(x_u·y_v) − a_uv) y_v``, where the edge value is the
  edge's label (1 or a similarity weight on real edges, 0 on sampled
  negatives).  One call replaces a sigmoid aggregation, a plain SpMM over
  the same rows and a second sigmoid aggregation over the negatives.
* ``sddmm_dot`` computes only the edge messages ``x_uᵀ y_v`` (a pure SDDMM);
  with ``SEL1ST``/``ASUM`` the aggregation degenerates to summing the scalar
  messages, which is occasionally useful on its own and exercises the
  scalar-message path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..errors import PatternError
from .operators import OpKind, Operator, get_op

__all__ = [
    "OpPattern",
    "PATTERNS",
    "get_pattern",
    "register_pattern",
    "list_patterns",
]


@dataclass(frozen=True)
class OpPattern:
    """The five operators of one FusedMM invocation.

    Attributes may be operator names (resolved through the registry) or
    :class:`~repro.core.operators.Operator` instances (e.g. a user MLP).
    """

    name: str
    vop: object = "NOOP"
    rop: object = "NOOP"
    sop: object = "NOOP"
    mop: object = "NOOP"
    aop: object = "ASUM"
    #: Optional human description used in reports.
    description: str = ""

    # ------------------------------------------------------------------ #
    def resolved(self) -> "ResolvedPattern":
        """Resolve all five slots to :class:`Operator` objects and validate
        that each operator is allowed in its slot."""
        ops = {}
        for kind, value in (
            (OpKind.VOP, self.vop),
            (OpKind.ROP, self.rop),
            (OpKind.SOP, self.sop),
            (OpKind.MOP, self.mop),
            (OpKind.AOP, self.aop),
        ):
            op = get_op(value)
            if not op.is_noop and not op.allowed_in(kind):
                raise PatternError(
                    f"operator {op.name!r} cannot be used as {kind.upper()} in pattern "
                    f"{self.name!r}"
                )
            ops[kind] = op
        if ops[OpKind.AOP].is_noop:
            raise PatternError(
                f"pattern {self.name!r}: AOP must be a real accumulator (ASUM/AMAX/AMIN)"
            )
        return ResolvedPattern(name=self.name, description=self.description, **ops)

    def with_ops(self, **kwargs) -> "OpPattern":
        """Return a copy with some slots replaced (e.g. a user VOP)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ResolvedPattern:
    """An :class:`OpPattern` whose slots are concrete :class:`Operator`s."""

    name: str
    vop: Operator
    rop: Operator
    sop: Operator
    mop: Operator
    aop: Operator
    description: str = ""

    @property
    def message_is_scalar(self) -> bool:
        """True when the per-edge message entering MOP is a scalar, i.e. the
        ROP slot actually reduces.  This is the property the optimizer uses
        to choose the scalar-message fast path and it also determines the
        size of the intermediate H an *unfused* pipeline would store
        (``nnz`` vs ``nnz × d``)."""
        return self.rop.reduces

    @property
    def is_spmm_like(self) -> bool:
        """True for patterns equivalent to an SpMM (GCN row of Table III):
        the message is the neighbour feature scaled by the edge value
        (``EDGESCALE``) and the aggregation is a sum."""
        return (
            self.vop.name in {"SEL2ND", "NOOP"}
            and self.rop.is_noop
            and self.sop.is_noop
            and self.mop.name == "EDGESCALE"
            and self.aop.name == "ASUM"
        )

    @property
    def is_sigmoid_embedding(self) -> bool:
        """True for the VERSE/Force2Vec sigmoid embedding row of Table III."""
        return (
            self.vop.name == "MUL"
            and self.rop.name == "RSUM"
            and self.sop.name == "SIGMOID"
            and self.mop.name == "MUL"
            and self.aop.name == "ASUM"
        )

    @property
    def is_fr_layout(self) -> bool:
        """True for the force-directed layout row of Table III, with its
        Student-t force (``TDIST``)."""
        return (
            self.vop.name == "SUB"
            and self.rop.name == "NORM"
            and self.sop.name == "TDIST"
            and self.mop.name == "MULDIFF"
            and self.aop.name == "ASUM"
        )

    def op_names(self) -> Dict[str, str]:
        """Slot → operator-name mapping (for reports and cache keys)."""
        return {
            "vop": self.vop.name,
            "rop": self.rop.name,
            "sop": self.sop.name,
            "mop": self.mop.name,
            "aop": self.aop.name,
        }


# ---------------------------------------------------------------------- #
# Built-in pattern registry (Table III)
# ---------------------------------------------------------------------- #
PATTERNS: Dict[str, OpPattern] = {}


def register_pattern(pattern: OpPattern, *, overwrite: bool = False) -> OpPattern:
    """Register a pattern so it can be requested by name in
    :func:`repro.fusedmm`."""
    key = pattern.name.lower()
    if key in PATTERNS and not overwrite:
        raise PatternError(f"pattern {key!r} already registered")
    PATTERNS[key] = pattern
    return pattern


def list_patterns() -> list:
    """Names of all registered patterns."""
    return sorted(PATTERNS)


def get_pattern(name_or_pattern, **overrides) -> OpPattern:
    """Resolve a pattern by name, an :class:`OpPattern` instance, or build an
    anonymous pattern from explicit ``vop=...`` keyword overrides."""
    if isinstance(name_or_pattern, OpPattern):
        pattern = name_or_pattern
    elif isinstance(name_or_pattern, str):
        key = name_or_pattern.lower()
        if key not in PATTERNS:
            raise PatternError(
                f"unknown pattern {name_or_pattern!r}; available: {', '.join(list_patterns())}"
            )
        pattern = PATTERNS[key]
    elif name_or_pattern is None:
        pattern = OpPattern(name="custom")
    else:
        raise PatternError(f"cannot interpret pattern {name_or_pattern!r}")
    if overrides:
        pattern = pattern.with_ops(**overrides)
    return pattern


register_pattern(
    OpPattern(
        name="sigmoid_embedding",
        vop="MUL",
        rop="RSUM",
        sop="SIGMOID",
        mop="MUL",
        aop="ASUM",
        description="VERSE / Force2Vec sigmoid graph embedding: "
        "z_u = Σ_v σ(x_u·y_v) y_v  (Table III row 2, Fig. 1b)",
    )
)

register_pattern(
    OpPattern(
        name="sigmoid_residual",
        vop="MUL",
        rop="RSUM",
        sop="SIGMOID",
        mop="RESIDUAL",
        aop="ASUM",
        description="Force2Vec / VERSE gradient with edge labels a_uv: "
        "z_u = Σ_v (σ(x_u·y_v) − a_uv) y_v",
    )
)

register_pattern(
    OpPattern(
        name="fr_layout",
        vop="SUB",
        rop="NORM",
        sop="TDIST",
        mop="MULDIFF",
        aop="ASUM",
        description="Force-directed (FR) layout attractive forces: "
        "z_u = Σ_v f(||x_u - x_v||) (x_u - x_v)  (Table III row 1, Fig. 1a)",
    )
)

register_pattern(
    OpPattern(
        name="gcn",
        vop="SEL2ND",
        rop="NOOP",
        sop="NOOP",
        mop="EDGESCALE",
        aop="ASUM",
        description="Graph convolution aggregation: z_u = Σ_v a_uv y_v "
        "(Table III row 3, Fig. 1c)",
    )
)

register_pattern(
    OpPattern(
        name="spmm",
        vop="SEL2ND",
        rop="NOOP",
        sop="NOOP",
        mop="EDGESCALE",
        aop="ASUM",
        description="SpMM specialisation of FusedMM (same ops as GCN), used in "
        "the MKL comparison of Table VII",
    )
)

register_pattern(
    OpPattern(
        name="gnn_mlp",
        vop="NOOP",  # replaced with a user MLP operator at call time
        rop="NOOP",
        sop="SIGMOID",
        mop="MUL",
        aop="AMAX",
        description="GNN with MLP edge messages and max pooling "
        "(Table III row 4, Fig. 1d); the VOP slot takes a user MLP operator",
    )
)

register_pattern(
    OpPattern(
        name="sddmm_dot",
        vop="MUL",
        rop="RSUM",
        sop="NOOP",
        mop="SEL1ST",
        aop="ASUM",
        description="Pure dot-product SDDMM followed by a scalar sum per row; "
        "exercises the scalar-message path on its own",
    )
)
