#!/usr/bin/env python
"""Defining your own FusedMM operators and patterns (paper Section III).

FusedMM's five steps (VOP, ROP, SOP, MOP, AOP) accept user-defined
functions.  This example builds two custom message-passing schemes that are
not shipped as built-ins:

1. **Gaussian-kernel aggregation** — messages weighted by
   ``exp(-||x_u - y_v||^2 / (2 sigma^2))``, a common similarity kernel:
   a new operator given as a per-edge function plus one NumPy expression,
   which the code generator inlines into the kernel ``auto`` picks.
2. **MLP-message GNN layer with max pooling** (Table III row 4) — the
   built-in ``gnn_mlp`` pattern with a user MLP in the VOP slot.

Both are validated against a straightforward dense NumPy computation.

Run with:  python examples/custom_operators.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import fusedmm
from repro.core import (
    OpPattern,
    Operator,
    get_pattern,
    make_mlp_vop,
    register_op,
    register_pattern,
)
from repro.core.fused import resolve_backend
from repro.core.operators import OpKind
from repro.graphs import load_dataset, random_features, xavier_init


def build_gaussian_pattern(sigma: float = 1.0) -> OpPattern:
    """Register the operators of the Gaussian-similarity aggregation and
    return its pattern:  z_u = sum_v exp(-||x_u-y_v||^2 / 2s^2) * y_v."""

    s2 = 2 * sigma * sigma
    gauss = Operator(
        name="GAUSS_SOP",
        kinds=(OpKind.SOP,),
        # The reference kernel's per-edge form ...
        edge_fn=lambda s, *rest: np.exp(-np.square(s) / s2),
        # ... and the block form: S holds the ROP output of a block of edges.
        expr=f"np.exp(-np.square(S) / {s2!r})",
    )
    register_op(gauss, overwrite=True)

    pattern = OpPattern(
        name="gaussian_aggregation",
        vop="SUB",        # x_u - y_v
        rop="NORM",       # ||x_u - y_v||
        sop="GAUSS_SOP",  # exp(-dist^2 / 2s^2)
        mop="MUL",        # scale y_v by the similarity
        aop="ASUM",
        description="Gaussian-kernel weighted neighbour aggregation",
    )
    register_pattern(pattern, overwrite=True)
    return pattern


def dense_gaussian_reference(A_dense, X, Y, sigma=1.0):
    """Straightforward dense computation of the Gaussian aggregation."""
    diff = X[:, None, :] - Y[None, :, :]
    dist2 = np.sum(diff**2, axis=2)
    weights = np.exp(-dist2 / (2 * sigma * sigma)) * (A_dense != 0)
    return weights @ Y


def main() -> None:
    graph = load_dataset("cora", scale=0.2)
    d = 16
    X = random_features(graph.num_vertices, d, seed=0)

    # --- 1. Gaussian-kernel aggregation ------------------------------- #
    pattern = build_gaussian_pattern(sigma=1.0)
    Z_auto = fusedmm(graph.adjacency, X, pattern=pattern, backend="auto")
    Z_gen = fusedmm(graph.adjacency, X, pattern=pattern, backend="generic")
    Z_ref = dense_gaussian_reference(graph.adjacency.to_dense(), X, X, sigma=1.0)
    print("Gaussian aggregation")
    print(f"  auto runs the kind       : {resolve_backend(pattern, 'auto')[0]}")
    print(f"  auto vs generic max diff : {np.abs(Z_auto - Z_gen).max():.2e}")
    print(f"  auto vs dense reference  : {np.abs(Z_auto - Z_ref).max():.2e}")

    # --- 2. MLP-message GNN with max pooling --------------------------- #
    W1 = xavier_init(2 * d, 32, seed=1)
    W2 = xavier_init(32, d, seed=2)
    mlp = make_mlp_vop(W1, W2, name="EXAMPLE_MLP")
    mlp_pattern = get_pattern("gnn_mlp", vop=mlp)
    Z_mlp = fusedmm(graph.adjacency, X, pattern=mlp_pattern, backend="auto")
    print()
    print("MLP-message GNN layer (gnn_mlp pattern with a user VOP)")
    print(f"  auto runs the kind: {resolve_backend(mlp_pattern, 'auto')[0]}")
    print(f"  output shape: {Z_mlp.shape}, finite: {bool(np.isfinite(Z_mlp).all())}")
    print(
        "  note: the generated kernel calls the MLP's batch_fn in its VOP step; "
        "operators with an expression are inlined."
    )


if __name__ == "__main__":
    main()
