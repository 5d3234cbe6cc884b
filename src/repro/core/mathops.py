"""Shared scalar math used by every kernel backend.

The clipped, numerically stable sigmoid was historically defined twice —
once in :mod:`repro.core.operators` (the registry's SIGMOID) and once in a
hand-fused sigmoid-embedding kernel — which let the clamp bounds drift
between backends.  It now lives here, in
both an array form (NumPy backends, codegen templates) and a scalar form
written in plain ``math`` so the Numba JIT kernels compile the exact same
clamp-and-branch arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SIGMOID_CLAMP", "sigmoid", "sigmoid_scalar"]

#: Inputs are clamped to ``[-SIGMOID_CLAMP, SIGMOID_CLAMP]`` before the
#: exponential: ``exp(±60)`` is already far beyond float32 precision of the
#: sigmoid (1 ∓ ~1e-26) while staying comfortably inside float64 range.
SIGMOID_CLAMP = 60.0


def sigmoid(x):
    """Numerically stable clipped sigmoid for scalars and arrays.

    Uses the two-branch formulation (``1/(1+e^-x)`` for ``x >= 0``,
    ``e^x/(1+e^x)`` otherwise) so neither branch ever exponentiates a
    large positive number.  ``exp(-|x|)`` serves both branches, so this
    is a single exponential per element — it sits on the hottest SOP
    path of the sigmoid-embedding kernels.
    """
    clipped = np.clip(x, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    e = np.exp(-np.abs(clipped))
    return np.where(np.asarray(x) >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_scalar(x: float) -> float:
    """Scalar twin of :func:`sigmoid` built on ``math.exp`` only.

    Kept free of NumPy so Numba compiles it to the same branch-and-clamp
    sequence the array form evaluates — the JIT and NumPy backends agree
    on the clamp bounds by construction.
    """
    if x >= 0.0:
        if x > SIGMOID_CLAMP:
            x = SIGMOID_CLAMP
        return 1.0 / (1.0 + math.exp(-x))
    if x < -SIGMOID_CLAMP:
        x = -SIGMOID_CLAMP
    e = math.exp(x)
    return e / (1.0 + e)
