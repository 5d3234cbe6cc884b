"""Vendor-optimised SpMM baseline (the paper's Intel MKL comparison).

Table VII compares the SpMM specialisation of FusedMM against MKL's
``mkl_sparse_s_mm``.  MKL is not available in this environment; the closest
vendor-optimised SpMM we can call is SciPy's compiled CSR matrix product
(``csr_matrix @ dense``), which — like MKL — is a hand-tuned C
implementation behind a generic sparse API, and therefore plays the same
role in the comparison: "how close does the general-purpose fused kernel
come to a dedicated compiled SpMM?".

The MKL inspector/executor split is mirrored by the optional
:class:`InspectorExecutorSpMM`, which performs one-time structure analysis
(conversion + column sorting, analogous to ``mkl_sparse_optimize``) and then
amortises it across repeated executions.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix, as_csr

__all__ = ["vendor_spmm", "InspectorExecutorSpMM"]


def vendor_spmm(A, Y: np.ndarray) -> np.ndarray:
    """One-shot vendor SpMM: ``Z = A @ Y`` through SciPy's compiled kernel."""
    A = as_csr(A)
    Y = np.ascontiguousarray(Y)
    if Y.ndim != 2 or Y.shape[0] != A.ncols:
        raise ValueError(f"Y must have shape ({A.ncols}, d), got {Y.shape}")
    return np.asarray(A.to_scipy() @ Y)


class InspectorExecutorSpMM:
    """MKL-style two-phase SpMM: inspect once, execute many times.

    Example
    -------
    >>> import numpy as np
    >>> from repro.sparse import random_csr
    >>> from repro.baselines import InspectorExecutorSpMM
    >>> A = random_csr(100, 100, density=0.05, seed=0)
    >>> spmm = InspectorExecutorSpMM(A)          # inspection phase
    >>> Y = np.random.default_rng(0).standard_normal((100, 16)).astype(np.float32)
    >>> Z = spmm(Y)                              # execution phase
    >>> Z.shape
    (100, 16)
    """

    def __init__(self, A) -> None:
        self.A: CSRMatrix = as_csr(A)
        # Inspection: build the compiled-library representation once and
        # pre-sort indices (what mkl_sparse_optimize would do).
        self._handle = self.A.to_scipy()
        self._handle.sort_indices()

    @property
    def inspection_bytes(self) -> int:
        """Memory held by the inspected representation."""
        return int(
            self._handle.data.nbytes
            + self._handle.indices.nbytes
            + self._handle.indptr.nbytes
        )

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        """Execute ``Z = A @ Y`` with the inspected handle."""
        Y = np.ascontiguousarray(Y)
        if Y.ndim != 2 or Y.shape[0] != self.A.ncols:
            raise ValueError(f"Y must have shape ({self.A.ncols}, d), got {Y.shape}")
        return np.asarray(self._handle @ Y)
