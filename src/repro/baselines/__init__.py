"""Baselines FusedMM is compared against.

* :mod:`~repro.baselines.sddmm` / :mod:`~repro.baselines.spmm` /
  :mod:`~repro.baselines.unfused` — the DGL-style unfused pipeline that
  materialises the intermediate edge-message matrix H.
* :mod:`~repro.baselines.dense` — the PyTorch-style dense-tensor baseline
  used in the end-to-end comparison (Table VIII).
* :mod:`~repro.baselines.mkl_like` — the vendor-optimised SpMM comparison
  (Table VII), backed by SciPy's compiled CSR matmul.
"""

from .dense import dense_fusedmm, dense_sigmoid_embedding, dense_spmm
from .mkl_like import InspectorExecutorSpMM, vendor_spmm
from .sddmm import SDDMMResult, sddmm
from .spmm import gspmm
from .unfused import (
    UnfusedResult,
    needs_vector_messages,
    unfused_fusedmm,
    unfused_memory_bytes,
)

__all__ = [
    "sddmm",
    "SDDMMResult",
    "gspmm",
    "unfused_fusedmm",
    "UnfusedResult",
    "unfused_memory_bytes",
    "needs_vector_messages",
    "dense_fusedmm",
    "dense_sigmoid_embedding",
    "dense_spmm",
    "vendor_spmm",
    "InspectorExecutorSpMM",
]
