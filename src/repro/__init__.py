"""FusedMM reproduction — a unified SDDMM–SpMM kernel for graph embedding
and graph neural networks.

This package reproduces *FusedMM: A Unified SDDMM-SpMM Kernel for Graph
Embedding and Graph Neural Networks* (Rahman, Sujon, Azad — IPDPS 2021) as a
pure-Python/NumPy library:

* :mod:`repro.core` — the FusedMM kernel: five-step operator abstraction,
  reference / vectorized / generated / jit backends, 1-D
  partitioning and thread parallelism, autotuning.
* :mod:`repro.sparse` — CSR/COO sparse-matrix substrate.
* :mod:`repro.graphs` — graph generators, the Table V dataset registry,
  feature initialisers.
* :mod:`repro.baselines` — the unfused (DGL-style), dense (PyTorch-style)
  and vendor-SpMM (MKL-style) comparators.
* :mod:`repro.apps` — Force2Vec/VERSE embedding, FR layout, GCN, MLP-GNN,
  node-classification evaluation.
* :mod:`repro.perf` — roofline/arithmetic-intensity model, memory model,
  machine profiles, scaling harness.
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart
----------
>>> import numpy as np
>>> from repro import fusedmm
>>> from repro.graphs import load_dataset, random_features
>>> g = load_dataset("cora")
>>> X = random_features(g.num_vertices, 64, seed=0)
>>> Z = fusedmm(g.adjacency, X, pattern="sigmoid_embedding")
>>> Z.shape
(2708, 64)
"""

from .core import (
    BACKENDS,
    FusedMM,
    OpPattern,
    Operator,
    fusedmm,
    fusedmm_generic,
    fusedmm_optimized,
    get_op,
    get_pattern,
    list_ops,
    list_patterns,
    register_op,
    register_pattern,
)
from .resilience import (
    Fault,
    FaultInjector,
    FaultPlan,
    HealthTracker,
    RetryPolicy,
    retry_call,
)
from .runtime import EpochStream, KernelRequest, KernelRuntime
from .sparse import COOMatrix, CSRMatrix, as_csr
from .version import __version__

__all__ = [
    "__version__",
    "fusedmm",
    "FusedMM",
    "BACKENDS",
    "fusedmm_generic",
    "fusedmm_optimized",
    "OpPattern",
    "Operator",
    "get_op",
    "list_ops",
    "register_op",
    "get_pattern",
    "list_patterns",
    "register_pattern",
    "CSRMatrix",
    "COOMatrix",
    "as_csr",
    "KernelRuntime",
    "KernelRequest",
    "EpochStream",
    "RetryPolicy",
    "retry_call",
    "HealthTracker",
    "FaultPlan",
    "Fault",
    "FaultInjector",
]
