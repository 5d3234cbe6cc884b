"""Core FusedMM kernel package — the paper's primary contribution.

Layout
------
``operators``    five-step operator abstraction + Table II registry
``patterns``     Table III application patterns
``generic``      Algorithm 1 reference kernel
``optimized``    vectorized row-/edge-blocked kernels (FusedMMopt)
``jit``          Numba-compiled row-fused kernels (optional extra)
``mathops``      shared scalar math (clipped sigmoid)
``codegen``      the pattern-kernel generator (every Table III row)
``autotune``     strategy / block-size autotuner
``partition``    PART1D nnz-balanced 1-D partitioning
``parallel``     thread-parallel partition driver
``fused``        public ``fusedmm()`` / ``FusedMM`` and the one backend resolver
"""

from .autotune import TuningResult, autotune
from .codegen import compile_kernel, generate_kernel_source, supports_pattern
from .fused import BACKENDS, FusedMM, fusedmm
from .generic import fusedmm_generic
from .jit import fusedmm_jit, jit_available, jit_supports_pattern
from .mathops import SIGMOID_CLAMP, sigmoid, sigmoid_scalar
from .operators import Operator, OpKind, get_op, list_ops, make_mlp_vop, make_scal, register_op
from .optimized import (
    DEFAULT_BLOCK_SIZE,
    fusedmm_edgeblocked,
    fusedmm_optimized,
    fusedmm_rowblocked,
)
from .parallel import ParallelConfig, available_threads, run_partitioned
from .partition import RowPartition, part1d, partition_balance
from .patterns import OpPattern, get_pattern, list_patterns, register_pattern

__all__ = [
    "fusedmm",
    "FusedMM",
    "BACKENDS",
    "fusedmm_generic",
    "fusedmm_jit",
    "jit_available",
    "jit_supports_pattern",
    "SIGMOID_CLAMP",
    "sigmoid",
    "sigmoid_scalar",
    "fusedmm_optimized",
    "fusedmm_rowblocked",
    "fusedmm_edgeblocked",
    "DEFAULT_BLOCK_SIZE",
    "Operator",
    "OpKind",
    "get_op",
    "list_ops",
    "register_op",
    "make_scal",
    "make_mlp_vop",
    "OpPattern",
    "get_pattern",
    "list_patterns",
    "register_pattern",
    "compile_kernel",
    "generate_kernel_source",
    "supports_pattern",
    "autotune",
    "TuningResult",
    "part1d",
    "partition_balance",
    "RowPartition",
    "ParallelConfig",
    "run_partitioned",
    "available_threads",
]
