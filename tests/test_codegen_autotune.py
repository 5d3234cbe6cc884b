"""Unit tests for the kernel code generator and the autotuner."""

import numpy as np
import pytest

from repro.core.autotune import (
    DEFAULT_BLOCK_CANDIDATES,
    autotune,
    clear_tuning_cache,
    tuning_cache_info,
)
from repro.core.codegen import (
    clear_kernel_cache,
    compile_kernel,
    generate_kernel_source,
    kernel_cache_info,
    supports_pattern,
)
from repro.core.operators import make_mlp_vop
from repro.core.patterns import get_pattern
from repro.core.generic import fusedmm_generic
from repro.errors import CodegenError
from repro.graphs.features import xavier_init
from repro.sparse import random_csr
from _helpers import make_xy


# ------------------------------------------------------------------ #
# Code generation
# ------------------------------------------------------------------ #
def test_supports_all_builtin_standard_patterns():
    for name in ["sigmoid_embedding", "fr_layout", "gcn", "spmm", "sddmm_dot"]:
        assert supports_pattern(get_pattern(name).resolved()), name


def test_does_not_support_user_operators():
    mlp = make_mlp_vop(xavier_init(8, 4, seed=0))
    pattern = get_pattern("gnn_mlp", vop=mlp).resolved()
    assert not supports_pattern(pattern)
    with pytest.raises(CodegenError):
        generate_kernel_source(pattern)


def test_generated_source_mentions_ops():
    source = generate_kernel_source(get_pattern("sigmoid_embedding").resolved())
    assert "einsum" in source  # fused dot product
    assert "sigmoid(" in source  # shared clipped sigmoid from core.mathops
    # The emitted source is the block body: the inlined SOP and MOP steps.
    assert "H = sigmoid(S)" in source
    assert "M = H[:, None] * Yd" in source
    assert "def _generated_block_kernel" in source


def test_generated_source_fr_uses_difference():
    source = generate_kernel_source(get_pattern("fr_layout").resolved())
    # Each gather is read once, so it is inlined into the difference.
    assert "W = np.take(X, src, axis=0) - np.take(Y, dst, axis=0)" in source
    assert "H[:, None] * W" in source  # MULDIFF consumes the VOP output


def test_compile_kernel_caches():
    clear_kernel_cache()
    assert kernel_cache_info()["cached_kernels"] == 0
    k1 = compile_kernel(get_pattern("gcn").resolved())
    k2 = compile_kernel(get_pattern("gcn").resolved())
    assert k1 is k2
    assert kernel_cache_info()["cached_kernels"] == 1


def test_compiled_kernel_exposes_source():
    kernel = compile_kernel(get_pattern("sigmoid_embedding").resolved())
    assert hasattr(kernel, "source")
    assert "VOP = MUL" in kernel.source


def test_generated_kernel_correct_small():
    A = random_csr(50, 50, density=0.1, seed=1)
    X, Y = make_xy(A, 12, seed=0)
    for name in ["sigmoid_embedding", "fr_layout", "gcn"]:
        kernel = compile_kernel(get_pattern(name).resolved())
        ref = fusedmm_generic(A, X, Y, pattern=name)
        assert np.allclose(kernel(A, X, Y, block_size=17), ref, atol=1e-3), name


def test_generated_kernel_amax_pattern():
    pattern = get_pattern(None, vop="SEL2ND", mop="EDGESCALE", aop="AMAX").resolved()
    assert supports_pattern(pattern)
    A = random_csr(30, 30, density=0.1, seed=2)
    X, Y = make_xy(A, 6, seed=1)
    kernel = compile_kernel(pattern)
    ref = fusedmm_generic(A, X, Y, pattern=get_pattern(None, vop="SEL2ND", mop="EDGESCALE", aop="AMAX"))
    assert np.allclose(kernel(A, X, Y), ref, atol=1e-4)


# ------------------------------------------------------------------ #
# Autotuning
# ------------------------------------------------------------------ #
def test_autotune_returns_valid_config(small_square_csr):
    clear_tuning_cache()
    X, Y = make_xy(small_square_csr, 8, seed=0)
    result = autotune(small_square_csr, X, Y, pattern="sigmoid_embedding", repeats=1)
    assert result.strategy in ("row", "edge")
    assert result.block_size > 0
    assert result.best_time > 0
    assert len(result.trials) >= 1 + len(DEFAULT_BLOCK_CANDIDATES)


def test_autotune_caches_results(small_square_csr):
    clear_tuning_cache()
    X, Y = make_xy(small_square_csr, 8, seed=0)
    r1 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1)
    before = tuning_cache_info()["cached_results"]
    r2 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1)
    assert r1 is r2
    assert tuning_cache_info()["cached_results"] == before


def test_autotune_cache_can_be_bypassed(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    r1 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1, use_cache=False)
    r2 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1, use_cache=False)
    assert r1 is not r2


def test_autotune_single_strategy(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    result = autotune(
        small_square_csr, X, Y, pattern="gcn", strategies=("edge",), block_candidates=(64, 256), repeats=1, use_cache=False
    )
    assert result.strategy == "edge"
    assert result.block_size in (64, 256)


def test_autotune_unknown_strategy(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    with pytest.raises(ValueError):
        autotune(small_square_csr, X, Y, strategies=("magic",), repeats=1, use_cache=False)


def test_autotune_result_as_dict(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    result = autotune(small_square_csr, X, Y, pattern="spmm", repeats=1, use_cache=False)
    d = result.as_dict()
    assert set(d) == {"strategy", "block_size", "best_time", "num_trials"}
