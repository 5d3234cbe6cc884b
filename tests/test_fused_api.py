"""Unit tests for the public fusedmm() dispatcher and the FusedMM class."""

import numpy as np
import pytest

from repro import FusedMM, KernelRuntime, fusedmm
from repro.core import BACKENDS
from repro.errors import BackendError
from repro.sparse import random_csr
from _helpers import make_xy


@pytest.fixture(scope="module")
def problem():
    A = random_csr(100, 100, density=0.05, seed=8)
    X, Y = make_xy(A, 16, seed=1)
    return A, X, Y


def test_all_backends_listed():
    assert set(BACKENDS) == {
        "auto",
        "jit",
        "generic",
        "optimized",
        "generated",
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_runs_embedding(problem, backend):
    A, X, Y = problem
    Z = fusedmm(A, X, Y, pattern="sigmoid_embedding", backend=backend)
    assert Z.shape == X.shape
    assert np.isfinite(Z).all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_block_size_raises_on_every_backend(problem, backend):
    A, X, Y = problem
    with pytest.raises(ValueError, match="block_size"):
        fusedmm(A, X, Y, pattern="sigmoid_embedding", backend=backend, block_size=-4)
    kernel = FusedMM(A, pattern="sigmoid_embedding", backend=backend, block_size=-4)
    with pytest.raises(ValueError, match="block_size"):
        kernel(X, Y)


def test_unknown_backend_rejected(problem):
    A, X, Y = problem
    with pytest.raises(BackendError):
        fusedmm(A, X, Y, backend="cuda")


def test_generated_backend_requires_templates(problem):
    from repro.core import make_mlp_vop
    from repro.graphs.features import xavier_init

    A, X, Y = problem
    mlp = make_mlp_vop(xavier_init(32, 16, seed=0))
    with pytest.raises(BackendError):
        fusedmm(A, X, Y, pattern="gnn_mlp", vop=mlp, backend="generated")


def test_auto_falls_back_for_user_ops(problem):
    from repro.core import make_mlp_vop
    from repro.graphs.features import xavier_init

    A, X, Y = problem
    mlp = make_mlp_vop(xavier_init(32, 16, seed=0))
    Z = fusedmm(A, X, Y, pattern="gnn_mlp", vop=mlp, backend="auto")
    assert Z.shape == X.shape


def test_pattern_overrides_via_kwargs(problem):
    A, X, Y = problem
    Z_relu = fusedmm(A, X, Y, pattern="sigmoid_embedding", sop="RELU")
    Z_sig = fusedmm(A, X, Y, pattern="sigmoid_embedding")
    assert not np.allclose(Z_relu, Z_sig)


def test_accepts_scipy_and_dense_inputs(problem):
    A, X, Y = problem
    Z_csr = fusedmm(A, X, Y, pattern="gcn")
    Z_scipy = fusedmm(A.to_scipy(), X, Y, pattern="gcn")
    Z_dense = fusedmm(A.to_dense(), X, Y, pattern="gcn")
    assert np.allclose(Z_csr, Z_scipy, atol=1e-5)
    assert np.allclose(Z_csr, Z_dense, atol=1e-5)


def test_strategy_argument(problem):
    A, X, Y = problem
    Z_row = fusedmm(A, X, Y, pattern="gcn", backend="optimized", strategy="row")
    Z_edge = fusedmm(A, X, Y, pattern="gcn", backend="optimized", strategy="edge")
    assert np.allclose(Z_row, Z_edge, atol=1e-4)
    with pytest.raises(ValueError):
        fusedmm(A, X, Y, backend="optimized", strategy="diagonal")


# ------------------------------------------------------------------ #
# FusedMM planned-kernel class
# ------------------------------------------------------------------ #
def test_fusedmm_class_basic(problem):
    A, X, Y = problem
    kernel = FusedMM(A, pattern="sigmoid_embedding")
    Z = kernel(X, Y)
    assert np.allclose(Z, fusedmm(A, X, Y, pattern="sigmoid_embedding"), atol=1e-5)


def test_fusedmm_class_square_y_defaults(problem):
    A, X, _ = problem
    kernel = FusedMM(A, pattern="gcn")
    Z = kernel(X)
    assert Z.shape == X.shape


def test_fusedmm_class_describe(problem):
    A, X, Y = problem
    kernel = FusedMM(A, pattern="gcn", num_threads=2)
    info = kernel.describe()
    assert info["pattern"] == "gcn"
    assert info["num_threads"] == 2
    assert info["nnz"] == A.nnz
    assert info["partitions"] == 2


def test_fusedmm_class_autotune(problem):
    A, X, Y = problem
    kernel = FusedMM(A, pattern="sigmoid_embedding", autotune=True, autotune_dim=8)
    info = kernel.describe()
    assert "tuning" in info
    assert kernel.plan.strategy in ("row", "edge")
    Z = kernel(X, Y)
    assert np.allclose(Z, fusedmm(A, X, Y, pattern="sigmoid_embedding"), atol=1e-4)


def test_fusedmm_class_unknown_backend(problem):
    A, _, _ = problem
    with pytest.raises(BackendError):
        FusedMM(A, backend="gpu")


def test_fusedmm_class_repr(problem):
    A, _, _ = problem
    assert "FusedMM" in repr(FusedMM(A))


@pytest.mark.parametrize("backend", BACKENDS)
def test_missing_x_on_every_backend(problem, backend):
    """Spmm-like patterns never read X: ``X=None`` is bitwise the same call
    with an explicit X; any other pattern needs X on every backend."""
    A, X, Y = problem
    with KernelRuntime(num_threads=1) as rt:
        for pattern in ("gcn", "spmm"):
            ref = fusedmm(A, X, Y, pattern=pattern, backend=backend)
            Z = fusedmm(A, None, Y, pattern=pattern, backend=backend)
            assert np.array_equal(Z, ref)
            Z = rt.run(A, None, Y, pattern=pattern, backend=backend)
            assert np.array_equal(Z, ref)
        for pattern in ("sigmoid_embedding", "fr_layout"):
            with pytest.raises(BackendError):
                fusedmm(A, None, Y, pattern=pattern, backend=backend)
            with pytest.raises(BackendError):
                rt.run(A, None, Y, pattern=pattern, backend=backend)


def test_autotune_demotes_jit_like_the_runtime(problem, monkeypatch):
    """With numba reported importable, a sweep that measures a NumPy
    strategy fastest demotes auto's jit preference for FusedMM exactly as
    for a runtime plan (the jit kernels run interpreted here)."""
    import repro.core.jit as jitmod
    from repro.core.autotune import clear_tuning_cache

    A, X, Y = problem
    monkeypatch.setattr(jitmod, "jit_available", lambda: True)
    clear_tuning_cache()
    try:
        kernel = FusedMM(A, pattern="sigmoid_embedding", autotune=True, autotune_dim=8)
        with KernelRuntime(num_threads=1, autotune_dim=8) as rt:
            plan = rt.plan(A, pattern="sigmoid_embedding", autotune=True)
        assert "jit" in {s for s, _ in kernel.plan.tuning.trials}
        assert kernel.plan.kind == plan.kind
        assert kernel.plan.strategy == plan.strategy
        assert kernel.plan.block_size == plan.block_size
        if kernel.plan.tuning.strategy != "jit":
            assert kernel.plan.kind == "generated"
            assert kernel.plan.strategy == kernel.plan.tuning.strategy
        assert np.array_equal(kernel(X, Y), plan.execute(A, X, Y, num_threads=1))
    finally:
        clear_tuning_cache()
