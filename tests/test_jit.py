"""Tests for the JIT backend tier and the shared out=/row_offset= surface.

Without numba installed the jit kernels run interpreted (the ``njit``
shim), so every semantic test here exercises the exact code the compiler
would compile; CI runs the same suite with the ``jit`` extra installed to
cover the compiled tier.
"""

import importlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BACKENDS, fusedmm
from repro.core.generic import fusedmm_generic
from repro.core.jit import (
    fusedmm_jit,
    get_jit_kernel,
    jit_available,
    jit_supports_pattern,
    warmup,
)
from repro.core.patterns import get_pattern
from repro.errors import BackendError, ShapeError
from repro.runtime import KernelRuntime
from repro.sparse import COOMatrix, CSRMatrix, random_csr
from _helpers import make_xy

settings.register_profile("repro-jit", deadline=None, max_examples=25)
settings.load_profile("repro-jit")

ATOL = 2e-3

JIT_PATTERNS = ["sigmoid_embedding", "fr_layout", "gcn", "spmm", "sddmm_dot"]


@pytest.fixture(scope="module")
def problem():
    A = random_csr(80, 80, density=0.06, seed=21)
    X, Y = make_xy(A, 12, seed=2)
    return A, X, Y


# ---------------------------------------------------------------------- #
# Dispatch-table coverage
# ---------------------------------------------------------------------- #
def test_backends_include_jit():
    assert "jit" in BACKENDS


@pytest.mark.parametrize("pattern", JIT_PATTERNS + ["gnn_mlp"])
def test_builtin_patterns_supported(pattern):
    assert jit_supports_pattern(get_pattern(pattern).resolved())


def test_user_operator_pattern_unsupported(problem):
    from repro.core import make_mlp_vop
    from repro.graphs.features import xavier_init

    A, X, Y = problem
    mlp = make_mlp_vop(xavier_init(24, 12, seed=0))
    resolved = get_pattern("gnn_mlp", vop=mlp).resolved()
    assert not jit_supports_pattern(resolved)
    with pytest.raises(BackendError):
        get_jit_kernel(resolved)
    with pytest.raises(BackendError):
        fusedmm(A, X, Y, pattern="gnn_mlp", vop=mlp, backend="jit")
    # auto still resolves (falls through to optimized/generic)
    Z = fusedmm(A, X, Y, pattern="gnn_mlp", vop=mlp, backend="auto")
    assert Z.shape == X.shape


def test_scal_sop_supported(problem):
    from repro.core import make_scal

    A, X, Y = problem
    scal = make_scal(2.5)
    resolved = get_pattern("sigmoid_embedding", sop=scal).resolved()
    assert jit_supports_pattern(resolved)
    ref = fusedmm_generic(A, X, Y, pattern="sigmoid_embedding", sop=scal)
    Z = fusedmm_jit(A, X, Y, pattern="sigmoid_embedding", sop=scal)
    assert np.allclose(Z, ref, atol=ATOL)


# ---------------------------------------------------------------------- #
# Property test: jit ≡ generic for every registered pattern
# ---------------------------------------------------------------------- #
@st.composite
def problems(draw, max_rows=14, max_cols=14, max_d=6):
    nrows = draw(st.integers(min_value=1, max_value=max_rows))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    d = draw(st.integers(min_value=1, max_value=max_d))
    nnz = draw(st.integers(min_value=0, max_value=nrows * ncols))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, size=nnz)
    cols = rng.integers(0, ncols, size=nnz)
    vals = rng.uniform(0.1, 2.0, size=nnz).astype(np.float32)
    A = CSRMatrix.from_coo(COOMatrix(nrows, ncols, rows, cols, vals))
    X = rng.standard_normal((nrows, d))
    Y = rng.standard_normal((ncols, d))
    return A, X, Y


@given(
    problems(),
    st.sampled_from(JIT_PATTERNS),
    st.sampled_from([np.float32, np.float64]),
    st.booleans(),
    st.data(),
)
def test_jit_matches_generic(problem, pattern, dtype, use_out, data):
    A, X, Y = problem
    X = X.astype(dtype)
    Y = Y.astype(dtype)
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    if use_out:
        # Any window of the output rows, written at any row offset.
        w0 = data.draw(st.integers(min_value=0, max_value=A.nrows - 1), label="w0")
        w1 = data.draw(st.integers(min_value=w0 + 1, max_value=A.nrows), label="w1")
        out = np.full((w1 - w0, X.shape[1]), np.nan, dtype=dtype)
        result = fusedmm_jit(A, X, Y, pattern=pattern, out=out, row_offset=w0)
        assert result is out
        assert np.allclose(out, ref[w0:w1], atol=ATOL)
    else:
        Z = fusedmm_jit(A, X, Y, pattern=pattern)
        assert Z.dtype == ref.dtype
        assert np.allclose(Z, ref, atol=ATOL)


@given(problems(), st.sampled_from(JIT_PATTERNS))
def test_out_slab_matches_plain_call_for_every_backend(problem, pattern):
    A, X, Y = problem
    for backend in BACKENDS:
        try:
            ref = fusedmm(A, X, Y, pattern=pattern, backend=backend)
        except BackendError:
            continue  # a backend without this pattern
        out = np.full_like(ref, np.nan)
        result = fusedmm(A, X, Y, pattern=pattern, backend=backend, out=out)
        assert result is out
        assert np.array_equal(out, ref), backend


# ---------------------------------------------------------------------- #
# out=/row_offset= validation and windowed writes
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_windowed_out_writes_only_the_window(problem, backend):
    A, X, Y = problem
    ref = fusedmm(A, X, Y, pattern="sigmoid_embedding", backend=backend)
    out = np.full((30, X.shape[1]), np.nan, dtype=X.dtype)
    fusedmm(
        A, X, Y, pattern="sigmoid_embedding", backend=backend, out=out, row_offset=25
    )
    assert np.array_equal(out, ref[25:55])


def test_out_validation_errors(problem):
    A, X, Y = problem
    with pytest.raises(ShapeError):
        fusedmm(A, X, Y, row_offset=3)  # row_offset without out
    with pytest.raises(ShapeError):
        fusedmm(A, X, Y, out=np.zeros((10, X.shape[1] + 1), dtype=np.float32))
    with pytest.raises(ShapeError):
        # window overruns the result rows
        fusedmm(
            A,
            X,
            Y,
            out=np.zeros((30, X.shape[1]), dtype=np.float32),
            row_offset=A.nrows - 10,
        )


def test_float64_out_is_used_without_scratch(problem):
    A, X, Y = problem
    out = np.zeros((A.nrows, X.shape[1]), dtype=np.float64)
    result = fusedmm(
        A,
        X.astype(np.float64),
        Y.astype(np.float64),
        pattern="gcn",
        backend="optimized",
        out=out,
    )
    assert result is out
    ref = fusedmm(
        A,
        X.astype(np.float64),
        Y.astype(np.float64),
        pattern="gcn",
        backend="optimized",
    )
    assert np.array_equal(out, ref)


# ---------------------------------------------------------------------- #
# Plan/runtime integration
# ---------------------------------------------------------------------- #
def test_plan_kind_jit_and_spmm_without_x(problem):
    A, X, Y = problem
    rt = KernelRuntime(num_threads=1)
    plan = rt.plan(A, pattern="gcn", backend="jit")
    assert plan.kind == "jit"
    assert plan.supports_parts
    ref = fusedmm(A, X, Y, pattern="gcn", backend="jit")
    assert np.array_equal(plan.execute(A, X, Y), ref)
    # X=None takes the spmm path of the jit kernel
    assert np.array_equal(plan.execute(A, None, Y), ref)


def test_plan_execute_out_matches(problem):
    A, X, Y = problem
    rt = KernelRuntime(num_threads=1)
    for backend in ("jit", "optimized", "generated"):
        plan = rt.plan(A, pattern="sigmoid_embedding", backend=backend)
        ref = plan.execute(A, X, Y)
        out = np.full_like(ref, np.nan)
        plan.execute(A, X, Y, out=out)
        assert np.array_equal(out, ref), backend


@pytest.mark.parametrize("backend", ["jit", "optimized", "generated"])
def test_sharded_jit_bitwise_identical(backend):
    A = random_csr(300, 300, density=0.04, seed=9)
    X, _ = make_xy(A, 8, seed=3)
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", backend=backend)
    for shards in (1, 2):
        rt = KernelRuntime(num_threads=1, processes=shards)
        try:
            Z = rt.run_sharded(A, X, pattern="sigmoid_embedding", backend=backend)
            assert np.array_equal(Z, ref), (backend, shards)
        finally:
            rt.close()


def test_autotune_accepts_jit_strategy(problem):
    from repro.core.autotune import autotune

    A, X, Y = problem
    result = autotune(
        A,
        X,
        Y,
        pattern="sigmoid_embedding",
        strategies=("row", "jit"),
        repeats=1,
        use_cache=False,
    )
    assert ("jit", 0) in result.trials
    assert result.strategy in ("row", "jit")


def test_warmup_without_numba_is_a_noop():
    if jit_available():  # pragma: no cover - exercised in the jit CI leg
        assert warmup() > 0
    else:
        assert warmup() == 0


# ---------------------------------------------------------------------- #
# Fallback behaviour without numba
# ---------------------------------------------------------------------- #
def test_auto_falls_back_when_numba_unavailable(problem, monkeypatch):
    import repro.core.jit as jitmod
    from repro.core.fused import resolve_backend

    A, X, Y = problem
    monkeypatch.setattr(jitmod, "NUMBA_AVAILABLE", False)
    assert jitmod.jit_available() is False
    resolved = get_pattern("sigmoid_embedding").resolved()
    kind, kernel = resolve_backend(resolved.name, "auto")
    assert kind == "generated"
    # auto fusedmm works and matches the reference
    ref = fusedmm_generic(A, X, Y, pattern="sigmoid_embedding")
    assert np.allclose(fusedmm(A, X, Y, backend="auto"), ref, atol=ATOL)
    # explicit jit still computes (interpreted) — the surface never vanishes
    assert np.allclose(fusedmm(A, X, Y, backend="jit"), ref, atol=ATOL)
    # and explicit jit plans still resolve
    kind, kernel = resolve_backend(resolved.name, "jit")
    assert kind == "jit"


def test_jit_module_imports_cleanly_without_numba(problem):
    """Reload repro.core.jit with the numba import blocked: the module must
    import, report unavailability, and still compute correct results."""
    import repro.core.jit as jitmod

    A, X, Y = problem
    ref = fusedmm_generic(A, X, Y, pattern="sigmoid_embedding")
    saved = {
        name: sys.modules[name]
        for name in list(sys.modules)
        if name.split(".")[0] == "numba"
    }
    try:
        for name in saved:
            del sys.modules[name]
        sys.modules["numba"] = None  # import numba → ImportError
        importlib.reload(jitmod)
        assert jitmod.jit_available() is False
        assert np.allclose(
            jitmod.fusedmm_jit(A, X, Y, pattern="sigmoid_embedding"), ref, atol=ATOL
        )
    finally:
        del sys.modules["numba"]
        sys.modules.update(saved)
        importlib.reload(jitmod)


# ---------------------------------------------------------------------- #
# App plumbing
# ---------------------------------------------------------------------- #
def test_app_configs_take_kernel_backend():
    from repro.apps import Force2Vec, Force2VecConfig
    from repro.apps.fr_layout import FRLayoutConfig
    from repro.apps.gcn import GCNConfig
    from repro.apps.verse import VerseConfig
    from repro.graphs import load_dataset

    for cls in (Force2VecConfig, FRLayoutConfig, GCNConfig, VerseConfig):
        cfg = cls(kernel_backend="jit")
        assert cfg.kernel_backend == "jit"
        with pytest.raises(BackendError):
            cls(kernel_backend="cuda")

    g = load_dataset("cora", scale=0.05)
    model = Force2Vec(
        g, Force2VecConfig(dim=8, epochs=1, batch_size=64, kernel_backend="jit")
    )
    emb = model.train()
    assert emb.shape == (g.num_vertices, 8)
    assert np.isfinite(emb).all()
