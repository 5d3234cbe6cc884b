"""The ``sigmoid_residual`` pattern, ``z_u = Σ_v (σ(x_u·y_v) − a_uv) y_v``:
the Force2Vec/VERSE minibatch gradient as one FusedMM call."""

import numpy as np
import pytest

from repro.baselines import unfused_fusedmm
from repro.core import (
    compile_kernel,
    fusedmm,
    fusedmm_edgeblocked,
    fusedmm_generic,
    fusedmm_rowblocked,
    get_pattern,
)
from repro.core.patterns import OpPattern
from repro.core.fused import resolve_backend
from repro.core.jit import fusedmm_jit, jit_available
from repro.sparse import CSRMatrix
from _helpers import make_xy

BACKENDS = ["generic", "optimized", "generated", "jit", "auto"]


def _labelled(A: CSRMatrix, labels: np.ndarray) -> CSRMatrix:
    return CSRMatrix(A.nrows, A.ncols, A.indptr, A.indices, labels, check=False)


@pytest.fixture(scope="module")
def problem():
    """Rows of mixed length (some empty), labels 1 on half the edges, 0
    on the rest (the negatives) and a similarity weight on a few."""
    rng = np.random.default_rng(7)
    degrees = rng.integers(0, 40, 90)
    degrees[rng.random(90) < 0.2] = 0
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    indices = rng.integers(0, 90, int(indptr[-1])).astype(np.int64)
    labels = (rng.random(indices.size) < 0.5).astype(np.float32)
    labels[rng.random(indices.size) < 0.2] = rng.uniform(0.05, 0.9)
    A = CSRMatrix(90, 90, indptr, indices, labels, check=False)
    X, Y = make_xy(A, 24, seed=3)
    return A, X, Y


def test_pattern_is_its_own_kind():
    resolved = get_pattern("sigmoid_residual").resolved()
    assert resolved.op_names()["mop"] == "RESIDUAL" and resolved.message_is_scalar
    # Its MOP is not MUL, so it must never resolve to the plain σ kernel.
    assert not resolved.is_sigmoid_embedding


@pytest.mark.parametrize("backend", BACKENDS)
def test_resolves_on_every_backend(backend):
    kind, kernel = resolve_backend("sigmoid_residual", backend)
    assert callable(kernel)
    if backend == "auto":
        assert kind == ("jit" if jit_available() else "generated")
    else:
        assert kind == backend


def test_every_backend_is_allclose_to_generic(problem):
    A, X, Y = problem
    ref = fusedmm_generic(A, X, Y, pattern="sigmoid_residual")
    # The gradient formula, written densely.
    rows = np.repeat(np.arange(A.nrows), A.row_degrees())
    scores = np.einsum("ij,ij->i", X[rows].astype(np.float64), Y[A.indices])
    dense = np.zeros(X.shape)
    residual = 1 / (1 + np.exp(-scores)) - A.data
    np.add.at(dense, rows, residual[:, None] * Y[A.indices])
    assert np.allclose(ref, dense, atol=1e-5)
    resolved = get_pattern("sigmoid_residual").resolved()
    outs = {
        "optimized-row": fusedmm_rowblocked(A, X, Y, pattern="sigmoid_residual"),
        "optimized-edge": fusedmm_edgeblocked(
            A, X, Y, pattern="sigmoid_residual", block_size=64
        ),
        "generated": compile_kernel(resolved)(A, X, Y, block_size=64),
        "jit": fusedmm_jit(A, X, Y, pattern="sigmoid_residual"),
        "unfused": unfused_fusedmm(A, X, Y, pattern="sigmoid_residual", block_size=64),
    }
    for name, out in outs.items():
        assert out.dtype == np.float32, name
        assert np.allclose(out, ref, rtol=1e-5, atol=1e-5), name


@pytest.mark.parametrize("block_size", [7, 64, 8192])
def test_zero_labels_are_bitwise_sigmoid_embedding(problem, block_size):
    """``a_uv = 0`` leaves ``(σ − 0)·y = σ·y``: every edge-blocked backend
    then reproduces its own ``sigmoid_embedding`` bit for bit."""
    A, X, Y = problem
    A0 = _labelled(A, np.zeros(A.nnz, np.float32))
    emb = get_pattern("sigmoid_embedding").resolved()
    res = get_pattern("sigmoid_residual").resolved()
    pairs = {
        "optimized-edge": (
            fusedmm_edgeblocked(A0, X, Y, pattern=emb.name, block_size=block_size),
            fusedmm_edgeblocked(A0, X, Y, pattern=res.name, block_size=block_size),
        ),
        "generated": (
            compile_kernel(emb)(A0, X, Y, block_size=block_size),
            compile_kernel(res)(A0, X, Y, block_size=block_size),
        ),
        "unfused": (
            unfused_fusedmm(A0, X, Y, pattern=emb.name, block_size=block_size),
            unfused_fusedmm(A0, X, Y, pattern=res.name, block_size=block_size),
        ),
    }
    for name, (expected, got) in pairs.items():
        assert np.array_equal(got, expected), name


@pytest.mark.parametrize("backend", BACKENDS)
def test_windowed_output_matches_the_plain_call(problem, backend):
    A, X, Y = problem
    full = fusedmm(A, X, Y, pattern="sigmoid_residual", backend=backend)
    out = np.zeros((30, X.shape[1]), np.float32)
    fusedmm(A, X, Y, pattern="sigmoid_residual", backend=backend, out=out, row_offset=40)
    assert np.array_equal(out, full[40:70])


def test_vector_messages_subtract_the_label_from_every_element(problem):
    """RESIDUAL after a non-reducing ROP: ``(σ(x_u ⊙ y_v) − a_uv) ⊙ y_v``."""
    A, X, Y = problem
    pattern = OpPattern(name="residual_vec", vop="MUL", sop="SIGMOID", mop="RESIDUAL")
    rows = np.repeat(np.arange(A.nrows), A.row_degrees())
    W = X[rows].astype(np.float64) * Y[A.indices]
    dense = np.zeros(X.shape)
    np.add.at(dense, rows, (1 / (1 + np.exp(-W)) - A.data[:, None]) * Y[A.indices])
    assert np.allclose(fusedmm_generic(A, X, Y, pattern=pattern), dense, atol=1e-5)
    for backend in ["optimized", "generated", "jit"]:
        out = fusedmm(A, X, Y, pattern=pattern, backend=backend)
        assert np.allclose(out, dense, atol=1e-5), backend
