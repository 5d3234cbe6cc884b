"""Unit tests for the DGL-style, dense and vendor baselines."""

import numpy as np
import pytest

from repro.baselines import (
    InspectorExecutorSpMM,
    SDDMMResult,
    dense_fusedmm,
    dense_sigmoid_embedding,
    dense_spmm,
    gspmm,
    needs_vector_messages,
    sddmm,
    unfused_fusedmm,
    unfused_memory_bytes,
    vendor_spmm,
)
from repro.core import fusedmm, get_pattern
from repro.errors import BackendError
from repro.sparse import random_csr
from _helpers import make_xy


def _fused_spmm(A, Y):
    return fusedmm(A, None, Y, pattern="spmm", backend="generated")


@pytest.fixture(scope="module")
def problem():
    A = random_csr(70, 70, density=0.08, seed=21)
    X, Y = make_xy(A, 12, seed=2)
    return A, X, Y


# ------------------------------------------------------------------ #
# SDDMM
# ------------------------------------------------------------------ #
def test_sddmm_scalar_messages_match_dot_products(problem):
    A, X, Y = problem
    result = sddmm(A, X, Y, pattern="sigmoid_embedding")
    assert result.is_scalar
    assert result.messages.shape == (A.nnz,)
    # Messages must equal sigmoid(x_u . y_v) for every edge.
    rows = np.repeat(np.arange(A.nrows), A.row_degrees())
    scores = np.einsum("ij,ij->i", X[rows], Y[A.indices])
    assert np.allclose(result.messages, 1.0 / (1.0 + np.exp(-scores)), atol=1e-4)


def test_sddmm_vector_messages_for_fr(problem):
    A, X, Y = problem
    result = sddmm(A, X, Y, pattern="fr_layout", include_mop=True)
    assert not result.is_scalar
    assert result.messages.shape == (A.nnz, X.shape[1])
    assert result.message_dim == X.shape[1]


def test_sddmm_memory_accounting(problem):
    A, X, Y = problem
    scalar = sddmm(A, X, Y, pattern="sigmoid_embedding")
    vector = sddmm(A, X, Y, pattern="fr_layout", include_mop=True)
    assert vector.memory_bytes() == scalar.memory_bytes() * X.shape[1]


def test_sddmm_result_to_csr(problem):
    A, X, Y = problem
    scalar = sddmm(A, X, Y, pattern="sigmoid_embedding")
    H = scalar.to_csr()
    assert H.shape == A.shape
    assert H.nnz == A.nnz
    vector = sddmm(A, X, Y, pattern="fr_layout", include_mop=True)
    with pytest.raises(ValueError):
        vector.to_csr()


def test_sddmm_block_size_invariance(problem):
    A, X, Y = problem
    a = sddmm(A, X, Y, pattern="sigmoid_embedding", block_size=7).messages
    b = sddmm(A, X, Y, pattern="sigmoid_embedding", block_size=10**6).messages
    assert np.allclose(a, b, atol=1e-5)


# ------------------------------------------------------------------ #
# gSpMM
# ------------------------------------------------------------------ #
def test_gspmm_requires_matching_y(problem):
    A, X, Y = problem
    H = sddmm(A, X, Y, pattern="sigmoid_embedding")
    with pytest.raises(ValueError):
        gspmm(H, Y[:10], pattern="sigmoid_embedding")


def test_gspmm_with_precomputed_edge_weights(problem):
    A, X, Y = problem
    H = SDDMMResult(A=A, messages=A.data.copy())
    Z = gspmm(H, Y, pattern=get_pattern(None, vop="NOOP", mop="MUL", aop="ASUM"))
    assert np.allclose(Z, _fused_spmm(A, Y), atol=1e-4)


# ------------------------------------------------------------------ #
# Unfused pipeline
# ------------------------------------------------------------------ #
def test_unfused_matches_fused_all_patterns(problem):
    A, X, Y = problem
    for pattern in ["sigmoid_embedding", "fr_layout", "gcn", "sddmm_dot"]:
        fused = fusedmm(A, X, Y, pattern=pattern)
        unfused = unfused_fusedmm(A, X, Y, pattern=pattern)
        assert np.allclose(fused, unfused, atol=1e-3), pattern


def test_unfused_details_report_intermediate(problem):
    A, X, Y = problem
    scalar = unfused_fusedmm(A, X, Y, pattern="sigmoid_embedding", return_details=True)
    vector = unfused_fusedmm(A, X, Y, pattern="fr_layout", return_details=True)
    assert scalar.message_dim == 1
    assert vector.message_dim == X.shape[1]
    assert vector.intermediate_bytes > scalar.intermediate_bytes


def test_needs_vector_messages_classification():
    assert needs_vector_messages(get_pattern("fr_layout").resolved())
    assert not needs_vector_messages(get_pattern("sigmoid_embedding").resolved())
    assert not needs_vector_messages(get_pattern("gcn").resolved())


def test_unfused_memory_model_grows_with_d(problem):
    A, _, _ = problem
    m16 = unfused_memory_bytes(A, 16, pattern="fr_layout")
    m128 = unfused_memory_bytes(A, 128, pattern="fr_layout")
    assert m128 > m16
    # Scalar-message patterns grow only through the dense operands.
    s16 = unfused_memory_bytes(A, 16, pattern="sigmoid_embedding")
    s128 = unfused_memory_bytes(A, 128, pattern="sigmoid_embedding")
    assert (m128 - m16) > (s128 - s16)


# ------------------------------------------------------------------ #
# Dense baseline
# ------------------------------------------------------------------ #
def test_dense_sigmoid_embedding_matches_fused(problem):
    A, X, Y = problem
    assert np.allclose(
        dense_sigmoid_embedding(A, X, Y),
        fusedmm(A, X, Y, pattern="sigmoid_embedding"),
        atol=1e-3,
    )


def test_dense_spmm_matches_reference(problem):
    A, X, Y = problem
    assert np.allclose(dense_spmm(A, Y), A.spmm(Y), atol=1e-4)


def test_dense_fusedmm_dispatch(problem):
    A, X, Y = problem
    assert np.allclose(
        dense_fusedmm(A, X, Y, pattern="gcn"), fusedmm(A, X, Y, pattern="gcn"), atol=1e-3
    )
    # Unknown-to-dense patterns fall back to the generic reference.
    assert np.allclose(
        dense_fusedmm(A, X, Y, pattern="sddmm_dot"),
        fusedmm(A, X, Y, pattern="sddmm_dot"),
        atol=1e-3,
    )


def test_dense_size_guard():
    A = random_csr(200, 200, density=0.01, seed=0)
    X, Y = make_xy(A, 4, seed=0)
    with pytest.raises(BackendError):
        dense_sigmoid_embedding(A, X, Y, max_dense_elements=100)


# ------------------------------------------------------------------ #
# Vendor (MKL-like) SpMM
# ------------------------------------------------------------------ #
def test_vendor_spmm_matches_fused_spmm(problem):
    A, X, Y = problem
    assert np.allclose(vendor_spmm(A, Y), _fused_spmm(A, Y), atol=1e-4)


def test_inspector_executor(problem):
    A, X, Y = problem
    handle = InspectorExecutorSpMM(A)
    assert handle.inspection_bytes > 0
    assert np.allclose(handle(Y), vendor_spmm(A, Y), atol=1e-6)
    with pytest.raises(ValueError):
        handle(Y[:3])


def test_vendor_spmm_shape_check(problem):
    A, X, Y = problem
    with pytest.raises(ValueError):
        vendor_spmm(A, Y[: A.ncols - 1])
