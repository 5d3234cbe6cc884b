"""Unit tests for the pattern-specialized kernels (the code generator's,
``backend="generated"``) and the edge-block driver's details (blocking
internals)."""

import numpy as np
import pytest

from repro.core.codegen import compile_kernel
from repro.core.fused import fusedmm
from repro.core.optimized import DEFAULT_BLOCK_SIZE, _edge_block_ranges
from repro.core.patterns import get_pattern
from repro.sparse import random_bipartite, random_csr
from _helpers import make_xy


@pytest.fixture(scope="module")
def square():
    A = random_csr(90, 90, density=0.06, seed=5)
    X, Y = make_xy(A, 20, seed=9)
    return A, X, Y


# ------------------------------------------------------------------ #
# Pattern-specialized kernels
# ------------------------------------------------------------------ #
def _generated(A, X, Y, pattern, **kwargs):
    return fusedmm(A, X, Y, pattern=pattern, backend="generated", **kwargs)


def test_sigmoid_embedding_kernel_matches_formula(square):
    A, X, Y = square
    Z = _generated(A, X, Y, "sigmoid_embedding")
    dense = A.to_dense() != 0
    scores = X @ Y.T
    expected = ((1.0 / (1.0 + np.exp(-scores))) * dense) @ Y
    assert np.allclose(Z, expected, atol=1e-3)


def test_spmm_kernel_matches_matmul(square):
    A, X, Y = square
    assert np.allclose(_generated(A, None, Y, "spmm"), A.to_dense() @ Y, atol=1e-3)


def test_spmm_kernel_rejects_bad_shape(square):
    A, _, Y = square
    with pytest.raises(ValueError):
        _generated(A, None, Y[:-1], "spmm")


def test_gcn_kernel_equals_spmm(square):
    A, X, Y = square
    assert np.allclose(
        _generated(A, X, Y, "gcn"), _generated(A, None, Y, "spmm"), atol=1e-5
    )


def test_fr_layout_kernel_formula(square):
    A, X, Y = square
    Z = _generated(A, X, Y, "fr_layout")
    # Check one nonzero row against the direct formula.
    u = int(np.argmax(A.row_degrees()))
    cols, _ = A.row(u)
    diff = X[u] - Y[cols]
    dist2 = np.sum(diff**2, axis=1)
    expected = ((1.0 / (1.0 + dist2))[:, None] * diff).sum(axis=0)
    assert np.allclose(Z[u], expected, atol=1e-3)


def test_specialized_kernels_on_rectangular_slice():
    A = random_bipartite(25, 70, avg_degree=5, seed=3)
    X, Y = make_xy(A, 12, seed=4)
    assert _generated(A, X, Y, "sigmoid_embedding").shape == (25, 12)
    assert _generated(A, None, Y, "spmm").shape == (25, 12)
    assert _generated(A, X, Y, "fr_layout").shape == (25, 12)


def test_specialized_kernels_thread_invariance(square):
    A, X, Y = square
    assert np.allclose(
        _generated(A, X, Y, "sigmoid_embedding", num_threads=1),
        _generated(A, X, Y, "sigmoid_embedding", num_threads=3),
        atol=1e-6,
    )


# ------------------------------------------------------------------ #
# Optimized kernel internals
# ------------------------------------------------------------------ #
def test_edge_block_ranges_cover_exactly():
    ranges = list(_edge_block_ranges(3, 20, 6))
    assert ranges[0][0] == 3 and ranges[-1][1] == 20
    covered = sum(stop - start for start, stop in ranges)
    assert covered == 17
    assert all(stop - start <= 6 for start, stop in ranges)
    assert list(_edge_block_ranges(5, 5, 4)) == []


def test_edgeblocked_rejects_bad_block_size(square):
    A, X, Y = square
    kernel = compile_kernel(get_pattern("sigmoid_embedding").resolved())
    with pytest.raises(ValueError):
        kernel(A, X, Y, block_size=0)


def test_default_block_size_reasonable():
    assert 1024 <= DEFAULT_BLOCK_SIZE <= 1_000_000
