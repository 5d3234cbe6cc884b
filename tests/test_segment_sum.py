"""The edge-block driver's summation order, checked bitwise.

Within each edge block, a row's partial sum accumulates left to right in
CSR edge order, in the message dtype, and is then added into the float64
``Z``.  The references below are that sentence written as plain Python
loops; every comparison is ``np.array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import unfused_fusedmm
from repro.core import fusedmm, get_op
from repro.core.optimized import run_edge_blocks, segment_order, segment_sum
from repro.experiments.ablations import all_calls_pattern
from repro.sparse import CSRMatrix

SETTINGS = settings(deadline=None, max_examples=40)
DTYPES = st.sampled_from([np.float32, np.float64])


def _left_to_right(messages, dtype, d):
    acc = np.zeros(d, dtype)
    for m in messages:
        acc = acc + m
    return acc


@SETTINGS
@given(
    lengths=st.lists(st.integers(1, 80), min_size=1, max_size=12),
    d=st.integers(1, 5),
    dtype=DTYPES,
    seed=st.integers(0, 2**31 - 1),
)
def test_segment_sum_adds_each_segment_left_to_right(lengths, d, dtype, seed):
    # Lengths up to 80 cover both the short-segment position loop and the
    # one-reduction path for long segments.
    rng = np.random.default_rng(seed)
    seg_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    M = rng.standard_normal((int(seg_ptr[-1]), d)).astype(dtype)
    perm, _ = segment_order(seg_ptr)
    assert np.array_equal(np.sort(perm), np.arange(len(M)))
    got = segment_sum(seg_ptr, M)
    assert got.dtype == dtype
    for i in range(len(lengths)):
        ref = _left_to_right(M[seg_ptr[i] : seg_ptr[i + 1]], dtype, d)
        assert np.array_equal(got[i], ref)


def _random_csr(rng, nrows, ncols, max_degree, dtype):
    """Rows of degree 0..max_degree, so some are empty and some long."""
    degrees = rng.integers(0, max_degree + 1, nrows)
    degrees[rng.random(nrows) < 0.3] = 0
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    indices = rng.integers(0, ncols, int(indptr[-1])).astype(np.int64)
    data = rng.uniform(0.5, 2.0, int(indptr[-1])).astype(dtype)
    return CSRMatrix(nrows, ncols, indptr, indices, data, check=False)


def _driver_reference(A, messages, block_size, aop, d):
    """The driver's contract as loops over the absolute edge grid."""
    Z = np.zeros((A.nrows, d), np.float64)
    if aop != "ASUM":
        ufunc = {"AMAX": np.maximum, "AMIN": np.minimum}[aop]
        Z[:] = -np.inf if aop == "AMAX" else np.inf
    for u in range(A.nrows):
        lo, hi = int(A.indptr[u]), int(A.indptr[u + 1])
        e = lo
        while e < hi:
            stop = min((e // block_size + 1) * block_size, hi)
            block = [messages[i] for i in range(e, stop)]
            if aop == "ASUM":
                Z[u] += _left_to_right(block, messages.dtype, d)
            else:
                for m in block:
                    Z[u] = ufunc(Z[u], m)
            e = stop
        if hi == lo:
            Z[u] = 0.0
    return Z


@SETTINGS
@given(
    nrows=st.integers(1, 12),
    d=st.integers(1, 4),
    dtype=DTYPES,
    scaled=st.booleans(),
    aop=st.sampled_from(["ASUM", "AMAX", "AMIN"]),
    block_size=st.integers(1, 48),
    num_threads=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_driver_sums_each_block_left_to_right(
    nrows, d, dtype, scaled, aop, block_size, num_threads, seed
):
    # block_size 1 gives single-edge blocks; small sizes split rows across
    # block boundaries; max degree 70 reaches the long-segment path.
    rng = np.random.default_rng(seed)
    A = _random_csr(rng, nrows, 9, 70, dtype)
    X = rng.standard_normal((nrows, d)).astype(dtype)
    Y = rng.standard_normal((9, d)).astype(dtype)
    edge_rows = np.repeat(np.arange(nrows), A.row_degrees())
    # Scaled rows of Y (SpMM), or a message that depends on the edge, its
    # row and its column.
    if scaled:
        messages = A.data[:, None] * Y[A.indices]
    else:
        messages = A.data[:, None] * X[edge_rows] * Y[A.indices]

    def body(X, Y, src, dst, vals, edges):
        assert np.array_equal(src, edge_rows[edges])
        return vals[:, None] * Y[dst] if scaled else vals[:, None] * X[src] * Y[dst]

    Z = run_edge_blocks(
        A, X, Y, body, aop=None if aop == "ASUM" else get_op(aop),
        block_size=block_size, num_threads=num_threads,
    )
    ref = _driver_reference(A, messages, block_size, aop, d)
    assert Z.dtype == dtype
    assert np.array_equal(Z, ref.astype(dtype))


@pytest.fixture(scope="module")
def spmm_problem():
    rng = np.random.default_rng(11)
    A = _random_csr(rng, 40, 30, 90, np.float32)
    Y = rng.standard_normal((30, 8)).astype(np.float32)
    X = rng.standard_normal((40, 8)).astype(np.float32)
    return A, X, Y


def _spmm_kernels(block_size):
    """spmm on every edge-blocked kernel (``vals[e] * Y[dst]`` messages
    are exact to reproduce); ``optimized`` is the all-calls form."""
    common = dict(backend="generated", block_size=block_size)
    calls = all_calls_pattern("spmm")
    return {
        "optimized": lambda A, X, Y: fusedmm(A, X, Y, pattern=calls, **common),
        "generated": lambda A, X, Y: fusedmm(A, X, Y, pattern="spmm", **common),
        "unfused": lambda A, X, Y: unfused_fusedmm(
            A, X, Y, pattern="spmm", block_size=block_size
        ),
    }


# Both sizes split rows across blocks; 96 also leaves segments longer than
# the 32-edge short-segment limit inside one block.
@pytest.mark.parametrize("block_size", [24, 96])
@pytest.mark.parametrize("kernel", ["optimized", "generated", "unfused"])
def test_spmm_kernels_sum_left_to_right(spmm_problem, kernel, block_size):
    A, X, Y = spmm_problem
    messages = A.data[:, None] * Y[A.indices]
    ref = _driver_reference(A, messages, block_size, "ASUM", Y.shape[1])
    Z = _spmm_kernels(block_size)[kernel](A, X, Y)
    assert np.array_equal(Z, ref.astype(np.float32))
