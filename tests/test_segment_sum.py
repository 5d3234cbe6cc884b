"""The edge-block driver's summation order, checked bitwise.

Each row's sum starts from zero and adds the row's messages left to right
in CSR edge order, in the message dtype, across block boundaries: no
block size enters.  The references below are that sentence written as
plain Python loops; every comparison is ``np.array_equal``.  The sums run in SciPy's
compiled ``csr_matvecs`` loop, which the driver loads without importing
``scipy.sparse``.
"""

import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import unfused_fusedmm
from repro.core import fusedmm, get_op, optimized
from repro.core.optimized import run_edge_blocks, segment_sum
from repro.errors import ShapeError
from repro.experiments.ablations import all_calls_pattern
from repro.sparse import CSRMatrix

SETTINGS = settings(deadline=None, max_examples=40)
DTYPES = st.sampled_from([np.float32, np.float64])
WIDTHS = st.sampled_from([1, 2, 3, 5, 16, 128])
#: Mostly short segments, some far past 32 edges (a Zipf-like tail).
LENGTHS = st.lists(
    st.one_of(st.integers(1, 12), st.integers(1, 12), st.integers(33, 400)),
    min_size=1,
    max_size=10,
)


def _left_to_right(messages, dtype, d):
    acc = np.zeros(d, dtype)
    for m in messages:
        acc = acc + m
    return acc


@SETTINGS
@given(lengths=LENGTHS, d=WIDTHS, dtype=DTYPES, seed=st.integers(0, 2**31 - 1))
def test_segment_sum_adds_each_segment_left_to_right(lengths, d, dtype, seed):
    rng = np.random.default_rng(seed)
    seg_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    M = rng.standard_normal((int(seg_ptr[-1]), d)).astype(dtype)
    got = segment_sum(seg_ptr, M)
    assert got.dtype == dtype
    for i in range(len(lengths)):
        ref = _left_to_right(M[seg_ptr[i] : seg_ptr[i + 1]], dtype, d)
        assert np.array_equal(got[i], ref)


@SETTINGS
@given(
    lengths=LENGTHS,
    d=WIDTHS,
    coef_dtype=DTYPES,
    dtype=DTYPES,
    gathered=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_scaled_segment_sum_is_the_product_summed_left_to_right(
    lengths, d, coef_dtype, dtype, gathered, seed
):
    # The scale is applied as the sum reads each row: the same bits as the
    # NumPy product in the promoted dtype, then summed left to right.
    rng = np.random.default_rng(seed)
    seg_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    k = int(seg_ptr[-1])
    coef = rng.standard_normal(k).astype(coef_dtype)
    Y = rng.standard_normal((7, d)).astype(dtype)
    cols = rng.integers(0, 7, k)
    messages = coef[:, None] * Y[cols]
    if gathered:
        got = segment_sum(seg_ptr, Y, coef, cols)
    else:
        got = segment_sum(seg_ptr, Y[cols], coef[:, None])
    assert got.dtype == messages.dtype
    for i in range(len(lengths)):
        ref = _left_to_right(messages[seg_ptr[i] : seg_ptr[i + 1]], messages.dtype, d)
        assert np.array_equal(got[i], ref)


def _random_csr(rng, nrows, ncols, max_degree, dtype):
    """Rows of degree 0..max_degree, so some are empty and some long."""
    degrees = rng.integers(0, max_degree + 1, nrows)
    degrees[rng.random(nrows) < 0.3] = 0
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    indices = rng.integers(0, ncols, int(indptr[-1])).astype(np.int64)
    data = rng.uniform(0.5, 2.0, int(indptr[-1])).astype(dtype)
    return CSRMatrix(nrows, ncols, indptr, indices, data, check=False)


def _driver_reference(A, messages, aop, d):
    """The driver's contract as plain loops: each row's messages, left to
    right in CSR edge order, in the message dtype; no block size enters."""
    Z = np.zeros((A.nrows, d), messages.dtype)
    for u in range(A.nrows):
        lo, hi = int(A.indptr[u]), int(A.indptr[u + 1])
        row = [messages[i] for i in range(lo, hi)]
        if aop == "ASUM":
            Z[u] = _left_to_right(row, messages.dtype, d)
        elif row:
            ufunc = {"AMAX": np.maximum, "AMIN": np.minimum}[aop]
            acc = row[0]
            for m in row[1:]:
                acc = ufunc(acc, m)
            Z[u] = acc
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
    ref = _driver_reference(A, messages, aop, d)
    assert Z.dtype == dtype
    assert np.array_equal(Z, ref)


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


# Both sizes split rows across blocks; 96 also leaves segments of more than
# 32 edges inside one block.
@pytest.mark.parametrize("block_size", [24, 96])
@pytest.mark.parametrize("kernel", ["optimized", "generated", "unfused"])
def test_spmm_kernels_sum_left_to_right(spmm_problem, kernel, block_size):
    A, X, Y = spmm_problem
    messages = A.data[:, None] * Y[A.indices]
    ref = _driver_reference(A, messages, "ASUM", Y.shape[1])
    Z = _spmm_kernels(block_size)[kernel](A, X, Y)
    assert np.array_equal(Z, ref)


def _zipf_csr(rng, nrows, ncols, dtype):
    """Rows whose degrees follow a Zipf-like tail: most short, a few of
    hundreds of edges, some empty."""
    degrees = np.minimum(rng.zipf(1.6, nrows), 300)
    degrees[rng.random(nrows) < 0.2] = 0
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    indices = rng.integers(0, ncols, int(indptr[-1])).astype(np.int64)
    data = rng.uniform(0.5, 2.0, int(indptr[-1])).astype(dtype)
    return CSRMatrix(nrows, ncols, indptr, indices, data, check=False)


@pytest.mark.parametrize("num_threads", [1, 2, 4])
@pytest.mark.parametrize("block_size", [37, 256])
@pytest.mark.parametrize("d", [16, 128])
@pytest.mark.parametrize("form", ["messages", "scaled", "gathered"])
def test_driver_sums_long_rows_left_to_right(form, d, block_size, num_threads):
    # Block sizes 37 and 256 cut the long rows across blocks; every body
    # form is summed against the same plain-loop reference.
    rng = np.random.default_rng(d + block_size)
    A = _zipf_csr(rng, 60, 25, np.float32)
    X = rng.standard_normal((60, d)).astype(np.float32)
    Y = rng.standard_normal((25, d)).astype(np.float32)
    edge_rows = np.repeat(np.arange(60), A.row_degrees())
    scale = A.data * np.einsum("ij,ij->i", X[edge_rows], Y[A.indices])
    messages = scale[:, None] * Y[A.indices]

    def body(X, Y, src, dst, vals, edges):
        coef = vals * np.einsum("ij,ij->i", X[src], Y[dst])
        if form == "messages":
            return coef[:, None] * Y[dst]
        return (coef, Y[dst]) if form == "scaled" else (coef, Y, dst)

    Z = run_edge_blocks(A, X, Y, body, block_size=block_size, num_threads=num_threads)
    ref = _driver_reference(A, messages, "ASUM", d)
    assert np.array_equal(Z, ref)


@pytest.mark.parametrize(
    "seg_ptr, M, cols",
    [
        ([0, 2, 5], np.ones((4, 3)), None),  # fewer message rows than edges
        ([0, 3, 2], np.ones((3, 3)), None),  # a segment ends before it starts
        ([0, 1, 2], np.ones((3, 3)), np.array([0, 3])),  # a column past M
        ([0, 1, 2], np.ones((3, 3)), np.array([-1, 0])),
        ([0, 1, 2], np.ones((3, 3)), np.array([0])),  # one column short
        ([0, 1, 2], np.ones((2, 3, 1)), None),
    ],
)
def test_segment_sum_rejects_what_the_compiled_loop_would_read_out_of_bounds(
    seg_ptr, M, cols
):
    with pytest.raises(ShapeError):
        segment_sum(np.array(seg_ptr), M, None, cols)


def test_a_summed_call_imports_neither_scipy_nor_scipy_sparse():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys, numpy as np\n"
        "from repro import fusedmm\n"
        "from repro.sparse import random_csr\n"
        "A = random_csr(64, 64, density=0.1, seed=0)\n"
        "X = np.ones((64, 8), np.float32)\n"
        "for pattern in ('sigmoid_embedding', 'spmm'):\n"
        "    fusedmm(A, X, X, pattern=pattern, backend='generated')\n"
        "loaded = [m for m in ('scipy', 'scipy.sparse') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_the_loader_falls_back_to_the_scipy_sparse_import(monkeypatch, tmp_path):
    # A SciPy whose package directory holds no extension file.
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    matvecs = optimized._load_sparsetools().csr_matvecs
    ptr, cols = np.array([0, 2, 3]), np.array([0, 1, 0])
    Y, out = np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros((2, 2))
    matvecs(2, 2, 2, ptr, cols, np.array([1.0, 2.0, 3.0]), Y, out)
    assert np.array_equal(out, [[7.0, 10.0], [3.0, 6.0]])
