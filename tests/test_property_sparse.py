"""Property-based tests (hypothesis) for the sparse-matrix substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _helpers import select_rows_by_loop
from repro.core.partition import part1d, partition_balance
from repro.sparse import COOMatrix, CSRMatrix

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")


@st.composite
def coo_matrices(draw, max_dim=24, max_nnz=80):
    """Random COO matrices, duplicates and empty matrices included."""
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    nnz = draw(st.integers(min_value=0, max_value=max_nnz))
    rows = draw(
        st.lists(st.integers(min_value=0, max_value=nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(min_value=0, max_value=ncols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False, width=32),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return COOMatrix(
        nrows,
        ncols,
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.float32),
    )


@given(coo_matrices())
def test_csr_roundtrip_preserves_dense_form(coo):
    csr = CSRMatrix.from_coo(coo)
    assert np.allclose(csr.to_dense(), coo.to_dense(), atol=1e-4)
    # COO -> CSR -> COO -> CSR is a fixed point.
    again = CSRMatrix.from_coo(csr.to_coo())
    assert again == csr


@given(coo_matrices())
def test_csr_structure_invariants(coo):
    csr = CSRMatrix.from_coo(coo)
    assert csr.indptr[0] == 0
    assert csr.indptr[-1] == csr.nnz
    assert np.all(np.diff(csr.indptr) >= 0)
    assert csr.has_sorted_indices()
    assert csr.nnz <= coo.nnz  # duplicates can only shrink
    assert np.array_equal(csr.row_degrees(), np.diff(csr.indptr))


@given(coo_matrices())
def test_transpose_involution(coo):
    csr = CSRMatrix.from_coo(coo)
    assert csr.transpose().transpose() == csr


@given(coo_matrices(), st.integers(min_value=1, max_value=64))
def test_spmm_matches_dense(coo, d):
    csr = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((csr.ncols, min(d, 8))).astype(np.float32)
    assert np.allclose(csr.spmm(Y), csr.to_dense() @ Y, atol=1e-3)


@given(coo_matrices())
def test_row_slice_concatenation_recovers_matrix(coo):
    csr = CSRMatrix.from_coo(coo)
    mid = csr.nrows // 2
    top = csr.row_slice(0, mid)
    bottom = csr.row_slice(mid, csr.nrows)
    stacked = np.vstack([top.to_dense(), bottom.to_dense()]) if csr.nrows else csr.to_dense()
    assert np.allclose(stacked, csr.to_dense(), atol=1e-5)


@given(coo_matrices(), st.data(), st.sampled_from([np.float32, np.float64]))
def test_select_rows_matches_row_by_row_reference(coo, data, dtype):
    base = CSRMatrix.from_coo(coo)
    csr = CSRMatrix(
        base.nrows, base.ncols, base.indptr, base.indices, base.data.astype(dtype)
    )
    # Repeated rows, zero-degree rows and the empty selection all occur.
    row_ids = st.integers(min_value=0, max_value=csr.nrows - 1)
    rows = data.draw(st.lists(row_ids, max_size=2 * csr.nrows))
    sub = csr.select_rows(rows)
    ref = select_rows_by_loop(csr, rows)
    assert sub.shape == (len(rows), csr.ncols)
    assert sub.indptr.dtype == np.int64 and sub.indices.dtype == np.int64
    assert sub.data.dtype == dtype
    assert np.array_equal(sub.indptr, ref.indptr)
    assert np.array_equal(sub.indices, ref.indices)
    assert np.array_equal(sub.data, ref.data)


@given(coo_matrices())
def test_deduplicate_sum_preserves_total(coo):
    dedup = coo.deduplicate(op="sum")
    assert dedup.to_dense().sum() == pytest.approx(coo.to_dense().sum(), abs=1e-3)
    # No duplicate coordinates remain.
    keys = dedup.rows * dedup.ncols + dedup.cols
    assert len(np.unique(keys)) == dedup.nnz


@given(coo_matrices())
def test_symmetrize_produces_symmetric_matrix(coo):
    n = max(coo.nrows, coo.ncols)
    sym = coo.symmetrize()
    dense = sym.to_dense()
    assert dense.shape == (n, n)
    assert np.allclose(dense, dense.T, atol=1e-5)


@given(coo_matrices(), st.integers(min_value=1, max_value=12))
def test_part1d_cover_and_conservation(coo, num_parts):
    csr = CSRMatrix.from_coo(coo)
    parts = part1d(csr, num_parts)
    assert len(parts) == num_parts
    assert parts[0].start == 0 and parts[-1].stop == csr.nrows
    for prev, cur in zip(parts, parts[1:]):
        assert prev.stop == cur.start
    assert sum(p.nnz for p in parts) == csr.nnz
    assert partition_balance(parts) >= 1.0 or csr.nnz == 0
