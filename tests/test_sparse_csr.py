"""Unit tests for the CSR matrix substrate."""

import numpy as np
import pytest

from repro.errors import ShapeError, SparseFormatError
from repro.sparse import COOMatrix, CSRMatrix, random_csr


def test_shape_nnz_dtype(tiny_csr):
    assert tiny_csr.shape == (4, 5)
    assert tiny_csr.nnz == 5
    assert np.issubdtype(tiny_csr.dtype, np.floating)


def test_from_dense_roundtrip(tiny_csr):
    dense = tiny_csr.to_dense()
    again = CSRMatrix.from_dense(dense)
    assert again == tiny_csr


def test_from_dense_rejects_1d():
    with pytest.raises(ShapeError):
        CSRMatrix.from_dense(np.ones(4))


def test_invalid_indptr_length():
    with pytest.raises(SparseFormatError):
        CSRMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))


def test_indptr_must_start_at_zero():
    with pytest.raises(SparseFormatError):
        CSRMatrix(1, 2, np.array([1, 2]), np.array([0]), np.array([1.0]))


def test_indptr_must_be_monotone():
    with pytest.raises(SparseFormatError):
        CSRMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))


def test_column_index_out_of_range():
    with pytest.raises(SparseFormatError):
        CSRMatrix(1, 2, np.array([0, 1]), np.array([5]), np.array([1.0]))


def test_indices_length_mismatch():
    with pytest.raises(SparseFormatError):
        CSRMatrix(1, 3, np.array([0, 2]), np.array([0]), np.array([1.0]))


def test_from_coo_sums_duplicates():
    coo = COOMatrix(2, 2, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 4.0]))
    csr = CSRMatrix.from_coo(coo)
    assert csr.nnz == 1
    assert csr.to_dense()[0, 1] == pytest.approx(5.0)


def test_from_coo_sorts_columns():
    coo = COOMatrix(1, 5, np.array([0, 0, 0]), np.array([4, 0, 2]), np.array([1.0, 2.0, 3.0]))
    csr = CSRMatrix.from_coo(coo)
    assert list(csr.indices) == [0, 2, 4]
    assert csr.has_sorted_indices()


def test_identity():
    eye = CSRMatrix.identity(4)
    assert np.allclose(eye.to_dense(), np.eye(4))


def test_empty():
    empty = CSRMatrix.empty(3, 6)
    assert empty.nnz == 0
    assert empty.to_dense().sum() == 0


def test_row_access(tiny_csr):
    cols, vals = tiny_csr.row(0)
    assert list(cols) == [1, 3]
    assert list(vals) == pytest.approx([1.0, 2.0])
    cols1, vals1 = tiny_csr.row(1)
    assert cols1.size == 0 and vals1.size == 0


def test_row_access_out_of_range(tiny_csr):
    with pytest.raises(IndexError):
        tiny_csr.row(10)


def test_row_degrees_avg_max(tiny_csr):
    assert list(tiny_csr.row_degrees()) == [2, 0, 2, 1]
    assert tiny_csr.avg_degree() == pytest.approx(5 / 4)
    assert tiny_csr.max_degree() == 2


def test_memory_bytes_formula(tiny_csr):
    expected = 12 * tiny_csr.nnz + 8 * (tiny_csr.nrows + 1)
    assert tiny_csr.memory_bytes() == expected


def test_row_slice(tiny_csr):
    sub = tiny_csr.row_slice(1, 3)
    assert sub.shape == (2, 5)
    assert np.allclose(sub.to_dense(), tiny_csr.to_dense()[1:3])


def test_row_slice_invalid(tiny_csr):
    with pytest.raises(IndexError):
        tiny_csr.row_slice(3, 1)
    with pytest.raises(IndexError):
        tiny_csr.row_slice(0, 99)


def test_select_rows_reorders(tiny_csr):
    sub = tiny_csr.select_rows([3, 0])
    dense = tiny_csr.to_dense()
    assert np.allclose(sub.to_dense(), dense[[3, 0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_select_rows_repeats_zero_degree_rows_and_empty(dtype):
    # row 1 is empty; rows are picked twice and out of order
    A = CSRMatrix(
        3,
        4,
        np.array([0, 2, 2, 5]),
        np.array([0, 3, 1, 2, 3]),
        np.arange(1, 6, dtype=dtype),
    )
    sub = A.select_rows([2, 1, 0, 2, 1])
    assert np.array_equal(sub.indptr, [0, 3, 3, 5, 8, 8])
    assert np.array_equal(sub.indices, [1, 2, 3, 0, 3, 1, 2, 3])
    assert np.array_equal(sub.data, np.array([3, 4, 5, 1, 2, 3, 4, 5], dtype=dtype))
    assert sub.data.dtype == dtype and sub.indices.dtype == np.int64
    empty = A.select_rows([])
    assert empty.shape == (0, 4) and empty.nnz == 0
    assert np.array_equal(empty.indptr, [0]) and empty.data.dtype == dtype


def test_select_rows_out_of_range(tiny_csr):
    with pytest.raises(IndexError):
        tiny_csr.select_rows([0, 9])


def test_spmm_reference_matches_dense(small_rect_csr, rng):
    Y = rng.standard_normal((small_rect_csr.ncols, 8)).astype(np.float32)
    out = small_rect_csr.spmm(Y)
    assert np.allclose(out, small_rect_csr.to_dense() @ Y, atol=1e-4)


def test_spmm_shape_check(tiny_csr):
    with pytest.raises(ShapeError):
        tiny_csr.spmm(np.ones((3, 2), dtype=np.float32))


def test_transpose(small_rect_csr):
    t = small_rect_csr.transpose()
    assert t.shape == (small_rect_csr.ncols, small_rect_csr.nrows)
    assert np.allclose(t.to_dense(), small_rect_csr.to_dense().T)


def test_scale_rows_and_cols(tiny_csr):
    row_scale = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)
    col_scale = np.arange(1, 6, dtype=np.float32)
    scaled_rows = tiny_csr.scale_rows(row_scale)
    scaled_cols = tiny_csr.scale_cols(col_scale)
    dense = tiny_csr.to_dense()
    assert np.allclose(scaled_rows.to_dense(), dense * row_scale[:, None])
    assert np.allclose(scaled_cols.to_dense(), dense * col_scale[None, :])


def test_scale_shape_checks(tiny_csr):
    with pytest.raises(ShapeError):
        tiny_csr.scale_rows(np.ones(3))
    with pytest.raises(ShapeError):
        tiny_csr.scale_cols(np.ones(3))


def test_copy_is_deep(tiny_csr):
    cp = tiny_csr.copy()
    cp.data[:] = 99.0
    assert not np.allclose(tiny_csr.data, 99.0)


def test_astype():
    A = random_csr(10, 10, density=0.2, seed=0)
    B = A.astype(np.float64)
    assert B.data.dtype == np.float64
    assert np.allclose(A.to_dense(), B.to_dense())


def test_scipy_roundtrip(small_square_csr):
    scipy_mat = small_square_csr.to_scipy()
    back = CSRMatrix.from_scipy(scipy_mat)
    assert back == small_square_csr


def test_to_coo_roundtrip(small_square_csr):
    assert CSRMatrix.from_coo(small_square_csr.to_coo()) == small_square_csr


def test_equality_and_inequality(tiny_csr):
    assert tiny_csr == tiny_csr.copy()
    other = CSRMatrix.identity(4)
    assert tiny_csr != other
    assert (tiny_csr == "not a matrix") is False or (tiny_csr == "not a matrix") is NotImplemented


def test_from_edges_constructor():
    csr = CSRMatrix.from_edges([(0, 1), (1, 0)], nrows=2)
    assert csr.nnz == 2
    assert csr.to_dense()[0, 1] == 1.0
