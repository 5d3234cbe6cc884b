"""Unit tests for the five-step operator registry (Table II)."""

import numpy as np
import pytest

from repro.core.operators import (
    NOOP,
    OpKind,
    Operator,
    get_op,
    list_ops,
    make_mlp_vop,
    make_scal,
    register_op,
)
from repro.errors import OperatorError


def test_registry_contains_table2_ops():
    for name in ["ADD", "MUL", "SEL2ND", "SIGMOID", "SCAL", "RSUM", "RMUL", "ASUM", "AMAX"]:
        assert get_op(name).name == name


def test_get_op_case_insensitive():
    assert get_op("mul") is get_op("MUL")


def test_get_op_passthrough_instance():
    op = get_op("ADD")
    assert get_op(op) is op


def test_get_op_unknown_raises():
    with pytest.raises(OperatorError):
        get_op("NOT_AN_OP")


def test_get_op_bad_type_raises():
    with pytest.raises(OperatorError):
        get_op(123)


def test_list_ops_filter_by_kind():
    rops = list_ops(OpKind.ROP)
    assert "RSUM" in rops and "NORM" in rops
    assert "ASUM" not in rops
    assert len(list_ops()) >= len(rops)


def test_register_duplicate_rejected():
    op = Operator(name="MUL", kinds=(OpKind.VOP,), edge_fn=lambda *a: None, batch_fn=lambda *a: None)
    with pytest.raises(OperatorError):
        register_op(op)


def test_register_overwrite_allowed():
    custom = Operator(
        name="TEST_CUSTOM_OP", kinds=(OpKind.VOP,), edge_fn=lambda x, y, a=None, w=None: x, batch_fn=lambda x, y, a=None, w=None: x
    )
    register_op(custom)
    register_op(custom, overwrite=True)
    assert get_op("TEST_CUSTOM_OP") is custom


def test_noop_identity():
    assert NOOP.is_noop
    x = np.arange(3.0)
    assert NOOP.edge_fn(x) is x


# ------------------------------------------------------------------ #
# Semantics of individual standard operators
# ------------------------------------------------------------------ #
def test_add_sub_mul_edge_semantics():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 5.0])
    assert np.allclose(get_op("ADD").edge_fn(x, y), [4.0, 7.0])
    assert np.allclose(get_op("SUB").edge_fn(x, y), [-2.0, -3.0])
    assert np.allclose(get_op("MUL").edge_fn(x, y), [3.0, 10.0])


def test_sel_ops():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 5.0])
    assert np.allclose(get_op("SEL2ND").edge_fn(x, y), y)
    assert np.allclose(get_op("SEL1ST").edge_fn(x, y), x)


def test_edgescale_uses_edge_value():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 5.0])
    out = get_op("EDGESCALE").edge_fn(x, y, 2.0)
    assert np.allclose(out, [2.0, 4.0])


def test_edgescale_batch_scalar_message():
    h = np.array([1.0, 2.0])  # per-edge scalar messages
    y = np.ones((2, 3))
    a = np.array([10.0, 100.0])
    out = get_op("EDGESCALE").batch_fn(h, y, a)
    # EDGESCALE scales the message, a scalar here, lifted to a column that
    # broadcasts over the features like the per-edge form's scalar.
    assert out.shape == (2, 1)
    assert np.allclose(out[:, 0], [10.0, 200.0])
    assert np.allclose(get_op("EDGESCALE").edge_fn(2.0, y[0], 10.0), 20.0)


def test_muldiff_uses_vop_output():
    h = 2.0
    y = np.array([1.0, 1.0])
    w = np.array([3.0, 4.0])
    assert np.allclose(get_op("MULDIFF").edge_fn(h, y, None, w), [6.0, 8.0])


def test_sigmoid_range_and_stability():
    sig = get_op("SIGMOID")
    vals = sig.edge_fn(np.array([-1000.0, 0.0, 1000.0]))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert vals[1] == pytest.approx(0.5)


def test_relu_tanh_exp():
    x = np.array([-1.0, 0.5])
    assert np.allclose(get_op("RELU").edge_fn(x), [0.0, 0.5])
    assert np.allclose(get_op("TANH").edge_fn(x), np.tanh(x))
    assert np.allclose(get_op("EXP").edge_fn(x), np.exp(x))


def test_tdist_kernel():
    assert get_op("TDIST").edge_fn(0.0) == pytest.approx(1.0)
    assert get_op("TDIST").edge_fn(1.0) == pytest.approx(0.5)


def test_reductions():
    w = np.array([1.0, 2.0, 3.0])
    assert get_op("RSUM").edge_fn(w) == pytest.approx(6.0)
    assert get_op("RMUL").edge_fn(w) == pytest.approx(6.0)
    assert get_op("RMAX").edge_fn(w) == pytest.approx(3.0)
    assert get_op("NORM").edge_fn(w) == pytest.approx(np.sqrt(14.0))


def test_reductions_batched_axis():
    W = np.arange(6.0).reshape(2, 3)
    assert np.allclose(get_op("RSUM").batch_fn(W), W.sum(axis=1))
    assert np.allclose(get_op("NORM").batch_fn(W), np.linalg.norm(W, axis=1))


def test_accumulators_edge_and_batch():
    z = np.zeros(3)
    w = np.array([1.0, -2.0, 3.0])
    assert np.allclose(get_op("ASUM").edge_fn(z, w), w)
    assert np.allclose(get_op("AMAX").edge_fn(z, w), [1.0, 0.0, 3.0])
    assert np.allclose(get_op("AMIN").edge_fn(z, w), [0.0, -2.0, 0.0])
    # A block aggregates through the accumulator's ufunc.
    block = np.array([[1.0, 5.0], [3.0, 2.0]])
    assert np.allclose(get_op("ASUM").accumulate_ufunc.reduce(block), [4.0, 7.0])
    assert np.allclose(get_op("AMAX").accumulate_ufunc.reduce(block), [3.0, 5.0])
    assert np.allclose(get_op("AMIN").accumulate_ufunc.reduce(block), [1.0, 2.0])


def test_accumulator_metadata():
    assert get_op("ASUM").accumulator_identity == 0.0
    assert get_op("AMAX").accumulator_identity == -np.inf
    assert get_op("ASUM").accumulate_ufunc is np.add
    assert get_op("AMAX").accumulate_ufunc is np.maximum


def test_make_scal():
    op = make_scal(2.5)
    assert op.edge_fn(np.array([2.0])) == pytest.approx(5.0)
    assert op.params["alpha"] == 2.5


def test_make_scal_registered():
    op = make_scal(0.1, name="TEST_SCAL_01", register=True)
    assert get_op("TEST_SCAL_01") is op


def test_make_mlp_vop_shapes():
    rng = np.random.default_rng(0)
    W1 = rng.standard_normal((8, 6)).astype(np.float32)
    W2 = rng.standard_normal((6, 4)).astype(np.float32)
    op = make_mlp_vop(W1, W2)
    x = rng.standard_normal(4).astype(np.float32)
    y = rng.standard_normal(4).astype(np.float32)
    out = op.edge_fn(x, y)
    assert out.shape == (4,)
    Yb = rng.standard_normal((5, 4)).astype(np.float32)
    out_b = op.batch_fn(x, Yb)
    assert out_b.shape == (5, 4)


def test_make_mlp_vop_single_layer():
    rng = np.random.default_rng(1)
    W1 = rng.standard_normal((8, 4)).astype(np.float32)
    op = make_mlp_vop(W1)
    out = op.edge_fn(np.ones(4, dtype=np.float32), np.ones(4, dtype=np.float32))
    assert out.shape == (4,)
    assert np.all(out >= 0.0)  # ReLU output


def test_operator_allowed_in():
    assert get_op("RSUM").allowed_in(OpKind.ROP)
    assert not get_op("RSUM").allowed_in(OpKind.VOP)
