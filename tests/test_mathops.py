"""Tests for the shared scalar math helpers (clipped sigmoid)."""

import numpy as np

from repro.core.mathops import SIGMOID_CLAMP, sigmoid, sigmoid_scalar


def test_sigmoid_matches_closed_form_in_stable_range():
    x = np.linspace(-20.0, 20.0, 401)
    expected = 1.0 / (1.0 + np.exp(-x))
    assert np.allclose(sigmoid(x), expected, rtol=1e-12, atol=1e-15)


def test_sigmoid_saturates_without_overflow():
    x = np.array([-1e6, -SIGMOID_CLAMP - 1, SIGMOID_CLAMP + 1, 1e6])
    with np.errstate(over="raise"):
        result = sigmoid(x)
    assert np.all(np.isfinite(result))
    assert result[0] >= 0.0 and result[0] < 1e-20
    assert result[-1] <= 1.0 and result[-1] >= 1.0 - 1e-15


def test_sigmoid_scalar_matches_array_form():
    xs = np.concatenate(
        [
            np.linspace(-80.0, 80.0, 257),
            np.array([0.0, -0.0, SIGMOID_CLAMP, -SIGMOID_CLAMP]),
        ]
    )
    array_vals = sigmoid(xs)
    scalar_vals = np.array([sigmoid_scalar(float(x)) for x in xs])
    assert np.allclose(array_vals, scalar_vals, rtol=1e-14, atol=1e-300)


def test_sigmoid_is_the_single_definition_used_by_the_backends():
    """The registry SIGMOID and the generated kernels all resolve to the
    one shared implementation — the clamp bounds cannot drift between
    backends."""
    import repro.core.codegen as codegen
    from repro.core.codegen import compile_kernel
    from repro.core.operators import get_op

    x = np.array([-70.0, -1.0, 0.0, 1.0, 70.0])
    assert np.allclose(get_op("SIGMOID").batch_fn(x), sigmoid(x))
    assert codegen.EXPR_NAMESPACE["sigmoid"] is sigmoid
    kernel = compile_kernel(
        __import__("repro.core.patterns", fromlist=["get_pattern"])
        .get_pattern("sigmoid_embedding")
        .resolved()
    )
    assert "sigmoid(" in kernel.source
