"""Unit tests for the kernel code generator and the autotuner."""

import re

import numpy as np
import pytest

from repro.core.autotune import (
    DEFAULT_BLOCK_CANDIDATES,
    autotune,
    clear_tuning_cache,
    tuning_cache_info,
)
from repro.core.codegen import (
    clear_kernel_cache,
    compile_kernel,
    generate_kernel_source,
    kernel_cache_info,
)
from repro.core.fused import resolve_backend
from repro.core.operators import EXPR_NAMESPACE, OpKind, Operator
from repro.core.optimized import run_edge_blocks
from repro.core.patterns import get_pattern, list_patterns
from repro.core.generic import fusedmm_generic
from repro.errors import BackendError, CodegenError
from repro.sparse import random_csr
from _helpers import make_xy


# ------------------------------------------------------------------ #
# Code generation
# ------------------------------------------------------------------ #
def test_supports_all_builtin_standard_patterns():
    for name in list_patterns():
        assert resolve_backend(name, "generated")[0] == "generated", name


def test_does_not_support_user_operators():
    """A user operator with only a per-edge callable has no block form."""
    edge_only = Operator(name="EDGE_ONLY", kinds=(OpKind.SOP,), edge_fn=lambda s, *r: s)
    pattern = get_pattern("sigmoid_embedding", sop=edge_only)
    with pytest.raises(CodegenError):
        generate_kernel_source(pattern.resolved())
    with pytest.raises(BackendError):
        resolve_backend(pattern, "generated")
    assert resolve_backend(pattern, "auto")[0] == "generic"


def test_generated_source_mentions_ops():
    source = generate_kernel_source(get_pattern("sigmoid_embedding").resolved())
    assert "einsum" in source  # fused dot product
    assert "sigmoid(" in source  # shared clipped sigmoid from core.mathops
    # The emitted source is the block body: the inlined SOP and MOP steps.
    assert "H = sigmoid(S)" in source
    # The body returns the scale and the gathered neighbour rows; the
    # driver's sum applies the one to the other.
    assert "return H[:, None], Yd\n" in source
    assert "def _generated_block_kernel" in source


def test_generated_source_fr_uses_difference():
    source = generate_kernel_source(get_pattern("fr_layout").resolved())
    # Each gather is read once, so it is inlined into the difference.
    assert "W = np.take(X, src, axis=0) - np.take(Y, dst, axis=0)" in source
    assert "return H[:, None], W\n" in source  # MULDIFF scales the VOP output


_IN_PLACE = re.compile(r"M = (.+)\n +M = np\.multiply\(M, (\w+), out=.+\)\n")
_SCALED = re.compile(r"return (.+?), (\w+)(?:, (\w+))?\n")


def _without_in_place_message(source: str) -> str:
    """``source`` with the in-place or scaled message back in its plain
    form, ``(a) * buf``."""
    source = _IN_PLACE.sub(lambda m: f"M = ({m[1]}) * {m[2]}\n", source)
    return _SCALED.sub(
        lambda m: f"return ({m[1]}) * "
        + (m[2] if m[3] is None else f"np.take({m[2]}, {m[3]}, axis=0)")
        + "\n",
        source,
    )


def test_in_place_message_applies_to_the_scalar_message_products():
    sources = {
        name: generate_kernel_source(get_pattern(name).resolved())
        for name in list_patterns()
    }
    scaled = {name for name, source in sources.items() if _SCALED.search(source)}
    assert scaled == {
        "fr_layout", "gcn", "sigmoid_embedding", "sigmoid_residual", "spmm"
    }
    # spmm/gcn hand the driver Y itself and the block's column indices.
    assert "return vals[:, None], Y, dst\n" in sources["spmm"]
    # No sum writes in place; a max/min pattern writes its scalar-message
    # product over its buffer.
    assert not any("out=" in source for source in sources.values())
    amax = get_pattern("sigmoid_embedding", aop="AMAX").resolved()
    assert "M = np.multiply(M, Yd, out=Yd if" in generate_kernel_source(amax)


@pytest.mark.parametrize("d", [1, 16, 128])
@pytest.mark.parametrize("name", list_patterns())
def test_in_place_message_is_bitwise_the_plain_product(name, d):
    """Every registered pattern's kernel against its source with the
    in-place or scaled message undone (the driver sums plain messages), over float32/float64 features and edge
    values, including the mixed dtypes where the product cannot be written
    over its buffer."""
    pattern = get_pattern(name).resolved()
    namespace = dict(EXPR_NAMESPACE)
    namespace.update((kind, op.batch_fn) for kind, op in pattern.ops().items())
    source = _without_in_place_message(generate_kernel_source(pattern))
    assert "out=" not in source
    exec(source, namespace)
    plain = namespace["_generated_block_kernel"]
    kernel = compile_kernel(pattern)
    X0, Y0 = make_xy(random_csr(90, 90, density=0.08, seed=d), d, seed=d)
    for x_t in (np.float32, np.float64):
        for y_t in (np.float32, np.float64):
            for a_t in (np.float32, np.float64):
                A = random_csr(90, 90, density=0.08, seed=d, dtype=a_t)
                X, Y = X0.astype(x_t), (Y0 - 0.5).astype(y_t)
                got = kernel(A, X, Y, block_size=64)
                expected = run_edge_blocks(A, X, Y, plain, aop=pattern.aop, block_size=64)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (x_t, y_t, a_t)


def test_compile_kernel_caches():
    clear_kernel_cache()
    assert kernel_cache_info()["cached_kernels"] == 0
    k1 = compile_kernel(get_pattern("gcn").resolved())
    k2 = compile_kernel(get_pattern("gcn").resolved())
    assert k1 is k2
    assert kernel_cache_info()["cached_kernels"] == 1


def test_compiled_kernel_exposes_source():
    kernel = compile_kernel(get_pattern("sigmoid_embedding").resolved())
    assert hasattr(kernel, "source")
    assert "VOP = MUL" in kernel.source


def test_generated_kernel_correct_small():
    A = random_csr(50, 50, density=0.1, seed=1)
    X, Y = make_xy(A, 12, seed=0)
    for name in ["sigmoid_embedding", "fr_layout", "gcn"]:
        kernel = compile_kernel(get_pattern(name).resolved())
        ref = fusedmm_generic(A, X, Y, pattern=name)
        assert np.allclose(kernel(A, X, Y, block_size=17), ref, atol=1e-3), name


def test_generated_kernel_amax_pattern():
    pattern = get_pattern(None, vop="SEL2ND", mop="EDGESCALE", aop="AMAX").resolved()
    A = random_csr(30, 30, density=0.1, seed=2)
    X, Y = make_xy(A, 6, seed=1)
    kernel = compile_kernel(pattern)
    ref = fusedmm_generic(A, X, Y, pattern=get_pattern(None, vop="SEL2ND", mop="EDGESCALE", aop="AMAX"))
    assert np.allclose(kernel(A, X, Y), ref, atol=1e-4)


# ------------------------------------------------------------------ #
# Autotuning
# ------------------------------------------------------------------ #
def test_autotune_returns_valid_config(small_square_csr):
    clear_tuning_cache()
    X, Y = make_xy(small_square_csr, 8, seed=0)
    result = autotune(small_square_csr, X, Y, pattern="sigmoid_embedding", repeats=1)
    assert {kind for kind, _ in result.trials} <= {"generated", "jit"}
    assert result.block_size > 0
    assert result.best_time > 0
    assert len(result.trials) >= len(DEFAULT_BLOCK_CANDIDATES)


def test_autotune_caches_results(small_square_csr):
    clear_tuning_cache()
    X, Y = make_xy(small_square_csr, 8, seed=0)
    r1 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1)
    before = tuning_cache_info()["cached_results"]
    r2 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1)
    assert r1 is r2
    assert tuning_cache_info()["cached_results"] == before


def test_autotune_cache_can_be_bypassed(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    r1 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1, use_cache=False)
    r2 = autotune(small_square_csr, X, Y, pattern="gcn", repeats=1, use_cache=False)
    assert r1 is not r2


def test_autotune_sweeps_the_given_block_sizes(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    result = autotune(
        small_square_csr,
        X,
        Y,
        pattern="gcn",
        jit=False,
        block_candidates=(64, 256),
        repeats=1,
        use_cache=False,
    )
    assert set(result.trials) == {("generated", 64), ("generated", 256)}
    assert not result.jit_won
    assert result.block_size in (64, 256)


def test_generated_plan_tunes_the_generated_kernel(small_square_csr, monkeypatch):
    """A plan resolving to ``generated`` times its block sizes through the
    generated kernel."""
    import repro.core.fused as fused

    calls = []
    compile_generated = fused.compile_kernel

    def spy(pattern):
        kernel = compile_generated(pattern)

        def generated(*args, **kwargs):
            calls.append(kwargs.get("block_size"))
            return kernel(*args, **kwargs)

        return generated

    monkeypatch.setattr(fused, "compile_kernel", spy)
    clear_tuning_cache()
    try:
        plan = fused.plan_kernel(
            small_square_csr, "gcn", "generated", autotune=True, autotune_dim=8
        )
        assert plan.kind == "generated"
        assert {kind for kind, _ in plan.tuning.trials} == {"generated"}
        assert sorted(set(calls)) == sorted(DEFAULT_BLOCK_CANDIDATES)
        assert tuning_cache_info()["cached_results"] == 1
    finally:
        clear_tuning_cache()


def test_autotune_result_as_dict(small_square_csr):
    X, Y = make_xy(small_square_csr, 8, seed=0)
    result = autotune(small_square_csr, X, Y, pattern="spmm", repeats=1, use_cache=False)
    d = result.as_dict()
    assert set(d) == {"jit_won", "block_size", "best_time", "num_trials"}
