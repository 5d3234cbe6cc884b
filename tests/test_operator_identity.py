"""An operator's identity, not its name, selects its kernel.

Every kernel tier is keyed by :func:`repro.core.patterns.pattern_key`: a
built-in operator by its name, any other operator by its object.  A user
operator that shares a standard operator's name therefore never runs the
standard operator's kernel, and an operator given only a per-edge function
plus a NumPy expression runs on every tier."""

import numpy as np
import pytest

from repro.baselines import unfused_fusedmm
from repro.core import OpKind, Operator, fusedmm, get_op, make_scal, register_op
from repro.core.fused import resolve_backend
from repro.core.operators import make_mlp_vop
from repro.core.patterns import get_pattern, pattern_key, register_pattern
from repro.errors import BackendError, OperatorError
from repro.graphs.features import xavier_init
from repro.runtime import KernelRuntime
from repro.sparse import random_csr
from _helpers import make_xy

ATOL = 1e-4


@pytest.fixture(scope="module")
def problem():
    A = random_csr(120, 120, density=0.05, seed=17, value_range=(0.5, 2.0))
    X, Y = make_xy(A, 16, seed=4)
    return A, X, Y


def _assert_matches_generic(A, X, Y, pattern, backends=("auto", "generated")):
    ref = fusedmm(A, X, Y, pattern=pattern, backend="generic")
    for backend in backends:
        out = fusedmm(A, X, Y, pattern=pattern, backend=backend)
        assert np.allclose(out, ref, atol=ATOL), backend


def test_scal_named_like_the_builtin_keeps_its_alpha(problem):
    A, X, Y = problem
    pattern = get_pattern("sigmoid_embedding", sop=make_scal(2.0, name="SCAL"))
    _assert_matches_generic(A, X, Y, pattern)


@pytest.mark.parametrize("form", ["batch_fn", "expr"])
def test_user_operator_named_mul_is_not_the_builtin(problem, form):
    """A user VOP called ``MUL`` that computes ``-x*y``."""
    block = {"batch_fn": lambda x, y, a=None, w=None: -(x * y)}
    if form == "expr":
        block = {"expr": "-(Xs * Yd)"}
    neg_mul = Operator(
        name="MUL", kinds=(OpKind.VOP, OpKind.MOP), edge_fn=lambda x, y, a=None, w=None: -(x * y),
        **block,
    )
    A, X, Y = problem
    pattern = get_pattern("sigmoid_embedding", vop=neg_mul)
    _assert_matches_generic(A, X, Y, pattern)
    assert pattern_key(pattern.resolved()) != pattern_key(
        get_pattern("sigmoid_embedding").resolved()
    )
    with pytest.raises(BackendError):
        fusedmm(A, X, Y, pattern=pattern, backend="jit")


def test_runtime_does_not_reuse_a_kernel_across_same_named_operators(problem):
    A, X, Y = problem
    rt = KernelRuntime(num_threads=1)
    for alpha in (2.0, 3.0):
        sop = make_scal(alpha, name="X")
        ref = fusedmm(A, X, Y, pattern="sigmoid_embedding", sop=sop, backend="generic")
        Z = rt.run(A, X, Y, pattern="sigmoid_embedding", sop=sop)
        assert np.allclose(Z, ref, atol=ATOL), alpha
        req = dict(A=A, X=X, Y=Y, pattern="sigmoid_embedding", overrides={"sop": sop})
        (Z,) = rt.run_batch([req])
        assert np.allclose(Z, ref, atol=ATOL), alpha


def test_replacing_a_registered_user_operator_replaces_its_kernel(problem):
    A, X, Y = problem
    register_pattern(
        get_pattern("sigmoid_embedding", sop="IDENTITY_TEST_SOP").with_ops(
            name="identity_test_pattern"
        ),
        overwrite=True,
    )
    rt = KernelRuntime(num_threads=1)
    for alpha in (2.0, 3.0):
        register_op(make_scal(alpha, name="IDENTITY_TEST_SOP"), overwrite=True)
        ref = fusedmm(A, X, Y, pattern="identity_test_pattern", backend="generic")
        Z = rt.run(A, X, Y, pattern="identity_test_pattern")
        assert np.allclose(Z, ref, atol=ATOL), alpha
        (Z,) = rt.run_batch([dict(A=A, X=X, Y=Y, pattern="identity_test_pattern")])
        assert np.allclose(Z, ref, atol=ATOL), alpha


def test_builtins_cannot_be_replaced():
    impostor = Operator(name="MUL", kinds=(OpKind.VOP,), edge_fn=lambda x, y, a=None: x)
    builtin = get_op("MUL")
    with pytest.raises(OperatorError, match="built in"):
        register_op(impostor, overwrite=True)
    with pytest.raises(OperatorError, match="built in"):
        make_scal(2.0, name="SCAL", register=True)
    assert get_op("MUL") is builtin
    assert get_op("SCAL").params["alpha"] == 1.0


def test_scalar_message_edgescale_scales_the_message(problem):
    """EDGESCALE after a reducing ROP scales the scalar message on every
    tier, the reference kernel included."""
    A, X, Y = problem
    pattern = get_pattern(None, vop="MUL", rop="RSUM", sop="TANH", mop="EDGESCALE")
    _assert_matches_generic(A, X, Y, pattern, backends=("auto", "generated", "jit"))
    rows = np.repeat(np.arange(A.nrows), A.row_degrees())
    h = A.data * np.tanh(np.einsum("ij,ij->i", X[rows].astype(np.float64), Y[A.indices]))
    dense = np.zeros(A.nrows)
    np.add.at(dense, rows, h)
    ref = fusedmm(A, X, Y, pattern=pattern, backend="generic")
    assert np.allclose(ref, dense[:, None] * np.ones(X.shape[1]), atol=ATOL)
    assert np.allclose(unfused_fusedmm(A, X, Y, pattern=pattern), ref, atol=ATOL)


def test_operator_given_by_edge_fn_and_expression_runs_everywhere(problem):
    """No ``batch_fn``: the generated kernel inlines the expression and the
    unfused baseline runs the batch_fn compiled from it."""
    softsign = register_op(
        Operator(
            name="SOFTSIGN_TEST",
            kinds=(OpKind.SOP, OpKind.MOP),
            edge_fn=lambda s, *rest: s / (1.0 + np.abs(s)),
            expr="S / (1.0 + np.abs(S))",
        ),
        overwrite=True,
    )
    assert callable(softsign.batch_fn)
    A, X, Y = problem
    for slot in ("sop", "mop"):
        pattern = get_pattern("sigmoid_embedding", **{slot: "SOFTSIGN_TEST"})
        assert resolve_backend(pattern, "auto")[0] == "generated"
        ref = fusedmm(A, X, Y, pattern=pattern, backend="generic")
        out = fusedmm(A, X, Y, pattern=pattern, backend="generated")
        assert np.allclose(out, ref, atol=ATOL), slot
        assert np.allclose(unfused_fusedmm(A, X, Y, pattern=pattern), ref, atol=ATOL), slot


def test_mlp_pattern_resolves_to_generated_under_auto():
    mlp = make_mlp_vop(xavier_init(16, 8, seed=0))
    kind, _ = resolve_backend(get_pattern("gnn_mlp", vop=mlp), "auto")
    assert kind == "generated"
