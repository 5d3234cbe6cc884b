"""Unit tests for the FR layout, GCN and MLP-GNN applications."""

import numpy as np
import pytest

from repro.apps import (
    FRLayout,
    FRLayoutConfig,
    GCN,
    GCNConfig,
    MLPGNN,
    MLPGNNLayer,
    normalize_adjacency,
)
from repro.errors import BackendError, ShapeError
from repro.graphs import Graph, one_hot_labels, regular_grid
from repro.graphs.generators import stochastic_block_model
from repro.sparse import random_csr


@pytest.fixture(scope="module")
def labelled_graph():
    A, labels = stochastic_block_model(180, num_blocks=3, avg_degree=12, intra_fraction=0.92, seed=7)
    # Features: noisy one-hot labels, so a GCN can actually learn.
    rng = np.random.default_rng(0)
    feats = one_hot_labels(labels, 3) + 0.2 * rng.standard_normal((A.nrows, 3)).astype(np.float32)
    return Graph(A, features=feats.astype(np.float32), labels=labels, name="sbm")


# ------------------------------------------------------------------ #
# FR layout
# ------------------------------------------------------------------ #
def test_fr_layout_config_validation():
    with pytest.raises(BackendError):
        FRLayoutConfig(backend="gpu")
    with pytest.raises(ShapeError):
        FRLayoutConfig(dim=0)
    with pytest.raises(ShapeError):
        FRLayoutConfig(cooling=0.0)


def test_fr_layout_requires_square():
    with pytest.raises(ShapeError):
        FRLayout(Graph(random_csr(5, 8, density=0.3, seed=0)))


def test_fr_layout_runs_and_shrinks_edges():
    A = regular_grid(6)
    layout = FRLayout(Graph(A), FRLayoutConfig(iterations=15, seed=0, repulsive_samples=2))
    before = layout.edge_length_stats()["mean"]
    positions = layout.run()
    after = layout.edge_length_stats()["mean"]
    assert positions.shape == (A.nrows, 2)
    assert np.isfinite(positions).all()
    # Attractive forces should pull connected vertices together on average.
    assert after < before
    assert len(layout.iteration_seconds) == 15


def test_fr_layout_backends_agree_one_step():
    A = regular_grid(5)
    results = {}
    for backend in ["fused", "unfused", "fused_generic"]:
        layout = FRLayout(
            Graph(A), FRLayoutConfig(iterations=1, seed=4, backend=backend, repulsive_samples=0)
        )
        layout.run()
        results[backend] = layout.positions.copy()
    assert np.allclose(results["fused"], results["unfused"], atol=1e-4)
    assert np.allclose(results["fused"], results["fused_generic"], atol=1e-4)


def test_fr_layout_step_returns_displacement():
    A = regular_grid(4)
    layout = FRLayout(Graph(A), FRLayoutConfig(seed=0))
    disp = layout.step(temperature=0.1)
    assert disp >= 0.0


# ------------------------------------------------------------------ #
# GCN
# ------------------------------------------------------------------ #
def test_normalize_adjacency_row_sums():
    A = regular_grid(4)
    A_hat = normalize_adjacency(A)
    dense = A_hat.to_dense()
    assert np.allclose(dense, dense.T, atol=1e-6)
    # Symmetric normalisation of A+I has spectral radius <= 1.
    eigvals = np.linalg.eigvalsh(dense)
    assert eigvals.max() <= 1.0 + 1e-5


def test_normalize_adjacency_requires_square():
    with pytest.raises(ShapeError):
        normalize_adjacency(random_csr(3, 5, density=0.5, seed=0))


def test_gcn_config_validation():
    with pytest.raises(BackendError):
        GCNConfig(backend="tpu")
    with pytest.raises(ShapeError):
        GCNConfig(hidden_dim=0)


def test_gcn_requires_features_and_labels(labelled_graph):
    with pytest.raises(ShapeError):
        GCN(Graph(labelled_graph.adjacency), num_classes=3)
    with pytest.raises(ShapeError):
        GCN(Graph(labelled_graph.adjacency, features=labelled_graph.features), num_classes=0)


def test_gcn_forward_shapes(labelled_graph):
    gcn = GCN(labelled_graph, config=GCNConfig(hidden_dim=8, epochs=1, seed=0))
    cache = gcn.forward()
    n = labelled_graph.num_vertices
    assert cache["P"].shape == (n, 3)
    assert np.allclose(cache["P"].sum(axis=1), 1.0, atol=1e-6)
    assert gcn.predict().shape == (n,)


def test_gcn_training_improves_accuracy(labelled_graph):
    gcn = GCN(labelled_graph, config=GCNConfig(hidden_dim=16, epochs=40, learning_rate=0.3, seed=0))
    acc_before = gcn.accuracy()
    history = gcn.fit()
    acc_after = gcn.accuracy()
    assert acc_after > max(acc_before, 0.6)
    assert history[-1]["loss"] < history[0]["loss"]


def test_gcn_backends_produce_same_forward(labelled_graph):
    outputs = {}
    for backend in ["fused", "unfused", "vendor"]:
        gcn = GCN(labelled_graph, config=GCNConfig(hidden_dim=8, seed=0, backend=backend))
        outputs[backend] = gcn.forward()["Z2"]
    assert np.allclose(outputs["fused"], outputs["unfused"], atol=1e-4)
    assert np.allclose(outputs["fused"], outputs["vendor"], atol=1e-4)


def test_gcn_train_mask(labelled_graph):
    n = labelled_graph.num_vertices
    mask = np.zeros(n, dtype=bool)
    mask[: n // 2] = True
    gcn = GCN(labelled_graph, config=GCNConfig(hidden_dim=8, epochs=5, seed=0))
    gcn.fit(train_mask=mask)
    assert 0.0 <= gcn.accuracy(mask=~mask) <= 1.0
    with pytest.raises(ShapeError):
        gcn.fit(train_mask=np.ones(3, dtype=bool))


# ------------------------------------------------------------------ #
# MLP-GNN
# ------------------------------------------------------------------ #
def test_mlp_gnn_layer_shapes(labelled_graph):
    layer = MLPGNNLayer(in_dim=3, hidden_dim=8, out_dim=5, seed=0)
    out = layer(labelled_graph.adjacency, labelled_graph.features)
    assert out.shape == (labelled_graph.num_vertices, 5)
    assert np.all(out >= 0.0)  # post-projection ReLU


def test_mlp_gnn_layer_validation():
    with pytest.raises(ShapeError):
        MLPGNNLayer(in_dim=0, hidden_dim=4, out_dim=2)


def test_mlp_gnn_stack_forward(labelled_graph):
    model = MLPGNN(labelled_graph, [6, 4], hidden_dim=8, num_classes=3, seed=1)
    out = model.forward()
    assert out.shape == (labelled_graph.num_vertices, 3)
    assert np.isfinite(out).all()


def test_mlp_gnn_requires_features(labelled_graph):
    with pytest.raises(ShapeError):
        MLPGNN(Graph(labelled_graph.adjacency), [4])


def test_mlp_gnn_layer_matches_generic_backend(labelled_graph):
    layer = MLPGNNLayer(in_dim=3, hidden_dim=6, out_dim=3, seed=2)
    fast = layer(labelled_graph.adjacency, labelled_graph.features)
    slow = layer(labelled_graph.adjacency, labelled_graph.features, backend="generic")
    assert np.allclose(fast, slow, atol=1e-3)


def test_mlp_gnn_layer_on_dense_graph_matches_generic_backend():
    """At average degree >= 32 rows straddle the layer's edge blocks; the
    max-pooled result still matches the reference kernel."""
    from repro.apps.gnn_mlp import MLP_BLOCK_SIZE

    A = random_csr(100, 100, density=0.4, seed=11)
    assert A.avg_degree() >= 32 and A.nnz > 2 * MLP_BLOCK_SIZE
    X = np.random.default_rng(4).standard_normal((100, 8)).astype(np.float32)
    layer = MLPGNNLayer(in_dim=8, hidden_dim=8, out_dim=4, seed=3)
    fast = layer(A, X)
    slow = layer(A, X, backend="generic")
    assert np.allclose(fast, slow, atol=1e-4)
