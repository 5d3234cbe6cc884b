"""Unit tests for the embedding applications (Force2Vec, VERSE, sampling,
classification)."""

import numpy as np
import pytest

from _helpers import select_rows_by_loop, with_negatives_by_loop
from repro.apps import (
    EMBEDDING_BACKENDS,
    Force2Vec,
    Force2VecConfig,
    LogisticRegressionClassifier,
    NegativeSampler,
    Verse,
    VerseConfig,
    accuracy,
    evaluate_embeddings,
    f1_macro,
    f1_micro,
    minibatch_indices,
    train_test_split_indices,
    with_negatives,
)
from repro.errors import BackendError, ShapeError
from repro.graphs import Graph, load_dataset
from repro.graphs.generators import stochastic_block_model
from repro.sparse import CSRMatrix, random_csr


@pytest.fixture(scope="module")
def community_graph():
    """A small, strongly clustered graph whose embedding is learnable."""
    A, labels = stochastic_block_model(240, num_blocks=3, avg_degree=10, intra_fraction=0.95, seed=1)
    return Graph(A, labels=labels, name="sbm")


# ------------------------------------------------------------------ #
# Sampling utilities
# ------------------------------------------------------------------ #
def test_minibatch_indices_cover_all_vertices():
    batches = list(minibatch_indices(103, 25, seed=0))
    all_ids = np.concatenate(batches)
    assert sorted(all_ids.tolist()) == list(range(103))
    assert all(len(b) <= 25 for b in batches)


def test_minibatch_indices_drop_last():
    batches = list(minibatch_indices(103, 25, seed=0, drop_last=True))
    assert all(len(b) == 25 for b in batches)


def test_minibatch_indices_no_shuffle_is_ordered():
    batches = list(minibatch_indices(10, 4, shuffle=False))
    assert list(batches[0]) == [0, 1, 2, 3]


def test_minibatch_indices_validation():
    with pytest.raises(ShapeError):
        list(minibatch_indices(10, 0))
    with pytest.raises(ShapeError):
        list(minibatch_indices(-1, 5))


def test_negative_sampler_uniform_and_biased():
    uniform = NegativeSampler(50, seed=0)
    out = uniform.sample((4, 3))
    assert out.shape == (4, 3)
    assert out.min() >= 0 and out.max() < 50

    degrees = np.zeros(50)
    degrees[7] = 1000.0  # heavily bias towards vertex 7
    biased = NegativeSampler(50, degrees=degrees, seed=0)
    samples = biased.sample(500)
    assert (samples == 7).mean() > 0.5


@pytest.mark.parametrize("shape", [(64, 5), 7, (0, 3)])
def test_negative_sampler_matches_generator_choice(shape):
    degrees = np.random.default_rng(5).integers(0, 40, size=300)
    weights = np.power(np.maximum(degrees.astype(np.float64), 1e-12), 0.75)
    probs = weights / weights.sum()
    sampler = NegativeSampler(300, degrees=degrees, seed=11)
    reference = np.random.default_rng(11)
    for _ in range(3):
        drawn = sampler.sample(shape)
        expected = reference.choice(300, size=int(np.prod(shape)), p=probs)
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, expected.reshape(shape))
    assert sampler.get_state() == reference.bit_generator.state


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("per_edge_labels", [False, True])
def test_with_negatives_matches_a_row_loop(k, per_edge_labels):
    rng = np.random.default_rng(k)
    A = random_csr(40, 60, density=0.05, seed=2)
    A = A.select_rows(np.concatenate(([5, 5], rng.permutation(40))))  # repeats
    assert np.any(A.row_degrees() == 0)  # empty rows get only negatives
    negs = rng.integers(0, 60, size=(A.nrows, k))
    labels = rng.random(A.nnz).astype(np.float32) if per_edge_labels else 1.0
    got = with_negatives(A, negs, labels)
    expected = with_negatives_by_loop(A, negs, labels)
    assert (got.nrows, got.ncols) == (expected.nrows, expected.ncols)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    with pytest.raises(ShapeError):
        with_negatives(A, negs[1:], labels)


def test_negative_sampler_validation():
    with pytest.raises(ShapeError):
        NegativeSampler(0)
    with pytest.raises(ShapeError):
        NegativeSampler(10, degrees=np.ones(3))


# ------------------------------------------------------------------ #
# Classification / metrics
# ------------------------------------------------------------------ #
def test_f1_and_accuracy_perfect_and_empty():
    y = np.array([0, 1, 2, 1])
    assert f1_micro(y, y) == 1.0
    assert f1_macro(y, y) == 1.0
    assert accuracy(y, y) == 1.0
    assert f1_micro(np.array([]), np.array([])) == 0.0


def test_f1_micro_equals_accuracy_single_label():
    y_true = np.array([0, 1, 2, 2, 1, 0])
    y_pred = np.array([0, 2, 2, 1, 1, 0])
    assert f1_micro(y_true, y_pred) == pytest.approx(accuracy(y_true, y_pred))


def test_f1_shape_mismatch():
    with pytest.raises(ShapeError):
        f1_micro(np.array([0, 1]), np.array([0]))


def test_logistic_regression_learns_separable_data():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(i * 3, 0.5, size=(60, 4)) for i in range(3)])
    y = np.repeat(np.arange(3), 60)
    clf = LogisticRegressionClassifier(epochs=200, learning_rate=0.5, seed=0)
    clf.fit(X, y)
    assert accuracy(y, clf.predict(X)) > 0.95
    probs = clf.predict_proba(X)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_logistic_regression_unfitted_raises():
    clf = LogisticRegressionClassifier()
    with pytest.raises(RuntimeError):
        clf.predict(np.ones((2, 3)))


def test_train_test_split_partition():
    train, test = train_test_split_indices(100, 0.6, seed=1)
    assert len(train) == 60 and len(test) == 40
    assert set(train).isdisjoint(test)
    with pytest.raises(ShapeError):
        train_test_split_indices(10, 1.5)


def test_evaluate_embeddings_protocol():
    rng = np.random.default_rng(0)
    emb = np.concatenate([rng.normal(i * 4, 0.5, size=(50, 8)) for i in range(2)])
    labels = np.repeat(np.arange(2), 50)
    metrics = evaluate_embeddings(emb, labels, seed=0)
    assert metrics["f1_micro"] > 0.9
    assert metrics["num_train"] + metrics["num_test"] == 100


# ------------------------------------------------------------------ #
# Force2Vec
# ------------------------------------------------------------------ #
def test_force2vec_config_validation():
    with pytest.raises(BackendError):
        Force2VecConfig(backend="tensorflow")
    with pytest.raises(ShapeError):
        Force2VecConfig(dim=0)
    with pytest.raises(ShapeError):
        Force2VecConfig(negative_samples=-1)
    assert set(EMBEDDING_BACKENDS) >= {"fused", "unfused", "dense"}


def test_force2vec_requires_square_adjacency():
    A = random_csr(10, 20, density=0.2, seed=0)
    with pytest.raises(ShapeError):
        Force2Vec(Graph(A))


def test_force2vec_training_reduces_loss(community_graph):
    cfg = Force2VecConfig(dim=16, epochs=6, learning_rate=0.1, seed=0, batch_size=64)
    model = Force2Vec(community_graph, cfg)
    loss_before = model.loss_estimate(seed=1)
    model.train()
    loss_after = model.loss_estimate(seed=1)
    assert loss_after < loss_before
    assert len(model.history) == 6
    assert model.average_epoch_seconds() > 0


def test_force2vec_embeddings_cluster_by_community(community_graph):
    cfg = Force2VecConfig(dim=32, epochs=15, learning_rate=0.1, seed=0, batch_size=64)
    model = Force2Vec(community_graph, cfg)
    emb = model.train()
    metrics = evaluate_embeddings(emb, community_graph.labels, seed=0)
    assert metrics["f1_micro"] > 0.6


def test_force2vec_backends_agree_from_same_seed(community_graph):
    embeddings = {}
    for backend in ["fused", "unfused"]:
        cfg = Force2VecConfig(dim=8, epochs=2, seed=3, backend=backend, batch_size=64)
        embeddings[backend] = Force2Vec(community_graph, cfg).train()
    assert np.allclose(embeddings["fused"], embeddings["unfused"], atol=1e-3)


@pytest.fixture(scope="module")
def registry_graph():
    return load_dataset("cora", scale=0.1)


def _ones_csr(ncols: int, indptr: np.ndarray, indices: np.ndarray) -> CSRMatrix:
    ones = np.ones(indices.size, dtype=np.float32)
    return CSRMatrix(indptr.size - 1, ncols, indptr, indices, ones, check=False)


def _rows_of(k: int, nrows: int) -> np.ndarray:
    """indptr of ``nrows`` rows with ``k`` entries each."""
    return np.arange(0, (nrows + 1) * k, k, dtype=np.int64)


def _force2vec_reference(graph, cfg, epochs):
    """The Force2Vec loop written the plain way: the whole embedding
    matrix converted to float32 for every minibatch, rows sliced one by
    one, negatives drawn with ``Generator.choice(p=...)`` and, on the
    FusedMM backends, the labelled batch matrix built row by row."""
    model = Force2Vec(graph, cfg)  # initial embeddings + kernel dispatch
    X, A = model.embeddings, model.adjacency
    weights = np.power(np.maximum(A.row_degrees().astype(np.float64), 1e-12), 0.75)
    probs = weights / weights.sum()
    rng = np.random.default_rng(cfg.seed + 7)
    for epoch in range(epochs):
        for batch in minibatch_indices(
            graph.num_vertices, cfg.batch_size, seed=cfg.seed + epoch
        ):
            Xb = X[batch].astype(np.float32)
            Y = X.astype(np.float32)
            A_batch = select_rows_by_loop(A, batch)
            negs = rng.choice(A.ncols, size=batch.size * cfg.negative_samples, p=probs)
            if cfg.backend in ("fused", "fused_generic"):
                negs = negs.reshape(batch.size, cfg.negative_samples)
                A_lab = with_negatives_by_loop(A_batch, negs, 1.0)
                grad = model._residual_aggregate(A_lab, Xb, Y).astype(np.float64)
            else:
                grad = model._sigmoid_aggregate(A_batch, Xb, Y).astype(np.float64)
                ones = _ones_csr(A.ncols, A_batch.indptr, A_batch.indices)
                grad -= model._plain_aggregate(ones, Y).astype(np.float64)
                neg_indptr = _rows_of(cfg.negative_samples, batch.size)
                A_neg = _ones_csr(A.ncols, neg_indptr, negs)
                grad += model._sigmoid_aggregate(A_neg, Xb, Y).astype(np.float64)
            norms = np.linalg.norm(grad, axis=1, keepdims=True)
            grad *= np.minimum(1.0, cfg.max_grad_norm / np.maximum(norms, 1e-12))
            X[batch] -= cfg.learning_rate * grad
    model._runtime.close()
    return X


@pytest.mark.parametrize("backend", EMBEDDING_BACKENDS)
def test_force2vec_is_bitwise_equal_to_the_plain_loop(registry_graph, backend):
    cfg = Force2VecConfig(dim=16, batch_size=32, seed=4, backend=backend, num_threads=1)
    model = Force2Vec(registry_graph, cfg)
    model.train(2)
    model._runtime.close()
    expected = _force2vec_reference(registry_graph, cfg, 2)
    assert np.array_equal(model.embeddings, expected)


def test_force2vec_fused_epoch_is_one_kernel_call_per_minibatch(community_graph):
    cfg = Force2VecConfig(dim=8, batch_size=64, seed=0, num_threads=1)
    model = Force2Vec(community_graph, cfg)
    calls = []
    run_on = model._stream.run_on
    model._stream.run_on = lambda *a: calls.append(a[0].nnz) or run_on(*a)
    stats = model.train_epoch()
    model._runtime.close()
    assert len(calls) == stats.num_batches == 4
    # Every real edge once, plus five negatives per vertex.
    assert sum(calls) == model.adjacency.nnz + 5 * community_graph.num_vertices


@pytest.mark.parametrize("app", [Force2Vec, Verse])
def test_kernel_seconds_is_the_kernel_time(community_graph, app):
    """``EpochStats.kernel_seconds`` counts the kernel calls alone (the
    stream's clock), not row slicing, sampling or the update."""
    config_cls = Force2VecConfig if app is Force2Vec else VerseConfig
    cfg = config_cls(dim=8, batch_size=32, seed=0, num_threads=1)
    model = app(community_graph, cfg)
    for epoch in range(2):
        before = model._stream.kernel_seconds
        stats = model.train_epoch(epoch)
        assert stats.kernel_seconds == model._stream.kernel_seconds - before
        assert 0.0 < stats.kernel_seconds < stats.seconds
    model._runtime.close()


@pytest.mark.parametrize("backend", ["fused_generic", "unfused", "dense"])
def test_kernel_seconds_on_the_other_backends(community_graph, backend):
    cfg = Force2VecConfig(dim=8, batch_size=64, seed=0, backend=backend, num_threads=1)
    model = Force2Vec(community_graph, cfg)
    stats = model.train_epoch()
    model._runtime.close()
    assert model._stream.kernel_seconds == 0.0
    assert 0.0 < stats.kernel_seconds < stats.seconds


def test_fused_gradient_matches_the_three_term_gradient():
    """One ``sigmoid_residual`` call per batch against the unfused
    baseline's σ-aggregate − neighbour sum + σ-aggregate over negatives."""
    graph = load_dataset("cora")
    grads = {}
    for backend in ("fused", "unfused"):
        cfg = Force2VecConfig(dim=32, seed=2, backend=backend, num_threads=1)
        model = Force2Vec(graph, cfg)
        batch = next(minibatch_indices(graph.num_vertices, cfg.batch_size, seed=2))
        Y = model.embeddings.astype(np.float32)
        ((_, A_batch, negs),) = model._epoch_operands([batch])
        grads[backend] = model._batch_gradient(batch, Y, A_batch, negs)
        model._runtime.close()
    assert np.abs(grads["fused"]).max() > 0.1
    assert np.allclose(grads["fused"], grads["unfused"], rtol=1e-4, atol=1e-5)


def test_force2vec_zero_negative_samples(community_graph):
    cfg = Force2VecConfig(dim=8, epochs=1, seed=0, negative_samples=0, batch_size=64)
    emb = Force2Vec(community_graph, cfg).train()
    assert np.isfinite(emb).all()


def test_force2vec_callback_invoked(community_graph):
    seen = []
    cfg = Force2VecConfig(dim=8, epochs=2, seed=0, batch_size=128)
    Force2Vec(community_graph, cfg).train(callback=lambda s: seen.append(s.epoch))
    assert seen == [0, 1]


# ------------------------------------------------------------------ #
# VERSE
# ------------------------------------------------------------------ #
def test_verse_config_validation():
    with pytest.raises(ShapeError):
        VerseConfig(dim=0)
    with pytest.raises(ShapeError):
        VerseConfig(noise_samples=-2)


def test_verse_training_runs_and_is_finite(community_graph):
    cfg = VerseConfig(dim=16, epochs=2, seed=0, batch_size=64)
    model = Verse(community_graph, cfg)
    emb = model.train()
    assert emb.shape == (community_graph.num_vertices, 16)
    assert np.isfinite(emb).all()
    assert len(model.history) == 2


def test_verse_is_bitwise_equal_to_the_plain_loop(registry_graph):
    """VERSE against its loop written the plain way (whole-matrix float32
    conversion every minibatch, rows sliced one by one)."""
    cfg = VerseConfig(dim=16, batch_size=32, seed=4, num_threads=1)
    model = Verse(registry_graph, cfg)
    model.train(2)
    model._runtime.close()

    ref = Verse(registry_graph, cfg)
    X, S = ref.embeddings, ref.similarity
    rng = np.random.default_rng(cfg.seed + 13)
    for epoch in range(2):
        for batch in minibatch_indices(
            registry_graph.num_vertices, cfg.batch_size, seed=cfg.seed + epoch
        ):
            Xb = X[batch].astype(np.float32)
            Y = X.astype(np.float32)
            S_batch = select_rows_by_loop(S, batch)
            negs = rng.integers(0, S.ncols, size=(batch.size, cfg.noise_samples))
            A_lab = with_negatives_by_loop(S_batch, negs, S_batch.data)
            grad = ref._stream.run_on(A_lab, Xb, Y).astype(np.float64)
            X[batch] -= cfg.learning_rate * grad
    ref._runtime.close()
    assert np.array_equal(model.embeddings, X)


def test_verse_requires_square_adjacency():
    A = random_csr(10, 20, density=0.2, seed=0)
    with pytest.raises(ShapeError):
        Verse(Graph(A))


@pytest.mark.parametrize("kernel_backend", ["generated", "generic"])
@pytest.mark.parametrize("app", [Force2Vec, Verse])
def test_embedding_epoch_runs_on_numpy_backends(community_graph, app, kernel_backend):
    """Both apps train through the ``sigmoid_residual`` stream; every
    kernel backend must run it, not only jit/generated."""
    config_cls = Force2VecConfig if app is Force2Vec else VerseConfig
    cfg = config_cls(dim=8, batch_size=64, seed=0, kernel_backend=kernel_backend)
    model = app(community_graph, cfg)
    model.train_epoch()
    model._runtime.close()
    assert np.isfinite(model.embeddings).all()
