"""The epoch-level sampling glue of the embedding apps: the guide-table
negative sampler against ``Generator.choice``, and the one-build-per-epoch
minibatch operands against a per-minibatch build."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps import (
    EMBEDDING_BACKENDS,
    Force2Vec,
    Force2VecConfig,
    NegativeSampler,
    Verse,
    VerseConfig,
    minibatch_indices,
    with_negatives,
)
from repro.graphs import Graph
from repro.graphs.generators import stochastic_block_model


def _choice_probs(degrees) -> np.ndarray:
    weights = np.power(np.maximum(np.asarray(degrees, np.float64), 1e-12), 0.75)
    return weights / weights.sum()


# ------------------------------------------------------------------ #
# Guide-table sampler
# ------------------------------------------------------------------ #
_SIZES = st.sampled_from([1, 2, 3, 7, 8, 9, 31, 32, 33, 255, 256, 257]) | st.integers(1, 400)
_SHAPES = st.sampled_from([0, (0,), (0, 4), (3, 0), 1, 9, (5, 3), (64, 5), 700])


@settings(max_examples=60, deadline=None)
@given(
    n=_SIZES,
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(_SHAPES, min_size=1, max_size=3),
    zeros=st.floats(0.0, 1.0),
    dominant=st.booleans(),
    data=st.data(),
)
def test_guide_table_draws_what_generator_choice_draws(n, seed, shapes, zeros, dominant, data):
    degrees = data.draw(arrays(np.int64, n, elements=st.integers(0, 40)))
    degrees[np.random.default_rng(seed).random(n) < zeros] = 0
    if dominant:
        degrees[data.draw(st.integers(0, n - 1))] = 10**9
    sampler = NegativeSampler(n, degrees=degrees, seed=seed)
    reference = np.random.default_rng(seed)
    probs = _choice_probs(degrees)
    for shape in shapes:
        drawn = sampler.sample(shape)
        expected = reference.choice(n, size=shape, p=probs)
        assert drawn.dtype == np.int64
        assert drawn.shape == expected.shape
        assert np.array_equal(drawn, expected)
    assert sampler.get_state() == reference.bit_generator.state


class _FixedUniforms(np.random.Generator):
    """A generator whose ``random`` returns the given values in turn."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self._values = np.asarray(values, dtype=np.float64)

    def random(self, size=None, dtype=np.float64, out=None):
        values, self._values = self._values[:size], self._values[size:]
        return values.copy()


@pytest.mark.parametrize(
    "degrees",
    [
        np.array([5]),
        np.array([0, 0, 0, 3]),
        np.r_[np.zeros(40), [1, 7, 0, 2], np.zeros(20), [9]],  # long flat CDF runs
        np.r_[[10**9], np.arange(1, 33)],  # one dominant vertex, n = 2^5 + 1
        np.random.default_rng(3).integers(0, 40, size=255),  # n = 2^8 - 1
    ],
    ids=["n1", "zeros", "flat-runs", "dominant", "random"],
)
def test_guide_table_on_bucket_edges_and_cdf_values(degrees):
    """Uniforms exactly on the guide grid ``j/G``, on every CDF value and
    one ulp either side of it: the boundaries a guide table can get wrong."""
    n = degrees.size
    sampler = NegativeSampler(n, degrees=degrees)
    grid = sampler._grid
    cdf = sampler._cdf
    edges = np.r_[np.arange(grid) / grid, cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2)]
    uniforms = edges[(edges >= 0) & (edges < 1)]
    sampler._rng = _FixedUniforms(uniforms)
    reference = _FixedUniforms(uniforms)
    drawn = sampler.sample(uniforms.size)
    assert np.array_equal(drawn, reference.choice(n, size=uniforms.size, p=_choice_probs(degrees)))
    assert np.array_equal(drawn, np.searchsorted(cdf, uniforms, side="right"))


# ------------------------------------------------------------------ #
# One operand build per epoch
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def graph():
    A, labels = stochastic_block_model(240, num_blocks=3, avg_degree=8, seed=2)
    return Graph(A, labels=labels, name="sbm")


def _assert_csr_equal(got, expected):
    assert got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _reference_steps(S, reference, cfg, k, epochs, labelled, labels):
    """The operands of every step, built minibatch by minibatch with
    ``reference``, a sampler in the model's starting state."""
    steps = []
    for epoch in range(epochs):
        for batch in minibatch_indices(S.nrows, cfg.batch_size, seed=cfg.seed + epoch):
            n = batch.size
            negs = reference.sample((n, k)) if k > 0 else np.empty((n, 0), np.int64)
            A_batch = S.select_rows(batch)
            if labelled:
                A_batch = with_negatives(A_batch, negs, A_batch.data if labels is None else labels)
            steps.append((batch, A_batch, negs))
    return steps


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("backend", EMBEDDING_BACKENDS)
def test_force2vec_epoch_operands_equal_a_per_batch_build(graph, backend, k):
    cfg = Force2VecConfig(
        dim=8, batch_size=64, seed=5, backend=backend, negative_samples=k, num_threads=1
    )
    model = Force2Vec(graph, cfg)
    A = model.adjacency
    reference = NegativeSampler(A.nrows, degrees=A.row_degrees(), seed=cfg.seed + 7)
    labelled = backend in ("fused", "fused_generic")
    expected = _reference_steps(A, reference, cfg, k, 2, labelled, 1.0)
    seen = []
    gradient = model._batch_gradient

    def spy(batch, Y, A_batch, negs):
        seen.append((batch, A_batch, negs))
        return gradient(batch, Y, A_batch, negs)

    model._batch_gradient = spy
    model.train(2)
    model._runtime.close()
    assert len(seen) == len(expected) == 8  # 240 = 3 * 64 + a short batch of 48
    assert seen[3][0].size == 48
    for (batch, A_batch, negs), (ref_batch, ref_A, ref_negs) in zip(seen, expected):
        assert np.array_equal(batch, ref_batch)
        _assert_csr_equal(A_batch, ref_A)
        assert negs.dtype == ref_negs.dtype and np.array_equal(negs, ref_negs)
    assert model._sampler.get_state() == reference.get_state()


@pytest.mark.parametrize("k", [0, 3])
def test_verse_epoch_operands_equal_a_per_batch_build(graph, k):
    cfg = VerseConfig(dim=8, batch_size=64, seed=5, noise_samples=k, num_threads=1)
    model = Verse(graph, cfg)
    reference = NegativeSampler(graph.num_vertices, seed=cfg.seed + 13)
    expected = _reference_steps(model.similarity, reference, cfg, k, 2, True, None)
    seen = []
    run_on = model._stream.run_on
    model._stream.run_on = lambda A, X, Y: seen.append(A) or run_on(A, X, Y)
    model.train(2)
    model._runtime.close()
    assert len(seen) == len(expected) == 8
    for A, (_, ref_A, _) in zip(seen, expected):
        _assert_csr_equal(A, ref_A)
    assert model._sampler.get_state() == reference.get_state()
