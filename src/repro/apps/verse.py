"""VERSE-style graph embedding (the second embedding model of Fig. 1(b)).

VERSE [Tsitsulin et al., WWW 2018] learns embeddings so that the sigmoid of
the embedding dot product matches a vertex-similarity distribution (in its
simplest instantiation: adjacency similarity), trained with noise-
contrastive estimation.  The per-step update for a sampled vertex ``u``
uses the same message-passing shape as Force2Vec — σ(x_uᵀ y_v) multiplied
with the neighbour vector and summed — which is exactly the FusedMM
``sigmoid_embedding`` pattern.  The trainer below differs from
:class:`~repro.apps.force2vec.Force2Vec` only in its objective bookkeeping
(positive targets are the similarity weights, 0 for noise samples) and in
its noise distribution (uniform rather than degree-biased).  As in
Force2Vec, the targets ride on the edge values of one labelled matrix, so
each minibatch's whole gradient is one ``sigmoid_residual`` FusedMM call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ShapeError
from ..graphs.features import random_features
from ..graphs.graph import Graph
from ..runtime import KernelRuntime, RuntimeOptions
from ..sparse import CSRMatrix
from .force2vec import EpochStats, update_rows
from .sampling import NegativeSampler, epoch_operands, minibatch_indices

__all__ = ["VerseConfig", "Verse"]


@dataclass
class VerseConfig(RuntimeOptions):
    """Hyper-parameters of VERSE training (adjacency-similarity variant).

    Kernel-execution knobs are inherited from
    :class:`~repro.runtime.RuntimeOptions`.  VERSE trains through minibatch
    row slices (``run_on``), which always execute in natural order — the
    ``reorder`` tier only accelerates full-matrix ``step`` calls, so
    non-"none" values mostly add plan-build cost here.
    """

    dim: int = 128
    batch_size: int = 256
    epochs: int = 5
    learning_rate: float = 0.025
    noise_samples: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dim <= 0 or self.batch_size <= 0:
            raise ShapeError("dim and batch_size must be positive")
        if self.noise_samples < 0:
            raise ShapeError("noise_samples must be non-negative")


class Verse:
    """VERSE trainer built on the FusedMM sigmoid-embedding kernel."""

    def __init__(self, graph: Graph, config: VerseConfig | None = None) -> None:
        self.graph = graph
        self.config = config or VerseConfig()
        self.adjacency: CSRMatrix = graph.adjacency
        if self.adjacency.nrows != self.adjacency.ncols:
            raise ShapeError("VERSE expects a square adjacency matrix")
        # Row-normalised adjacency is the similarity distribution Q of the
        # adjacency-similarity VERSE variant.
        degrees = np.maximum(self.adjacency.row_degrees().astype(np.float32), 1.0)
        self.similarity = self.adjacency.scale_rows(1.0 / degrees)
        self.embeddings = random_features(
            graph.num_vertices, self.config.dim, seed=self.config.seed
        ).astype(np.float64)
        self._sampler = NegativeSampler(graph.num_vertices, seed=self.config.seed + 13)
        # The gradient pattern is planned once for the similarity
        # distribution and streamed: every minibatch's labelled rows run
        # through the cached plan via ``run_on`` (and through the sharded
        # worker tier when ``processes`` is set).
        self._runtime = KernelRuntime(
            cache_size=4,
            # Panel geometry / reorder sweeps size against the real
            # embedding dimension, not the 128 default.
            autotune_dim=self.config.dim,
            **self.config.runtime_kwargs(),
        )
        self._stream = self._runtime.epochs(
            self.similarity,
            pattern="sigmoid_residual",
            backend=self.config.kernel_backend,
            reorder=self.config.reorder,
        )
        self.history: List[EpochStats] = []

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        """One pass over all vertices in shuffled minibatches.

        The positive part pulls each vertex towards its similarity-weighted
        neighbours and the noise part pushes it away from sampled noise
        vertices: ``Σ σ·y − Σ s_uv·y + Σ_noise σ·y``, which is one
        ``sigmoid_residual`` call per minibatch with label ``s_uv`` on the
        similarity entries and 0 on the noise samples.
        """
        cfg = self.config
        t0 = time.perf_counter()
        k0 = self._stream.kernel_seconds
        # Float32 mirror of the embeddings, converted once per epoch and
        # refreshed row-wise after each step (see ``Force2Vec.train_epoch``).
        Y = self.embeddings.astype(np.float32)
        batches = list(
            minibatch_indices(self.graph.num_vertices, cfg.batch_size, seed=cfg.seed + epoch)
        )
        # Labels ``None``: each similarity entry is labelled with its value.
        for batch, A, _ in epoch_operands(
            self.similarity, batches, self._sampler, cfg.noise_samples
        ):
            grad = self._stream.run_on(A, Y[batch], Y).astype(np.float64)
            update_rows(self.embeddings, Y, batch, cfg.learning_rate * grad)
        stats = EpochStats(
            epoch=epoch,
            seconds=time.perf_counter() - t0,
            kernel_seconds=self._stream.kernel_seconds - k0,
            num_batches=len(batches),
        )
        self.history.append(stats)
        return stats

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Embeddings + epoch count + noise-sampler stream position + the
        epoch history — the full bitwise-resume state (the minibatch order
        is a pure function of ``seed + epoch``)."""
        from dataclasses import asdict

        return {
            "embeddings": self.embeddings.copy(),
            "epochs_completed": len(self.history),
            "sampler_state": self._sampler.get_state(),
            "history": [asdict(s) for s in self.history],
        }

    def load_state(self, state: dict) -> None:
        """Restore an :meth:`export_state` snapshot bitwise."""
        embeddings = np.asarray(state["embeddings"])
        if embeddings.shape != self.embeddings.shape:
            raise ShapeError(
                f"state embeddings shape {embeddings.shape} does not match "
                f"model shape {self.embeddings.shape}"
            )
        self.embeddings = embeddings.copy()
        self._sampler.set_state(state["sampler_state"])
        self.history = [EpochStats(**s) for s in state.get("history", [])]

    @property
    def epochs_completed(self) -> int:
        """Epochs trained so far (the resume point of a checkpoint)."""
        return len(self.history)

    # ------------------------------------------------------------------ #
    def runtime_stats(self) -> dict:
        """The trainer's :meth:`KernelRuntime.stats` snapshot."""
        return self._runtime.stats()

    def serve_output(self) -> np.ndarray:
        """The servable per-vertex matrix (the learned embeddings) — the
        uniform lookup surface :mod:`repro.serve`'s model registry reads
        behind ``/v1/embed/<model>``."""
        return self.embeddings.astype(np.float32)

    def train(self, epochs: Optional[int] = None) -> np.ndarray:
        """Train and return the learned embeddings."""
        epochs = self.config.epochs if epochs is None else epochs
        for epoch in range(epochs):
            self.train_epoch(epoch)
        return self.embeddings.astype(np.float32)
