"""VERSE-style graph embedding (the second embedding model of Fig. 1(b)).

VERSE [Tsitsulin et al., WWW 2018] learns embeddings so that the sigmoid of
the embedding dot product matches a vertex-similarity distribution (in its
simplest instantiation: adjacency similarity), trained with noise-
contrastive estimation.  The per-step update for a sampled vertex ``u``
uses the same message-passing shape as Force2Vec — σ(x_uᵀ y_v) multiplied
with the neighbour vector and summed — which is exactly the FusedMM
``sigmoid_embedding`` pattern.  The trainer below differs from
:class:`~repro.apps.force2vec.Force2Vec` only in its objective bookkeeping
(positive targets are 1 for neighbours, 0 for noise samples) and in
sampling one positive *distribution row* per vertex rather than a fixed
minibatch of edges, matching the original algorithm's stochastic scheme.
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
from .force2vec import EpochStats
from .sampling import NegativeSampler, minibatch_indices

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
        # Plans for the similarity distribution are resolved once and
        # streamed: minibatch row slices and sampled noise matrices run
        # through the cached plans via ``run_on`` (and through the sharded
        # worker tier when ``processes`` is set).
        self._runtime = KernelRuntime(
            cache_size=4,
            # Panel geometry / reorder sweeps size against the real
            # embedding dimension, not the 128 default.
            autotune_dim=self.config.dim,
            **self.config.runtime_kwargs(),
        )
        self._sig_stream = self._runtime.epochs(
            self.similarity,
            pattern="sigmoid_embedding",
            backend=self.config.kernel_backend,
            reorder=self.config.reorder,
        )
        self._agg_stream = self._runtime.epochs(
            self.similarity,
            pattern="gcn",
            backend=self.config.kernel_backend,
            reorder=self.config.reorder,
        )
        self.history: List[EpochStats] = []

    def _batch_gradient(self, batch: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``Y`` is the float32 mirror of :attr:`embeddings`."""
        cfg = self.config
        Xb = Y[batch]

        # Positive part: pull towards similarity-weighted neighbours.
        S_batch = self.similarity.select_rows(batch)
        sig_pos = self._sig_stream.run_on(S_batch, Xb, Y)
        target_pos = self._agg_stream.run_on(S_batch, None, Y)
        grad = sig_pos.astype(np.float64) - target_pos.astype(np.float64)

        # Noise part: push away from sampled noise vertices.
        if cfg.noise_samples > 0:
            negs = self._sampler.sample((batch.shape[0], cfg.noise_samples))
            indptr = np.arange(
                0,
                (batch.shape[0] + 1) * cfg.noise_samples,
                cfg.noise_samples,
                dtype=np.int64,
            )
            A_neg = CSRMatrix(
                batch.shape[0],
                self.adjacency.ncols,
                indptr,
                negs.reshape(-1),
                np.ones(negs.size, dtype=np.float32),
                check=False,
            )
            grad += self._sig_stream.run_on(A_neg, Xb, Y).astype(np.float64)
        return grad

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        """One pass over all vertices in shuffled minibatches."""
        cfg = self.config
        t0 = time.perf_counter()
        kernel_time = 0.0
        num_batches = 0
        # Float32 mirror of the embeddings, converted once per epoch and
        # refreshed row-wise after each step (see ``Force2Vec.train_epoch``).
        Y = self.embeddings.astype(np.float32)
        for batch in minibatch_indices(
            self.graph.num_vertices, cfg.batch_size, seed=cfg.seed + epoch
        ):
            t_k = time.perf_counter()
            grad = self._batch_gradient(batch, Y)
            kernel_time += time.perf_counter() - t_k
            self.embeddings[batch] -= cfg.learning_rate * grad
            Y[batch] = self.embeddings[batch]
            num_batches += 1
        stats = EpochStats(
            epoch=epoch,
            seconds=time.perf_counter() - t0,
            kernel_seconds=kernel_time,
            num_batches=num_batches,
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
