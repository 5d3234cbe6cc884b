"""Force2Vec graph embedding (the end-to-end application of Table VIII).

Force2Vec [Rahman, Sujon, Azad — ICDM 2020] learns node embeddings with a
force-directed objective optimised by minibatch SGD with negative sampling.
The per-batch gradient decomposes into

* an **attractive** term over the edges of the batch vertices,
  ``grad_attr[u] = Σ_{v ∈ N(u)} (σ(x_u·x_v) − 1) · x_v``, and
* a **repulsive** term over ``k`` sampled negatives per vertex,
  ``grad_rep[u] = Σ_{j} σ(x_u·x_{n_j}) · x_{n_j}``.

Both terms are one FusedMM pattern, ``sigmoid_residual``:
``Σ_v (σ(x_u·x_v) − a_uv) · x_v`` with the label ``a_uv`` stored as the
edge value — 1 on the batch rows' real edges, 0 on the negatives appended
to the same rows (:func:`~repro.apps.sampling.with_negatives`).  The
FusedMM backends therefore make one kernel call per minibatch and gather
every neighbour vector once.  The baselines of Table VIII (``unfused``,
``dense``) keep the three-call form the frameworks run: a σ-aggregate
over the edges, a plain SpMM over the same edges (the ``− 1`` part), and
a σ-aggregate over the negatives.  The end-to-end comparison of Table VIII
is therefore a kernel comparison plus this gradient fusion — the paper's
25–45× speedups over DGL/PyTorch come from swapping the kernel — as long
as the trainer's own glue stays small.  None of the glue reads the
embeddings, so :meth:`Force2Vec.train_epoch` builds every minibatch's
operands once per epoch (:func:`~repro.apps.sampling.epoch_operands`: one
row selection, one negative draw from a guide table, one labelling) and
each step takes a row slice.  A traced ``perfbench`` epoch on the flickr
twin (d=128, batch 256, one kernel thread, 2-vCPU x86 host) spends
~140 ms in 79 kernel calls and ~43 ms in glue: 2.4 ms selecting rows,
2 ms sampling and ~39 ms of the trainer's own array work (gradient
clipping, the row updates, the float32 mirror and the epoch's labelling).
Built per minibatch, the glue was ~70 ms (10 ms of row selection and
21 ms of sampling).  The results are bitwise those of a per-minibatch
build.

The ``backend`` knob selects which kernel implementation performs the work:

``"fused"``     FusedMM on ``kernel_backend`` (this paper; ``auto`` runs
                the jit or the generated kernel)
``"fused_generic"``  the unoptimized reference FusedMM (Alg. 1)
``"unfused"``   the DGL-style SDDMM → H → SpMM pipeline
``"dense"``     the PyTorch-style dense-tensor implementation
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..baselines.dense import dense_sigmoid_embedding, dense_spmm
from ..baselines.unfused import unfused_fusedmm
from ..core.fused import fusedmm
from ..errors import BackendError, ShapeError
from ..graphs.features import random_features
from ..graphs.graph import Graph
from ..runtime import KernelRuntime, RuntimeOptions
from ..sparse import CSRMatrix
from .sampling import NegativeSampler, epoch_operands, minibatch_indices

__all__ = ["Force2VecConfig", "EpochStats", "Force2Vec", "EMBEDDING_BACKENDS"]

EMBEDDING_BACKENDS = ("fused", "fused_generic", "unfused", "dense")


@dataclass
class Force2VecConfig(RuntimeOptions):
    """Hyper-parameters of Force2Vec training.

    The defaults follow the paper's end-to-end setup: ``dim=128``,
    ``batch_size=256``; the learning rate and negative-sample count follow
    the Force2Vec reference implementation.

    The kernel-execution knobs (``kernel_backend``, ``num_threads``,
    ``processes``, ``shard_min_nnz``) are inherited from
    :class:`~repro.runtime.RuntimeOptions` — one definition shared with
    every other app config and with ``ServeConfig``.
    """

    dim: int = 128
    batch_size: int = 256
    epochs: int = 5
    learning_rate: float = 0.02
    negative_samples: int = 5
    seed: int = 0
    backend: str = "fused"
    #: clip gradient norms to this value (0 disables clipping)
    max_grad_norm: float = 5.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.backend not in EMBEDDING_BACKENDS:
            raise BackendError(
                f"unknown embedding backend {self.backend!r}; expected {EMBEDDING_BACKENDS}"
            )
        if self.dim <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ShapeError("dim and batch_size must be positive, epochs non-negative")
        if self.negative_samples < 0:
            raise ShapeError("negative_samples must be non-negative")


@dataclass
class EpochStats:
    """Timing/bookkeeping of one training epoch (a Table VIII row datum)."""

    epoch: int
    seconds: float
    kernel_seconds: float
    num_batches: int
    loss: Optional[float] = None


class Force2Vec:
    """Minibatched Force2Vec trainer with pluggable kernel backend.

    Example
    -------
    >>> from repro.graphs import load_dataset
    >>> from repro.apps import Force2Vec, Force2VecConfig
    >>> g = load_dataset("cora")
    >>> model = Force2Vec(g, Force2VecConfig(dim=32, epochs=1, seed=0))
    >>> embeddings = model.train()
    >>> embeddings.shape
    (2708, 32)
    """

    #: The config class a bare ``Force2Vec(graph)`` trains with.
    config_class = Force2VecConfig

    def __init__(self, graph: Graph, config: Force2VecConfig | None = None) -> None:
        self.graph = graph
        self.config = config or self.config_class()
        self.adjacency: CSRMatrix = graph.adjacency
        if self.adjacency.nrows != self.adjacency.ncols:
            raise ShapeError(
                f"{type(self).__name__} expects a square (whole-graph) adjacency matrix"
            )
        self.embeddings = random_features(
            graph.num_vertices, self.config.dim, seed=self.config.seed
        ).astype(np.float64)
        self._matrix, self._labels, self._sampler = self._objective()
        # The matrix is fixed across all epochs; bind the gradient pattern
        # to a cached plan once and stream every minibatch through it.
        # With ``processes`` set, large minibatch kernels run on the
        # sharded multi-process tier (bitwise identical results).
        self._runtime = KernelRuntime(
            cache_size=4,
            # Block autotuning sizes against the real embedding
            # dimension, not the 128 default.
            autotune_dim=self.config.dim,
            **self.config.runtime_kwargs(),
        )
        self._stream = self._runtime.epochs(
            self._matrix,
            pattern="sigmoid_residual",
            backend=self.config.kernel_backend,
        )
        # Seconds in kernel calls made outside the stream (the baseline
        # backends); the stream keeps its own clock.
        self._direct_seconds = 0.0
        self.history: List[EpochStats] = []

    def _objective(self) -> Tuple[CSRMatrix, Optional[float], NegativeSampler]:
        """``(matrix, labels, sampler)``: the matrix whose rows the
        minibatches select, the label of its real edges (``None`` labels
        each edge with its stored value) and the noise sampler.  Force2Vec
        trains on the adjacency with label 1 and degree-biased negatives;
        :class:`~repro.apps.verse.Verse` overrides this."""
        sampler = NegativeSampler(
            self.graph.num_vertices,
            degrees=self.adjacency.row_degrees(),
            seed=self.config.seed + 7,
        )
        return self.adjacency, 1.0, sampler

    # ------------------------------------------------------------------ #
    # Kernel dispatch
    # ------------------------------------------------------------------ #
    def _timed(self, kernel: Callable, *args, **kwargs) -> np.ndarray:
        t0 = time.perf_counter()
        Z = kernel(*args, **kwargs)
        self._direct_seconds += time.perf_counter() - t0
        return Z

    def _kernel_seconds(self) -> float:
        """Seconds spent in kernel calls so far."""
        return self._stream.kernel_seconds + self._direct_seconds

    def _residual_aggregate(
        self, A: CSRMatrix, X: np.ndarray, Y: np.ndarray
    ) -> np.ndarray:
        """``Σ_v (σ(x_u·y_v) − a_uv) y_v`` over a labelled batch matrix
        (:func:`~repro.apps.sampling.with_negatives`): the whole gradient
        in one FusedMM call."""
        if self.config.backend == "fused":
            return self._stream.run_on(A, X, Y)
        return self._timed(
            fusedmm, A, X, Y, pattern="sigmoid_residual", backend="generic"
        )

    def _sigmoid_aggregate(self, A: CSRMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``Σ_v σ(x_u·y_v) y_v`` on a baseline backend."""
        if self.config.backend == "unfused":
            return self._timed(unfused_fusedmm, A, X, Y, pattern="sigmoid_embedding")
        return self._timed(dense_sigmoid_embedding, A, X, Y)

    def _plain_aggregate(self, A: CSRMatrix, Y: np.ndarray) -> np.ndarray:
        """``Σ_v a_uv y_v`` (plain SpMM) on a baseline backend."""
        if self.config.backend == "unfused":
            X_dummy = np.zeros((A.nrows, Y.shape[1]), dtype=Y.dtype)
            return self._timed(unfused_fusedmm, A, X_dummy, Y, pattern="gcn")
        return self._timed(dense_spmm, A, Y)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _epoch_operands(self, batches):
        """``(batch, A_batch, negatives)`` per minibatch, built once for the
        epoch (:func:`~repro.apps.sampling.epoch_operands`).  On the FusedMM
        backends ``A_batch`` is the labelled matrix: the
        :meth:`_objective` label on the real edges, 0 on the negatives."""
        fused = self.config.backend in ("fused", "fused_generic")
        return epoch_operands(
            self._matrix, batches, self._sampler, self.config.negative_samples,
            self._labels, labelled=fused,
        )

    def _batch_gradient(
        self, batch: np.ndarray, Y: np.ndarray, A_batch: CSRMatrix, negs: np.ndarray
    ) -> np.ndarray:
        """Gradient of the Force2Vec objective for one vertex minibatch;
        ``Y`` is the float32 mirror of :attr:`embeddings` and
        ``A_batch``/``negs`` come from :meth:`_epoch_operands`."""
        cfg = self.config
        n, k = negs.shape
        Xb = Y[batch]

        if cfg.backend in ("fused", "fused_generic"):
            # ``A_batch`` is labelled: one kernel call.
            grad = self._residual_aggregate(A_batch, Xb, Y).astype(np.float64)
        else:
            # The Table VIII baselines keep the three-term form:
            # Σ σ·y over the edges, minus Σ y over the same edges, plus
            # Σ σ·y over the negatives.  ``A_batch`` is private to this
            # call, so its structure is shared.
            ones_batch = CSRMatrix(
                n, A_batch.ncols, A_batch.indptr, A_batch.indices,
                np.ones(A_batch.nnz, dtype=np.float32), check=False,
            )
            grad = self._sigmoid_aggregate(A_batch, Xb, Y).astype(np.float64)
            grad -= self._plain_aggregate(ones_batch, Y).astype(np.float64)
            if k > 0:
                indptr = np.arange(0, (n + 1) * k, k, dtype=np.int64)
                A_neg = CSRMatrix(
                    n, A_batch.ncols, indptr, negs.reshape(-1),
                    np.ones(negs.size, dtype=np.float32), check=False,
                )
                grad += self._sigmoid_aggregate(A_neg, Xb, Y).astype(np.float64)

        if cfg.max_grad_norm > 0:
            norms = np.linalg.norm(grad, axis=1, keepdims=True)
            scale = np.minimum(1.0, cfg.max_grad_norm / np.maximum(norms, 1e-12))
            grad *= scale
        return grad

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        """Run one epoch (one pass over all vertices in minibatches)."""
        cfg = self.config
        t_epoch = time.perf_counter()
        k_epoch = self._kernel_seconds()
        # The kernels read float32 embeddings.  Convert the whole matrix
        # once per epoch (so ``load_state`` or a reassigned ``embeddings``
        # is picked up) and then refresh only the rows each step updates:
        # casting a row gives the same bits as casting the whole matrix.
        Y = self.embeddings.astype(np.float32)
        batches = list(
            minibatch_indices(self.graph.num_vertices, cfg.batch_size, seed=cfg.seed + epoch)
        )
        for batch, A_batch, negs in self._epoch_operands(batches):
            grad = self._batch_gradient(batch, Y, A_batch, negs)
            # ``embeddings[batch] -= step`` and the mirror refreshed from
            # the same gathered rows: one gather per updated row block.
            rows = self.embeddings[batch]
            rows -= cfg.learning_rate * grad
            self.embeddings[batch] = rows
            Y[batch] = rows
        stats = EpochStats(
            epoch=epoch,
            seconds=time.perf_counter() - t_epoch,
            kernel_seconds=self._kernel_seconds() - k_epoch,
            num_batches=len(batches),
        )
        self.history.append(stats)
        return stats

    def train(
        self,
        epochs: Optional[int] = None,
        *,
        callback: Optional[Callable[[EpochStats], None]] = None,
    ) -> np.ndarray:
        """Train for ``epochs`` epochs and return the learned embeddings."""
        epochs = self.config.epochs if epochs is None else epochs
        for epoch in range(epochs):
            stats = self.train_epoch(epoch)
            if callback is not None:
                callback(stats)
        return self.embeddings.astype(np.float32)

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Everything needed to continue training bitwise-identically:
        the embeddings, the completed-epoch count, the negative sampler's
        generator state (stateful across epochs — the minibatch order is a
        pure function of ``seed + epoch`` and needs no persisting) and the
        epoch history.  Arrays are returned as copies; the rest is
        JSON-able, so the dict drops straight into a checkpoint."""
        return {
            "embeddings": self.embeddings.copy(),
            "epochs_completed": len(self.history),
            "sampler_state": self._sampler.get_state(),
            "history": [asdict(s) for s in self.history],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`export_state` snapshot; the next
        :meth:`train_epoch` continues exactly where the snapshot left off
        (same dtype, same sampler stream position)."""
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
        """The trainer's :meth:`KernelRuntime.stats` snapshot — plan-cache
        hit rate, scheduling counters, shard-tier state."""
        return self._runtime.stats()

    def serve_output(self) -> np.ndarray:
        """The servable per-vertex matrix (the learned embeddings) — the
        uniform lookup surface :mod:`repro.serve`'s model registry reads
        behind ``/v1/embed/<model>``."""
        return self.embeddings.astype(np.float32)

    # ------------------------------------------------------------------ #
    def average_epoch_seconds(self) -> float:
        """Mean wall-clock seconds per epoch over the recorded history (the
        quantity reported in Table VIII)."""
        if not self.history:
            return 0.0
        return float(np.mean([s.seconds for s in self.history]))

    def loss_estimate(self, sample_edges: int = 4096, seed: int = 0) -> float:
        """Monte-Carlo estimate of the negative log-likelihood objective on a
        random sample of edges plus an equal number of negative pairs."""
        rng = np.random.default_rng(seed)
        A = self.adjacency
        X = self.embeddings
        if A.nnz == 0:
            return 0.0
        edge_rows = np.repeat(np.arange(A.nrows, dtype=np.int64), A.row_degrees())
        idx = rng.integers(0, A.nnz, size=min(sample_edges, A.nnz))
        u, v = edge_rows[idx], A.indices[idx]
        pos_scores = np.einsum("ij,ij->i", X[u], X[v])
        neg_v = rng.integers(0, A.ncols, size=u.shape[0])
        neg_scores = np.einsum("ij,ij->i", X[u], X[neg_v])
        eps = 1e-9
        pos_term = -np.log(np.clip(1.0 / (1.0 + np.exp(-pos_scores)), eps, 1.0))
        neg_term = -np.log(np.clip(1.0 - 1.0 / (1.0 + np.exp(-neg_scores)), eps, 1.0))
        return float(np.mean(pos_term) + np.mean(neg_term))
