"""Graph Convolutional Network (Fig. 1(c) / Table III row 3).

A two-layer GCN in the Kipf & Welling formulation:

``H¹ = ReLU(Â · X · W¹)``,  ``H² = softmax(Â · H¹ · W²)``

where ``Â = D^{-1/2} (A + I) D^{-1/2}`` is the symmetrically normalised
adjacency with self loops.  The sparse aggregation ``Â · (·)`` is exactly
the GCN/SpMM specialisation of FusedMM; the ``backend`` knob switches it
between the fused kernel, the unfused DGL-style pipeline and the vendor
(SciPy) SpMM so kernel choices can be compared end to end.

Training uses full-batch gradient descent on the softmax cross-entropy of
the labelled vertices; the backward pass is written out explicitly (the
aggregation is symmetric, so its adjoint is the same SpMM).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..baselines.mkl_like import vendor_spmm
from ..baselines.unfused import unfused_fusedmm
from ..errors import BackendError, ShapeError
from ..runtime import KernelRuntime, RuntimeOptions
from ..graphs.features import xavier_init
from ..graphs.graph import Graph
from ..sparse import CSRMatrix

__all__ = ["GCNConfig", "GCN", "normalize_adjacency", "GCN_BACKENDS"]

GCN_BACKENDS = ("fused", "unfused", "vendor")


def normalize_adjacency(A: CSRMatrix, *, add_self_loops: bool = True) -> CSRMatrix:
    """Symmetric GCN normalisation ``D^{-1/2} (A + I) D^{-1/2}``."""
    if A.nrows != A.ncols:
        raise ShapeError("normalize_adjacency expects a square matrix")
    work = A
    if add_self_loops:
        coo = A.to_coo()
        import numpy as _np

        rows = _np.concatenate([coo.rows, _np.arange(A.nrows, dtype=_np.int64)])
        cols = _np.concatenate([coo.cols, _np.arange(A.nrows, dtype=_np.int64)])
        vals = _np.concatenate([coo.vals, _np.ones(A.nrows, dtype=coo.vals.dtype)])
        from ..sparse import COOMatrix

        work = CSRMatrix.from_coo(COOMatrix(A.nrows, A.ncols, rows, cols, vals))
    degrees = np.maximum(work.row_degrees().astype(np.float64), 1.0)
    inv_sqrt = (1.0 / np.sqrt(degrees)).astype(np.float32)
    return work.scale_rows(inv_sqrt).scale_cols(inv_sqrt)


@dataclass
class GCNConfig(RuntimeOptions):
    """GCN architecture + training hyper-parameters.

    Kernel-execution knobs (``kernel_backend``, ``num_threads``,
    ``processes``, ``shard_min_nnz``) are inherited from
    :class:`~repro.runtime.RuntimeOptions`.
    """

    hidden_dim: int = 16
    learning_rate: float = 0.2
    epochs: int = 100
    weight_decay: float = 5e-4
    seed: int = 0
    backend: str = "fused"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.backend not in GCN_BACKENDS:
            raise BackendError(f"unknown GCN backend {self.backend!r}; expected {GCN_BACKENDS}")
        if self.hidden_dim <= 0:
            raise ShapeError("hidden_dim must be positive")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class GCN:
    """Two-layer GCN with selectable sparse-aggregation backend."""

    def __init__(
        self,
        graph: Graph,
        num_classes: Optional[int] = None,
        config: GCNConfig | None = None,
    ) -> None:
        self.graph = graph
        self.config = config or GCNConfig()
        if graph.features is None:
            raise ShapeError("GCN requires node features on the graph")
        if num_classes is None:
            num_classes = graph.num_classes
        if num_classes <= 0:
            raise ShapeError("GCN requires labelled graphs (num_classes > 0)")
        self.num_classes = num_classes
        self.A_hat = normalize_adjacency(graph.adjacency)
        cfg = self.config
        in_dim = graph.features.shape[1]
        self.W1 = xavier_init(in_dim, cfg.hidden_dim, seed=cfg.seed).astype(np.float64)
        self.W2 = xavier_init(cfg.hidden_dim, num_classes, seed=cfg.seed + 1).astype(
            np.float64
        )
        # The normalised adjacency is fixed for the whole training run, so
        # the fused aggregation is planned exactly once and streamed: every
        # forward/backward SpMM reuses the cached plan (sharded over worker
        # processes when ``processes`` is set).
        self._runtime = KernelRuntime(
            cache_size=4,
            # Two of the three aggregations per epoch run at hidden_dim,
            # so block autotuning sizes against it.
            autotune_dim=cfg.hidden_dim,
            **cfg.runtime_kwargs(),
        )
        self._agg_stream = self._runtime.epochs(
            self.A_hat,
            pattern="gcn",
            backend=cfg.kernel_backend,
        )
        self.history: List[Dict[str, float]] = []

    # ------------------------------------------------------------------ #
    def runtime_stats(self) -> Dict[str, object]:
        """The model's :meth:`KernelRuntime.stats` snapshot."""
        return self._runtime.stats()

    def serve_output(self) -> np.ndarray:
        """The servable per-vertex matrix (class probabilities) — the
        uniform lookup surface :mod:`repro.serve`'s model registry reads
        behind ``/v1/embed/<model>``."""
        return self.forward()["P"].astype(np.float32)

    # ------------------------------------------------------------------ #
    def _aggregate(self, M: np.ndarray) -> np.ndarray:
        """``Â · M`` with the configured backend."""
        backend = self.config.backend
        M32 = M.astype(np.float32)
        if backend == "fused":
            out = self._agg_stream.step(M32)
        elif backend == "unfused":
            X_dummy = np.zeros((self.A_hat.nrows, M32.shape[1]), dtype=np.float32)
            out = unfused_fusedmm(self.A_hat, X_dummy, M32, pattern="gcn")
        elif backend == "vendor":
            out = vendor_spmm(self.A_hat, M32)
        else:  # pragma: no cover
            raise BackendError(f"unknown backend {backend!r}")
        return out.astype(np.float64)

    def forward(self, features: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
        """Full forward pass; returns all intermediate activations (needed
        by the explicit backward pass)."""
        X = self.graph.features if features is None else features
        X = np.asarray(X, dtype=np.float64)
        AX = self._aggregate(X)
        Z1 = AX @ self.W1
        H1 = np.maximum(Z1, 0.0)
        AH1 = self._aggregate(H1)
        Z2 = AH1 @ self.W2
        P = _softmax(Z2)
        return {"X": X, "AX": AX, "Z1": Z1, "H1": H1, "AH1": AH1, "Z2": Z2, "P": P}

    def predict(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Predicted class per vertex."""
        return np.argmax(self.forward(features)["P"], axis=1).astype(np.int64)

    # ------------------------------------------------------------------ #
    def _loss_and_grads(self, cache: Dict[str, np.ndarray], labels: np.ndarray, mask: np.ndarray):
        """Cross-entropy on the masked vertices + explicit gradients."""
        P = cache["P"]
        n_labeled = max(int(mask.sum()), 1)
        onehot = np.zeros_like(P)
        onehot[np.arange(P.shape[0]), labels] = 1.0
        eps = 1e-12
        loss = -np.sum(mask[:, None] * onehot * np.log(P + eps)) / n_labeled
        loss += 0.5 * self.config.weight_decay * (np.sum(self.W1**2) + np.sum(self.W2**2))

        dZ2 = (P - onehot) * mask[:, None] / n_labeled
        dW2 = cache["AH1"].T @ dZ2 + self.config.weight_decay * self.W2
        # Â is symmetric, so the adjoint of the aggregation is the same SpMM.
        dAH1 = dZ2 @ self.W2.T
        dH1 = self._aggregate(dAH1)
        dZ1 = dH1 * (cache["Z1"] > 0)
        dW1 = cache["AX"].T @ dZ1 + self.config.weight_decay * self.W1
        return loss, dW1, dW2

    def _resolve_targets(self, labels, train_mask):
        """Validate and default the (labels, mask) pair fit/train_epoch use."""
        labels = self.graph.labels if labels is None else np.asarray(labels, dtype=np.int64)
        if labels is None:
            raise ShapeError("GCN.fit requires labels")
        n = self.graph.num_vertices
        if train_mask is None:
            train_mask = np.ones(n, dtype=bool)
        train_mask = np.asarray(train_mask, dtype=bool)
        if train_mask.shape != (n,):
            raise ShapeError(f"train_mask must have shape ({n},)")
        return labels, train_mask

    def train_epoch(
        self,
        epoch: int = 0,
        labels: Optional[np.ndarray] = None,
        train_mask: Optional[np.ndarray] = None,
    ) -> Dict[str, float]:
        """One full-batch gradient step (the body of :meth:`fit`'s loop),
        exposed so the job supervisor can drive all four apps through a
        uniform per-epoch surface."""
        labels, train_mask = self._resolve_targets(labels, train_mask)
        t0 = time.perf_counter()
        cache = self.forward()
        loss, dW1, dW2 = self._loss_and_grads(cache, labels, train_mask.astype(np.float64))
        self.W1 -= self.config.learning_rate * dW1
        self.W2 -= self.config.learning_rate * dW2
        pred = np.argmax(cache["P"], axis=1)
        acc = float(np.mean(pred[train_mask] == labels[train_mask]))
        stats = {
            "epoch": epoch,
            "loss": float(loss),
            "train_accuracy": acc,
            "seconds": time.perf_counter() - t0,
        }
        self.history.append(stats)
        return stats

    def fit(
        self,
        labels: Optional[np.ndarray] = None,
        train_mask: Optional[np.ndarray] = None,
        *,
        epochs: Optional[int] = None,
    ) -> List[Dict[str, float]]:
        """Train with full-batch gradient descent; returns per-epoch stats."""
        labels, train_mask = self._resolve_targets(labels, train_mask)
        epochs = self.config.epochs if epochs is None else epochs
        for epoch in range(epochs):
            self.train_epoch(epoch, labels, train_mask)
        return self.history

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Both weight matrices + the epoch history.  GCN training is
        full-batch and draws no per-epoch randomness, so the weights and
        the epoch counter are the complete resume state."""
        return {
            "W1": self.W1.copy(),
            "W2": self.W2.copy(),
            "epochs_completed": len(self.history),
            "history": [dict(h) for h in self.history],
        }

    def load_state(self, state: dict) -> None:
        """Restore an :meth:`export_state` snapshot bitwise."""
        W1 = np.asarray(state["W1"])
        W2 = np.asarray(state["W2"])
        if W1.shape != self.W1.shape or W2.shape != self.W2.shape:
            raise ShapeError(
                f"state weight shapes {W1.shape}/{W2.shape} do not match "
                f"model shapes {self.W1.shape}/{self.W2.shape}"
            )
        self.W1 = W1.copy()
        self.W2 = W2.copy()
        self.history = [dict(h) for h in state.get("history", [])]

    @property
    def epochs_completed(self) -> int:
        """Epochs trained so far (the resume point of a checkpoint)."""
        return len(self.history)

    def accuracy(self, labels: Optional[np.ndarray] = None, mask: Optional[np.ndarray] = None) -> float:
        """Classification accuracy on the (optionally masked) vertices."""
        labels = self.graph.labels if labels is None else np.asarray(labels, dtype=np.int64)
        pred = self.predict()
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            return float(np.mean(pred[mask] == labels[mask])) if mask.any() else 0.0
        return float(np.mean(pred == labels))
