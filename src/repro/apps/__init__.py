"""Applications built on the FusedMM kernel.

* :class:`~repro.apps.force2vec.Force2Vec` — minibatched force-directed
  embedding with negative sampling (the end-to-end benchmark of
  Table VIII).
* :class:`~repro.apps.verse.Verse` — VERSE-style similarity embedding.
* :class:`~repro.apps.fr_layout.FRLayout` — Fruchterman–Reingold layout.
* :class:`~repro.apps.gcn.GCN` — two-layer graph convolutional network.
* :class:`~repro.apps.gnn_mlp.MLPGNN` — GNN with MLP edge messages and max
  pooling (the user-defined-operator example).
* :mod:`~repro.apps.classify` — logistic-regression node-classification
  evaluation and F1 metrics (Section V.D accuracy check).
* :mod:`~repro.apps.sampling` — minibatching and negative sampling.
"""

from .classify import (
    LogisticRegressionClassifier,
    accuracy,
    evaluate_embeddings,
    f1_macro,
    f1_micro,
    train_test_split_indices,
)
from .force2vec import EMBEDDING_BACKENDS, EpochStats, Force2Vec, Force2VecConfig
from .fr_layout import FRLayout, FRLayoutConfig
from .gcn import GCN, GCN_BACKENDS, GCNConfig, normalize_adjacency
from .gnn_mlp import MLPGNN, MLPGNNLayer
from .sampling import NegativeSampler, epoch_operands, minibatch_indices, with_negatives
from .verse import Verse, VerseConfig

__all__ = [
    "Force2Vec",
    "Force2VecConfig",
    "EpochStats",
    "EMBEDDING_BACKENDS",
    "Verse",
    "VerseConfig",
    "FRLayout",
    "FRLayoutConfig",
    "GCN",
    "GCNConfig",
    "GCN_BACKENDS",
    "normalize_adjacency",
    "MLPGNN",
    "MLPGNNLayer",
    "LogisticRegressionClassifier",
    "evaluate_embeddings",
    "f1_micro",
    "f1_macro",
    "accuracy",
    "train_test_split_indices",
    "NegativeSampler",
    "minibatch_indices",
    "with_negatives",
    "epoch_operands",
]
