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

:data:`APPS` is the one table of the app kinds the model registry and the
job supervisor build, and :func:`build_app` the one factory behind both.
"""

import importlib
from typing import NamedTuple, Tuple


class AppKind(NamedTuple):
    """One buildable app: its class, its config class and the config
    fields that a spec's dimension and epoch count set."""

    cls: type
    config: type
    dim_field: str = "dim"
    epochs_field: str = "epochs"


#: The app kinds, one per application class (the keys of :data:`APPS`).
#: A literal, so reading the kind list imports no trainer.
APP_KINDS: Tuple[str, ...] = ("force2vec", "verse", "gcn", "fr_layout")

#: Submodule -> the public names it provides.  The trainers, the
#: classifier and the baselines they pull in load on first access (module
#: ``__getattr__``), so ``repro.serve``, ``repro.jobs`` and worker hosts
#: import this package for :data:`APP_KINDS` and :func:`build_app` without
#: paying for them.
_EXPORTS = {
    "classify": (
        "LogisticRegressionClassifier",
        "accuracy",
        "evaluate_embeddings",
        "f1_macro",
        "f1_micro",
        "train_test_split_indices",
    ),
    "force2vec": (
        "EMBEDDING_BACKENDS",
        "EpochStats",
        "Force2Vec",
        "Force2VecConfig",
    ),
    "fr_layout": ("FRLayout", "FRLayoutConfig"),
    "gcn": ("GCN", "GCN_BACKENDS", "GCNConfig", "normalize_adjacency"),
    "gnn_mlp": ("MLPGNN", "MLPGNNLayer"),
    "sampling": (
        "NegativeSampler",
        "epoch_operands",
        "minibatch_indices",
        "with_negatives",
    ),
    "verse": ("Verse", "VerseConfig"),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}


def _apps():
    from .force2vec import Force2Vec, Force2VecConfig
    from .fr_layout import FRLayout, FRLayoutConfig
    from .gcn import GCN, GCNConfig
    from .verse import Verse, VerseConfig

    return {
        "force2vec": AppKind(Force2Vec, Force2VecConfig),
        "verse": AppKind(Verse, VerseConfig),
        "gcn": AppKind(GCN, GCNConfig, dim_field="hidden_dim"),
        "fr_layout": AppKind(FRLayout, FRLayoutConfig, epochs_field="iterations"),
    }


def __getattr__(name: str):
    if name == "APPS":
        value = _apps()
    elif name in _LAZY:
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def build_app(kind: str, dataset: str, *, scale: float, dim: int, epochs: int, **config):
    """Load ``dataset`` at ``scale`` and build the untrained ``kind`` app.

    ``dim`` and ``epochs`` set the config fields :data:`APPS` names for
    ``kind``; ``config`` passes any other config field (seed, runtime
    knobs, learning rate, ...).  A config field the app does not have is
    a :class:`TypeError`.  Returns ``(graph, app)``.
    """
    from ..graphs.datasets import load_dataset
    from . import APPS

    entry = APPS[kind]
    load_kwargs = {"scale": scale}
    if kind == "gcn":
        # GCN needs node features; give the synthetic twin random ones.
        load_kwargs["feature_dim"] = max(dim, 8)
    graph = load_dataset(dataset, **load_kwargs)
    app_config = entry.config(**{entry.dim_field: dim, entry.epochs_field: epochs}, **config)
    return graph, entry.cls(graph, config=app_config)


__all__ = [
    "APPS",
    "APP_KINDS",
    "AppKind",
    "build_app",
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
