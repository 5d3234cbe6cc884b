"""VERSE-style graph embedding (the second embedding model of Fig. 1(b)).

VERSE [Tsitsulin et al., WWW 2018] learns embeddings so that the sigmoid of
the embedding dot product matches a vertex-similarity distribution (in its
simplest instantiation: adjacency similarity), trained with noise-
contrastive estimation.  Its minibatch gradient is Force2Vec's
``sigmoid_residual`` one, ``Σ_v (σ(x_u·y_v) − a_uv) · y_v`` with ``a_uv``
riding on the edge values, so :class:`Verse` is the
:class:`~repro.apps.force2vec.Force2Vec` trainer — epoch loop, one FusedMM
call per minibatch, checkpointable state — with three differences, all
in :meth:`Verse._objective`:

* the rows come from the row-normalised adjacency :attr:`Verse.similarity`
  (the similarity distribution Q) instead of the adjacency;
* each edge is labelled with its stored value, the similarity weight,
  instead of 1;
* the noise sampler is uniform, seeded ``seed + 13``, instead of
  degree-biased.

It always runs on the fused backend and never clips its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..runtime import RuntimeOptions
from ..sparse import CSRMatrix
from .force2vec import Force2Vec
from .sampling import NegativeSampler

__all__ = ["VerseConfig", "Verse"]


@dataclass
class VerseConfig(RuntimeOptions):
    """Hyper-parameters of VERSE training (adjacency-similarity variant).

    The kernel-execution knobs are inherited from
    :class:`~repro.runtime.RuntimeOptions`.
    """

    dim: int = 128
    batch_size: int = 256
    epochs: int = 5
    learning_rate: float = 0.025
    noise_samples: int = 3
    seed: int = 0

    # The Force2Vec trainer settings VERSE fixes (class constants, not
    # config fields).
    backend = "fused"
    max_grad_norm = 0.0

    @property
    def negative_samples(self) -> int:
        """Force2Vec's name for :attr:`noise_samples`."""
        return self.noise_samples

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dim <= 0 or self.batch_size <= 0:
            raise ShapeError("dim and batch_size must be positive")
        if self.noise_samples < 0:
            raise ShapeError("noise_samples must be non-negative")


class Verse(Force2Vec):
    """VERSE trainer: Force2Vec's loop over the similarity matrix."""

    config_class = VerseConfig

    @property
    def similarity(self) -> CSRMatrix:
        """The row-normalised adjacency, VERSE's similarity distribution."""
        return self._matrix

    def _objective(self):
        degrees = np.maximum(self.adjacency.row_degrees().astype(np.float32), 1.0)
        sampler = NegativeSampler(self.graph.num_vertices, seed=self.config.seed + 13)
        return self.adjacency.scale_rows(1.0 / degrees), None, sampler
