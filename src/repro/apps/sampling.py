"""Minibatching and negative sampling utilities for embedding training.

FusedMM itself "does not perform minibatching, which is done at the
application layer" (Section III.C).  The application layer lives here:

* :func:`minibatch_indices` — deterministic shuffled minibatches of vertex
  ids, the unit of work of one Force2Vec/VERSE training step (the paper
  uses batch size 256).
* :class:`NegativeSampler` — uniform or degree-biased (unigram^0.75)
  negative vertex sampling, the standard choice of word2vec-style
  embedding objectives.  A degree-biased draw is O(1): a guide table over
  the CDF starts each draw within a step or two of its vertex, and the
  vertices and generator state are those of ``Generator.choice``.
* :func:`with_negatives` — one minibatch's edges and its sampled negatives
  as one labelled CSR matrix, the operand of the one-call gradient kernel
  (the ``sigmoid_residual`` pattern).
* :func:`epoch_operands` — every minibatch operand of one epoch, built
  with one row selection, one negative draw and one labelling for the
  whole epoch and handed out as row slices.  None of that work reads the
  embeddings, so it need not run once per minibatch, and the operands are
  bitwise those of a per-minibatch build.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..sparse import CSRMatrix

__all__ = ["minibatch_indices", "NegativeSampler", "with_negatives", "epoch_operands"]

#: Walks past the guide-table start that :meth:`NegativeSampler.sample`
#: takes before it binary-searches the draws still short of their vertex.
#: A walk crosses the CDF values inside one guide bucket, at most 3 on
#: the flickr twin; only a long run of equal CDF values (vertices of
#: near-zero weight) needs more.
_GUIDE_WALK = 4


def minibatch_indices(
    num_vertices: int,
    batch_size: int,
    *,
    shuffle: bool = True,
    seed: Optional[int] = None,
    drop_last: bool = False,
) -> Iterator[np.ndarray]:
    """Yield minibatches of vertex indices covering ``[0, num_vertices)``.

    Parameters
    ----------
    batch_size:
        Vertices per batch (the paper's end-to-end runs use 256).
    shuffle:
        Shuffle the vertex order each call (deterministic given ``seed``).
    drop_last:
        Drop the final short batch instead of yielding it.
    """
    if num_vertices < 0:
        raise ShapeError("num_vertices must be non-negative")
    if batch_size <= 0:
        raise ShapeError("batch_size must be positive")
    order = np.arange(num_vertices, dtype=np.int64)
    if shuffle:
        np.random.default_rng(seed).shuffle(order)
    for start in range(0, num_vertices, batch_size):
        batch = order[start : start + batch_size]
        if drop_last and batch.shape[0] < batch_size:
            return
        yield batch


class NegativeSampler:
    """Sample negative (non-neighbour, in expectation) vertices.

    Parameters
    ----------
    num_vertices:
        Size of the vertex universe to sample from.
    degrees:
        Optional per-vertex degrees.  When given, vertices are sampled with
        probability proportional to ``degree^power`` (the unigram^0.75
        heuristic); otherwise sampling is uniform.
    power:
        Exponent applied to the degree distribution.
    seed:
        Seed of the internal generator; the sampler is deterministic and
        stateful (successive calls advance the stream).
    """

    def __init__(
        self,
        num_vertices: int,
        degrees: Optional[np.ndarray] = None,
        *,
        power: float = 0.75,
        seed: Optional[int] = None,
    ) -> None:
        if num_vertices <= 0:
            raise ShapeError("num_vertices must be positive")
        self.num_vertices = int(num_vertices)
        self._rng = np.random.default_rng(seed)
        if degrees is None:
            self._cdf = None
        else:
            degrees = np.asarray(degrees, dtype=np.float64)
            if degrees.shape != (num_vertices,):
                raise ShapeError(
                    f"degrees must have shape ({num_vertices},), got {degrees.shape}"
                )
            weights = np.power(np.maximum(degrees, 1e-12), power)
            probs = weights / weights.sum()
            # ``Generator.choice(p=probs)`` re-validates ``probs`` and
            # rebuilds this inverse-CDF table on every call.  Built once,
            # it draws the same stream and leaves the same generator state.
            self._cdf = probs.cumsum()
            self._cdf /= self._cdf[-1]
            # Guide table: ``guide[j]`` counts the CDF values <= j/G, where
            # a draw in [j/G, (j+1)/G) starts its walk.  G is a power of two
            # in (2n, 4n], so ``cdf * G`` and ``u * G`` are exact.
            self._grid = 1 << (self.num_vertices.bit_length() + 1)
            slots = np.ceil(self._cdf * self._grid).astype(np.intp)
            self._guide = np.cumsum(np.bincount(slots, minlength=self._grid + 1))[:-1]

    def get_state(self) -> dict:
        """The internal generator's state — JSON-able, so checkpointing a
        trainer can persist the exact position of the negative stream."""
        return self._rng.bit_generator.state

    def set_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`get_state`; the next
        :meth:`sample` continues the stream bitwise-identically."""
        self._rng.bit_generator.state = state

    def sample(self, shape) -> np.ndarray:
        """Draw negative vertex ids with the configured distribution.

        ``shape`` may be an int or a tuple, e.g. ``(batch, k)`` for ``k``
        negatives per batch vertex.
        """
        if self._cdf is None:
            return self._rng.integers(0, self.num_vertices, size=shape, dtype=np.int64)
        uniform = self._rng.random(int(np.prod(shape)))
        # ``cdf.searchsorted(uniform, side="right")``, the vertex of
        # ``Generator.choice``: start at the guide entry of the draw's
        # bucket and step while the CDF value is <= the draw.
        cdf = self._cdf
        flat = self._guide[(uniform * self._grid).astype(np.intp)]
        walk = np.flatnonzero(cdf[flat] <= uniform)
        for _ in range(_GUIDE_WALK):
            if not walk.size:
                break
            flat[walk] += 1
            walk = walk[cdf[flat[walk]] <= uniform[walk]]
        if walk.size:
            flat[walk] = cdf.searchsorted(uniform[walk], side="right")
        return flat.reshape(shape).astype(np.int64, copy=False)


def with_negatives(A_batch: CSRMatrix, negatives: np.ndarray, labels) -> CSRMatrix:
    """``A_batch`` with ``k`` sampled negatives appended to every row.

    Row ``i`` of the result holds row ``i`` of ``A_batch`` (same columns,
    same order, valued ``labels``: a scalar or one value per stored edge)
    followed by the ``k`` columns ``negatives[i]`` valued 0.  The values
    are float32, the dtype of the embedding kernels' operands.
    """
    negatives = np.asarray(negatives, dtype=np.int64)
    n = A_batch.nrows
    if negatives.ndim != 2 or negatives.shape[0] != n:
        raise ShapeError(f"negatives must have shape ({n}, k), got {negatives.shape}")
    k = negatives.shape[1]
    # Row i gains k slots for each earlier row: positive edge e of row i
    # moves to e + k*i, and the negatives fill the last k slots of row i.
    shift = k * np.arange(n + 1, dtype=np.int64)
    indptr = A_batch.indptr + shift
    nnz = int(indptr[-1])
    pos = np.arange(A_batch.nnz, dtype=np.int64)
    pos += np.repeat(shift[:-1], A_batch.row_degrees())
    neg = (indptr[1:, None] - k + np.arange(k, dtype=np.int64)).reshape(-1)
    indices = np.empty(nnz, dtype=np.int64)
    indices[pos] = A_batch.indices
    indices[neg] = negatives.reshape(-1)
    data = np.zeros(nnz, dtype=np.float32)
    data[pos] = labels
    return CSRMatrix(n, A_batch.ncols, indptr, indices, data, check=False)


def epoch_operands(
    A: CSRMatrix,
    batches: List[np.ndarray],
    sampler: NegativeSampler,
    k: int,
    labels=None,
    *,
    labelled: bool = True,
) -> Iterator[Tuple[np.ndarray, CSRMatrix, np.ndarray]]:
    """Yield ``(batch, A_batch, negatives)`` for every minibatch of an epoch.

    ``negatives`` is ``sampler.sample((len(batch), k))`` and ``A_batch`` is
    ``with_negatives(A.select_rows(batch), negatives, labels)`` — the rows'
    stored values when ``labels`` is ``None`` — or, with
    ``labelled=False``, ``A.select_rows(batch)`` itself.  The epoch makes
    one :meth:`~repro.sparse.CSRMatrix.select_rows` call over the
    concatenated batches, one :meth:`NegativeSampler.sample` call and one
    :func:`with_negatives` call, and each minibatch takes a ``row_slice``.
    That is bitwise a per-minibatch build: successive draws of ``a`` and
    ``b`` values are the values, and leave the generator state, of one
    draw of ``a + b``.
    """
    if not batches:
        return
    order = np.concatenate(batches)
    rows = A.select_rows(order)
    if k > 0:
        negatives = sampler.sample((order.size, k))
    else:
        negatives = np.empty((order.size, 0), dtype=np.int64)
    if labelled:
        rows = with_negatives(rows, negatives, rows.data if labels is None else labels)
    bounds = np.cumsum([0] + [batch.size for batch in batches])
    for batch, lo, hi in zip(batches, bounds[:-1], bounds[1:]):
        yield batch, rows.row_slice(lo, hi), negatives[lo:hi]
