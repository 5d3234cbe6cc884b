"""1-D nnz-balanced partitioning (PART1D, Algorithm 1 line 2 / Fig. 4).

FusedMM partitions the rows of ``A`` (and with them the rows of ``X`` and
``Z``) into ``t`` contiguous blocks so that each block holds roughly
``nnz(A) / t`` nonzeros.  Threads then process blocks independently:
concurrent reads of ``Y`` are allowed, writes never overlap because every
output row belongs to exactly one block.

The paper argues (Section III.C) that 2-D (edge) partitioning is either
impossible (the sigmoid of a partial dot product is not the sigmoid of the
full dot product) or inefficient (partially aggregated results must be
stored and merged), which is why only 1-D partitioning is provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import PartitionError
from ..sparse import CSRMatrix

__all__ = ["RowPartition", "part1d", "split_parts", "partition_balance"]

#: Jobs above this nnz are split into multiple partition tasks.  One part
#: is roughly two default edge blocks of work — big enough that pool
#: dispatch overhead stays negligible, small enough that mid-sized graphs
#: (tens of thousands of edges) still parallelise.  Below the threshold
#: jobs run sequentially on purpose: for NumPy kernels that small, thread
#: fan-out costs more than it saves.
DEFAULT_SPLIT_NNZ = 16384
#: Upper bound on split tasks per job (keeps partitioning deterministic
#: and bounded regardless of pool width).
MAX_SPLIT = 8


@dataclass(frozen=True)
class RowPartition:
    """A contiguous block of rows assigned to one thread.

    Attributes
    ----------
    start, stop:
        Row range ``[start, stop)`` of this partition.
    nnz:
        Number of nonzeros in the partition (its computational weight,
        since FusedMM does O(d) work per nonzero).
    """

    start: int
    stop: int
    nnz: int

    @property
    def num_rows(self) -> int:
        """Number of rows in the partition."""
        return self.stop - self.start

    def __len__(self) -> int:  # pragma: no cover - convenience
        return self.num_rows


def part1d(A: CSRMatrix | np.ndarray, num_parts: int) -> List[RowPartition]:
    """Split the rows of ``A`` into ``num_parts`` contiguous, nnz-balanced
    partitions.

    Parameters
    ----------
    A:
        A CSR matrix, or directly its ``indptr`` array.
    num_parts:
        Number of partitions (threads).  May exceed the number of rows, in
        which case trailing partitions are empty.

    Returns
    -------
    list of :class:`RowPartition`
        Exactly ``num_parts`` entries covering ``[0, m)`` without gaps or
        overlaps, in row order.

    Notes
    -----
    The implementation scans the row-pointer array once (O(m), as stated in
    the paper) using ``searchsorted`` on evenly spaced nnz targets, then
    fixes up degenerate cases (empty matrix, huge single rows) so the cover
    invariant always holds.
    """
    if isinstance(A, CSRMatrix):
        indptr = A.indptr
    else:
        indptr = np.asarray(A, dtype=np.int64)
        if indptr.ndim != 1 or indptr.shape[0] == 0:
            raise PartitionError("indptr must be a non-empty 1-D array")
    if num_parts <= 0:
        raise PartitionError(f"num_parts must be positive, got {num_parts}")

    m = indptr.shape[0] - 1
    if num_parts == 1:
        # The common sequential case (every small minibatch slice), without
        # the searchsorted scan below.
        return [RowPartition(start=0, stop=m, nnz=int(indptr[m] - indptr[0]))]
    total_nnz = int(indptr[-1])

    # Target cumulative nnz at each partition boundary.
    targets = (np.arange(1, num_parts, dtype=np.float64) * total_nnz) / num_parts
    # For each target find the smallest row boundary whose cumulative nnz
    # reaches it.  searchsorted on indptr gives exactly that.
    cuts = np.searchsorted(indptr, targets, side="left").astype(np.int64)
    cuts = np.clip(cuts, 0, m)
    boundaries = np.concatenate(([0], cuts, [m]))
    # Boundaries must be non-decreasing; enforce monotonicity (can be
    # violated when single rows hold more than nnz/num_parts nonzeros).
    boundaries = np.maximum.accumulate(boundaries)

    parts: List[RowPartition] = []
    for i in range(num_parts):
        start, stop = int(boundaries[i]), int(boundaries[i + 1])
        nnz = int(indptr[stop] - indptr[start])
        parts.append(RowPartition(start=start, stop=stop, nnz=nnz))
    return parts


def split_parts(
    A: CSRMatrix, split_nnz: int = DEFAULT_SPLIT_NNZ
) -> List[RowPartition]:
    """The runtime's nnz-aware split of ``A``: ``ceil(nnz / split_nnz)``
    :func:`part1d` partitions, at least one and at most :data:`MAX_SPLIT`.

    The count depends on the matrix alone, never on how many threads or
    processes execute the parts, so results are bitwise identical across
    pool widths and shard counts.
    """
    nsplit = max(1, min(MAX_SPLIT, -(-A.nnz // max(split_nnz, 1))))
    return part1d(A, nsplit)


def partition_balance(parts: Sequence[RowPartition]) -> float:
    """Load-balance factor of a partitioning: ``max part nnz / mean part
    nnz`` over non-empty parts.  1.0 is perfect balance; the value is large
    when a single heavy row dominates (which 1-D partitioning cannot
    split — the documented limitation of the scheme)."""
    if not parts:
        raise PartitionError("empty partition list")
    sizes = np.asarray([p.nnz for p in parts], dtype=np.float64)
    total = sizes.sum()
    if total == 0:
        return 1.0
    nonzero_parts = max(1, int(np.count_nonzero(sizes)))
    mean = total / len(sizes) if len(sizes) <= nonzero_parts else total / nonzero_parts
    return float(sizes.max() / max(mean, 1e-12))
