"""Shard planning: distributing a plan's partitions over worker processes.

The multi-process execution tier reuses :attr:`KernelPlan.partitions` — the
nnz-balanced 1-D row partitions every plan already carries — as its unit of
distribution, exactly as the single-process runtime reuses them as its unit
of thread scheduling.  A :class:`ShardPlan` groups those partitions into
``num_shards`` contiguous, nnz-balanced shards; each shard is executed by
one worker agent of :class:`repro.runtime.remote.RemoteController` (a
local child process or a dial-in host).

Determinism
-----------
Sharding never re-partitions and never re-blocks: every shard executes its
partitions with the *original* :class:`~repro.core.partition.RowPartition`
objects against the *full* CSR matrix, and the edge-blocked kernels align
their blocks to the absolute edge grid of that matrix.  A row is therefore
processed with exactly the same gathers, segment reductions and
accumulation order no matter which shard (or thread, or the main process)
it lands in — results are bitwise identical to a sequential
single-process :func:`~repro.core.fused.fusedmm` call.  The test suite
asserts this for 1, 2 and 4 shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.partition import RowPartition
from ..errors import PartitionError

__all__ = ["ShardAssignment", "ShardPlan", "assign_shards", "route_shards"]


@dataclass(frozen=True)
class ShardAssignment:
    """The partitions one worker shard executes.

    Attributes
    ----------
    shard:
        Shard index in ``[0, num_shards)``.
    parts:
        The partitions assigned to this shard, in row order.  These are the
        plan's own :class:`RowPartition` objects — never recomputed ones.
    nnz:
        Total nonzeros of the shard (its computational weight).
    """

    shard: int
    parts: Tuple[RowPartition, ...]
    nnz: int

    @property
    def num_rows(self) -> int:
        """Total rows covered by this shard."""
        return sum(p.num_rows for p in self.parts)

    def __len__(self) -> int:  # pragma: no cover - convenience
        return len(self.parts)


@dataclass(frozen=True)
class ShardPlan:
    """A complete assignment of a plan's partitions to worker shards.

    Built by :func:`assign_shards`; consumed by
    :meth:`KernelRuntime.run_sharded`, which routes its assignments to the
    worker agents.  The assignment is a *partition* of
    the input list: every input :class:`RowPartition` appears in exactly one
    shard, in its original order (asserted by a hypothesis property test).
    """

    num_shards: int
    assignments: Tuple[ShardAssignment, ...]
    total_nnz: int

    @property
    def busy_shards(self) -> int:
        """Number of shards that received at least one nonzero of work."""
        return sum(1 for a in self.assignments if a.parts)

    def balance(self) -> float:
        """Load-balance factor: max shard nnz over mean busy-shard nnz."""
        sizes = [a.nnz for a in self.assignments if a.parts]
        if not sizes or self.total_nnz == 0:
            return 1.0
        mean = self.total_nnz / len(sizes)
        return float(max(sizes) / max(mean, 1e-12))

    def describe(self) -> Dict[str, object]:
        """Summary for logs, benchmarks and tests."""
        return {
            "num_shards": self.num_shards,
            "busy_shards": self.busy_shards,
            "total_nnz": self.total_nnz,
            "shard_nnz": [a.nnz for a in self.assignments],
            "shard_parts": [len(a.parts) for a in self.assignments],
            "balance": round(self.balance(), 4),
        }


def assign_shards(
    partitions: Sequence[RowPartition], num_shards: int
) -> ShardPlan:
    """Group ``partitions`` into ``num_shards`` contiguous nnz-balanced shards.

    The grouping mirrors :func:`~repro.core.partition.part1d` one level up:
    cumulative-nnz targets are placed at ``i * total / num_shards`` and each
    boundary snaps to the nearest partition edge at or past its target.
    Contiguity is deliberate — each shard covers one contiguous row range of
    ``Z``, so the parent can hand every worker a disjoint slice of the
    shared output buffer.

    The result is a partition of the input: no :class:`RowPartition` is
    lost, duplicated or reordered.  Shards may be empty when there are fewer
    partitions than shards (or when trailing partitions hold no work).
    """
    if num_shards <= 0:
        raise PartitionError(f"num_shards must be positive, got {num_shards}")
    parts = list(partitions)
    total_nnz = sum(p.nnz for p in parts)

    # Cumulative nnz at each partition boundary: cum[i] = nnz of parts[:i].
    cum = np.zeros(len(parts) + 1, dtype=np.int64)
    if parts:
        np.cumsum([p.nnz for p in parts], out=cum[1:])

    if total_nnz > 0:
        targets = (
            np.arange(1, num_shards, dtype=np.float64) * total_nnz
        ) / num_shards
        cuts = np.searchsorted(cum, targets, side="left").astype(np.int64)
    else:
        # No work at all: spread the (empty) partitions evenly by count.
        targets = (
            np.arange(1, num_shards, dtype=np.float64) * len(parts)
        ) / num_shards
        cuts = np.ceil(targets).astype(np.int64)
    cuts = np.clip(cuts, 0, len(parts))
    boundaries = np.concatenate(([0], cuts, [len(parts)]))
    boundaries = np.maximum.accumulate(boundaries)

    assignments: List[ShardAssignment] = []
    for s in range(num_shards):
        lo, hi = int(boundaries[s]), int(boundaries[s + 1])
        chunk = tuple(parts[lo:hi])
        assignments.append(
            ShardAssignment(shard=s, parts=chunk, nnz=sum(p.nnz for p in chunk))
        )
    return ShardPlan(
        num_shards=num_shards,
        assignments=tuple(assignments),
        total_nnz=total_nnz,
    )


def route_shards(
    shard_plan: ShardPlan, weights: Sequence[int]
) -> List[List[ShardAssignment]]:
    """Route a plan's shards to owners (hosts/pools) by capacity weight.

    ``weights[i]`` is owner ``i``'s slot count; owner ``i`` receives a
    *contiguous* group of shard assignments sized so that each group's nnz
    tracks its owner's share of the total capacity (cumulative-nnz targets
    snapped to shard edges — the same discipline :func:`assign_shards`
    applies one level down).  Contiguity means each owner covers one
    contiguous row range of the output, so a lost owner's work can be
    re-routed (or recomputed) as a single block.

    Zero-weight owners receive empty groups.  The routing never splits or
    reorders a shard, so executing the routed groups is executing the
    original plan — determinism is untouched.
    """
    if not weights or all(w <= 0 for w in weights):
        raise PartitionError("route_shards needs at least one positive weight")
    busy = [a for a in shard_plan.assignments if a.parts]
    total_nnz = sum(a.nnz for a in busy)
    total_weight = sum(max(int(w), 0) for w in weights)

    groups: List[List[ShardAssignment]] = []
    cursor = 0
    consumed = 0.0
    target = 0.0
    for w in weights:
        share = max(int(w), 0) / total_weight
        target += share * total_nnz
        group: List[ShardAssignment] = []
        # Greedily take shards while this owner is still under target;
        # always take at least one when work and weight remain, so no
        # trailing owner is starved by rounding.
        while cursor < len(busy) and (
            consumed + busy[cursor].nnz <= target
            or (not group and share > 0)
        ):
            if not group and share == 0:
                break
            group.append(busy[cursor])
            consumed += busy[cursor].nnz
            cursor += 1
            if consumed >= target:
                break
        groups.append(group)
    # Rounding may leave trailing shards; the last positive-weight owner
    # absorbs them (keeps its group contiguous).
    if cursor < len(busy):
        last = max(i for i, w in enumerate(weights) if w > 0)
        groups[last].extend(busy[cursor:])
    return groups
