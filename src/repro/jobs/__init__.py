"""Durable training jobs: crash-safe checkpoints + a supervised job tier.

:class:`CheckpointStore` persists per-epoch training state atomically
(write-temp → fsync → rename, CRC-validated, manifest + scan recovery);
:class:`JobManager` runs :class:`JobSpec` training jobs with bounded
admission, retry-requeue on faults, cooperative cancel/drain and
restart recovery.  :func:`run_training` is the uniform epoch driver all
four applications share.  See the "Training jobs" section of the README
for the lifecycle and durability contract.
"""

from .checkpoint import CHECKPOINT_MAGIC, Checkpoint, CheckpointStore, atomic_write
from .manager import (
    JOB_APPS,
    JOB_STATES,
    Job,
    JobManager,
    JobSpec,
    TrainingResult,
    build_app,
    run_training,
)

__all__ = [
    "CHECKPOINT_MAGIC",
    "Checkpoint",
    "CheckpointStore",
    "JOB_APPS",
    "JOB_STATES",
    "Job",
    "JobManager",
    "JobSpec",
    "TrainingResult",
    "atomic_write",
    "build_app",
    "run_training",
]
