"""The shared kernel-execution knobs every app config carries.

Force2Vec, VERSE, GCN and the FR layout engine (and the serving layer's
``ServeConfig``) all expose the same four kernel knobs — backend, thread
count, worker-process count, sharding threshold.  They used
to duplicate the fields *and* their validation in every config dataclass;
:class:`RuntimeOptions` is the single definition they now inherit, so the
knobs, their defaults and their error messages cannot drift between apps.

Inheriting configs keep working unchanged for callers: every field has a
default, existing keyword construction sites are untouched, and each
subclass ``__post_init__`` chains to this one for the shared validation.

The base fields are declared ``kw_only`` so they *append* keyword-only
parameters to each subclass ``__init__`` instead of prepending positional
ones: positional construction of a subclass binds the subclass's own
fields exactly as it did before the consolidation, and passing a kernel
knob positionally is an explicit ``TypeError`` rather than a silent
reassignment of arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.fused import BACKENDS as KERNEL_BACKENDS
from ..errors import BackendError

__all__ = ["RuntimeOptions"]

#: Default sharding threshold, mirrored from the runtime so importing this
#: module never pulls in the (heavier) runtime module graph.
_DEFAULT_SHARD_MIN_NNZ = 16384


@dataclass(kw_only=True)
class RuntimeOptions:
    """Kernel-execution knobs shared by the app and serving configs.

    Attributes
    ----------
    kernel_backend:
        Kernel backend of the fused calls (:data:`repro.core.BACKENDS`);
        ``"auto"`` prefers the Numba jit tier when importable.
    num_threads:
        Worker threads of the runtime's shared pool (1 = sequential).
    processes:
        Local worker agents of the sharded execution tier, one child
        process each (0 = in-process); see :mod:`repro.runtime.remote`.
    shard_min_nnz:
        Streaming calls only use the sharded tier for matrices at or
        above this nnz.
    """

    kernel_backend: str = "auto"
    num_threads: int = 1
    processes: int = 0
    shard_min_nnz: int = _DEFAULT_SHARD_MIN_NNZ

    def __post_init__(self) -> None:
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise BackendError(
                f"unknown kernel backend {self.kernel_backend!r}; "
                f"expected one of {KERNEL_BACKENDS}"
            )

    def runtime_kwargs(self) -> Dict[str, object]:
        """The :class:`~repro.runtime.KernelRuntime` keywords these knobs
        map onto (``kernel_backend`` is a per-plan argument, not a runtime
        construction argument, so it is not included)."""
        return {
            "num_threads": self.num_threads,
            "processes": self.processes,
            "shard_min_nnz": self.shard_min_nnz,
        }
