"""Force-directed graph layout with the Fruchterman–Reingold model
(Fig. 1(a) of the paper).

One layout iteration needs, for every vertex ``u``,

* the **attractive** displacement from its neighbours — a function of the
  distance ``‖x_u − x_v‖`` multiplied by the unit direction — which is the
  ``fr_layout`` FusedMM pattern (Table III row 1) and generates a
  *d-dimensional message per edge* (the memory-heavy case of Table VI /
  Fig. 10b), and
* a **repulsive** displacement from non-neighbours, which the
  minibatch/negative-sampling literature approximates with a sample of
  random vertices (computing it exactly is O(n²)).

The :class:`FRLayout` driver below runs those two terms per iteration with
a standard cooling schedule, through a selectable kernel backend so the
layout experiment of the harness can compare fused vs unfused end to end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..baselines.unfused import unfused_fusedmm
from ..core.fused import fusedmm
from ..errors import BackendError, ShapeError
from ..graphs.features import uniform_features
from ..graphs.graph import Graph
from ..runtime import KernelRuntime, RuntimeOptions
from ..sparse import CSRMatrix
from .sampling import NegativeSampler

__all__ = ["FRLayoutConfig", "FRLayout"]

LAYOUT_BACKENDS = ("fused", "fused_generic", "unfused")


@dataclass
class FRLayoutConfig(RuntimeOptions):
    """Hyper-parameters of the FR layout driver.

    Kernel-execution knobs are inherited from
    :class:`~repro.runtime.RuntimeOptions`.
    """

    dim: int = 2
    iterations: int = 50
    initial_temperature: float = 0.1
    cooling: float = 0.97
    repulsive_samples: int = 5
    seed: int = 0
    backend: str = "fused"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.backend not in LAYOUT_BACKENDS:
            raise BackendError(
                f"unknown layout backend {self.backend!r}; expected {LAYOUT_BACKENDS}"
            )
        if self.dim <= 0 or self.iterations < 0:
            raise ShapeError("dim must be positive and iterations non-negative")
        if not 0.0 < self.cooling <= 1.0:
            raise ShapeError("cooling must be in (0, 1]")


class FRLayout:
    """Iterative force-directed layout on top of the FusedMM FR kernel."""

    def __init__(self, graph: Graph, config: FRLayoutConfig | None = None) -> None:
        self.graph = graph
        self.config = config or FRLayoutConfig()
        self.adjacency: CSRMatrix = graph.adjacency
        if self.adjacency.nrows != self.adjacency.ncols:
            raise ShapeError("FRLayout expects a square adjacency matrix")
        self.positions = uniform_features(
            graph.num_vertices, self.config.dim, seed=self.config.seed
        ).astype(np.float64)
        self._sampler = NegativeSampler(graph.num_vertices, seed=self.config.seed + 3)
        # One plan for the whole cooling schedule: the adjacency never
        # changes between iterations, so planning happens exactly once and
        # every step streams through the cached plan (sharded over worker
        # processes when ``processes`` is set).  The sampled repulsive
        # matrices reuse the same plan via ``run_on``.
        self._runtime = KernelRuntime(
            cache_size=4,
            # Block autotuning sizes against the layout dimension
            # (typically 2), not the 128 default.
            autotune_dim=self.config.dim,
            **self.config.runtime_kwargs(),
        )
        self._force_stream = self._runtime.epochs(
            self.adjacency,
            pattern="fr_layout",
            backend=self.config.kernel_backend,
        )
        self.iteration_seconds: List[float] = []
        #: Current cooling temperature.  Persistent state, not recomputed:
        #: repeated ``t *= cooling`` differs bitwise from
        #: ``initial * cooling**k``, so a resumed run must restore the
        #: accumulated product, never re-derive it from the iteration count.
        self.temperature: float = self.config.initial_temperature

    # ------------------------------------------------------------------ #
    def runtime_stats(self) -> dict:
        """The driver's :meth:`KernelRuntime.stats` snapshot."""
        return self._runtime.stats()

    def serve_output(self) -> np.ndarray:
        """The servable per-vertex matrix (the layout positions) — the
        uniform lookup surface :mod:`repro.serve`'s model registry reads
        behind ``/v1/embed/<model>``."""
        return self.positions.astype(np.float32)

    # ------------------------------------------------------------------ #
    def _attractive(self, P32: np.ndarray) -> np.ndarray:
        """Attractive displacements via the fr_layout FusedMM pattern."""
        backend = self.config.backend
        if backend == "fused":
            return self._force_stream.step(P32, P32).astype(np.float64)
        if backend == "fused_generic":
            return fusedmm(
                self.adjacency, P32, P32, pattern="fr_layout", backend="generic"
            ).astype(np.float64)
        return unfused_fusedmm(self.adjacency, P32, P32, pattern="fr_layout").astype(
            np.float64
        )

    def _repulsive(self, P32: np.ndarray) -> np.ndarray:
        """Sampled repulsive displacements (random non-neighbour pairs)."""
        k = self.config.repulsive_samples
        if k <= 0:
            return np.zeros_like(self.positions)
        n = self.graph.num_vertices
        negs = self._sampler.sample((n, k))
        indptr = np.arange(0, (n + 1) * k, k, dtype=np.int64)
        A_neg = CSRMatrix(
            n,
            n,
            indptr,
            negs.reshape(-1),
            np.ones(negs.size, dtype=np.float32),
            check=False,
        )
        # The repulsive force has the same functional form with opposite
        # sign; reuse the same kernel on the sampled pairs.
        if self.config.backend == "unfused":
            rep = unfused_fusedmm(A_neg, P32, P32, pattern="fr_layout")
        else:
            rep = self._force_stream.run_on(A_neg, P32, P32)
        return -rep.astype(np.float64) / max(k, 1)

    # ------------------------------------------------------------------ #
    def step(self, temperature: float) -> float:
        """Run one layout iteration; returns the mean displacement norm."""
        P32 = self.positions.astype(np.float32)
        t0 = time.perf_counter()
        displacement = self._attractive(P32) + self._repulsive(P32)
        self.iteration_seconds.append(time.perf_counter() - t0)
        norms = np.linalg.norm(displacement, axis=1, keepdims=True)
        limited = displacement * np.minimum(1.0, temperature / np.maximum(norms, 1e-12))
        self.positions -= limited
        return float(np.mean(norms))

    def train_epoch(self, iteration: int = 0) -> float:
        """One cooling-schedule iteration: step at the current temperature,
        then cool.  The uniform per-epoch surface the job supervisor
        drives; returns the mean displacement norm."""
        norm = self.step(self.temperature)
        self.temperature *= self.config.cooling
        return norm

    def run(self, iterations: Optional[int] = None) -> np.ndarray:
        """Run the full cooling schedule and return final positions.

        Each call restarts the schedule from ``initial_temperature``
        (resumable runs go through :meth:`train_epoch` +
        :meth:`export_state` instead)."""
        iterations = self.config.iterations if iterations is None else iterations
        self.temperature = self.config.initial_temperature
        for i in range(iterations):
            self.train_epoch(i)
        return self.positions.astype(np.float32)

    # ------------------------------------------------------------------ #
    # Checkpointable state
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Positions + iteration count + the accumulated temperature + the
        repulsive sampler's stream position — the full bitwise-resume
        state of the cooling schedule."""
        return {
            "positions": self.positions.copy(),
            "epochs_completed": len(self.iteration_seconds),
            "temperature": self.temperature,
            "sampler_state": self._sampler.get_state(),
            "iteration_seconds": list(self.iteration_seconds),
        }

    def load_state(self, state: dict) -> None:
        """Restore an :meth:`export_state` snapshot bitwise."""
        positions = np.asarray(state["positions"])
        if positions.shape != self.positions.shape:
            raise ShapeError(
                f"state positions shape {positions.shape} does not match "
                f"model shape {self.positions.shape}"
            )
        self.positions = positions.copy()
        self.temperature = float(state["temperature"])
        self._sampler.set_state(state["sampler_state"])
        self.iteration_seconds = list(state.get("iteration_seconds", []))

    @property
    def epochs_completed(self) -> int:
        """Iterations run so far (the resume point of a checkpoint)."""
        return len(self.iteration_seconds)

    # ------------------------------------------------------------------ #
    def edge_length_stats(self) -> dict:
        """Mean/std of edge lengths in the current layout — a cheap quality
        proxy (a good force-directed layout has tightly concentrated edge
        lengths)."""
        A = self.adjacency
        if A.nnz == 0:
            return {"mean": 0.0, "std": 0.0}
        rows = np.repeat(np.arange(A.nrows, dtype=np.int64), A.row_degrees())
        diffs = self.positions[rows] - self.positions[A.indices]
        lengths = np.linalg.norm(diffs, axis=1)
        return {"mean": float(lengths.mean()), "std": float(lengths.std())}
