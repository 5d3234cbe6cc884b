"""Model/plan registry: everything warm before the first request.

Cold serving is slow serving: the first request against a new adjacency
pays pattern resolution, backend dispatch, partitioning, fingerprinting
and (with ``processes``) worker-agent start-up + the CSR upload.  The
:class:`ModelRegistry` front-loads all of it at startup:

* every :class:`~repro.serve.config.ModelSpec` is **built** — its dataset
  loaded, its application (Force2Vec / VERSE / GCN / FR layout) trained
  for the configured (tiny) budget — and its servable per-vertex output
  matrix pinned for ``/v1/embed/<model>`` lookups;
* every model's adjacency is registered as a **named graph**, so
  ``/v1/kernel`` requests can say ``"model": "cora-f2v"`` instead of
  shipping CSR arrays in every call;
* the serving runtime **pre-plans** each registered graph for the warm
  patterns (``sigmoid_embedding`` and ``gcn``, whose plan ``spmm``
  shares) — the plan cache and its partitionings are populated before
  the listener accepts its first connection;
* with ``processes > 0`` the **local worker agents are started** (and
  registered) and each warm graph's CSR is shipped to them up front, so
  the first sharded request pays no start-up or upload latency.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..errors import DatasetError
from ..runtime import DynamicGraph, KernelRuntime, MutationResult
from ..sparse import CSRMatrix
from .config import ServeConfig

__all__ = ["ModelRegistry", "RegisteredModel"]

#: Plan-cache capacity of the serving runtime.
PLAN_CACHE_SIZE = 128
#: Patterns pre-planned against every registered graph at startup, one
#: per plan key: ``spmm`` shares ``gcn``'s key, so its requests run
#: through the warm ``gcn`` plan.
WARM_PATTERNS = ("sigmoid_embedding", "gcn")


class RegisteredModel:
    """One pre-loaded model: its graph, app instance and servable output."""

    def __init__(self, spec, graph, app) -> None:
        self.spec = spec
        self.graph = graph
        self.app = app
        self.output: np.ndarray = app.serve_output()

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.spec.name,
            "app": self.spec.app,
            "dataset": self.spec.dataset,
            "vertices": int(self.graph.num_vertices),
            "edges": int(self.graph.num_edges),
            "output_dim": int(self.output.shape[1]),
        }


class ModelRegistry:
    """Named graphs + app models + a warm serving runtime.

    The registry owns the :class:`~repro.runtime.KernelRuntime` that all
    ``/v1/kernel`` traffic dispatches into (the apps own their training
    runtimes separately).  Construction is cheap; :meth:`load` does the
    heavy lifting and is called once by the server before it starts
    accepting connections.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.runtime = KernelRuntime(
            num_threads=self.config.num_threads,
            cache_size=PLAN_CACHE_SIZE,
            processes=self.config.processes,
            shard_min_nnz=self.config.shard_min_nnz,
            remote_port=self.config.remote_port,
            remote_token=self.config.remote_token,
            remote_heartbeat_strikes=self.config.heartbeat_strikes,
        )
        self._models: Dict[str, RegisteredModel] = {}
        # Every named graph is a DynamicGraph handle: static workloads see
        # version 0 forever; ``/v1/graph/<name>/edges`` advances versions.
        self._graphs: Dict[str, DynamicGraph] = {}
        self.loaded = False
        self.load_seconds = 0.0
        self.runtime.attach_stats_section("graphs", self.graph_memory)

    # ------------------------------------------------------------------ #
    def load(self) -> "ModelRegistry":
        """Build every model, register its graph, warm plans and workers."""
        t0 = time.perf_counter()
        for spec in self.config.models:
            graph, app = spec.build(self.config)
            model = RegisteredModel(spec, graph, app)
            self._models[spec.name] = model
            self.register_graph(spec.name, graph.adjacency)
        if self.config.processes > 0:
            # Start the local agents (the controller returns once they
            # have registered) and ship every warm CSR to them before the
            # first request needs it.
            if self.runtime.controller is not None:
                for g in self._graphs.values():
                    A = g.matrix
                    if A.nnz >= self.config.shard_min_nnz:
                        self.runtime.run_sharded(
                            A,
                            np.zeros((A.nrows, 1), dtype=np.float32),
                            pattern="gcn",
                        )
        self.loaded = True
        self.load_seconds = time.perf_counter() - t0
        return self

    def register_graph(self, name: str, A: CSRMatrix) -> None:
        """Register a named adjacency and pre-plan the warm patterns."""
        self._graphs[name] = DynamicGraph(A, runtime=self.runtime)
        A = self._graphs[name].matrix
        for pattern in WARM_PATTERNS:
            try:
                self.runtime.plan(
                    A,
                    pattern=pattern,
                    backend=self.config.kernel_backend,
                )
            except Exception:
                # A pattern incompatible with this graph shape is a
                # request-time 400, not a startup failure.
                continue

    def drop_graph(self, name: str) -> Dict[str, int]:
        """Unregister a graph and evict its whole cache footprint (plans,
        worker agents' matrix LRUs)."""
        graph = self.dynamic_graph(name)
        del self._graphs[name]
        return graph.close()

    def mutate_graph(self, name: str, insert=None, delete=None) -> MutationResult:
        """Apply one edge batch to a named graph (deletes first, inserts
        upsert).  Requests admitted before the swap keep computing on the
        version they resolved; requests admitted after see the new one."""
        return self.dynamic_graph(name).apply_edges(insert=insert, delete=delete)

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def model_names(self) -> List[str]:
        return sorted(self._models)

    def model(self, name: str) -> RegisteredModel:
        if name not in self._models:
            raise DatasetError(
                f"unknown model {name!r}; registered: {self.model_names()}"
            )
        return self._models[name]

    def graph(self, name: str) -> CSRMatrix:
        """The named graph's *current* materialised CSR.

        Resolution pins the request to one immutable version: whatever the
        caller computes with the returned matrix is read-consistent even
        if mutations land concurrently.
        """
        return self.dynamic_graph(name).matrix

    def dynamic_graph(self, name: str) -> DynamicGraph:
        """The mutable handle behind a named graph."""
        if name not in self._graphs:
            raise DatasetError(
                f"unknown graph {name!r}; registered: {sorted(self._graphs)}"
            )
        return self._graphs[name]

    def graph_memory(self) -> Dict[str, Dict[str, object]]:
        """Per-graph byte accounting (the ``graphs`` section of stats)."""
        return {name: g.memory() for name, g in sorted(self._graphs.items())}

    def embeddings(self, name: str, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Rows of ``name``'s servable output (all rows when ``ids=None``)."""
        output = self.model(name).output
        if ids is None:
            return output
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise DatasetError("ids must be a flat list of vertex indices")
        n = output.shape[0]
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise DatasetError(f"vertex ids must be in [0, {n})")
        return output[ids]

    # ------------------------------------------------------------------ #
    def describe(self) -> List[Dict[str, object]]:
        return [self._models[name].describe() for name in self.model_names()]

    def close(self) -> None:
        """Shut the serving runtime (and its worker agents) down."""
        self.runtime.close()
