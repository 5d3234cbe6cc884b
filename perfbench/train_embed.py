"""``train-embed``: Force2Vec training epochs on the flickr twin.

The paper's end-to-end application (Table VIII).  An epoch spends its time
in ``runtime`` -> ``core`` kernel calls and in ``apps``/``sparse`` glue (row
slicing, negative sampling, per-batch conversions), so a change to either
shows here, while ``serve`` and the worker processes are bypassed.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from .common import Window, median, peak_rss_mb, plan_hit_rate
from .tracing import Tracer, ancestor, self_times

#: Every setting of this workload and why it was chosen.
SETTINGS: Dict[str, Tuple[object, str]] = {
    "graph": ("flickr twin, registry seed (20k vertices, 177k nnz)", "fixed so epoch cost does not move with --seed"),
    "seed_drives": ("embedding init, minibatch order, negatives", "inputs differ per seed at the same cost"),
    "dim": (128, "the paper's end-to-end embedding size"),
    "batch_size": (256, "the paper's end-to-end minibatch"),
    "negative_samples": (5, "the Force2Vec reference setting"),
    "num_threads": (1, "one kernel thread: no pool scheduling noise on 2 vCPUs"),
    "processes": (0, "in-process kernels; the shard tier is serve-mutate's"),
    "warmup_epochs": (1, "first epoch builds plans and fills caches; not timed"),
    "setup_repeats": (7, "set-up is ~0.2 s; the median of seven damps host drift"),
    "replay_tolerance": ("rtol=1e-4, atol=1e-5", "float32 kernels against the float32 unfused pipeline"),
}

REPLAY_RTOL = 1e-4
REPLAY_ATOL = 1e-5


class TrainEmbed:
    name = "train-embed"
    setup_repeats = 7

    def __init__(self, seed: int, *, tiny: bool = False, corrupt: bool = False, out_dir=None) -> None:
        self.seed = int(seed)
        self.scale = 0.05 if tiny else 1.0
        self.dim = 16 if tiny else 128
        self.corrupt = corrupt
        self.model = None
        self.epoch = 0
        self.failed_epochs = 0

    def _config(self, backend: str = "fused"):
        from repro.apps import Force2VecConfig

        return Force2VecConfig(
            dim=self.dim,
            batch_size=256,
            negative_samples=5,
            seed=self.seed,
            backend=backend,
            num_threads=1,
            processes=0,
        )

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        from repro.apps import Force2Vec
        from repro.graphs import load_dataset

        self.graph = load_dataset("flickr", scale=self.scale)
        self.model = Force2Vec(self.graph, self._config())

    def teardown(self) -> None:
        if self.model is not None:
            self.model._runtime.close()
            self.model = None

    def warmup(self) -> None:
        self.loss_before = self.model.loss_estimate(seed=self.seed)
        self.model.train_epoch(0)
        self.first_epoch = self.model.embeddings.copy()
        self.epoch = 1

    def measure(self, seconds: float) -> Window:
        window = Window()
        self.rt_before = self.model.runtime_stats()
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            t0 = time.perf_counter()
            try:
                self.model.train_epoch(self.epoch)
            except Exception:
                self.failed_epochs += 1
            t1 = time.perf_counter()
            self.epoch += 1
            window.lat_ms.append((t1 - t0) * 1000.0)
            window.ops += 1
            if t1 >= deadline:
                break
        window.seconds = t1 - start
        self.plan_hit_rate = plan_hit_rate(self.rt_before, self.model.runtime_stats())
        return window

    def finish(self) -> float:
        rss = peak_rss_mb()
        self.loss_after = self.model.loss_estimate(seed=self.seed)
        return rss

    def verify(self, attempted: int) -> Tuple[int, Dict[str, object]]:
        """Replay the first epoch on the ``unfused`` baseline backend and
        require the loss estimate to have fallen.  Either failing makes
        every timed epoch a failed op: they all build on that state."""
        from repro.apps import Force2Vec

        replay = Force2Vec(self.graph, self._config("unfused"))
        try:
            replay.train_epoch(0)
        finally:
            replay._runtime.close()
        reference = replay.embeddings
        if self.corrupt:
            reference = reference + 1.0
        replay_ok = bool(
            np.allclose(self.first_epoch, reference, rtol=REPLAY_RTOL, atol=REPLAY_ATOL)
        )
        loss_ok = bool(self.loss_after < self.loss_before)
        failed = self.failed_epochs if replay_ok and loss_ok else attempted
        return failed, {
            "replay_allclose": replay_ok,
            "replay_max_abs_diff": float(np.max(np.abs(self.first_epoch - reference))),
            "loss_before": self.loss_before,
            "loss_after": self.loss_after,
        }

    # ------------------------------------------------------------------ #
    def layer_metrics(self, tracer: Tracer, t0: float, host: Dict[str, float], window: Window) -> Dict[str, float]:
        spans = [s for s in tracer.spans if s.t0 >= t0]
        by_id = {s.sid: s for s in spans}
        epochs = {s.sid: s for s in spans if s.name == "apps.train_epoch"}
        per = {
            sid: {"run_on_ms": 0.0, "calls": 0, "nnz": 0, "bytes": 0, "exec_ms": 0.0, "rows_ms": 0.0, "sampler_ms": 0.0}
            for sid in epochs
        }
        for s in spans:
            ep = ancestor(s, by_id, "apps.train_epoch")
            if ep is None:
                continue
            acc = per[ep.sid]
            if s.name == "runtime.run_on":
                acc["run_on_ms"] += s.ms
                acc["calls"] += 1
                acc["nnz"] += int(s.attrs.get("nnz", 0))
                acc["bytes"] += int(s.attrs.get("bytes", 0))
            elif s.name == "core.execute":
                acc["exec_ms"] += s.ms
            elif s.name == "sparse.select_rows":
                acc["rows_ms"] += s.ms
            elif s.name == "apps.sampler":
                acc["sampler_ms"] += s.ms
        selfs = self_times(spans)
        # Computed bytes over the time spent inside the kernels themselves.
        gbps = [a["bytes"] / (a["exec_ms"] / 1000.0) / 1e9 for a in per.values() if a["exec_ms"] > 0]
        kernel_gbps = median(gbps)

        def med(key):
            return median([a[key] for a in per.values()])

        return {
            "runtime.run_on_ms": med("run_on_ms"),
            "runtime.run_on_calls": med("calls"),
            "core.execute_ms": med("exec_ms"),
            "core.nnz_per_epoch": med("nnz"),
            "core.bytes_per_epoch": med("bytes"),
            "core.kernel_gbps": kernel_gbps,
            "core.roofline_frac": kernel_gbps / host["stream_gbps"],
            "sparse.select_rows_ms": med("rows_ms"),
            "apps.sampler_ms": med("sampler_ms"),
            "apps.epoch_self_ms": median([selfs[sid] * 1000.0 for sid in epochs]),
            "runtime.plan_hit_rate": self.plan_hit_rate,
        }
