"""Measurement helpers shared by the workloads: windows, percentiles, host
probes and process-tree memory."""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

#: Elements of the calibration probe's sort array: 2**20 float64 = 8 MiB.
CALIB_ELEMS = 1 << 20
#: Iterations of the calibration probe's pure-Python loop.
CALIB_LOOP = 300_000
#: Calibration probe time of the reference host.  End-to-end timings are
#: reported scaled to a host on which :func:`calib_ms` takes this long.
CALIB_REF_MS = 25.0
#: Total size of the three STREAM-triad arrays of the bandwidth probe.  It
#: sits well inside the 300 MB L3 of the reference host on purpose: the
#: kernels' working sets (X/Y at 20000 x 128 float32 = 10 MB) are L3
#: resident too, so this is the bandwidth the kernel can actually reach.
STREAM_MB = 64.0


@dataclass
class Window:
    """Samples of one timed window (latencies in milliseconds)."""

    lat_ms: List[float] = field(default_factory=list)
    ops: int = 0
    seconds: float = 0.0
    extra: Dict[str, List[float]] = field(default_factory=dict)

    def p(self, q: float, key: str = "") -> float:
        values = self.extra[key] if key else self.lat_ms
        return percentile(values, q)

    @classmethod
    def merge(cls, windows: List["Window"]) -> "Window":
        out = cls()
        for w in windows:
            out.lat_ms += w.lat_ms
            out.ops += w.ops
            out.seconds += w.seconds
            for key, values in w.extra.items():
                out.extra.setdefault(key, []).extend(values)
        return out


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


def tail_p90(values) -> float:
    """The 90th percentile when at least ten samples lie beyond it, else 0."""
    return percentile(values, 90) if len(values) >= 100 else 0.0


def plan_hit_rate(before: Dict, after: Dict) -> float:
    """Plan-cache hit rate over a window, from two ``KernelRuntime.stats()``
    snapshots (0 when the window made no lookups)."""
    hits = after["plan_cache"]["hits"] - before["plan_cache"]["hits"]
    misses = after["plan_cache"]["misses"] - before["plan_cache"]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def serialize_literal_eval() -> None:
    """Let one thread at a time run :func:`ast.literal_eval`.

    ``np.load`` parses every ``.npy`` header with it.  CPython 3.11 keeps
    the AST conversion's recursion depth in interpreter-wide state, so two
    threads parsing at once can fail with "AST constructor recursion depth
    mismatch" (about once in 50k serve-small requests on CPython 3.11.7).
    The benchmark's client threads share the server's process and parse
    responses while the server parses requests; a server with clients in
    other processes never does, so the harness serialises the call instead
    of counting failures it caused itself.
    """
    import ast

    lock = threading.Lock()
    literal_eval = ast.literal_eval

    def serialized(node_or_string):
        with lock:
            return literal_eval(node_or_string)

    ast.literal_eval = serialized


def calib_ms() -> float:
    """The host's current speed: a fixed pure-Python loop plus a NumPy sort
    of 8 MiB, in ms.  Neither touches the repository's code.  On 2-vCPU
    hosts whose vCPUs slow down for minutes at a time, an epoch's time
    tracks this probe (correlation 0.84 over 8-second windows) far better
    than it tracks the epoch of a run a few minutes earlier."""
    a = np.random.default_rng(0).random(CALIB_ELEMS)
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIB_LOOP):
        s += i
    np.sort(a)
    return (time.perf_counter() - t0) * 1000.0


def stream_gbps() -> float:
    """STREAM-triad bandwidth over :data:`STREAM_MB` of arrays."""
    from repro.perf.roofline import measure_stream_bandwidth

    return measure_stream_bandwidth(STREAM_MB, repeats=5)


def _children(pid: int) -> List[int]:
    out: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return out
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        out.extend(int(tok) for tok in text.split())
    return out


def process_tree(pid: int | None = None) -> List[int]:
    """``pid`` (default: this process) and all of its descendants."""
    root = os.getpid() if pid is None else pid
    seen, stack = [], [root]
    while stack:
        p = stack.pop()
        if p in seen:
            continue
        seen.append(p)
        stack.extend(_children(p))
    return seen


def command_line(pid: int) -> str:
    """A process's command line ("" once it has exited)."""
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode()
    except OSError:
        return ""


def reset_peak_rss() -> None:
    """Lower this process's ``VmHWM`` to its current resident set (Linux
    ``clear_refs`` 5), so the start-of-run probes' arrays do not set the
    peak the workload is measured by."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # older kernels: the peak then includes the probes


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` (peak resident set) over the process tree, in MB."""
    total_kb = 0
    for pid in process_tree():
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue  # exited between listing and reading
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0
