"""Run one benchmark measurement and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-small --seed 3 --seconds 30 --trace 0

One run: probe the host, set the workload up ``setup_repeats`` times (each
repeat builds a fresh graph, model or server; ``setup_s`` is the median),
warm it up, measure for ``--seconds`` in ``SLICES`` slices with a host
calibration probe after each, capture the final state and peak memory, tear
down, check every output, probe the host again.  With ``--trace 1`` the
window is split in two instead: the first half untraced, the second with
the layer wrappers of :mod:`perfbench.layers` installed; the per-layer
metrics come from the second half and ``trace.overhead_frac`` compares the
two.  Spans and a run record (raw timings, every probe, every setting) are
written under ``.perfbench_out/``.

End-to-end timings are reported in reference-host units: each is scaled by
``CALIB_REF_MS / calib``, where ``calib`` is the median of the calibration
probes (:func:`perfbench.common.calib_ms`) taken between the window's
slices, or just before the set-up for ``setup_s``.  The vCPUs of small
shared hosts slow down by up to 1.7x for minutes at a time; the probe runs
no repository code, so the scale removes that drift and no code change can
move it.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pin every native thread pool before NumPy is imported anywhere: the
# benchmark measures the code's own threading, not BLAS's.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import multiprocessing.resource_tracker  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "train-embed": ("perfbench.train_embed", "TrainEmbed"),
    "serve-small": ("perfbench.serve_small", "ServeSmall"),
    "serve-mutate": ("perfbench.serve_mutate", "ServeMutate"),
}

#: name -> unit of every end-to-end metric (reported by untraced runs)
END_TO_END = {
    "lat_p50_ms": "ms",
    "throughput_ops": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Slices of an untraced window, each followed by a calibration probe, so
#: the probes sample the host's speed every few seconds of the window.
SLICES = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="self-test: perturb the references so every op must fail",
    )
    parser.add_argument("--out", default=None, help="output directory")
    return parser.parse_args(argv)


def _finite(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else ROOT / ".perfbench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Keep every temporary file of the run inside the output directory.
    os.environ["TMPDIR"] = str(out_dir)
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT), str(ROOT / "src")] + [p for p in sys.path if p != here]

    from perfbench import layers
    from perfbench.common import (
        CALIB_REF_MS,
        Window,
        calib_ms,
        command_line,
        median,
        metric,
        process_tree,
        reset_peak_rss,
        serialize_literal_eval,
        stream_gbps,
        tail_p90,
    )
    from perfbench.tracing import Tracer

    serialize_literal_eval()
    module, cls = WORKLOADS[args.workload]
    workload_module = importlib.import_module(module)
    wl = getattr(workload_module, cls)(
        args.seed, tiny=args.tiny, corrupt=args.corrupt_reference, out_dir=out_dir
    )

    calib_start = [calib_ms() for _ in range(3)]
    calib = []
    stream = [stream_gbps()]
    reset_peak_rss()
    tracer = Tracer()
    setup_s = []
    try:
        for i in range(1 if args.trace else wl.setup_repeats):
            if i:
                wl.teardown()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        wl.warmup()
        if args.trace:
            untraced = wl.measure(args.seconds / 2)
            traced_from = time.perf_counter()
            with tracer.installed(layers.targets()):
                window = wl.measure(args.seconds / 2)
            windows = [untraced, window]
        else:
            windows = []
            for _ in range(SLICES):
                windows.append(wl.measure(args.seconds / SLICES))
                calib.append(calib_ms())
            window = Window.merge(windows)
        rss_mb = wl.finish()
    finally:
        wl.teardown()
        for child in multiprocessing.active_children():
            child.join(30)
        # Shared memory starts multiprocessing's resource tracker, which
        # would otherwise outlive the run until interpreter exit.
        tracker = multiprocessing.resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
    leftover = [command_line(pid) for pid in process_tree()[1:]]
    attempted = sum(w.ops for w in windows)
    t0 = time.perf_counter()
    failed, checks = wl.verify(attempted)
    checks["verify_s"] = time.perf_counter() - t0
    calib_end = [calib_ms() for _ in range(3)]
    stream.append(stream_gbps())
    host = {
        "calib_ms": median(calib or calib_start + calib_end),
        "stream_gbps": median(stream),
    }
    raw = {
        "lat_p50_ms": window.p(50),
        "throughput_ops": window.ops / window.seconds,
        "setup_s": median(setup_s),
    }

    if args.trace:
        values = {name: 0.0 for name in layers.PER_LAYER}
        values.update(wl.layer_metrics(tracer, traced_from, host, window))
        values["host.calib_ms"] = host["calib_ms"]
        values["host.stream_gbps"] = host["stream_gbps"]
        values["trace.overhead_frac"] = window.p(50) / untraced.p(50) - 1.0
        # Tail and write latency exist on some workloads only, so they are
        # reported here, from the untraced half, rather than end to end.
        values["e2e.samples"] = len(untraced.lat_ms)
        values["e2e.lat_p90_ms"] = tail_p90(untraced.lat_ms)
        if "write_ms" in untraced.extra:
            values["e2e.write_lat_p50_ms"] = untraced.p(50, "write_ms")
        metrics = {
            name: metric(_finite(values[name]), unit)
            for name, (unit, _better) in layers.PER_LAYER.items()
        }
        tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        # The window is scaled by the probes taken between its slices, the
        # set-up by those taken just before it.
        scale = CALIB_REF_MS / host["calib_ms"]
        setup_scale = CALIB_REF_MS / median(calib_start)
        values = {
            "lat_p50_ms": raw["lat_p50_ms"] * scale,
            "throughput_ops": raw["throughput_ops"] / scale,
            "peak_rss_mb": rss_mb,
            "setup_s": raw["setup_s"] * setup_scale,
        }
        metrics = {name: metric(_finite(values[name]), unit) for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": len(window.lat_ms),
        "lat_p90_ms": tail_p90(window.lat_ms) or None,
        "raw": raw,
        "setup_s_all": setup_s,
        "calib_ms_all": calib,
        "calib_ms_start_end": [calib_start, calib_end],
        "stream_gbps_all": stream,
        "checks": checks,
        "leftover_processes": leftover,
        "untraced_targets": tracer.missing,
        "settings": {k: list(v) for k, v in workload_module.SETTINGS.items()},
    }
    with open(out_dir / f"run-{args.workload}-{args.seed}-{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(
        json.dumps(
            {k: record[k] for k in ("samples", "lat_p90_ms", "raw", "calib_ms_all", "checks", "leftover_processes")},
            default=str,
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
