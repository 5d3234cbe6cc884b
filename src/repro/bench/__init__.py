"""Benchmark-harness utilities shared by the experiments and the
pytest-benchmark targets."""

import importlib

#: Submodule -> the public names it provides, each imported on first
#: access (module ``__getattr__``).  Importing one benchmark module
#: (``repro.bench.record`` from the CLI, ``repro.bench.dynamic_bench``
#: from a benchmark script) runs this package first, so nothing here may
#: pull in the baselines, the serving stack, the remote tier or the
#: training apps eagerly: the import graph costs resident memory in every
#: CLI process (worker hosts included) and measurably perturbs the
#: GC-sensitive sub-millisecond timing windows of the other benchmarks.
_EXPORTS = {
    "harness": ("compare_kernels", "kernel_callables", "make_operands"),
    "jit_bench": ("bench_jit_speedup",),
    "record": ("bench_environment", "load_benchmark", "record_benchmark"),
    "report": (
        "ExperimentReport",
        "comparison_block",
        "load_results",
        "save_results",
    ),
    "runtime_bench": (
        "bench_batch_packing",
        "bench_plan_cache",
        "run_throughput_benchmark",
    ),
    "shard_bench": ("bench_shard_scaling",),
    "sweep": ("DegreeSweepItem", "degree_sweep_graphs", "dimension_sweep"),
    "tables": ("format_markdown_table", "format_table", "format_value"),
    "trend": ("MetricDelta", "TrendReport", "compare_paths", "compare_records"),
    "serve_bench": ("bench_serve_throughput",),
    "remote_bench": ("bench_remote_scaling",),
    "dynamic_bench": ("bench_dynamic_updates",),
    "jobs_bench": ("bench_checkpoint_overhead",),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


__all__ = [
    "bench_environment",
    "record_benchmark",
    "load_benchmark",
    "bench_shard_scaling",
    "bench_remote_scaling",
    "bench_dynamic_updates",
    "bench_jit_speedup",
    "bench_serve_throughput",
    "bench_checkpoint_overhead",
    "compare_paths",
    "compare_records",
    "MetricDelta",
    "TrendReport",
    "compare_kernels",
    "kernel_callables",
    "make_operands",
    "ExperimentReport",
    "comparison_block",
    "save_results",
    "load_results",
    "DegreeSweepItem",
    "degree_sweep_graphs",
    "dimension_sweep",
    "format_table",
    "format_markdown_table",
    "format_value",
    "bench_plan_cache",
    "bench_batch_packing",
    "run_throughput_benchmark",
]
