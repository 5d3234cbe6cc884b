"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one measurement from the repository root::

    python3 perfbench/run.py --workload train-embed --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
wraps the package's layer entry points (see :mod:`perfbench.tracing`) and
prints the per-layer metrics instead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""
