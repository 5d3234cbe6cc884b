"""Benchmark trend comparison: diff ``BENCH_*.json`` records across commits.

The repository's performance trajectory is a series of ``BENCH_<name>.json``
files written by :func:`repro.bench.record.record_benchmark` (CI uploads
them as artifacts, and committed baselines live under
``benchmarks/baselines/``).  This module compares two such records — or two
directories of them — row by row and flags regressions beyond a threshold,
so a PR that slows a hot path down fails loudly instead of rotting the
trajectory silently.

Metric classification is by field name:

* **lower is better** — ``seconds`` and any ``*_s``/``*_seconds`` field;
* **higher is better** — ``speedup``, ``*throughput*`` and ``*_per_s``;
* everything else (identity fields, configuration, counters) is ignored
  for regression purposes and instead used to *match* rows between the two
  records.

Wall-clock rows below ``min_seconds`` are skipped: at sub-millisecond
scale, scheduler noise dwarfs any real regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .record import load_benchmark

__all__ = [
    "MetricDelta",
    "TrendReport",
    "compare_records",
    "compare_paths",
    "render_report",
    "DEFAULT_THRESHOLD",
    "DEFAULT_MIN_SECONDS",
]

#: A metric may degrade by up to this fraction before it counts as a
#: regression (15%, per the repo's CI gate).
DEFAULT_THRESHOLD = 0.15

#: Lower-is-better wall-clock rows below this baseline are ignored: at
#: single-millisecond scale, scheduler jitter on shared runners routinely
#: exceeds the regression threshold.
DEFAULT_MIN_SECONDS = 5e-3


def _metric_direction(name: str) -> Optional[int]:
    """+1 when higher is better, -1 when lower is better, None to ignore."""
    lowered = name.lower()
    # ``_per_s`` first: a rate such as ``edges_per_s`` also ends in ``_s``.
    if "speedup" in lowered or "throughput" in lowered or lowered.endswith("_per_s"):
        return +1
    if lowered == "seconds" or lowered.endswith("_s") or lowered.endswith("_seconds"):
        return -1
    return None


#: Integer fields that are run-dependent *outcomes*, not configuration;
#: they must not participate in row identity or a counter change would
#: silently un-match the row and let its metric regressions escape the
#: gate.
_IDENTITY_EXCLUDE = {
    "cache_hits",
    "cache_misses",
    "packed_requests",
    "packed_groups",
    "split_jobs",
    "single_jobs",
    "busy_shards",
    "restarts",
    "batches",
    "hosts_lost",
    "retries",
    "hedges",
    "hedge_wins",
    "delta_ships",
    "delta_fallbacks",
    "plans_refreshed",
    "checkpoints_written",
}


def _row_identity(row: Dict[str, object]) -> Tuple:
    """The non-metric fields that identify a row across records."""
    ident = []
    for key in sorted(row):
        value = row[key]
        if key in _IDENTITY_EXCLUDE:
            continue
        if isinstance(value, bool) or isinstance(value, (str, int)):
            ident.append((key, value))
    return tuple(ident)


def _row_is_noisy(row: Dict[str, object], min_seconds: float) -> bool:
    """Whether any wall-clock metric of the row sits below the noise
    floor.  Derived higher-is-better metrics (speedups, throughputs) of
    such rows are ratios of those same noisy timings, so they are skipped
    along with the timings themselves."""
    for name, value in row.items():
        if (
            _metric_direction(name) == -1
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
            and float(value) < min_seconds
        ):
            return True
    return False


@dataclass(frozen=True)
class MetricDelta:
    """One metric of one row, compared between baseline and current."""

    source: str
    row: Tuple
    metric: str
    baseline: float
    current: float
    #: +1 higher-is-better, -1 lower-is-better
    direction: int
    #: current / baseline
    ratio: float
    regressed: bool

    def describe(self) -> Dict[str, object]:
        """Flat row for table rendering."""
        change = (self.ratio - 1.0) * 100.0
        return {
            "source": self.source,
            "row": " ".join(f"{k}={v}" for k, v in self.row) or "-",
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "change_pct": change,
            "better": "higher" if self.direction > 0 else "lower",
            "regressed": self.regressed,
        }


@dataclass
class TrendReport:
    """Outcome of one trend comparison."""

    deltas: List[MetricDelta] = field(default_factory=list)
    #: row identities present in only one record (informational)
    unmatched: List[str] = field(default_factory=list)
    #: files present in only one directory (directory mode)
    missing: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def rows(self) -> List[Dict[str, object]]:
        return [d.describe() for d in self.deltas]


def compare_records(
    baseline: Dict[str, object],
    current: Dict[str, object],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    source: str = "",
) -> TrendReport:
    """Compare two loaded ``BENCH_*.json`` payloads row by row."""
    report = TrendReport()
    base_rows: Dict[Tuple, Dict[str, object]] = {}
    for row in baseline.get("rows", []):
        base_rows.setdefault(_row_identity(row), row)
    seen = set()
    for row in current.get("rows", []):
        ident = _row_identity(row)
        base = base_rows.get(ident)
        if base is None:
            report.unmatched.append(f"{source}: current-only row {ident}")
            continue
        seen.add(ident)
        noisy = _row_is_noisy(base, min_seconds) or _row_is_noisy(row, min_seconds)
        for metric, value in row.items():
            direction = _metric_direction(metric)
            if direction is None:
                continue
            base_value = base.get(metric)
            if not isinstance(value, (int, float)) or not isinstance(
                base_value, (int, float)
            ):
                continue
            if direction < 0 and float(base_value) < min_seconds:
                continue  # noise floor for wall-clock metrics
            if direction > 0 and noisy:
                continue  # ratios of sub-floor timings are noise too
            if base_value == 0:
                continue
            ratio = float(value) / float(base_value)
            regressed = (
                ratio > 1.0 + threshold if direction < 0 else ratio < 1.0 - threshold
            )
            report.deltas.append(
                MetricDelta(
                    source=source,
                    row=ident,
                    metric=metric,
                    baseline=float(base_value),
                    current=float(value),
                    direction=direction,
                    ratio=ratio,
                    regressed=regressed,
                )
            )
    for ident in base_rows:
        if ident not in seen:
            report.unmatched.append(f"{source}: baseline-only row {ident}")
    return report


def compare_paths(
    baseline: Union[str, Path],
    current: Union[str, Path],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> TrendReport:
    """Compare two ``BENCH_*.json`` files, or two directories of them.

    In directory mode the records are matched by filename; files present
    on one side only are reported in :attr:`TrendReport.missing` but do
    not fail the comparison (new benchmarks appear, old ones retire).
    """
    baseline, current = Path(baseline), Path(current)
    pairs: List[Tuple[Path, Path, str]] = []
    report = TrendReport()
    if baseline.is_dir() or current.is_dir():
        if not (baseline.is_dir() and current.is_dir()):
            raise ValueError(
                "compare_paths needs two files or two directories, got "
                f"{baseline} and {current}"
            )
        base_files = {p.name: p for p in sorted(baseline.glob("BENCH_*.json"))}
        cur_files = {p.name: p for p in sorted(current.glob("BENCH_*.json"))}
        for name in sorted(set(base_files) | set(cur_files)):
            if name in base_files and name in cur_files:
                pairs.append((base_files[name], cur_files[name], name))
            else:
                side = "baseline" if name in base_files else "current"
                report.missing.append(f"{name} only in {side}")
    else:
        pairs.append((baseline, current, current.name))
    for base_path, cur_path, name in pairs:
        sub = compare_records(
            load_benchmark(base_path),
            load_benchmark(cur_path),
            threshold=threshold,
            min_seconds=min_seconds,
            source=name,
        )
        report.deltas.extend(sub.deltas)
        report.unmatched.extend(sub.unmatched)
    return report


def render_report(
    report: TrendReport,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    no_fail: bool = False,
    print_fn=print,
) -> int:
    """Print the human-readable comparison and return the exit code.

    The output and exit code of ``repro bench compare``.
    """
    from .tables import format_table

    if report.rows():
        print_fn(
            format_table(
                report.rows(),
                title=f"Benchmark trend (threshold {threshold:.0%})",
            )
        )
    else:
        print_fn("no comparable metrics found")
    for note in report.missing + report.unmatched:
        print_fn(f"note: {note}")
    if report.regressions:
        print_fn(f"{len(report.regressions)} metric(s) regressed beyond the threshold")
        return 0 if no_fail else 1
    print_fn("no regressions beyond the threshold")
    return 0
