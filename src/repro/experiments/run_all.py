"""Run every registered experiment and assemble a Markdown report.

This is the generator behind the measured sections of EXPERIMENTS.md and
behind ``python -m repro report``.  It runs each experiment at a
configurable scale (the defaults keep the full sweep under ~15 minutes on a
laptop; ``quick=True`` trims it to a smoke-test-sized pass) and renders the
paper-vs-measured comparison tables with :class:`repro.bench.report.ExperimentReport`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..bench.report import ExperimentReport
from ..bench.tables import format_markdown_table
from . import (
    accuracy_f1,
    ablations,
    fig7_roofline,
    fig8_arm,
    fig9_amd,
    fig10_scaling_memory,
    fig11_sensitivity,
    table5_datasets,
    table6_kernels,
    table7_spmm_mkl,
    table8_end2end,
)

__all__ = ["generate_report"]


def generate_report(
    output: Union[str, Path] = "EXPERIMENTS_GENERATED.md",
    *,
    scale: float = 0.5,
    quick: bool = False,
) -> Path:
    """Run all experiments and write the Markdown report to ``output``.

    Parameters
    ----------
    scale:
        Dataset scale factor applied to the timing experiments.
    quick:
        Use the smallest workable configurations (for CI smoke runs).
    """
    scale = min(scale, 0.25) if quick else scale
    repeats = 1 if quick else 2
    report = ExperimentReport("FusedMM reproduction — regenerated experiment results")

    # Table V
    t5 = table5_datasets.run(scale=1.0 if not quick else 0.25)
    report.add_comparison(
        "Table V — datasets",
        t5["paper"],
        t5["measured"],
        note="Synthetic twins; the large graphs are scaled down (scale_factor column).",
    )

    # Table VI
    t6 = table6_kernels.run(
        graphs=("ogbprot", "youtube") if quick else ("ogbprot", "youtube", "orkut"),
        dims=(32,) if quick else (32, 128),
        scale=scale,
        repeats=repeats,
        include_generic=not quick,
    )
    report.add_section(
        "Table VI — kernel time (DGL-style unfused vs FusedMM vs FusedMMopt)",
        format_markdown_table(t6),
    )

    # Table VII
    t7 = table7_spmm_mkl.run(
        graphs=("youtube",) if quick else ("ogbprot", "youtube"),
        dims=(64,) if quick else (64, 128),
        scale=scale,
        repeats=repeats,
    )
    report.add_comparison(
        "Table VII — SpMM specialisation vs vendor SpMM",
        table7_spmm_mkl.PAPER_TABLE7,
        t7,
        note="The vendor stand-in is SciPy's compiled CSR SpMM (MKL unavailable offline).",
    )

    # Table VIII
    t8 = table8_end2end.run(
        graphs=("cora",) if quick else ("cora", "pubmed"),
        epochs=1 if quick else 2,
        dim=64 if quick else 128,
        scale=scale if not quick else 0.5,
    )
    report.add_comparison(
        "Table VIII — end-to-end Force2Vec per-epoch time",
        table8_end2end.PAPER_TABLE8,
        t8,
    )

    # Fig. 7
    f7 = fig7_roofline.run(
        graphs=("youtube",) if quick else ("ogbprot", "youtube", "orkut"),
        d=64 if quick else 128,
        scale=scale,
        repeats=repeats,
    )
    report.add_comparison("Fig. 7 — roofline", fig7_roofline.PAPER_FIG7, f7)

    # Figs. 8 and 9
    f8 = fig8_arm.run(
        graphs=("amazon",) if quick else ("harvard", "flickr", "amazon", "youtube"),
        d=64 if quick else 128,
        scale=scale,
        repeats=1,
    )
    report.add_section("Fig. 8 — ARM ThunderX (measured host speedups + machine model)", format_markdown_table(f8))
    f9 = fig9_amd.run(
        graphs=("amazon",) if quick else ("harvard", "flickr", "amazon", "youtube"),
        d=64 if quick else 128,
        scale=scale,
        repeats=1,
    )
    report.add_section("Fig. 9 — AMD EPYC (measured host speedups + machine model)", format_markdown_table(f9))

    # Fig. 10
    f10 = fig10_scaling_memory.run_scaling(
        graph="youtube" if quick else "orkut", d=64 if quick else 256, scale=scale, repeats=1
    )
    report.add_section(
        "Fig. 10(a) — strong scaling",
        "Measured host sweep:\n\n"
        + format_markdown_table(f10["measured"])
        + "\n\nModelled 1-32 thread curve (calibrated Amdahl/bandwidth model):\n\n"
        + format_markdown_table(f10["modelled"])
        + "\n\nPaper (Orkut, d=256):\n\n"
        + format_markdown_table(f10["paper"]),
    )
    f10b = fig10_scaling_memory.run_memory(scale=scale)
    report.add_section("Fig. 10(b) — memory consumption (FR model)", format_markdown_table(f10b))

    # Fig. 11
    f11a = fig11_sensitivity.run_degree_sweep(
        num_vertices=4000 if quick else 20000,
        avg_degrees=(4, 16) if quick else (4, 8, 16, 32),
        repeats=1,
    )
    f11b = fig11_sensitivity.run_dimension_sweep(
        dims=(64, 128) if quick else (64, 128, 256), scale=scale, repeats=repeats
    )
    report.add_section("Fig. 11(a) — speedup vs average degree (RMAT)", format_markdown_table(f11a))
    report.add_section("Fig. 11(b) — kernel time vs dimension (Flickr twin)", format_markdown_table(f11b))

    # Accuracy
    acc = accuracy_f1.run(
        graphs=("cora",) if quick else ("cora", "pubmed"),
        epochs=5 if quick else 40,
        dim=32 if quick else 64,
        scale=1.0,
    )
    report.add_section("Section V.D — embedding quality (F1-micro)", format_markdown_table(acc))

    # Ablations
    if not quick:
        report.add_section(
            "Ablation — backend ladder",
            format_markdown_table(ablations.run_backend_ladder(scale=min(scale, 0.5))),
        )

    return report.write(output)


if __name__ == "__main__":  # pragma: no cover
    generate_report()
