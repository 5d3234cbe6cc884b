"""Registry of all paper experiments.

Maps a stable experiment identifier (the table/figure number in the paper)
to the module that regenerates it, its entry points and a short
description, so the benchmark harness, EXPERIMENTS.md and the command line
(`python -m repro.experiments.<module>`) stay in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

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

__all__ = ["Experiment", "EXPERIMENTS", "list_experiments", "get_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper experiment."""

    key: str
    paper_reference: str
    description: str
    module: object
    runners: Dict[str, Callable]

    def run_all(self, **kwargs) -> Dict[str, object]:
        """Run every runner of this experiment and collect the results."""
        return {name: fn(**kwargs) for name, fn in self.runners.items()}


EXPERIMENTS: Dict[str, Experiment] = {
    "table5": Experiment(
        key="table5",
        paper_reference="Table V",
        description="Dataset statistics (synthetic registry vs paper)",
        module=table5_datasets,
        runners={"datasets": table5_datasets.run},
    ),
    "table6": Experiment(
        key="table6",
        paper_reference="Table VI",
        description="Kernel time: DGL vs FusedMM vs FusedMMopt for embedding/FR/GCN",
        module=table6_kernels,
        runners={"kernels": table6_kernels.run},
    ),
    "table7": Experiment(
        key="table7",
        paper_reference="Table VII",
        description="SpMM specialisation vs vendor (MKL-like) SpMM",
        module=table7_spmm_mkl,
        runners={"spmm": table7_spmm_mkl.run},
    ),
    "table8": Experiment(
        key="table8",
        paper_reference="Table VIII",
        description="End-to-end Force2Vec per-epoch time: PyTorch-like vs DGL-like vs FusedMM",
        module=table8_end2end,
        runners={"end2end": table8_end2end.run},
    ),
    "fig7": Experiment(
        key="fig7",
        paper_reference="Fig. 7",
        description="Roofline model: arithmetic intensity and attained GFLOP/s",
        module=fig7_roofline,
        runners={"roofline": fig7_roofline.run},
    ),
    "fig8": Experiment(
        key="fig8",
        paper_reference="Fig. 8",
        description="ARM ThunderX comparison (host-measured + machine model)",
        module=fig8_arm,
        runners={"arm": fig8_arm.run},
    ),
    "fig9": Experiment(
        key="fig9",
        paper_reference="Fig. 9",
        description="AMD EPYC comparison (host-measured + machine model)",
        module=fig9_amd,
        runners={"amd": fig9_amd.run},
    ),
    "fig10": Experiment(
        key="fig10",
        paper_reference="Fig. 10",
        description="Strong scaling and memory consumption",
        module=fig10_scaling_memory,
        runners={
            "scaling": fig10_scaling_memory.run_scaling,
            "memory": fig10_scaling_memory.run_memory,
        },
    ),
    "fig11": Experiment(
        key="fig11",
        paper_reference="Fig. 11",
        description="Sensitivity to average degree and feature dimension",
        module=fig11_sensitivity,
        runners={
            "degree": fig11_sensitivity.run_degree_sweep,
            "dimension": fig11_sensitivity.run_dimension_sweep,
        },
    ),
    "accuracy": Experiment(
        key="accuracy",
        paper_reference="Section V.D",
        description="Force2Vec embedding quality (F1-micro), fused vs unfused",
        module=accuracy_f1,
        runners={"f1": accuracy_f1.run},
    ),
    "ablations": Experiment(
        key="ablations",
        paper_reference="Sections III-IV (design choices)",
        description="Backend ladder, block-size sweep, partition balance",
        module=ablations,
        runners={
            "backend_ladder": ablations.run_backend_ladder,
            "block_size": ablations.run_block_size_sweep,
            "partition": ablations.run_partition_balance,
        },
    ),
}


def list_experiments() -> List[str]:
    """Keys of all registered experiments."""
    return sorted(EXPERIMENTS)


def get_experiment(key: str) -> Experiment:
    """Look up an experiment by key (raises ``KeyError`` with the available
    keys listed)."""
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {key!r}; available: {', '.join(list_experiments())}")
    return EXPERIMENTS[key]
