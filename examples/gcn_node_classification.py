#!/usr/bin/env python
"""Node classification with a two-layer GCN whose aggregation runs on the
FusedMM SpMM specialisation (paper Fig. 1(c) / Table III row 3).

The script trains the same GCN with three aggregation backends — the fused
kernel, the unfused DGL-style pipeline, and the vendor (SciPy-compiled)
SpMM — and reports test accuracy and per-epoch time for each, demonstrating
that the kernel choice changes performance but not the learned model.

Run with:  python examples/gcn_node_classification.py [--dataset pubmed]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps import GCN, GCNConfig
from repro.bench import format_table
from repro.graphs import load_dataset, one_hot_labels


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="cora", help="labelled dataset (cora or pubmed)")
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--train-fraction", type=float, default=0.3)
    args = parser.parse_args()

    graph = load_dataset(args.dataset)
    if graph.num_classes == 0:
        raise SystemExit(f"dataset {args.dataset!r} has no labels; use cora or pubmed")

    # Features: noisy one-hot labels on the training vertices only, zeros
    # elsewhere — a standard semi-supervised GCN setup for synthetic data.
    rng = np.random.default_rng(0)
    n = graph.num_vertices
    train_mask = rng.random(n) < args.train_fraction
    features = one_hot_labels(graph.labels, graph.num_classes)
    features[~train_mask] = 0.0
    features = features + 0.05 * rng.standard_normal(features.shape).astype(np.float32)
    graph = graph.with_features(features.astype(np.float32))

    backends = ["fused", "unfused", "vendor"]
    rows = []
    for backend in backends:
        gcn = GCN(
            graph,
            config=GCNConfig(
                hidden_dim=args.hidden,
                epochs=args.epochs,
                learning_rate=0.3,
                seed=0,
                backend=backend,
            ),
        )
        history = gcn.fit(train_mask=train_mask)
        rows.append(
            {
                "backend": backend,
                "test_accuracy": round(gcn.accuracy(mask=~train_mask), 4),
                "train_accuracy": round(history[-1]["train_accuracy"], 4),
                "seconds_per_epoch": round(
                    float(np.mean([h["seconds"] for h in history])), 4
                ),
                "final_loss": round(history[-1]["loss"], 4),
            }
        )

    print(format_table(rows, title=f"2-layer GCN on {graph.name} ({args.epochs} epochs)"))
    print()
    print(
        "All backends compute the same aggregation Â·M, so the accuracies agree; "
        "the fused SpMM specialisation is the kernel compared against MKL in Table VII."
    )


if __name__ == "__main__":
    main()
