#!/usr/bin/env python3
"""Reproduce the evaluation protocol at desk scale.

Twenty shuffled passes per configuration, accuracy averaged over the runs,
an epsilon sweep for both lookahead settings, and the single-pass perceptron
of ``tests/oracle.py`` as the baseline.  The sweep emits the same CSV the
command line tool writes.
"""

import sys
from pathlib import Path

from bbsvm import (
    Dataset,
    ModelParams,
    epsilon_sweep,
    generate_synthetic,
    run_experiment,
    shuffled,
    write_csv,
)

# The perceptron is a baseline, kept with the test references, not a trainer.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracle import perceptron_stream  # noqa: E402

full = generate_synthetic(n=4800, dim=15, margin=0.15, noise=0.02, seed=11)
train = Dataset(full.examples[:4000], 15)
test = Dataset(full.examples[4000:], 15)

params = ModelParams(dim=15, epsilon=0.001, lookahead=10)
report = run_experiment(train, test, params, runs=20, base_seed=0)
print(f"blurred ball SVM, eps=0.001, L=10, 20 shuffled runs:")
print(f"  mean accuracy {report.mean_accuracy:.4f} (std {report.accuracy_std:.4f})")
print(f"  mean train time {report.mean_time * 1e3:.1f} ms, "
      f"mean balls {report.mean_balls:.1f}")

baseline = sum(
    perceptron_stream(shuffled(train, seed), test) for seed in range(20)
) / 20
print(f"single-pass perceptron baseline: mean accuracy {baseline:.4f}")

print("\nepsilon sweep (L in {0, 10}, 5 runs each), CSV:")
rows = epsilon_sweep(train, test, params, [0.1, 0.01, 0.001], runs=5)
write_csv(rows, sys.stdout)
