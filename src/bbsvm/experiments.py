"""Experiment harness: multi-run averaging over shuffled streams, epsilon
sweeps with CSV output, and a single-pass perceptron baseline."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np

from .data import Dataset, TrainingExample, shuffled
from .model import Model, ModelParams, map_test_point

__all__ = [
    "CSV_HEADER",
    "ExperimentReport",
    "RunResult",
    "epsilon_sweep",
    "perceptron_stream",
    "run_experiment",
    "write_csv",
]

CSV_HEADER = (
    "epsilon,L,runs,mean_accuracy,std_accuracy,"
    "mean_train_seconds,mean_balls,mean_core_points"
)


@dataclass(frozen=True)
class RunResult:
    seed: int
    accuracy: float
    train_seconds: float
    ball_count: int
    core_point_total: int


@dataclass(eq=False)
class ExperimentReport:
    """The runs of one ``ModelParams`` setting, their aggregates and CSV row.

    ``as_csv`` takes epsilon and L from ``params``, runs from ``per_run``.
    """

    params: ModelParams
    per_run: list[RunResult]
    mean_accuracy: float
    accuracy_std: float
    mean_time: float
    mean_balls: float
    mean_core_points: float

    @classmethod
    def from_runs(
        cls, params: ModelParams, runs: Sequence[RunResult]
    ) -> "ExperimentReport":
        # Sort by seed so aggregation is independent of completion order.
        ordered = sorted(runs, key=lambda r: r.seed)
        acc = np.array([r.accuracy for r in ordered])
        return cls(
            params=params,
            per_run=list(ordered),
            mean_accuracy=float(acc.mean()),
            accuracy_std=float(acc.std()),
            mean_time=float(np.mean([r.train_seconds for r in ordered])),
            mean_balls=float(np.mean([r.ball_count for r in ordered])),
            mean_core_points=float(np.mean([r.core_point_total for r in ordered])),
        )

    def as_csv(self) -> str:
        """One line in ``CSV_HEADER`` order; floats in round-trip ``repr``."""
        return ",".join(
            [
                repr(float(self.params.epsilon)),
                str(self.params.lookahead),
                str(len(self.per_run)),
                repr(float(self.mean_accuracy)),
                repr(float(self.accuracy_std)),
                repr(float(self.mean_time)),
                repr(float(self.mean_balls)),
                repr(float(self.mean_core_points)),
            ]
        )


def run_experiment(
    train: Dataset,
    test: Dataset,
    params: ModelParams,
    runs: int,
    base_seed: int = 0,
) -> ExperimentReport:
    """Train ``runs`` models on shuffled copies of the stream and average.

    Run k trains on ``shuffled(train, base_seed + k)`` and is scored on the
    test set in its fixed order.  Timing covers stream consumption through
    the final buffer flush only (shuffling and parsing are excluded).
    """
    if not train.examples or not test.examples:
        raise ValueError("run_experiment requires nonempty train and test sets")
    if runs < 1:
        raise ValueError("runs must be at least 1")
    test_x = [ex.x for ex in test.examples]
    test_y = np.array([ex.y for ex in test.examples])
    results = []
    for k in range(runs):
        seed = base_seed + k
        order = shuffled(train, seed)
        model = Model(params)
        start = time.perf_counter()
        try:
            model.train_stream(iter(order))
        except ValueError as err:
            raise ValueError(f"run {k} (seed {seed}): {err}") from err
        elapsed = time.perf_counter() - start
        accuracy = float((model.predict(test_x) == test_y).mean())
        results.append(
            RunResult(
                seed=seed,
                accuracy=accuracy,
                train_seconds=elapsed,
                ball_count=len(model.cover.cores),
                core_point_total=sum(len(cs.members) for cs in model.cover.cores),
            )
        )
    return ExperimentReport.from_runs(params, results)


def epsilon_sweep(
    train: Dataset,
    test: Dataset,
    params: ModelParams,
    epsilons: Sequence[float],
    runs: int,
    lookaheads: Sequence[int] = (0, 10),
    base_seed: int = 0,
) -> list[ExperimentReport]:
    """One ``run_experiment`` report per (epsilon, lookahead) pair.

    Reports come back sorted by epsilon ascending, then lookahead, each
    with the ``ModelParams`` it ran with: ``params`` with that epsilon and
    lookahead, and ``delta`` re-derived as epsilon/2.
    """
    if not epsilons:
        raise ValueError("epsilons must be nonempty")
    if len(set(epsilons)) != len(epsilons):
        raise ValueError("duplicate epsilon values")
    reports = []
    for eps in sorted(epsilons):
        for L in sorted(lookaheads):
            run_params = replace(params, epsilon=eps, lookahead=L, delta=None)
            reports.append(run_experiment(train, test, run_params, runs, base_seed))
    return reports


def write_csv(reports: Sequence[ExperimentReport], stream: IO[str]) -> None:
    stream.write(CSV_HEADER + "\n")
    for report in reports:
        stream.write(report.as_csv() + "\n")


def perceptron_stream(
    train: Sequence[TrainingExample], test: Dataset, dim: int | None = None
) -> float:
    """Single-pass mistake-driven perceptron baseline; returns test accuracy.

    Rows are mapped by ``map_test_point`` to ``[x_hat ; 1]``; a row it
    rejects (NaN, infinite or zero) raises ``ValueError`` naming it, as
    ``training example N: ...`` or ``test example N: ...``.  A prediction
    of exactly zero counts as a mistake during training and is reported as
    +1 at test time.
    """
    if not test.examples:
        raise ValueError("perceptron_stream requires a nonempty test set")
    if dim is None:
        dim = test.dim
        for ex in train:
            if ex.x.indices.size:
                dim = max(dim, int(ex.x.indices[-1]))
    params = ModelParams(dim=dim)

    def mapped(what: str, position: int, x) -> np.ndarray:
        try:
            return map_test_point(x, params).explicit
        except ValueError as err:
            raise ValueError(f"{what} example {position}: {err}") from err

    w = np.zeros(dim + 1)
    for position, ex in enumerate(train):
        xt = mapped("training", position, ex.x)
        if ex.y * float(w @ xt) <= 0.0:
            w += ex.y * xt
    correct = 0
    for position, ex in enumerate(test.examples):
        value = float(w @ mapped("test", position, ex.x))
        correct += (-1 if value < 0.0 else 1) == ex.y
    return correct / len(test.examples)
