"""Experiment harness: multi-run averaging over shuffled streams and epsilon
sweeps with CSV output."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np

from .data import Dataset, shuffled
from .model import Model, ModelParams

__all__ = [
    "CSV_HEADER",
    "ExperimentReport",
    "RunResult",
    "epsilon_sweep",
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
    return _interleaved_runs(train, test, [params], runs, base_seed)[0]


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
    lookahead, and ``delta`` re-derived as epsilon/2.  Run k of every
    setting trains before run k+1 of any, so a machine that slows down
    or speeds up during the sweep shifts every setting's mean time alike.
    """
    if not epsilons:
        raise ValueError("epsilons must be nonempty")
    if len(set(epsilons)) != len(epsilons):
        raise ValueError("duplicate epsilon values")
    settings = [
        replace(params, epsilon=eps, lookahead=L, delta=None)
        for eps in sorted(epsilons)
        for L in sorted(lookaheads)
    ]
    return _interleaved_runs(train, test, settings, runs, base_seed)


def _interleaved_runs(
    train: Dataset,
    test: Dataset,
    settings: Sequence[ModelParams],
    runs: int,
    base_seed: int,
) -> list[ExperimentReport]:
    """Run k of each setting on ``shuffled(train, base_seed + k)``, k outermost."""
    if not train.examples or not test.examples:
        raise ValueError("run_experiment requires nonempty train and test sets")
    if runs < 1:
        raise ValueError("runs must be at least 1")
    test_x = [ex.x for ex in test.examples]
    test_y = np.array([ex.y for ex in test.examples])
    results: list[list[RunResult]] = [[] for _ in settings]
    for k in range(runs):
        seed = base_seed + k
        order = shuffled(train, seed)
        for params, per_run in zip(settings, results):
            model = Model(params)
            start = time.perf_counter()
            try:
                model.train_stream(iter(order))
            except ValueError as err:
                raise ValueError(f"run {k} (seed {seed}): {err}") from err
            elapsed = time.perf_counter() - start
            accuracy = float((model.predict(test_x) == test_y).mean())
            per_run.append(
                RunResult(
                    seed=seed,
                    accuracy=accuracy,
                    train_seconds=elapsed,
                    ball_count=len(model.cover.cores),
                    core_point_total=sum(len(cs.members) for cs in model.cover.cores),
                )
            )
    return [
        ExperimentReport.from_runs(params, per_run)
        for params, per_run in zip(settings, results)
    ]


def write_csv(reports: Sequence[ExperimentReport], stream: IO[str]) -> None:
    stream.write(CSV_HEADER + "\n")
    for report in reports:
        stream.write(report.as_csv() + "\n")
