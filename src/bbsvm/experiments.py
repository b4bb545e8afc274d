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


def _over_runs(field: str, reduce=np.mean) -> property:
    """A report's ``reduce`` of its runs' ``field``, as a Python float."""
    return property(lambda self: float(reduce([getattr(r, field) for r in self.per_run])))


@dataclass(eq=False)
class ExperimentReport:
    """The runs of one ``ModelParams`` setting, sorted by seed, and the means
    and CSV row read from them: no aggregate depends on completion order.

    ``as_csv`` takes epsilon and L from ``params``, runs from ``per_run``.
    """

    params: ModelParams
    per_run: list[RunResult]

    def __post_init__(self):
        self.per_run = sorted(self.per_run, key=lambda r: r.seed)

    mean_accuracy = _over_runs("accuracy")
    accuracy_std = _over_runs("accuracy", np.std)
    mean_time = _over_runs("train_seconds")
    mean_balls = _over_runs("ball_count")
    mean_core_points = _over_runs("core_point_total")

    def as_csv(self) -> str:
        """One line in ``CSV_HEADER`` order; floats in round-trip ``repr``."""
        means = [self.mean_accuracy, self.accuracy_std, self.mean_time,
                 self.mean_balls, self.mean_core_points]
        return ",".join([repr(float(self.params.epsilon)), str(self.params.lookahead),
                         str(len(self.per_run)), *map(repr, means)])


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
        ExperimentReport(params, per_run)
        for params, per_run in zip(settings, results)
    ]


def write_csv(reports: Sequence[ExperimentReport], stream: IO[str]) -> None:
    stream.write(CSV_HEADER + "\n")
    for report in reports:
        stream.write(report.as_csv() + "\n")
