import io
import math
from dataclasses import replace

import numpy as np
import pytest

from bbsvm import experiments
from bbsvm.data import Dataset, SparseVector, TrainingExample, generate_synthetic, shuffled
from bbsvm.experiments import (
    CSV_HEADER,
    ExperimentReport,
    RunResult,
    epsilon_sweep,
    run_experiment,
    write_csv,
)
from bbsvm.model import ModelParams
from oracle import perceptron_stream


def sv(*values):
    vals = np.array(values, dtype=float)
    return SparseVector(np.arange(1, len(vals) + 1), vals)


def split(n_train, n_test, dim, margin, seed):
    full = generate_synthetic(n_train + n_test, dim, margin, 0.0, seed)
    return (
        Dataset(full.examples[:n_train], dim),
        Dataset(full.examples[n_train:], dim),
    )


# -------------------------------------------------------------- run_experiment


def test_run_experiment_trained_to_saturation():
    train, _ = split(400, 0, 5, 0.25, seed=3)
    params = ModelParams(dim=5, epsilon=0.01)
    report = run_experiment(train, train, params, runs=2, base_seed=0)
    assert report.mean_accuracy == 1.0


def test_report_aggregation_identity():
    runs = [
        RunResult(seed=s, accuracy=a, train_seconds=t, ball_count=b, core_point_total=c)
        for s, a, t, b, c in [
            (2, 0.5, 0.1, 3, 30),
            (0, 1.0, 0.3, 1, 10),
            (1, 0.75, 0.2, 2, 20),
        ]
    ]
    params = ModelParams(dim=2)
    report = ExperimentReport(params, runs)
    assert report.params is params
    assert [r.seed for r in report.per_run] == [0, 1, 2]
    assert report.mean_accuracy == 0.75
    assert report.accuracy_std == pytest.approx(np.std([0.5, 1.0, 0.75]))
    assert report.mean_time == pytest.approx(0.2)
    assert report.mean_balls == 2.0
    assert report.mean_core_points == 20.0


def test_run_experiment_reproducible():
    train, test = split(300, 100, 4, 0.2, seed=6)
    params = ModelParams(dim=4, epsilon=0.01)
    a = run_experiment(train, test, params, runs=3, base_seed=5)
    b = run_experiment(train, test, params, runs=3, base_seed=5)
    assert [r.accuracy for r in a.per_run] == [r.accuracy for r in b.per_run]
    assert [r.ball_count for r in a.per_run] == [r.ball_count for r in b.per_run]
    assert [r.seed for r in a.per_run] == [5, 6, 7]


def test_run_experiment_validation():
    train, test = split(10, 10, 3, 0.0, seed=0)
    params = ModelParams(dim=3)
    with pytest.raises(ValueError, match="nonempty"):
        run_experiment(Dataset([], 3), test, params, 1)
    with pytest.raises(ValueError, match="runs"):
        run_experiment(train, test, params, 0)


def test_a_bad_training_row_names_its_run_and_seed():
    train, test = split(50, 10, 3, 0.0, seed=0)
    zero = TrainingExample(SparseVector(np.array([2]), np.array([0.0])), 1)
    train = Dataset([*train.examples, zero], 3)
    position = shuffled(train, 7).index(zero)
    message = rf"^run 0 \(seed 7\): training example {position}: input vector needs"
    with pytest.raises(ValueError, match=message):
        run_experiment(train, test, ModelParams(dim=3), runs=2, base_seed=7)


def test_single_pass_contract():
    train, test = split(200, 50, 4, 0.2, seed=8)
    from bbsvm.data import shuffled
    from bbsvm.model import Model

    params = ModelParams(dim=4, epsilon=0.01)
    order = shuffled(train, 0)
    handed = 0

    def counting():
        nonlocal handed
        for ex in order:
            handed += 1
            yield ex

    Model(params).train_stream(counting())
    assert handed == len(train.examples)


# --------------------------------------------------------------- epsilon_sweep


def test_sweep_rows_sorted_and_complete():
    train, test = split(150, 50, 4, 0.2, seed=10)
    params = ModelParams(dim=4)
    rows = epsilon_sweep(train, test, params, [0.1, 0.02], runs=1, lookaheads=(10, 0))
    assert [(r.params.epsilon, r.params.lookahead) for r in rows] == [
        (0.02, 0),
        (0.02, 10),
        (0.1, 0),
        (0.1, 10),
    ]
    assert all(len(r.per_run) == 1 for r in rows)


def test_sweep_trains_run_k_of_every_setting_before_run_k_plus_1(monkeypatch):
    # Interleaving keeps a drift in machine speed from favouring one epsilon;
    # each report still equals its own run_experiment but for the timings.
    train, test = split(150, 50, 4, 0.2, seed=10)
    params = ModelParams(dim=4)
    trained = []

    class RecordingModel(experiments.Model):
        def train_stream(self, stream):
            order = list(stream)
            trained.append((self.params.epsilon, order[0].x.values[0]))
            return super().train_stream(iter(order))

    monkeypatch.setattr(experiments, "Model", RecordingModel)
    rows = epsilon_sweep(train, test, params, [0.1, 0.02], runs=3, lookaheads=(10,), base_seed=4)
    firsts = [shuffled(train, 4 + k)[0].x.values[0] for k in range(3)]
    assert trained == [(eps, first) for first in firsts for eps in (0.02, 0.1)]
    for row in rows:
        alone = run_experiment(train, test, row.params, runs=3, base_seed=4)
        assert [replace(r, train_seconds=0.0) for r in row.per_run] == [
            replace(r, train_seconds=0.0) for r in alone.per_run
        ]


def test_sweep_rejects_duplicates_and_empty():
    train, test = split(20, 10, 3, 0.0, seed=0)
    params = ModelParams(dim=3)
    with pytest.raises(ValueError, match="duplicate"):
        epsilon_sweep(train, test, params, [0.1, 0.1], runs=1)
    with pytest.raises(ValueError, match="nonempty"):
        epsilon_sweep(train, test, params, [], runs=1)


def test_csv_output_shape():
    train, test = split(60, 30, 3, 0.2, seed=2)
    rows = epsilon_sweep(train, test, ModelParams(dim=3), [0.05], runs=1, lookaheads=(0,))
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 8
    assert float(fields[0]) == 0.05 and fields[1] == "0" and fields[2] == "1"
    assert buf.getvalue().endswith("\n")


# ------------------------------------------------------------------ perceptron


def test_perceptron_first_point_update_rule():
    # w starts at 0: the first point always counts as a mistake, and after
    # the update the same point is classified correctly.
    ex = TrainingExample(sv(1.0, 0.0), 1)
    test = Dataset([ex], 2)
    assert perceptron_stream([ex], test) == 1.0


def test_perceptron_zero_score_reports_positive():
    # no training: w stays 0, every score is 0, reported label +1
    test = Dataset(
        [TrainingExample(sv(1.0, 0.0), 1), TrainingExample(sv(0.0, 1.0), -1)], 2
    )
    assert perceptron_stream([], test) == 0.5


def test_perceptron_repeated_point_no_second_update():
    # after one update the repeat scores 2y > 0, so w is unchanged; a probe
    # orthogonal to x still sees only the bias weight
    ex = TrainingExample(sv(1.0, 0.0), 1)
    probe = Dataset([TrainingExample(sv(0.0, 1.0), 1)], 2)
    acc_once = perceptron_stream([ex], probe)
    acc_twice = perceptron_stream([ex, ex], probe)
    assert acc_once == acc_twice == 1.0


def test_perceptron_learns_separable_data():
    train, test = split(2000, 500, 10, 0.3, seed=14)
    acc = perceptron_stream(train.examples, test)
    assert acc >= 0.9


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_perceptron_bad_rows_raise_with_their_position(bad):
    good = TrainingExample(sv(1.0, 0.5), 1)
    row = TrainingExample(sv(bad, 0.0), -1)
    test = Dataset([good], 2)
    with pytest.raises(ValueError, match="training example 2: input vector"):
        perceptron_stream([good, good, row], test)
    with pytest.raises(ValueError, match="test example 1: input vector"):
        perceptron_stream([good], Dataset([good, row], 2))


@pytest.mark.filterwarnings("error")
def test_perceptron_huge_rows_train_like_their_unit_twins():
    # Squaring 1e200 overflows.  A map that fell back to the bias-only point
    # [0, 0, 1] would end at w = [1, 0, 0] and score this probe set at 0.5.
    first = TrainingExample(sv(1.0, 0.0), 1)
    probe = Dataset(
        [TrainingExample(sv(0.0, 1.0), -1), TrainingExample(sv(0.0, -1.0), 1)], 2
    )
    unit = perceptron_stream([first, TrainingExample(sv(0.0, 1.0), -1)], probe)
    huge = perceptron_stream([first, TrainingExample(sv(0.0, 1e200), -1)], probe)
    assert huge == unit == 1.0


class CountingStream:
    """Iterable over ``items`` that counts its passes."""

    def __init__(self, items):
        self.items = items
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return iter(self.items)


def test_perceptron_reads_a_one_pass_stream_once():
    train, test = split(500, 200, 5, 0.1, seed=3)
    expected = perceptron_stream(train.examples, test)
    assert expected == 1.0
    assert perceptron_stream(iter(train.examples), test) == expected
    stream = CountingStream(train.examples)
    assert perceptron_stream(stream, test) == expected
    assert stream.passes == 1
