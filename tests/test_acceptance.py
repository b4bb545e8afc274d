"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest -s`` to see them as they happen)."""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bbsvm.cover import BlurredBallCover
from bbsvm.data import Dataset, generate_synthetic, load_libsvm, shuffled
from bbsvm.experiments import epsilon_sweep, run_experiment
from bbsvm.meb import AugPoint, approx_meb
from bbsvm.model import Model, ModelParams
from oracle import (
    WeightedPoint,
    center_norm2,
    exact_meb_small,
    expansion_contains,
    map_test_point,
    perceptron_stream,
    support,
    weighted,
)

DATASET_DIR = Path(__file__).resolve().parents[1] / "datasets"


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text}")


def find_dataset(stem):
    for suffix in (".libsvm", ".libsvm.gz", ".txt", ".txt.gz"):
        path = DATASET_DIR / f"{stem}{suffix}"
        if path.exists():
            return path
    return None


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_meb_oracle_equivalence():
    with criterion(1, "approx MEB within 1.01x of the exact oracle, < 5 s"):
        rng = np.random.default_rng(100)
        delta = 0.01
        start = time.perf_counter()
        for instance in range(200):
            dim = int(rng.integers(2, 4))
            n = int(rng.integers(1, 51))
            if instance % 3 == 0:
                pts = rng.uniform(-1.0, 1.0, (n, dim))
            elif instance % 3 == 1:
                pts = rng.normal(scale=2.0, size=(n, dim))
            else:  # two clusters
                pts = rng.normal(scale=0.3, size=(n, dim))
                pts[n // 2 :] += 2.0
            ball, _ = approx_meb(
                [AugPoint(p, i) for i, p in enumerate(pts)], delta
            )
            _, r_exact = exact_meb_small(pts)
            assert ball.radius <= (1.0 + delta) * r_exact * (1.0 + 1e-9), (
                f"instance {instance}: radius {ball.radius} vs exact {r_exact}"
            )
            limit = ball.radius * (1.0 + 1e-9)
            dists = np.linalg.norm(pts - ball.center.explicit, axis=1)
            assert dists.max() <= limit
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        print(f"  200 instances in {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2


class _CheckingCover(BlurredBallCover):
    def __init__(self, params):
        super().__init__(params)
        self.merge_count = 0

    def merge_update(self, buf):
        super().merge_update(buf)
        self.merge_count += 1
        cut = (self.params.epsilon / 4.0) * self.cores[-1].ball.radius
        assert min(cs.ball.radius for cs in self.cores) >= cut
        for p in buf:
            p = weighted(p, self.params)
            assert any(
                expansion_contains(cs.ball, p, self.params.epsilon) for cs in self.cores
            )


def _stream_signature(cover):
    return [
        (
            cs.ball.radius,
            cs.ball.center.explicit.tobytes(),
            tuple(cs.ball.center.slack_coeffs.items()),
            tuple(p.id for p in cs.members),
        )
        for cs in cover.cores
    ]


def test_criterion_2_cover_invariant_suite():
    with criterion(2, "discard + coverage invariants and bit-for-bit determinism"):
        total_merges = 0
        for stream_index in range(50):
            eps = (0.25, 0.12, 0.06)[stream_index % 3]
            lookahead = (0, 5, 10)[stream_index % 3]
            C = math.inf if stream_index % 2 == 0 else 10.0
            dim = 4 + stream_index % 4
            params = ModelParams(dim=dim, epsilon=eps, C=C, lookahead=lookahead)
            ds = generate_synthetic(5000, dim, 0.05, 0.05, seed=1000 + stream_index)

            signatures = []
            for repeat in range(2):
                model = Model(params)
                model.cover = cover = _CheckingCover(params)
                model.train_stream(ds.examples)
                signatures.append(_stream_signature(cover))
            assert signatures[0] == signatures[1], f"stream {stream_index} not deterministic"
            total_merges += cover.merge_count
        assert total_merges > 50  # the suite actually exercised merges
        print(f"  50 streams x 2 runs, {total_merges} checked merges")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_separator_geometry_properties():
    with criterion(3, "halfspace/distance equivalence, margin identity, disjoint support"):
        rng = np.random.default_rng(300)
        # (p - c) . c >= 0  <=>  |p - c|^2 <= kappa^2 - |c|^2 on the sphere;
        # algebraically rhs - 2*lhs = kappa^2 - |p|^2 = 0, checked to 1e-9.
        for kappa2 in (2.0, 2.0 + 1.0 / 7.0):
            kappa = math.sqrt(kappa2)
            dim = int(rng.integers(3, 12))
            p = rng.normal(size=(100_000, dim))
            p *= kappa / np.linalg.norm(p, axis=1)[:, None]
            c = rng.normal(size=dim)
            c *= float(rng.uniform(0.05, 0.999)) * kappa / np.linalg.norm(c)
            lhs = (p - c) @ c
            rhs = (kappa2 - float(c @ c)) - ((p - c) ** 2).sum(axis=1)
            assert np.all(np.abs(rhs - 2.0 * lhs) <= 1e-9 * kappa2)
            agree = (lhs >= 0.0) == (rhs >= -1e-9 * kappa2)
            assert np.all(agree | (np.abs(lhs) <= 1e-9 * kappa2))
            # margin identity on balls built with radius sqrt(kappa^2 - |c|^2)
            for _ in range(1000):
                cc = rng.normal(size=dim)
                cc *= float(rng.uniform(0.01, 0.99)) * kappa / np.linalg.norm(cc)
                r = math.sqrt(kappa2 - float(cc @ cc))
                assert abs((kappa2 - r * r) - float(cc @ cc)) <= 1e-9 * kappa2

        # support disjointness on trained models (one hard-margin, one soft)
        for C in (math.inf, 50.0):
            params = ModelParams(dim=8, epsilon=0.005, C=C)
            ds = generate_synthetic(2000, 8, 0.1, 0.0, seed=301)
            model = Model(params).train_stream(ds.examples)
            kappa = params.kappa
            assert all(cs.ball.radius < kappa for cs in model.cover.cores)
            assert all(center_norm2(cs.ball.center) > 0.0 for cs in model.cover.cores)
            probes = generate_synthetic(500, 8, 0.0, 0.0, seed=302)
            for ex in probes.examples:
                p = map_test_point(ex.x, params)
                n = WeightedPoint(-p.explicit, 0.0, p.id)
                sup_p = {id(b) for b in support(model.cover, p)}
                sup_n = {id(b) for b in support(model.cover, n)}
                assert not (sup_p & sup_n)
        print("  2 x 100k sphere samples, 2 trained models x 500 probes")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_synthetic_end_to_end():
    with criterion(4, "synthetic 10k/2k, eps=0.001, L=10, 20 runs: accuracy >= 0.99, < 60 s"):
        start = time.perf_counter()
        full = generate_synthetic(12_000, 20, 0.2, 0.0, seed=400)
        train = Dataset(full.examples[:10_000], 20)
        test = Dataset(full.examples[10_000:], 20)
        params = ModelParams(dim=20, epsilon=0.001, C=math.inf, lookahead=10)

        # single-pass contract: the model sees each example exactly once
        order = shuffled(train, 0)
        handed = 0

        def counting_stream():
            nonlocal handed
            for ex in order:
                handed += 1
                yield ex

        Model(params).train_stream(counting_stream())
        assert handed == len(train.examples)

        report = run_experiment(train, test, params, runs=20, base_seed=0)
        elapsed = time.perf_counter() - start
        assert report.mean_accuracy >= 0.99, f"mean accuracy {report.mean_accuracy}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(
            f"  mean accuracy {report.mean_accuracy:.4f} "
            f"(std {report.accuracy_std:.4f}), wall {elapsed:.1f}s, "
            f"mean balls {report.mean_balls:.1f}"
        )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_mnist_reference_accuracy():
    train_path = find_dataset("mnist-0v1.train")
    test_path = find_dataset("mnist-0v1.test")
    if train_path is None or test_path is None:
        pytest.skip(
            "MNIST 0-vs-1 LIBSVM files not present under datasets/ "
            "(see README: fetched externally)"
        )
    with criterion(5, "MNIST 0v1 within 0.5 pt of reference, perceptron within 1.0 pt"):
        train = load_libsvm(train_path)
        test = load_libsvm(test_path)
        dim = max(train.dim, test.dim)
        expected = {0: 99.89, 10: 99.93}
        for lookahead, reference in expected.items():
            params = ModelParams(dim=dim, epsilon=0.001, C=math.inf, lookahead=lookahead)
            report = run_experiment(train, test, params, runs=20, base_seed=0)
            got = 100.0 * report.mean_accuracy
            print(f"  L={lookahead}: {got:.2f}% (reference {reference})")
            assert abs(got - reference) <= 0.5
        perceptron_accs = [
            perceptron_stream(shuffled(train, seed), test, dim=dim)
            for seed in range(20)
        ]
        got = 100.0 * float(np.mean(perceptron_accs))
        print(f"  perceptron: {got:.2f}% (reference 99.47)")
        assert abs(got - 99.47) <= 1.0


def test_criterion_5_ijcnn_attempt():
    # Reported but not gating: reference tuning is too coarse to replicate.
    train_path = find_dataset("ijcnn1.train")
    test_path = find_dataset("ijcnn1.test")
    if train_path is None or test_path is None:
        pytest.skip("IJCNN LIBSVM files not present under datasets/")
    if not os.environ.get("BBSVM_RUN_IJCNN"):
        pytest.skip("set BBSVM_RUN_IJCNN=1 to run (epsilon=1e-6 is slow)")
    train = load_libsvm(train_path)
    test = load_libsvm(test_path)
    dim = max(train.dim, test.dim)
    params = ModelParams(dim=dim, epsilon=1e-6, C=1e5, lookahead=10)
    report = run_experiment(train, test, params, runs=20, base_seed=0)
    print(
        f"[INFO] criterion 5 (non-gating): IJCNN mean accuracy "
        f"{100.0 * report.mean_accuracy:.2f}% (reference 90.82)"
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_sublinear_space():
    with criterion(6, "1e5-point stream at eps=0.01 keeps <= 200 balls, sublinear growth"):
        ds = generate_synthetic(100_000, 10, 0.0, 0.0, seed=600)
        params = ModelParams(dim=10, epsilon=0.01, C=math.inf, lookahead=10)
        model = Model(params)
        count_at_10k = None
        peak = 0
        for i, ex in enumerate(ds.examples):
            model.feed([ex])
            peak = max(peak, len(model.cover.cores))
            if i + 1 == 10_000:
                count_at_10k = len(model.cover.cores)
        model.finish()
        count_at_100k = len(model.cover.cores)
        assert peak <= 200, f"peak ball count {peak}"
        assert count_at_100k <= 2 * count_at_10k, (
            f"{count_at_100k} balls at 1e5 vs {count_at_10k} at 1e4"
        )
        print(
            f"  balls: {count_at_10k} at 1e4, {count_at_100k} at 1e5, peak {peak}"
        )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_time_vs_epsilon_monotonicity():
    with criterion(7, "mean training time non-increasing in epsilon over {0.1, 0.01, 0.001}"):
        # Full-sphere data in high dimension keeps escape updates coming, so
        # training cost is dominated by the epsilon-dependent merge work.
        full = generate_synthetic(2400, 40, 0.0, 0.0, seed=700)
        train = Dataset(full.examples[:2000], 40)
        test = Dataset(full.examples[2000:], 40)
        params = ModelParams(dim=40)
        rows = epsilon_sweep(
            train, test, params, [1e-1, 1e-2, 1e-3], runs=10, lookaheads=(10,)
        )
        times = [row.mean_time for row in rows]  # epsilon ascending
        print(
            "  mean seconds by epsilon: "
            + ", ".join(f"{row.params.epsilon:g}: {row.mean_time:.4f}" for row in rows)
        )
        assert times[0] >= times[1] >= times[2], f"not monotone: {times}"
