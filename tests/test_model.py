import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bbsvm.cover import BlurredBallCover
from bbsvm.data import (
    Dataset,
    SparseVector,
    TrainingExample,
    generate_synthetic,
    parse_libsvm,
)
from bbsvm.meb import AugPoint, Ball, Center, CoreSet
from bbsvm.model import Model, ModelParams, feature_map, map_test_point
from bbsvm.model_file import load_model, save_model
from oracle import center_dot, score, support


def sv(*values):
    vals = np.array(values, dtype=float)
    return SparseVector(np.arange(1, len(vals) + 1), vals)


def raw(vec, pid):
    return AugPoint(np.asarray(vec, dtype=float), 0.0, pid)


# ----------------------------------------------------------------- feature_map


def test_feature_map_normalizes_and_appends_bias():
    params = ModelParams(dim=2)
    p = feature_map(sv(3.0, 4.0), 1, params, 0)
    assert np.allclose(p.explicit, [0.6, 0.8, 1.0], atol=1e-15)
    assert p.slack_weight == 0.0
    assert p.label == 1
    assert math.isclose(math.sqrt(p.norm2()), math.sqrt(2.0), rel_tol=1e-12)


def test_feature_map_label_antisymmetry_exact():
    params = ModelParams(dim=2)
    pos = feature_map(sv(3.0, 4.0), 1, params, 0)
    neg = feature_map(sv(3.0, 4.0), -1, params, 1)
    assert np.array_equal(pos.explicit, -neg.explicit)


def test_feature_map_finite_c_slack():
    params = ModelParams(dim=2, C=1.0)
    p = feature_map(sv(1.0, 0.0), 1, params, 3)
    assert np.array_equal(p.explicit, [1.0, 0.0, 1.0])
    assert p.slack_weight == 1.0
    assert math.isclose(p.norm2(), params.kappa**2, rel_tol=1e-12)
    assert math.isclose(params.kappa, math.sqrt(3.0), rel_tol=1e-15)


def test_feature_map_errors():
    params = ModelParams(dim=2)
    with pytest.raises(ValueError, match="zero"):
        feature_map(SparseVector(np.array([1]), np.array([0.0])), 1, params, 0)
    with pytest.raises(ValueError, match="label"):
        feature_map(sv(1.0, 0.0), 2, params, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_feature_map_rejects_non_finite_values(bad):
    params = ModelParams(dim=2, C=1.0)
    x = sv(bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        feature_map(x, 1, params, 0)
    with pytest.raises(ValueError, match="finite"):
        map_test_point(x, params)


def test_non_finite_input_never_reaches_a_ball():
    examples = [
        TrainingExample(sv(0.5, 1.0), 1),
        TrainingExample(sv(math.nan, 1.0), 1),
    ]
    model = Model(ModelParams(dim=2, lookahead=0))
    with pytest.raises(ValueError, match="training example 1"):
        model.train_stream(examples)
    model = Model(ModelParams(dim=2)).train_stream(examples[:1])
    with pytest.raises(ValueError, match="finite"):
        model.predict([examples[0].x, examples[1].x])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_extreme_magnitudes_train_and_predict_like_unit_values():
    # The squares of 1e200 overflow and those of 1e-200 underflow; the norm
    # rescales, so both rows map exactly like "+1 1:1 2:1".
    tail = ["-1 1:1 2:-3", "+1 1:2 2:0.5"]
    reference = parse_libsvm(["+1 1:1 2:1"] + tail).examples
    params = ModelParams(dim=2, lookahead=0)
    expected = Model(params).train_stream(reference)
    queries = [ex.x for ex in reference]
    for value in ("1e200", "1e-200"):
        ds = parse_libsvm([f"+1 1:{value} 2:{value}"] + tail)
        model = Model(params).train_stream(ds.examples)
        assert len(model.cover.cores) == len(expected.cover.cores)
        for got, want in zip(model.cover.cores, expected.cover.cores):
            assert got.ball.radius == want.ball.radius
            assert np.array_equal(got.ball.center.explicit, want.ball.center.explicit)
        assert np.array_equal(
            model.predict([ds.examples[0].x] + queries[1:]),
            expected.predict(queries),
        )


def test_norm_without_finite_reciprocal_is_rejected():
    # sqrt(2) * 1e-310 is nonzero, but 1 / norm overflows to inf.
    x = parse_libsvm(["+1 1:1e-310 2:1e-310"]).examples[0].x
    assert 0.0 < x.norm() < 1e-300
    with pytest.raises(ValueError, match="finite reciprocal"):
        feature_map(x, 1, ModelParams(dim=2), 0)


def test_map_test_point_mirrors_positive_map():
    params = ModelParams(dim=2, C=1.0)  # slack must still be 0 for queries
    q = map_test_point(sv(3.0, 4.0), params)
    p = feature_map(sv(3.0, 4.0), 1, params, 0)
    assert np.array_equal(q.explicit, p.explicit)
    assert q.slack_weight == 0.0
    assert q.id == -1 and q.label is None
    with pytest.raises(ValueError, match="zero"):
        map_test_point(SparseVector(np.array([2]), np.array([0.0])), params)


def test_params_validation_and_defaults():
    p = ModelParams(dim=4, epsilon=0.01)
    assert p.delta == 0.005
    assert p.kappa == math.sqrt(2.0)
    with pytest.raises(ValueError):
        ModelParams(dim=0)
    with pytest.raises(ValueError):
        ModelParams(dim=2, epsilon=-1.0)
    with pytest.raises(ValueError):
        ModelParams(dim=2, C=0.0)
    with pytest.raises(ValueError):
        ModelParams(dim=2, lookahead=-1)


# ---------------------------------------------------------------- train_stream


def test_train_stream_empty():
    model = Model(ModelParams(dim=3))
    model.train_stream([])
    assert model.cover.cores == []
    assert model.next_id == 0


def test_train_stream_single_example():
    model = Model(ModelParams(dim=2, lookahead=0))
    model.train_stream([TrainingExample(sv(1.0, 1.0), 1)])
    assert len(model.cover.cores) == 1
    assert model.cover.cores[0].ball.radius == 0.0
    assert model.next_id == 1


def test_train_stream_flushes_partial_buffer():
    model = Model(ModelParams(dim=2, lookahead=10))
    model.train_stream([TrainingExample(sv(1.0, 1.0), 1)] * 3)
    assert len(model.cover.cores) == 1  # flush ran a merge check
    assert model.next_id == 3


def test_train_stream_error_carries_position():
    model = Model(ModelParams(dim=2))
    stream = [
        TrainingExample(sv(1.0, 0.0), 1),
        TrainingExample(SparseVector(np.array([1]), np.array([0.0])), 1),
    ]
    with pytest.raises(ValueError, match="training example 1"):
        model.train_stream(stream)


def test_train_stream_separable_reaches_full_training_accuracy():
    ds = generate_synthetic(1000, 10, 0.2, 0.0, seed=7)
    model = Model(ModelParams(dim=10, epsilon=0.001, lookahead=10))
    model.train_stream(ds.examples)
    preds = model.predict([ex.x for ex in ds.examples])
    truth = np.array([ex.y for ex in ds.examples])
    assert (preds == truth).mean() == 1.0


# ------------------------------------------------------------- support / score


def one_ball_cover(center_vec, radius, coeffs=None):
    cover = BlurredBallCover(0.1)
    ball = Ball(Center(np.asarray(center_vec, dtype=float), coeffs or {}), radius)
    cover.cores = [CoreSet([], ball)]
    cover._refresh_cache()
    return cover


def test_support_empty_cover():
    cover = BlurredBallCover(0.1)
    assert support(cover, raw([0.0, 0.0], 0)) == []


def test_support_contains_center_and_uses_unexpanded_radius():
    cover = one_ball_cover([1.0, 0.0], 1.0)
    assert len(support(cover, raw([1.0, 0.0], 0))) == 1
    # strictly between r and (1+eps) r: excluded from support
    assert support(cover, raw([2.05, 0.0], 1)) == []
    assert not cover.escapes(raw([2.05, 0.0], 1))


def test_score_empty_support_is_zero():
    cover = one_ball_cover([0.0, 2.0], 1.5)
    assert score(cover, raw([5.0, 5.0], 0)) == 0.0


def test_score_single_ball_distance():
    cover = one_ball_cover([0.0, 2.0], 1.5)
    assert score(cover, raw([0.0, 1.0], 0)) == 1.0


def test_score_sums_over_supporting_balls():
    cover = BlurredBallCover(0.1)
    b1 = Ball(Center(np.array([0.0, 2.0])), 1.5)
    b2 = Ball(Center(np.array([1.0, 1.0])), 2.0)
    cover.cores = [CoreSet([], b1), CoreSet([], b2)]
    cover._refresh_cache()
    p = raw([0.0, 1.0], 0)
    expected = 1.0 + (p.explicit @ b2.center.explicit) / np.linalg.norm(
        b2.center.explicit
    )
    assert math.isclose(score(cover, p), expected, rel_tol=1e-12)


def test_score_zero_norm_center_contributes_nothing():
    cover = one_ball_cover([0.0, 0.0], 1.0)
    p = raw([0.5, 0.0], 0)
    assert len(support(cover, p)) == 1
    assert score(cover, p) == 0.0


@pytest.mark.parametrize("tail", [0, 2000])
def test_hard_margin_contradicting_pair_predicts_by_tie_rule(tmp_path, tail):
    # (x, +1) and (x, -1) at C = inf leave a ball with an exactly zero center
    # and radius sqrt(2).  It contains every query but has no separator, so
    # every label comes from the tie rule (+1), as for the same pair at C = 1.
    ds = generate_synthetic(tail + 200, 5, 0.2, 0.0, seed=3)
    x = ds.examples[0].x
    stream = [TrainingExample(x, 1), TrainingExample(x, -1)] + ds.examples[:tail]
    queries = [ex.x for ex in ds.examples[tail:]]
    model = Model(ModelParams(dim=5)).train_stream(stream)
    assert [cs.ball.center.norm2() for cs in model.cover.cores] == [0.0]
    assert model.cover.cores[0].ball.radius == math.sqrt(2.0)
    save_model(model, tmp_path / "m.bbsvm")
    soft = Model(ModelParams(dim=5, C=1.0)).train_stream(stream[:2])
    for m in (model, load_model(tmp_path / "m.bbsvm"), soft):
        assert np.array_equal(m.predict(queries), np.ones(len(queries), dtype=int))


# -------------------------------------------------------------------- classify


def test_classify_requires_training():
    model = Model(ModelParams(dim=2))
    with pytest.raises(ValueError, match="no balls"):
        model.classify(sv(1.0, 0.0))


def test_predict_empty_batch_returns_empty_labels():
    model = Model(ModelParams(dim=2))
    with pytest.raises(ValueError, match="no balls"):
        model.predict([])
    model.train_stream([TrainingExample(sv(1.0, 0.0), 1)])
    labels = model.predict([])
    assert labels.shape == (0,) and labels.dtype.kind == "i"


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_predict_error_names_the_query(bad):
    model = Model(ModelParams(dim=2)).train_stream([TrainingExample(sv(1.0, 0.0), 1)])
    queries = [sv(1.0, 0.0), sv(0.5, 0.5), sv(bad, 0.0)]
    with pytest.raises(ValueError, match="query 2: input vector needs a finite"):
        model.predict(queries)


def test_classify_single_ball_sign_symmetry():
    ds = generate_synthetic(200, 4, 0.3, 0.0, seed=5)
    model = Model(ModelParams(dim=4, epsilon=0.01)).train_stream(ds.examples)
    x = ds.examples[0].x
    plus = model.classify(x)
    minus = model.classify(SparseVector(x.indices, -x.values))
    assert plus == -minus


def test_flipped_labels_flip_every_prediction():
    ds = generate_synthetic(400, 6, 0.2, 0.0, seed=8)
    flipped = Dataset(
        [TrainingExample(ex.x, -ex.y) for ex in ds.examples], ds.dim
    )
    params = ModelParams(dim=6, epsilon=0.01)
    m1 = Model(params).train_stream(ds.examples)
    m2 = Model(params).train_stream(flipped.examples)
    queries = [ex.x for ex in generate_synthetic(100, 6, 0.0, 0.0, seed=9).examples]
    p1 = m1.predict(queries)
    p2 = m2.predict(queries)
    assert np.array_equal(p1, -p2)


def test_prediction_deterministic():
    ds = generate_synthetic(300, 5, 0.2, 0.0, seed=4)
    model = Model(ModelParams(dim=5, epsilon=0.01)).train_stream(ds.examples)
    x = ds.examples[17].x
    assert all(model.classify(x) == model.classify(x) for _ in range(5))


def test_predict_matches_scalar_score_rule():
    ds = generate_synthetic(500, 5, 0.15, 0.0, seed=9)
    model = Model(ModelParams(dim=5, epsilon=0.01)).train_stream(ds.examples)
    queries = generate_synthetic(150, 5, 0.0, 0.0, seed=10).examples
    for ex in queries:
        p = map_test_point(ex.x, model.params)
        neg = AugPoint(-p.explicit, 0.0, p.id)
        s = score(model.cover, p) - score(model.cover, neg)
        if s != 0.0:
            expected = 1 if s > 0 else -1
        else:
            fallback = sum(
                center_dot(cs.ball.center, p) / math.sqrt(cs.ball.center.norm2())
                for cs in model.cover.cores
            )
            expected = -1 if fallback < 0 else 1
        assert model.classify(ex.x) == expected


# ----------------------------------------------------- separator-geometry laws


def test_halfspace_distance_equivalence():
    # For |p| = kappa: (p - c) . c >= 0  iff  |p - c|^2 <= kappa^2 - |c|^2.
    rng = np.random.default_rng(2)
    kappa = math.sqrt(2.0)
    dim = 8
    p = rng.normal(size=(20000, dim))
    p *= kappa / np.linalg.norm(p, axis=1)[:, None]
    c = rng.normal(size=dim)
    c *= 0.7 * kappa / np.linalg.norm(c)
    lhs = (p - c) @ c
    rhs = (kappa**2 - c @ c) - ((p - c) ** 2).sum(axis=1)
    assert np.all(np.abs(rhs - 2.0 * lhs) <= 1e-9 * kappa**2)


def test_margin_identity():
    rng = np.random.default_rng(6)
    kappa = math.sqrt(2.0 + 0.1)
    for _ in range(100):
        c = rng.normal(size=5)
        c *= rng.uniform(0.05, 0.95) * kappa / np.linalg.norm(c)
        r = math.sqrt(kappa**2 - float(c @ c))
        assert math.isclose(kappa**2 - r**2, float(c @ c), rel_tol=1e-9)


def test_support_disjoint_for_mirrored_queries():
    ds = generate_synthetic(800, 6, 0.15, 0.0, seed=12)
    model = Model(ModelParams(dim=6, epsilon=0.01)).train_stream(ds.examples)
    kappa = model.params.kappa
    for cs in model.cover.cores:
        assert cs.ball.radius < kappa
        assert cs.ball.center.norm2() > 0.0
    queries = generate_synthetic(200, 6, 0.0, 0.0, seed=13).examples
    for ex in queries:
        p = map_test_point(ex.x, model.params)
        neg = AugPoint(-p.explicit, 0.0, p.id)
        sup_p = {id(b) for b in support(model.cover, p)}
        sup_n = {id(b) for b in support(model.cover, neg)}
        assert not (sup_p & sup_n)


def test_library_runs_without_scipy():
    # scipy serves only the test oracle; the library must not import it.
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import bbsvm\n"
        "ds = bbsvm.generate_synthetic(200, 4, 0.2, 0.0, seed=1)\n"
        "model = bbsvm.Model(bbsvm.ModelParams(dim=4, epsilon=0.01, C=10.0))\n"
        "model.train_stream(ds.examples)\n"
        "print(len(model.predict([ex.x for ex in ds.examples])))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "200"
