import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import bbsvm.model
from bbsvm import data
from bbsvm.cover import BlurredBallCover
from bbsvm.data import (
    Dataset,
    SparseVector,
    TrainingExample,
    format_libsvm,
    generate_synthetic,
    parse_libsvm,
)
from bbsvm.meb import Ball, Center, CoreSet
from bbsvm.model import (
    QUERY_CHUNK,
    Model,
    ModelParams,
    _augment,
    _norm,
    _query_rows,
    feature_map,
)
from bbsvm.model_file import load_model, save_model
from oracle import (
    WeightedPoint,
    center_dot,
    center_norm2,
    map_test_point,
    point_norm2,
    score,
    support,
    to_dense,
    weighted,
)


def sv(*values):
    vals = np.array(values, dtype=float)
    return SparseVector(np.arange(1, len(vals) + 1), vals)


def raw(vec, pid):
    return WeightedPoint(np.asarray(vec, dtype=float), 0.0, pid)


# ----------------------------------------------------------------- feature_map


def test_feature_map_normalizes_and_appends_bias():
    params = ModelParams(dim=2)
    p = feature_map(sv(3.0, 4.0), 1, params, 0)
    assert np.allclose(p.explicit, [0.6, 0.8, 1.0], atol=1e-15)
    assert params.slack_weight == 0.0  # the model's weight, not the point's
    assert p.explicit[-1] == 1.0  # the label is the bias coordinate
    norm2 = point_norm2(weighted(p, params))
    assert math.isclose(math.sqrt(norm2), math.sqrt(2.0), rel_tol=1e-12)


def test_feature_map_label_antisymmetry_exact():
    params = ModelParams(dim=2)
    pos = feature_map(sv(3.0, 4.0), 1, params, 0)
    neg = feature_map(sv(3.0, 4.0), -1, params, 1)
    assert np.array_equal(pos.explicit, -neg.explicit)


def test_feature_map_finite_c_slack():
    params = ModelParams(dim=2, C=1.0)
    p = feature_map(sv(1.0, 0.0), 1, params, 3)
    assert np.array_equal(p.explicit, [1.0, 0.0, 1.0])
    assert params.slack_weight == 1.0
    assert math.isclose(point_norm2(weighted(p, params)), params.kappa**2, rel_tol=1e-12)
    assert math.isclose(params.kappa, math.sqrt(3.0), rel_tol=1e-15)


def test_feature_map_errors():
    params = ModelParams(dim=2)
    with pytest.raises(ValueError, match="zero"):
        feature_map(SparseVector(np.array([1]), np.array([0.0])), 1, params, 0)
    with pytest.raises(ValueError, match="label"):
        feature_map(sv(1.0, 0.0), 2, params, 0)


@pytest.mark.parametrize(
    "indices, message",
    [
        ([1, 3], "feature index 3 exceeds dimension 2"),
        ([0, 1], "feature index 0 is below 1"),
    ],
)
def test_feature_map_rejects_indices_outside_one_to_dim(indices, message):
    # Both would land in the bias slot of the mapped block (index 0 as
    # slot -1), which the label then overwrites.
    params = ModelParams(dim=2)
    ok = TrainingExample(sv(1.0, 0.5), 1)
    x = SparseVector(np.array(indices), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=f"training example 1: {message}"):
        Model(params).train_stream([ok, TrainingExample(x, 1)])
    model = Model(params).train_stream([ok])
    with pytest.raises(ValueError, match=f"query 1: {message}"):
        model.predict([ok.x, x])


@pytest.mark.parametrize(
    "index, message",
    [
        (4, "feature index 4 exceeds dimension 3"),
        (9, "feature index 9 exceeds dimension 3"),
        (-10, "feature index -10 is below 1"),
    ],
)
def test_an_index_outside_the_block_inside_an_unsorted_row_is_refused(index, message):
    # Index dim+1 used to land silently in the bias slot, which the label
    # overwrites, and one outside the block raised a bare IndexError that
    # train_stream did not tag with the example's position.
    params = ModelParams(dim=3)
    x = SparseVector(np.array([1, index, 3]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match=f"^{message}$"):
        feature_map(x, 1, params, 0)
    ok = TrainingExample(sv(1.0, 0.5, 0.0), 1)
    with pytest.raises(ValueError, match=f"^training example 1: {message}$"):
        Model(params).train_stream([ok, TrainingExample(x, -1)])


def test_feature_map_negative_label_matches_dense_formula_bit_for_bit():
    # The block is filled in place; it must equal the dense product
    # to_dense(dim) * (y * (1/norm)), the norm the ddot of the dense row,
    # including the -0.0 of its zeros.
    rng = np.random.default_rng(4)
    for dim in (5, 40, 300):
        idx = np.sort(rng.choice(np.arange(1, dim + 1), size=dim // 5, replace=False))
        x = SparseVector(idx, rng.standard_normal(idx.size))
        for y in (-1, 1):
            got = feature_map(x, y, ModelParams(dim=dim), 0).explicit
            d = to_dense(x, dim)
            want = d * (y * (1.0 / math.sqrt(np.vdot(d, d))))
            assert got[:-1].tobytes() == want.tobytes()
            assert got[-1] == y
            assert np.signbit(got[:-1][want == 0.0]).all() == (y < 0)


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


@pytest.mark.filterwarnings("error")
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


@pytest.mark.filterwarnings("error")
def test_norm_of_a_dense_row():
    rng = np.random.default_rng(12)
    for scale in (1e-3, 1.0, 1e3):
        for n in (1, 5, 60):
            row = rng.normal(size=n) * scale
            assert _norm(row) == float(np.linalg.norm(row))
    # Squares that overflow or underflow are rescaled instead.
    for value in (1e200, 1e-200, 5e-324):
        row = np.array([value, -value])
        assert math.isclose(_norm(row), value * math.sqrt(2.0), rel_tol=1e-15)
    assert _norm(np.array([0.0])) == 0.0
    assert _norm(np.array([])) == 0.0
    assert _norm(np.array([math.inf])) == math.inf
    assert math.isnan(_norm(np.array([math.nan])))


def test_norm_without_finite_reciprocal_is_rejected():
    # sqrt(2) * 1e-310 is nonzero, but 1 / norm overflows to inf.
    x = parse_libsvm(["+1 1:1e-310 2:1e-310"]).examples[0].x
    assert 0.0 < _norm(to_dense(x, 2)) < 1e-300
    with pytest.raises(ValueError, match="finite reciprocal"):
        feature_map(x, 1, ModelParams(dim=2), 0)


def test_map_test_point_mirrors_positive_map():
    params = ModelParams(dim=2, C=1.0)  # slack must still be 0 for queries
    q = map_test_point(sv(3.0, 4.0), params)
    p = feature_map(sv(3.0, 4.0), 1, params, 0)
    assert np.array_equal(q.explicit, p.explicit)
    assert q.slack_weight == 0.0
    assert q.id == -1
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
    # NumPy refuses an array this long before allocating it; name the index.
    with pytest.raises(ValueError, match="feature index 4611686018427387904 implies "
                       "dense points of 4611686018427387905 "):
        ModelParams(dim=2**62)


@pytest.mark.parametrize("field", ["epsilon", "delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_params_refuse_an_epsilon_or_delta_that_is_not_positive_and_finite(field, value):
    # A NaN epsilon once failed at the first merge ("cannot convert float NaN
    # to integer"), and epsilon = inf trained a one-ball model.
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
        ModelParams(dim=5, **{field: value})


# ---------------------------------------------------------------- train_stream


def test_train_stream_empty():
    model = Model(ModelParams(dim=3))
    model.train_stream([])
    assert model.cover.cores == []
    assert model.cover.points_seen == 0


def test_train_stream_single_example():
    model = Model(ModelParams(dim=2, lookahead=0))
    model.train_stream([TrainingExample(sv(1.0, 1.0), 1)])
    assert len(model.cover.cores) == 1
    assert model.cover.cores[0].ball.radius == 0.0
    assert model.cover.points_seen == 1


def test_train_stream_flushes_partial_buffer():
    model = Model(ModelParams(dim=2, lookahead=10))
    model.train_stream([TrainingExample(sv(1.0, 1.0), 1)] * 3)
    assert len(model.cover.cores) == 1  # flush ran a merge check
    assert model.cover.points_seen == 3


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


# ------------------------------------------------------------ feed / finish


@pytest.mark.parametrize("C", [math.inf, 10.0])
def test_feeding_chunks_of_seven_keeps_the_one_pass_cover(C):
    # When each call flushed its own buffer, this stream gave 4 balls in one
    # pass but 6 in chunks of 7.
    ds = generate_synthetic(500, 10, 0.1, 0.0, 3)
    params = ModelParams(dim=10, epsilon=1e-2, C=C, lookahead=10)
    whole = Model(params).train_stream(ds.examples)
    chunked = Model(params)
    for start in range(0, len(ds), 7):
        chunked.feed(ds.examples[start : start + 7])
    assert len(chunked.finish().cover.cores) == len(whole.cover.cores) == 4


def _one_object_an_id(cores) -> bool:
    members = [p for cs in cores for p in cs.members]
    return len({id(p) for p in members}) == len({p.id for p in members})


@pytest.mark.parametrize("C", [math.inf, 1.0])
def test_a_cover_holds_one_point_object_an_id(tmp_path, C):
    # A merge takes each point object once, which is each id once only
    # while the retained cores hold one object an id: after every point,
    # including merges that discard balls, and after a save and a load.
    discards = []

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(20, 200),
        lookahead=st.sampled_from([0, 3, 10]),
        eps=st.sampled_from([0.3, 0.1, 0.01]),
    )
    def check(seed, n, lookahead, eps):
        examples = generate_synthetic(n, 4, 0.05, 0.05, seed=seed).examples
        model = Model(ModelParams(dim=4, epsilon=eps, C=C, lookahead=lookahead))
        for k in range(n):  # any chunking keeps the one-pass cover
            cores = model.cover.cores
            model.feed(examples[k : k + 1])
            if model.cover.cores is not cores:  # a merge assigns a new list
                discards.append(len(model.cover.cores) <= len(cores))
            assert _one_object_an_id(model.cover.cores)
        save_model(model.finish(), tmp_path / "m.bbsvm")
        assert _one_object_an_id(model.cover.cores)
        assert _one_object_an_id(load_model(tmp_path / "m.bbsvm").cover.cores)

    check()
    assert any(discards)


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(1, 12),
    bad=st.integers(0, 59),
    lookahead=st.sampled_from([0, 3, 10]),
)
def test_a_bad_row_in_any_chunk_names_its_stream_position(size, bad, lookahead):
    stream = generate_synthetic(60, 3, 0.1, 0.0, seed=2).examples
    stream[bad] = TrainingExample(SparseVector(np.array([1]), np.array([0.0])), 1)
    model = Model(ModelParams(dim=3, lookahead=lookahead))
    with pytest.raises(ValueError, match=f"^training example {bad}: "):
        for start in range(0, len(stream), size):
            model.feed(stream[start : start + size])
    assert model.cover.points_seen == bad


@settings(max_examples=20, deadline=None)
@given(full=st.integers(0, 5), extra=st.integers(1, 9))
def test_save_model_refuses_pending_points_until_finish(tmp_path_factory, full, extra):
    examples = generate_synthetic(10 * full + extra, 4, 0.1, 0.0, seed=full).examples
    params = ModelParams(dim=4, epsilon=0.01, lookahead=10)
    model = Model(params).feed(examples)
    path = tmp_path_factory.mktemp("pending")
    message = rf"^{extra} points are pending; call finish\(\) first$"
    with pytest.raises(ValueError, match=message):
        save_model(model, path / "fed.bbsvm")
    assert not (path / "fed.bbsvm").exists()
    save_model(model.finish(), path / "fed.bbsvm")
    save_model(Model(params).train_stream(examples), path / "whole.bbsvm")
    assert (path / "fed.bbsvm").read_bytes() == (path / "whole.bbsvm").read_bytes()


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    C=st.sampled_from([math.inf, 10.0]),
    lookahead=st.sampled_from([0, 3, 10]),
)
def test_flipping_every_label_mirrors_the_trained_model(seed, C, lookahead):
    # The feature map negates a point's explicit block exactly, so training
    # takes the same steps on the mirrored stream: the same radii, members
    # and slack coefficients, and negated centers.
    noise = 0.0 if C == math.inf else 0.05
    examples = generate_synthetic(300, 6, 0.05, noise, seed=seed).examples
    params = ModelParams(dim=6, epsilon=0.01, C=C, lookahead=lookahead)
    model = Model(params).train_stream(examples)
    mirror = Model(params).train_stream([TrainingExample(ex.x, -ex.y) for ex in examples])
    assert len(mirror.cover.cores) == len(model.cover.cores)
    for cs, ms in zip(model.cover.cores, mirror.cover.cores):
        assert ms.ball.radius == cs.ball.radius
        assert [p.id for p in ms.members] == [p.id for p in cs.members]
        assert list(ms.ball.center.slack_coeffs.items()) == list(
            cs.ball.center.slack_coeffs.items()
        )
        # Equal floats are equal bits but for a zero's sign: a sum that cancels
        # to zero is +0.0 on both sides.
        assert np.array_equal(ms.ball.center.explicit, -cs.ball.center.explicit)
    queries = [ex.x for ex in generate_synthetic(500, 6, 0.0, 0.0, seed=seed + 1).examples]
    labels, mirrored = model.predict(queries), mirror.predict(queries)
    kept = labels == mirrored  # only an exact tie of both sums, labelled +1 by each
    assert (labels[kept] == 1).all()


# ------------------------------------------------------------- support / score


def one_ball_cover(center_vec, radius, coeffs=None):
    cover = BlurredBallCover(ModelParams(dim=1, epsilon=0.1))
    ball = Ball(Center(np.asarray(center_vec, dtype=float), coeffs or {}), radius)
    cover.cores = [CoreSet([], ball)]
    return cover


def test_support_empty_cover():
    cover = BlurredBallCover(ModelParams(dim=1, epsilon=0.1))
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
    cover = BlurredBallCover(ModelParams(dim=1, epsilon=0.1))
    b1 = Ball(Center(np.array([0.0, 2.0])), 1.5)
    b2 = Ball(Center(np.array([1.0, 1.0])), 2.0)
    cover.cores = [CoreSet([], b1), CoreSet([], b2)]
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


def test_slack_weight_follows_C_through_replace():
    params = ModelParams(dim=2, C=10.0)
    assert params.slack_weight == 1.0 / math.sqrt(10.0)
    assert replace(params, C=4.0).slack_weight == 0.5
    assert replace(params, C=math.inf).slack_weight == 0.0
    assert replace(params, C=3.0).slack_weight == 1.0 / math.sqrt(3.0)
    # derived state, not a field: equality and repr are the fields' alone
    assert params == ModelParams(dim=2, C=10.0)
    assert "slack_weight" not in repr(params)
    # The cover reads it from its params; its points carry none.
    assert Model(params).cover.params is params


def test_params_are_frozen():
    # The cover caches the squared slack weight and the expanded radii, so a
    # field set on a live model would leave them stale and save a file that
    # contradicts itself.
    model = Model(ModelParams(dim=2, C=10.0))
    for name in ("dim", "epsilon", "C", "lookahead", "delta", "slack_weight"):
        with pytest.raises(FrozenInstanceError):
            setattr(model.params, name, 4.0)
    assert model.params.C == 10.0
    assert replace(model.params, C=4.0).slack_weight == 0.5
    assert replace(model.params, epsilon=0.1, delta=None).delta == 0.05


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
    assert [center_norm2(cs.ball.center) for cs in model.cover.cores] == [0.0]
    assert model.cover.cores[0].ball.radius == math.sqrt(2.0)
    save_model(model, tmp_path / "m.bbsvm")
    soft = Model(ModelParams(dim=5, C=1.0)).train_stream(stream[:2])
    for m in (model, load_model(tmp_path / "m.bbsvm"), soft):
        assert np.array_equal(m.predict(queries), np.ones(len(queries), dtype=int))


@pytest.mark.parametrize(
    "pair, C, radius",
    [
        # |x_hat|^2 rounds low, so the radius is one ulp below kappa.
        ("1:1 2:0.5", math.inf, 1.414213562373095),
        ("1:1", math.inf, math.sqrt(2.0)),
        # The slack axes keep the center off zero and the radius below kappa.
        ("1:1 2:0.5", 10.0, None),
    ],
)
def test_a_contradicting_pair_leaves_a_degenerate_ball(pair, C, radius):
    tail = format_libsvm(generate_synthetic(200, 2, 0.2, 0.0, 1))
    stream = parse_libsvm(f"+1 {pair}\n-1 {pair}\n" + tail).examples
    model = Model(ModelParams(dim=2, epsilon=0.01, C=C, lookahead=0))
    model.train_stream(stream)
    assert model.degenerate_balls() == [0]
    if radius is not None:
        assert [cs.ball.radius for cs in model.cover.cores] == [radius]
    healthy = Model(ModelParams(dim=2, epsilon=0.01, C=C, lookahead=0))
    assert healthy.train_stream(stream[2:]).degenerate_balls() == []


def test_assigning_cores_alone_moves_escapes_and_predict():
    # ``cover.cores = ...`` is the one way to change the balls: the escape
    # test and predict read the new balls with no other call.
    ds = generate_synthetic(600, 4, 0.1, 0.0, seed=9)
    params = ModelParams(dim=4, epsilon=0.05)
    model = Model(params).train_stream(ds.examples[:200])
    flipped = [TrainingExample(ex.x, -ex.y) for ex in ds.examples[200:400]]
    other = Model(params).train_stream(flipped)
    queries = [ex.x for ex in ds.examples[400:]]
    fresh = [feature_map(ex.x, ex.y, params, 400 + k)
             for k, ex in enumerate(ds.examples[400:])]
    want = [other.cover.escapes(p) for p in fresh]
    assert [model.cover.escapes(p) for p in fresh] != want
    assert not np.array_equal(model.predict(queries), other.predict(queries))
    model.cover.cores = other.cover.cores
    assert [model.cover.escapes(p) for p in fresh] == want
    assert np.array_equal(model.predict(queries), other.predict(queries))


def test_a_ball_of_almost_no_margin_is_degenerate():
    # A nonzero center whose margin^2 is 1e-12 kappa^2 separates nothing.
    model = Model(ModelParams(dim=2))
    kappa2 = model.params.kappa**2
    for margin2, flagged in ((1e-12, [0]), (1e-6, [])):
        radius = math.sqrt(kappa2 * (1.0 - margin2))
        ball = Ball(Center(np.array([0.1, 0.0, 0.0])), radius)
        model.cover.cores = [CoreSet([raw([1.0, 0.0, 1.0], 0)], ball)]
        assert model.degenerate_balls() == flagged


# -------------------------------------------------------------------- classify


def test_classify_requires_training():
    model = Model(ModelParams(dim=2))
    with pytest.raises(ValueError, match="no balls"):
        model.predict([sv(1.0, 0.0)])


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


@st.composite
def query_batches(draw):
    """(dim, height, queries) with a first chunk of ``height`` queries and a
    shorter second one: dense and sparse rows (the first dense, the second
    sparse, so a chunk of two or more mixes lengths), or only dense rows on
    the live 1..dim array of ``data._dense_index``; a dense row holds that
    array or a fresh one, so a chunk can mix canonical and sparse rows.
    Magnitudes from 1e-200 to 1e200, signed zeros and zero rows, and values
    as float64, as strided views, as int64 or as float32."""
    dim = draw(st.integers(1, 40))
    height = draw(st.integers(2, 5))
    canonical = draw(st.booleans())  # every row copied, no row scattered
    mantissas = st.floats(0.5, 10.0) | st.floats(-10.0, -0.5)
    zeros = st.sampled_from([0.0, -0.0])
    wide = st.builds(lambda m, e: m * 10.0**e, mantissas, st.integers(-200, 200))
    narrow = st.builds(lambda m, e: m * 10.0**e, mantissas, st.integers(-30, 30))
    queries = []
    for position in range(draw(st.integers(height + 1, 2 * height - 1))):
        if canonical:
            indices = data._dense_index(dim)
        elif position == 0 or (position > 1 and draw(st.booleans())):
            indices = data._dense_index(dim) if draw(st.booleans()) else np.arange(1, dim + 1)
        else:
            size = max(1, dim - 1)
            chosen = draw(st.sets(st.integers(1, dim), min_size=1, max_size=size))
            indices = np.array(sorted(chosen))
        kind = draw(st.sampled_from(["float64", "view", "int64", "float32"]))
        value = {"int64": st.integers(-1000, 1000), "float32": narrow}.get(kind, wide)
        values = np.array(draw(st.lists(value | zeros, min_size=indices.size,
                                        max_size=indices.size)))
        if kind == "view":  # not contiguous
            values = np.repeat(values, 2)[::2]
        else:
            values = values.astype(kind)
        queries.append(SparseVector(indices, values))
    return dim, height, queries


# No shrinking: a broken bit fails at once instead of shrinking for minutes.
@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(query_batches())
def test_query_block_rows_are_the_bits_of_the_per_point_map(batch):
    # Two chunks through one reused block, the second shorter than the block,
    # so rows of the first remain below it.
    dim, height, queries = batch
    params = ModelParams(dim=dim)
    rows = []
    for position, x in enumerate(queries):
        try:
            rows.append(_augment(x, 1, params))
        except ValueError as err:
            expected = f"query {position}: {err}"
            break
    else:
        expected = None
    P = np.full((height, dim + 1), np.nan)
    for first in (0, height):
        chunk = queries[first : first + height]
        if expected is not None and len(rows) < first + len(chunk):
            with pytest.raises(ValueError) as err:
                _query_rows(chunk, params, P, first)
            assert str(err.value) == expected
            return
        block = _query_rows(chunk, params, P, first)
        assert block.shape == (len(chunk), dim + 1) and np.shares_memory(block, P)
        want = np.stack(rows[first : first + height])
        assert np.array_equal(block.view(np.int64), want.view(np.int64))


def test_the_copy_path_is_chosen_by_identity_not_content():
    # A fresh 1..dim array, or one permutation of 1..dim held by every row of
    # a chunk, is scattered: each row maps as its dense equivalent does.
    dim = 6
    params = ModelParams(dim=dim)
    canonical = data._dense_index(dim)
    perm = np.array([3, 1, 6, 2, 5, 4])
    values = [np.array([0.5, -0.0, 3.0, -2.0, 0.0, 1e-3]),
              np.array([-1.0, 2.0, -0.0, 0.25, 7.0, 0.0])]

    def bits(rows):
        return np.stack(rows).view(np.int64)

    for index in (np.arange(1, dim + 1), perm):
        dense = []
        for v in values:
            d = np.empty(dim)
            d[index - 1] = v
            dense.append(_augment(SparseVector(canonical, d), 1, params))
        rows = [SparseVector(index, v) for v in values]
        assert np.array_equal(bits([_augment(x, 1, params) for x in rows]), bits(dense))
        P = np.full((len(rows), dim + 1), np.nan)
        assert np.array_equal(bits(_query_rows(rows, params, P, 0)), bits(dense))
    for v in values:  # -1 scales every zero to its opposite sign in both paths
        by_copy = feature_map(SparseVector(canonical, v), -1, params, 0).explicit
        by_scatter = feature_map(SparseVector(np.arange(1, dim + 1), v), -1, params, 0)
        assert np.array_equal(by_copy.view(np.int64), by_scatter.explicit.view(np.int64))


def sparse_queries(n, dim, nnz, seed):
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.permuted(np.tile(np.arange(1, dim + 1), (n, 1)), axis=1)[:, :nnz])
    values = rng.standard_normal((n, nnz))
    return [SparseVector(indices[k], values[k]) for k in range(n)]


def predict_peak(model, queries):
    """``predict``'s tracemalloc peak in bytes, less its labels."""
    tracemalloc.start()
    try:
        labels = model.predict(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - labels.nbytes


def test_predict_memory_does_not_grow_with_the_batch():
    # Sparse d=300 queries at 60 nonzeros: one block of 256 rows is 0.59 MiB.
    # Mapping the whole batch at once took 2.8 MiB for 1,000 and 21 MiB for 8,000.
    dim = 300
    train = [TrainingExample(x, 1 if k % 3 else -1)
             for k, x in enumerate(sparse_queries(300, dim, 60, 17))]
    model = Model(ModelParams(dim=dim, epsilon=0.01)).train_stream(train)
    assert len(model.cover.cores) > 1
    small, large = (predict_peak(model, sparse_queries(n, dim, 60, 16))
                    for n in (1000, 8000))
    assert max(small, large) <= 1.5 * 2**20, (small, large)
    assert abs(large - small) <= 2**18, (small, large)


def test_predict_caps_the_block_of_a_wide_model():
    # One dense row of 2**17 + 1 values is 1 MiB; a 256-row block would be 256 MiB.
    dim = 2**17
    x = SparseVector(np.array([1, dim]), np.array([1.0, -2.0]))
    model = Model(ModelParams(dim=dim)).train_stream([TrainingExample(x, 1)])
    assert predict_peak(model, [x]) <= 4 * 2**20


def test_a_query_label_does_not_depend_on_its_batch():
    # Queries on the one ball's separator (p . c = 0), where the last bits of
    # the dot product decide the label.
    dim = 20
    rng = np.random.default_rng(31)
    normal = rng.standard_normal(dim)
    train = []
    for _ in range(3):
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        train.append(TrainingExample(SparseVector(np.arange(1, dim + 1), x),
                                     1 if normal @ x >= 0.0 else -1))
    model = Model(ModelParams(dim=dim, epsilon=0.05)).train_stream(train)
    assert len(model.cover.cores) == 1
    center = model.cover.cores[0].ball.center.explicit
    length = np.linalg.norm(center[:-1])
    c_hat, a = center[:-1] / length, -center[-1] / length
    queries = []
    for _ in range(3000):
        u = rng.standard_normal(dim)
        u -= (u @ c_hat) * c_hat
        u /= np.linalg.norm(u)
        queries.append(SparseVector(np.arange(1, dim + 1),
                                    a * c_hat + math.sqrt(1.0 - a * a) * u))
    batch = model.predict(queries)
    alone = np.array([model.predict([q])[0] for q in queries])
    reversed_batch = model.predict(queries[::-1])[::-1]
    assert np.array_equal(batch, alone), int((batch != alone).sum())
    assert np.array_equal(batch, reversed_batch), int((batch != reversed_batch).sum())


BAD_QUERIES = {  # for dim 3
    "nan": SparseVector(np.array([1, 2]), np.array([math.nan, 1.0])),
    "zero": SparseVector(np.array([2]), np.array([0.0])),
    "tiny": SparseVector(np.array([1, 3]), np.array([5e-324, 0.0])),
    "high": SparseVector(np.array([1, 4]), np.array([1.0, 2.0])),
    "low": SparseVector(np.array([0, 2]), np.array([1.0, 2.0])),
}


@pytest.mark.parametrize(
    "first, later",
    [("nan", "high"), ("high", "zero"), ("low", "tiny"), ("tiny", "low"), ("zero", "nan")],
)
def test_predict_names_the_first_bad_query_across_chunks(first, later):
    params = ModelParams(dim=3)
    good = TrainingExample(sv(1.0, 0.5, -2.0), 1)
    model = Model(params).train_stream([good])
    n = QUERY_CHUNK + 5
    with pytest.raises(ValueError) as err:
        _augment(BAD_QUERIES[first], 1, params)
    message = str(err.value)
    for position in (QUERY_CHUNK - 1, QUERY_CHUNK, n - 1):
        queries = [good.x] * position + [BAD_QUERIES[first]]
        queries += [BAD_QUERIES[later]] * (n - 1 - position)
        with pytest.raises(ValueError) as err:
            model.predict(queries)
        assert str(err.value) == f"query {position}: {message}"


@pytest.mark.parametrize(
    "index, message",
    [
        (5, "feature index 5 exceeds dimension 4"),
        (9, "feature index 9 exceeds dimension 4"),
        (0, "feature index 0 is below 1"),
    ],
)
def test_predict_checks_every_index_of_an_unsorted_query(index, message):
    # Index dim+1 would land in the bias slot and dim+5 outside the block,
    # and neither is at an end of the indices.
    params = ModelParams(dim=4)
    ok = TrainingExample(sv(1.0, 0.5, 0.0, 2.0), 1)
    model = Model(params).train_stream([ok])
    x = SparseVector(np.array([3, index, 1]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match=f"^query 1: {message}$"):
        model.predict([ok.x, x])


def test_a_row_needs_one_value_per_index():
    # Such rows once reached the maps: feature_map broadcast one value over a
    # dense 1..3 row, predict failed in NumPy's reshape without naming a query,
    # and a chunk whose totals matched shifted values from one row to the next.
    dense = data._dense_index(3)
    with pytest.raises(ValueError, match="^1 values for 3 indices$"):
        feature_map(SparseVector(dense, np.array([5.0])), 1, ModelParams(dim=3), 0)
    model = Model(ModelParams(dim=3)).train_stream([TrainingExample(sv(1.0, 2.0, 3.0), 1)])
    with pytest.raises(ValueError, match="^1 values for 3 indices$"):
        model.predict([SparseVector(dense, np.array([5.0]))])
    index = np.arange(1, 4)
    with pytest.raises(ValueError, match="^4 values for 3 indices$"):
        model.predict([SparseVector(index, np.ones(4)), SparseVector(index, np.ones(2))])


def test_rows_built_from_lists_train_and_predict_as_arrays():
    # Lists once reached the maps and failed there on ``.size``, naming no
    # example or query; they are taken as arrays, and an array is kept.
    ds = generate_synthetic(300, 3, 0.1, 0.0, seed=6)
    listed = [TrainingExample(SparseVector(list(ex.x.indices), list(ex.x.values)), ex.y)
              for ex in ds.examples]
    assert type(listed[0].x.indices) is np.ndarray
    dense = data._dense_index(3)
    assert SparseVector(dense, [1.0, 2.0, 3.0]).indices is dense
    params = ModelParams(dim=3, epsilon=0.01)
    model = Model(params).feed(listed[:200]).finish()
    reference = Model(params).train_stream(ds.examples[:200])
    assert [cs.ball.center.explicit.tobytes() for cs in model.cover.cores] == [
        cs.ball.center.explicit.tobytes() for cs in reference.cover.cores]
    queries = [ex.x for ex in listed[200:]]
    assert np.array_equal(model.predict(queries), reference.predict(queries))
    x = SparseVector(np.array([1, 3]), np.array([1.0, -2.0]))
    assert model.predict([SparseVector([1, 3], [1.0, -2.0])]) == reference.predict([x])


def test_classify_single_ball_sign_symmetry():
    ds = generate_synthetic(200, 4, 0.3, 0.0, seed=5)
    model = Model(ModelParams(dim=4, epsilon=0.01)).train_stream(ds.examples)
    x = ds.examples[0].x
    plus = int(model.predict([x])[0])
    minus = int(model.predict([SparseVector(x.indices, -x.values)])[0])
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
    assert len({int(model.predict([x])[0]) for _ in range(10)}) == 1


def test_predict_matches_scalar_score_rule(monkeypatch):
    ds = generate_synthetic(500, 5, 0.15, 0.0, seed=9)
    model = Model(ModelParams(dim=5, epsilon=0.01)).train_stream(ds.examples)
    queries = generate_synthetic(150, 5, 0.0, 0.0, seed=10).examples
    expected = []
    for ex in queries:
        p = map_test_point(ex.x, model.params)
        neg = WeightedPoint(-p.explicit, 0.0, p.id)
        s = score(model.cover, p) - score(model.cover, neg)
        if s != 0.0:
            expected.append(1 if s > 0 else -1)
        else:
            fallback = sum(
                center_dot(cs.ball.center, p) / math.sqrt(center_norm2(cs.ball.center))
                for cs in model.cover.cores
            )
            expected.append(-1 if fallback < 0 else 1)
    assert [int(model.predict([ex.x])[0]) for ex in queries] == expected  # one-row blocks
    for chunk in (16, QUERY_CHUNK):  # a batch of many chunks, and of one
        monkeypatch.setattr(bbsvm.model, "QUERY_CHUNK", chunk)
        assert np.array_equal(model.predict([ex.x for ex in queries]), expected)


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
        assert center_norm2(cs.ball.center) > 0.0
    queries = generate_synthetic(200, 6, 0.0, 0.0, seed=13).examples
    for ex in queries:
        p = map_test_point(ex.x, model.params)
        neg = WeightedPoint(-p.explicit, 0.0, p.id)
        sup_p = {id(b) for b in support(model.cover, p)}
        sup_n = {id(b) for b in support(model.cover, neg)}
        assert not (sup_p & sup_n)


def test_the_public_api_is_exactly_these_names():
    # The package namespace grows only on purpose; the geometry types
    # (AugPoint, Ball, Center, CoreSet) and their solver (approx_meb) live
    # in bbsvm.meb, and the layers under Model in bbsvm.cover
    # (BlurredBallCover) and bbsvm.model (feature_map).
    assert sorted(bbsvm.__all__) == sorted([
        "CSV_HEADER", "DataFormatError", "Dataset", "ExperimentReport", "Model",
        "ModelFormatError", "ModelParams", "RunResult", "SparseVector",
        "TrainingExample", "epsilon_sweep", "format_libsvm",
        "generate_synthetic", "load_libsvm", "load_model", "parse_libsvm",
        "run_experiment", "save_model", "shuffled", "write_csv",
    ])
    assert len(bbsvm.__all__) == len(set(bbsvm.__all__)) == 20
    for name in bbsvm.__all__:
        assert getattr(bbsvm, name) is not None, name


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
