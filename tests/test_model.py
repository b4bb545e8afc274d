import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbsvm.model
from bbsvm.cover import BlurredBallCover
from bbsvm.data import (
    Dataset,
    SparseVector,
    TrainingExample,
    format_libsvm,
    generate_synthetic,
    parse_libsvm,
)
from bbsvm.meb import AugPoint, Ball, Center, CoreSet
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
    center_dot,
    center_norm2,
    map_test_point,
    point_norm2,
    score,
    support,
    to_dense,
)


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
    assert p.explicit[-1] == 1.0  # the label is the bias coordinate
    assert math.isclose(math.sqrt(point_norm2(p)), math.sqrt(2.0), rel_tol=1e-12)


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
    assert math.isclose(point_norm2(p), params.kappa**2, rel_tol=1e-12)
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


def test_slack_weight_follows_C_through_replace():
    params = ModelParams(dim=2, C=10.0)
    assert params.slack_weight == 1.0 / math.sqrt(10.0)
    assert replace(params, C=4.0).slack_weight == 0.5
    assert replace(params, C=math.inf).slack_weight == 0.0
    assert replace(params, C=3.0).slack_weight == 1.0 / math.sqrt(3.0)
    # derived state, not a field: equality and repr are the fields' alone
    assert params == ModelParams(dim=2, C=10.0)
    assert "slack_weight" not in repr(params)
    p = feature_map(sv(1.0, 0.0), 1, params, 0)
    assert p.slack_weight == params.slack_weight


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
    """(dim, chunk, queries) with more queries than the chunk: dense and sparse
    rows (the first dense, the second sparse, so a chunk of two or more mixes
    lengths), magnitudes from 1e-200 to 1e200, signed zeros and zero rows, and
    values as float64, as strided views, as int64 or as float32."""
    dim = draw(st.integers(1, 40))
    chunk = draw(st.integers(1, 4))
    mantissas = st.floats(0.5, 10.0) | st.floats(-10.0, -0.5)
    zeros = st.sampled_from([0.0, -0.0])
    wide = st.builds(lambda m, e: m * 10.0**e, mantissas, st.integers(-200, 200))
    narrow = st.builds(lambda m, e: m * 10.0**e, mantissas, st.integers(-30, 30))
    queries = []
    for position in range(draw(st.integers(chunk + 1, 2 * chunk + 1))):
        if position == 0 or (position > 1 and draw(st.booleans())):
            indices = np.arange(1, dim + 1)
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
    return dim, chunk, queries


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(query_batches())
def test_query_block_rows_are_the_bits_of_the_per_point_map(batch):
    dim, chunk, queries = batch
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
    with patch.object(bbsvm.model, "QUERY_CHUNK", chunk):
        if expected is not None:
            with pytest.raises(ValueError) as err:
                _query_rows(queries, params)
            assert str(err.value) == expected
            return
        block = _query_rows(queries, params)
    assert block.shape == (len(queries), dim + 1)
    assert np.array_equal(block.view(np.int64), np.stack(rows).view(np.int64))


def test_query_block_allocates_little_beyond_the_block():
    # 1,000 sparse d=300 queries at 60 nonzeros: a chunk's row, column and
    # value arrays (with the last chunk's still held) come to about 0.49 MB.
    # An np.unique of the row lengths would add about 1.1 MB.
    rng = np.random.default_rng(16)
    dim = 300
    queries = [
        SparseVector(np.sort(rng.choice(np.arange(1, dim + 1), 60, replace=False)),
                     rng.standard_normal(60))
        for _ in range(1000)
    ]
    params = ModelParams(dim=dim)
    tracemalloc.start()
    try:
        P = _query_rows(queries, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= P.nbytes + 2**19, f"peak {peak} for a block of {P.nbytes} bytes"


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
        neg = AugPoint(-p.explicit, 0.0, p.id)
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
