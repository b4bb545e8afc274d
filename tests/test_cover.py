import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbsvm.cover
from bbsvm.cover import BlurredBallCover, Lookahead
from bbsvm.data import generate_synthetic
from bbsvm.meb import Ball, Center, CoreSet, approx_meb
from bbsvm.model import Model, ModelParams, feature_map
from oracle import (
    EscapeMaskCover,
    WeightedPoint,
    balls,
    core_point_ids,
    distance2,
    escape_distances,
    escape_mask,
    expansion_contains,
    weighted,
)


def raw(vec, pid):
    return WeightedPoint(np.asarray(vec, dtype=float), 0.0, pid)


def raw_params(epsilon, lookahead=10):
    """Parameters of a cover of raw points: no slack axes (C = inf); the
    cover reads no dimension."""
    return ModelParams(dim=1, epsilon=epsilon, lookahead=lookahead)


def ring(center, radius, count, start_id):
    """Points on a circle, ids ascending."""
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return [
        raw([center[0] + radius * np.cos(a), center[1] + radius * np.sin(a)], start_id + i)
        for i, a in enumerate(angles)
    ]


class CheckingCover(BlurredBallCover):
    """Asserts the post-merge invariants after every update."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.merge_count = 0

    def merge_update(self, buf):
        super().merge_update(buf)
        self.merge_count += 1
        newest = self.cores[-1].ball
        eps = self.params.epsilon
        cut = (eps / 4.0) * newest.radius
        assert all(cs.ball.radius >= cut for cs in self.cores)
        for p in buf:
            assert any(
                expansion_contains(cs.ball, p, eps) for cs in self.cores
            )


# --------------------------------------------------------------------- escapes


def test_escapes_empty_cover():
    cover = BlurredBallCover(raw_params(0.1))
    assert cover.escapes(raw([0.0, 0.0], 0))


def test_escapes_inside_expansion():
    cover = BlurredBallCover(raw_params(0.1))
    cover.merge_update([raw([1.0, 0.0], 0), raw([3.0, 0.0], 1)])  # ball ~ ((2,0), 1)
    assert not cover.escapes(raw([3.05, 0.0], 2))
    assert cover.escapes(raw([3.2, 0.0], 3))


def test_escapes_boundary_counts_as_inside():
    cover = BlurredBallCover(raw_params(0.5))
    ball = Ball(Center(np.array([0.0, 0.0])), 1.0)
    cover.cores = [CoreSet([raw([0.0, 0.0], 0)], ball)]
    # distance exactly (1 + eps) * r = 1.5
    assert not cover.escapes(raw([1.5, 0.0], 1))
    assert cover.escapes(raw([1.5000001, 0.0], 2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    dim=st.integers(2, 6),
    C=st.sampled_from([0.5, 1.0, 10.0, 100.0]),
    eps=st.sampled_from([0.3, 0.1, 0.03]),
    lookahead=st.integers(0, 10),
)
def test_escapes_matches_exact_distances_on_trained_covers(
    seed, n, dim, C, eps, lookahead
):
    # A fresh point escapes iff its exact distance to every retained center
    # exceeds (1+eps) r; the vectorized test drops only slack cross terms,
    # which vanish for ids that no core member carries.
    ds = generate_synthetic(n + 30, dim, 0.0, 0.05, seed=seed)
    model = Model(ModelParams(dim=dim, epsilon=eps, C=C, lookahead=lookahead))
    model.train_stream(ds.examples[:n])
    cover = model.cover
    for k, ex in enumerate(ds.examples[n:]):
        y = ex.y if k % 2 else -ex.y  # a flipped label mostly escapes
        p = feature_map(ex.x, y, model.params, cover.points_seen + k)
        p = weighted(p, model.params)
        pairs = [
            (distance2(cs.ball.center, p), ((1.0 + eps) * cs.ball.radius) ** 2)
            for cs in cover.cores
        ]
        if any(abs(d2 - lim2) <= 1e-9 * lim2 for d2, lim2 in pairs):
            continue  # on a boundary the two summation orders may disagree
        assert cover.escapes(p) == all(d2 > lim2 for d2, lim2 in pairs)


def _trained(C, lookahead):
    """A cover trained on 200 points (d=5, eps=1e-3) and 300 fresh examples."""
    ds = generate_synthetic(500, 5, 0.0, 0.0, seed=11)
    model = Model(ModelParams(dim=5, epsilon=0.001, C=C, lookahead=lookahead))
    model.train_stream(ds.examples[:200])
    return model, ds.examples[200:]


@pytest.mark.parametrize("C", [math.inf, 10.0])
@pytest.mark.parametrize("lookahead", [0, 3, 10])
def test_escapes_repeats_the_all_balls_reference(C, lookahead):
    # The newest-ball-first test must decide every fresh point as the
    # all-points-by-all-balls broadcast does, including the points outside
    # the newest ball that only the fallback over all balls can decide.
    model, fresh = _trained(C, lookahead)
    cover = model.cover
    pts = [
        feature_map(ex.x, ex.y if k % 2 else -ex.y, model.params, cover.points_seen + k)
        for k, ex in enumerate(fresh)
    ]
    pts = [weighted(p, model.params) for p in pts]
    got = np.array([cover.escapes(p) for p in pts])
    assert np.array_equal(got, escape_mask(cover, pts))
    d2, limits2 = escape_distances(cover, pts)
    assert (~got & (d2[:, -1] > limits2[-1])).any()  # the fallback ran
    assert got.any()


def _on_older_boundaries(cover, slack_weight, first_id, tries=100):
    """Fresh points whose reference squared distance to an older ball equals
    its (1+eps)-expanded radius squared exactly, outside the newest ball."""
    rng = np.random.default_rng(5)
    centers, center_slack2, radii = cover.query_arrays()
    limits2 = ((1.0 + cover.params.epsilon) * radii) ** 2
    found = []
    for _ in range(tries):
        i = int(rng.integers(len(radii) - 1))
        u = centers[i] - centers[-1]  # away from the newest center
        u = u / np.linalg.norm(u)
        u += rng.standard_normal(u.size) / (2.0 * math.sqrt(u.size))
        u /= np.linalg.norm(u)
        t = math.sqrt(limits2[i] - center_slack2[i] - slack_weight**2)
        for _ in range(64):  # walk t by ulps onto the boundary
            p = WeightedPoint(centers[i] + t * u, slack_weight, first_id + len(found))
            (d2,), _ = escape_distances(cover, [p])
            if d2[i] == limits2[i]:
                if d2[-1] > limits2[-1]:
                    found.append(p)
                break
            t = math.nextafter(t, 0.0 if d2[i] > limits2[i] else math.inf)
    return found


@pytest.mark.parametrize("C", [math.inf, 10.0])
@pytest.mark.parametrize("lookahead", [0, 3, 10])
def test_points_on_an_older_expanded_boundary_count_as_inside(C, lookahead):
    model, _ = _trained(C, lookahead)
    cover = model.cover
    pts = _on_older_boundaries(cover, model.params.slack_weight, cover.points_seen)
    assert len(pts) >= 20
    assert not escape_mask(cover, pts).any()
    assert not any(cover.escapes(p) for p in pts)


def cover_state(cover):
    """Radius, center bytes, slack items and member ids of every ball."""
    return [
        (
            np.float64(cs.ball.radius).tobytes(),
            cs.ball.center.explicit.tobytes(),
            np.array(list(cs.ball.center.slack_coeffs.items())).tobytes(),
            [p.id for p in cs.members],
        )
        for cs in cover.cores
    ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    dim=st.integers(2, 8),
    C=st.sampled_from([math.inf, 10.0]),
    eps=st.sampled_from([0.1, 0.01, 0.001]),
    lookahead=st.sampled_from([0, 1, 2, 3, 10]),
)
def test_the_buffer_decisions_train_the_escape_mask_cover(
    seed, n, dim, C, eps, lookahead
):
    # Testing each pending point with ``escapes`` up to the first that
    # escapes must merge exactly when the reference all-points-by-all-balls
    # test finds an escaping point, so both covers are the same, bit for bit.
    noise = 0.0 if C == math.inf else 0.05
    ds = generate_synthetic(n, dim, 0.0, noise, seed=seed)
    params = ModelParams(dim=dim, epsilon=eps, C=C, lookahead=lookahead)
    model = Model(params)
    reference = Model(params)
    reference.cover = EscapeMaskCover(params)
    model.train_stream(ds.examples)
    reference.train_stream(ds.examples)
    assert cover_state(model.cover) == cover_state(reference.cover)


def _on_newest_boundary(cover, slack_weight, first_id, tries=600):
    """Fresh points whose reference squared distance to the newest ball equals
    its (1+eps)-expanded radius squared exactly, and the first points past
    it on the same rays that escape every ball."""
    rng = np.random.default_rng(7)
    centers, center_slack2, radii = cover.query_arrays()
    limits2 = ((1.0 + cover.params.epsilon) * radii) ** 2
    on, past = [], []

    def at(t, u):
        pid = first_id + len(on) + len(past)
        p = WeightedPoint(centers[-1] + t * u, slack_weight, pid)
        (d2,), _ = escape_distances(cover, [p])
        return p, d2[-1]

    for _ in range(tries):
        u = rng.standard_normal(centers.shape[1])
        u /= np.linalg.norm(u)
        t = math.sqrt(limits2[-1] - center_slack2[-1] - slack_weight**2)
        for _ in range(64):  # walk t by ulps onto the boundary
            p, d2 = at(t, u)
            if d2 == limits2[-1]:
                on.append(p)
                while d2 <= limits2[-1]:  # then just past it
                    t = math.nextafter(t, math.inf)
                    p, d2 = at(t, u)
                if escape_mask(cover, [p])[0]:
                    past.append(p)
                break
            t = math.nextafter(t, 0.0 if d2 > limits2[-1] else math.inf)
    return on, past


@pytest.mark.parametrize("C", [math.inf, 10.0])
def test_a_buffer_merges_iff_a_point_past_the_newest_boundary_escapes(C):
    # Points on the newest ball's expanded boundary count as inside, and
    # points one step past it escape; each is buffered with points inside
    # the newest ball, at every position of the buffer.  A buffer decision
    # that skips a pending point misplaces a boundary point.
    model, fresh = _trained(C, 10)
    first = model.cover.points_seen
    inside = [weighted(feature_map(ex.x, ex.y, model.params, first + k), model.params)
              for k, ex in enumerate(fresh)]
    d2, limits2 = escape_distances(model.cover, inside)
    inside = [p for p, row in zip(inside, d2) if row[-1] <= limits2[-1]]
    on, past = _on_newest_boundary(model.cover, model.params.slack_weight,
                                   first + len(fresh))
    assert len(on) >= 200 and len(past) >= 30 and len(inside) >= 10
    assert not escape_mask(model.cover, on).any()
    merges = []
    for capacity in (2, 3, 10):
        cover = BlurredBallCover(replace(model.params, lookahead=capacity))
        cover.cores = model.cover.cores
        cover.merge_update = merges.append  # record the decision; keep the cover
        for expected, pts in [(False, on), (True, past)]:
            for k, p in enumerate(pts):
                buffer = Lookahead()
                others = inside[k % (len(inside) - capacity + 2) :][: capacity - 1]
                slot = k % capacity
                for q in [*others[:slot], p, *others[slot:]]:
                    merged = cover.offer(buffer, q)
                assert merged is expected and not buffer.pending
    assert len(merges) == 3 * len(past)


def _near_boundaries(cover, slack_weight, rng, first_id):
    """Fresh points at the squared distance of every ball's expanded limit,
    within a few ulps of it and a few ulps of the radius, and at its center."""
    centers, center_slack2, radii = cover.query_arrays()
    limits2 = ((1.0 + cover.params.epsilon) * radii) ** 2
    pts = []
    for c, s2, lim2, r in zip(centers, center_slack2, limits2, radii):
        u = rng.standard_normal(c.size)
        u /= np.linalg.norm(u)
        t = math.sqrt(max(lim2 - s2 - slack_weight**2, 0.0))
        steps = [t * (1.0 + j * 2.0**-52) for j in range(-3, 4)]
        steps += [t + j * math.ulp(max(t, r)) for j in (-2, 2)] + [0.0]
        pts += [WeightedPoint(c + step * u, slack_weight, first_id + len(pts) + k)
                for k, step in enumerate(steps)]
    return pts


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3]),
    shift=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
    spreads=st.lists(st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 1e-2, 1.0]),
                     min_size=1, max_size=4),
    eps=st.sampled_from([0.1, 1e-3, 1e-9]),
    scale=st.sampled_from([1.0, 1e-160]),
)
def test_escapes_repeats_the_reference_where_the_bound_decides_little(
    seed, dim, shift, spreads, eps, scale
):
    # Far from the origin, with tiny radii, with zero radii from repeated
    # points, or at a scale where squares underflow, the dot form's bound is
    # wide and most tests reach the difference form; near every boundary the
    # decisions must still be the reference's.  Each ball is centered on the
    # first of its three points and reaches the farthest, so three copies of
    # one point make a zero radius.
    rng = np.random.default_rng(seed)
    origin = shift * scale * rng.uniform(-1.0, 1.0, dim)
    cores = []
    for k, spread in enumerate(spreads):
        base = origin + scale * rng.uniform(-1.0, 1.0, dim)
        rows = base + spread * scale * rng.standard_normal((3, dim))
        rows[0] = base
        radius = float(np.linalg.norm(rows - base, axis=1).max())
        members = [raw(row, 3 * k + i) for i, row in enumerate(rows)]
        cores.append(CoreSet(members, Ball(Center(base.copy()), radius)))
    cover = BlurredBallCover(raw_params(eps))
    cover.cores = cores
    pts = _near_boundaries(cover, 0.0, rng, 3 * len(spreads))
    pts += [raw(base + rng.standard_normal(dim) * scale * 10.0**-k, len(pts) + 10**6)
            for k in range(0, 16, 3)]
    assert [cover.escapes(p) for p in pts] == escape_mask(cover, pts).tolist()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    dim=st.integers(2, 6),
    C=st.sampled_from([math.inf, 10.0]),
    eps=st.sampled_from([0.1, 0.01, 0.001]),
)
def test_escapes_repeats_the_reference_on_mapped_streams(seed, n, dim, C, eps):
    # At L = 0 every training point meets ``escapes`` alone; fresh mapped
    # points of both labels and points at every expanded boundary must be
    # decided as the all-balls reference decides them.
    noise = 0.0 if C == math.inf else 0.05
    ds = generate_synthetic(n + 40, dim, 0.0, noise, seed=seed)
    params = ModelParams(dim=dim, epsilon=eps, C=C, lookahead=0)
    model = Model(params).train_stream(ds.examples[:n])
    cover = model.cover
    pts = [weighted(feature_map(ex.x, ex.y if k % 2 else -ex.y, params,
                                cover.points_seen + k), params)
           for k, ex in enumerate(ds.examples[n:])]
    rng = np.random.default_rng(seed)
    pts += _near_boundaries(cover, params.slack_weight, rng, cover.points_seen + 40)
    assert [cover.escapes(p) for p in pts] == escape_mask(cover, pts).tolist()


def _counting_row_sums(monkeypatch):
    """A list that grows by one at each call of the difference form's row sum."""
    calls = []
    row_sum = bbsvm.cover._row_sum

    def counting(*args, **kwargs):
        calls.append(None)
        return row_sum(*args, **kwargs)

    monkeypatch.setattr(bbsvm.cover, "_row_sum", counting)
    return calls


def _reaches_the_difference_form(cover, pts, calls):
    """Per point, whether ``cover.escapes`` ran the counted row sum."""
    reached = []
    for p in pts:
        before = len(calls)
        cover.escapes(p)
        reached.append(len(calls) > before)
    return reached


@pytest.mark.parametrize("C", [math.inf, 10.0])
def test_the_dot_form_settles_every_point_the_newest_ball_clearly_holds(monkeypatch, C):
    # Only the newest ball's dot form settles a point before the difference
    # form: the counted row sum never runs for a fresh point that the newest
    # expanded ball holds with a relative margin of 1e-9, and always runs for
    # a point outside that ball, escaping or not.
    model, fresh = _trained(C, 0)
    cover = model.cover
    pts = [weighted(feature_map(ex.x, ex.y if k % 2 else -ex.y, model.params,
                                cover.points_seen + k), model.params)
           for k, ex in enumerate(fresh)]
    d2, limits2 = escape_distances(cover, pts)
    held = d2[:, -1] <= (1.0 - 1e-9) * limits2[-1]
    outside = d2[:, -1] > limits2[-1]
    calls = _counting_row_sums(monkeypatch)
    reached = np.array(_reaches_the_difference_form(cover, pts, calls))
    assert held.sum() >= 50 and outside.sum() >= 50
    assert not reached[held].any()
    assert reached[outside].all()
    assert {cover.escapes(p) for p in pts} == {False, True}


@pytest.mark.parametrize("C", [math.inf, 10.0])
def test_points_on_an_expanded_boundary_reach_the_difference_form(monkeypatch, C):
    # On a boundary no bound can decide, and only the newest ball's dot form
    # can settle a point first: every point on the newest ball's boundary,
    # one step past it, or on an older ball's boundary outside the newest
    # ball, is decided by the difference form.
    model, _ = _trained(C, 10)
    cover, sw = model.cover, model.params.slack_weight
    on, past = _on_newest_boundary(cover, sw, cover.points_seen)
    older = _on_older_boundaries(cover, sw, cover.points_seen + len(on) + len(past), 400)
    assert len(on) >= 40 and len(past) >= 40 and len(older) >= 20
    calls = _counting_row_sums(monkeypatch)
    assert all(_reaches_the_difference_form(cover, [*on, *past, *older], calls))


# ----------------------------------------------------------------------- offer


def test_offer_buffers_below_capacity():
    cover = BlurredBallCover(raw_params(0.1, lookahead=10))
    buf = Lookahead()
    for i in range(9):
        assert cover.offer(buf, raw([float(i), 0.0], i)) is False
    assert len(buf.pending) == 9
    assert not cover.cores
    assert cover.points_seen == 9


def test_offer_lookahead_zero_processes_immediately():
    cover = BlurredBallCover(raw_params(0.1, lookahead=0))
    buf = Lookahead()
    assert cover.offer(buf, raw([2.0, 3.0], 0)) is True
    assert len(cover.cores) == 1
    assert cover.cores[0].ball.radius == 0.0
    assert np.array_equal(cover.cores[0].ball.center.explicit, [2.0, 3.0])
    assert buf.pending == []


def test_offer_all_inside_clears_without_merge():
    cover = BlurredBallCover(raw_params(0.1, lookahead=3))
    cover.merge_update(ring((0.0, 0.0), 1.0, 8, 0))
    balls_before = balls(cover)
    buf = Lookahead()
    merged = [cover.offer(buf, raw([0.01 * i, 0.0], 100 + i)) for i in range(3)]
    assert merged == [False, False, False]
    assert buf.pending == []
    assert balls(cover) == balls_before


def test_offer_capacity_reached_with_escape_merges():
    cover = BlurredBallCover(raw_params(0.1, lookahead=2))
    buf = Lookahead()
    assert cover.offer(buf, raw([0.0, 0.0], 0)) is False
    assert cover.offer(buf, raw([1.0, 0.0], 1)) is True
    assert len(cover.cores) == 1
    assert buf.pending == []


# ---------------------------------------------------------------- merge_update


def test_merge_empty_cover_single_point():
    cover = BlurredBallCover(raw_params(0.1))
    cover.merge_update([raw([1.0, 1.0], 0)])
    assert len(cover.cores) == 1
    assert cover.cores[0].ball.radius == 0.0


def test_merge_discards_tiny_old_ball():
    cover = BlurredBallCover(raw_params(0.1))
    cover.merge_update([raw([0.0, 0.0], 0)])  # radius-0 ball
    assert len(cover.cores) == 1
    cover.merge_update([raw([10.0, 0.0], 1)])
    # new ball ~ MEB{p, q} with radius ~5; 0 < eps/4 * 5 so the old one goes
    assert len(cover.cores) == 1
    ball = cover.cores[0].ball
    assert math.isclose(ball.radius, 5.0, rel_tol=0.06)
    assert {p.id for p in cover.cores[0].members} == {0, 1}


def test_merge_retains_old_ball_above_cut():
    # old cluster of radius 0.5; new merged ball radius <= 4 with eps = 0.1:
    # cut = 0.025 * r_new <= 0.1 < 0.5, so the old ball must survive.
    cover = BlurredBallCover(raw_params(0.1))
    cover.merge_update(ring((0.0, 0.0), 0.5, 10, 0))
    assert len(cover.cores) == 1
    r_old = cover.cores[0].ball.radius
    assert 0.45 <= r_old <= 0.55
    cover.merge_update(ring((7.0, 0.0), 0.5, 10, 100))
    assert len(cover.cores) == 2
    r_new = cover.cores[-1].ball.radius
    assert r_old >= (cover.params.epsilon / 4.0) * r_new
    assert r_new <= 4.2


def test_merge_input_includes_retained_core_points():
    cover = BlurredBallCover(raw_params(0.1))
    cover.merge_update([raw([0.0, 0.0], 0), raw([2.0, 0.0], 1)])
    cover.merge_update([raw([4.0, 0.0], 2)])
    # the new ball covers old core members, not just the buffer
    newest = cover.cores[-1].ball
    for pid, vec in [(0, [0.0, 0.0]), (1, [2.0, 0.0]), (2, [4.0, 0.0])]:
        assert distance2(newest.center, raw(vec, pid)) <= newest.radius**2 * (1 + 1e-9)


def _record_merge_inputs(monkeypatch) -> list[list[int]]:
    """Patch the cover's solver to log the ids of each merge input."""
    calls: list[list[int]] = []

    def recording_meb(points, delta, slack_weight=0.0, warm=None):
        calls.append([p.id for p in points])
        return approx_meb(points, delta, slack_weight, warm)

    monkeypatch.setattr(bbsvm.cover, "approx_meb", recording_meb)
    return calls


def test_all_core_points_empty_and_simple(monkeypatch):
    # An empty cover adds nothing to the buffer; one ball adds its core set.
    cover = BlurredBallCover(raw_params(0.1))
    assert core_point_ids(cover) == []
    calls = _record_merge_inputs(monkeypatch)
    cover.merge_update([raw([5.0, 0.0], 20)])
    assert calls == [[20]]
    pts = [raw([0.0, 0.0], 0), raw([1.0, 0.0], 1), raw([0.0, 1.0], 2)]
    ball, core = approx_meb(pts, 0.05)
    cover.cores = [core]
    assert set(core_point_ids(cover)) == {p.id for p in core.members}
    cover.merge_update([raw([5.0, 1.0], 21)])
    assert calls[1] == [21, *(p.id for p in core.members)]


def test_all_core_points_dedups_shared_members(monkeypatch):
    cover = BlurredBallCover(raw_params(0.1))
    shared = raw([0.0, 0.0], 7)
    ball1, _ = approx_meb([shared], 0.05)
    ball2, _ = approx_meb([shared, raw([1.0, 0.0], 8)], 0.05)
    cover.cores = [
        CoreSet([shared], ball1),
        CoreSet([shared, raw([1.0, 0.0], 8)], ball2),
    ]
    assert core_point_ids(cover) == [7, 8]
    calls = _record_merge_inputs(monkeypatch)
    cover.merge_update([raw([5.0, 0.0], 20)])
    assert calls == [[20, 7, 8]]


def test_a_merge_passes_the_buffer_then_each_core_point_once(monkeypatch):
    # Two balls share the point 7: the solver gets the buffer, then every
    # retained core point once, in cover order, and starts from the newest core.
    cover = BlurredBallCover(raw_params(0.1))
    shared = raw([0.0, 0.0], 7)
    first = [raw([0.0, 1.0], 9), shared]
    newest = [shared, raw([1.0, 0.0], 8)]
    cover.cores = [CoreSet(first, approx_meb(first, 0.05)[0]),
                   CoreSet(newest, approx_meb(newest, 0.05)[0])]
    assert core_point_ids(cover) == [9, 7, 8]
    calls = []

    def recording_meb(points, delta, slack_weight=0.0, warm=None):
        calls.append(([p.id for p in points], [p.id for p in warm]))
        return approx_meb(points, delta, slack_weight, warm)

    monkeypatch.setattr(bbsvm.cover, "approx_meb", recording_meb)
    cover.merge_update([raw([5.0, 0.0], 20), raw([5.0, 1.0], 21)])
    assert calls == [([20, 21, 9, 7, 8], [7, 8])]


# ------------------------------------------------------------------ invariants


def test_invariants_hold_on_random_streams():
    rng = np.random.default_rng(13)
    for trial in range(5):
        eps = [0.3, 0.15, 0.08][trial % 3]
        cover = CheckingCover(raw_params(eps, lookahead=[0, 3, 10][trial % 3]))
        buf = Lookahead()
        for i, vec in enumerate(rng.normal(size=(600, 4))):
            cover.offer(buf, raw(vec, i))
            assert len(buf.pending) <= max(cover.params.lookahead, 1)
        cover.flush(buf)
        assert cover.merge_count > 0
        assert cover.points_seen == 600


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(50, 400),
    dim=st.integers(2, 6),
    C=st.sampled_from([math.inf, 10.0]),
    lookahead=st.sampled_from([0, 10]),
    eps=st.sampled_from([0.1, 0.03, 0.01]),
    noise=st.sampled_from([0.0, 0.05]),
    order=st.sampled_from(["stream", "label-sorted"]),
)
def test_the_cover_holds_the_whole_stream(seed, n, dim, C, lookahead, eps, noise, order):
    # Every point seen lies in a retained (1+eps)-expanded ball, its shared
    # slack axis counted when it is a core member, and no retained radius is
    # above 1.22 (1+delta) times the radius of the whole stream's approximate
    # MEB: Chan and Pathak's bound for the blurred ball cover.  Both hold for
    # any order, so the streams are also drawn label-sorted (every +1 first,
    # each label in stream order), the order under which ``predict`` can
    # return one label for every query.
    examples = generate_synthetic(n, dim, 0.0, noise, seed=seed).examples
    if order == "label-sorted":
        examples = sorted(examples, key=lambda ex: ex.y, reverse=True)  # stable
    params = ModelParams(dim=dim, epsilon=eps, C=C, lookahead=lookahead)
    cores = Model(params).train_stream(examples).cover.cores
    stream = [weighted(feature_map(ex.x, ex.y, params, k), params)
              for k, ex in enumerate(examples)]
    for p in stream:
        assert any(distance2(cs.ball.center, p) <= ((1.0 + eps) * cs.ball.radius) ** 2
                   for cs in cores)
    whole, _ = approx_meb(stream, params.delta, params.slack_weight)
    largest = max(cs.ball.radius for cs in cores)
    assert largest <= 1.22 * (1.0 + params.delta) * whole.radius


def test_cover_determinism_bit_for_bit():
    rng = np.random.default_rng(17)
    stream = [raw(v, i) for i, v in enumerate(rng.normal(size=(500, 3)))]

    def build():
        cover = BlurredBallCover(raw_params(0.1, lookahead=5))
        buf = Lookahead()
        for p in stream:
            cover.offer(buf, p)
        cover.flush(buf)
        return [
            (cs.ball.radius, cs.ball.center.explicit.tobytes(), tuple(m.id for m in cs.members))
            for cs in cover.cores
        ]

    assert build() == build()


def test_invalid_parameters():
    # The cover takes its constants from ModelParams, which checks them.
    with pytest.raises(ValueError, match="epsilon"):
        ModelParams(dim=2, epsilon=0.0)
    with pytest.raises(ValueError, match="delta"):
        ModelParams(dim=2, delta=-1.0)
