import dataclasses
import inspect
import math
import signal
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsvm.meb import AugPoint, Ball, Center, approx_meb
from oracle import (
    WeightedPoint,
    distance2,
    exact_meb_small,
    expansion_contains,
    inner_product,
)


def raw(vec, pid, sw=0.0):
    return WeightedPoint(np.asarray(vec, dtype=float), sw, pid)


def test_a_point_is_a_row_and_an_id():
    # The slack weight belongs to the solve (and the model), not to a point.
    assert [f.name for f in dataclasses.fields(AugPoint)] == ["explicit", "id"]


# ---------------------------------------------------------------- inner_product


def test_inner_product_self_is_kappa_squared():
    # C = inf training point: norm^2 = 2
    p = raw([0.6, 0.8, 1.0], 0)
    assert math.isclose(inner_product(p, p), 2.0, rel_tol=1e-12)
    # C = 1 training point: norm^2 = 2 + 1/C = 3, exactly representable
    q = raw([1.0, 0.0, 1.0], 1, sw=1.0)
    assert inner_product(q, q) == 3.0


def test_inner_product_distinct_ids_ignores_slack():
    p = raw([1.0, 2.0], 0, sw=0.5)
    q = raw([3.0, -1.0], 1, sw=0.5)
    assert inner_product(p, q) == 1.0


def test_inner_product_antipodal_pair():
    # same unit input, opposite labels, C = inf: dot is exactly -kappa^2
    p = raw([1.0, 0.0, 1.0], 0)
    q = raw([-1.0, 0.0, -1.0], 1)
    assert inner_product(p, q) == -2.0


def test_inner_product_symmetric():
    rng = np.random.default_rng(0)
    for i in range(50):
        p = raw(rng.normal(size=4), i, sw=float(rng.random()))
        q = raw(rng.normal(size=4), i if i % 2 else i + 1, sw=float(rng.random()))
        assert inner_product(p, q) == inner_product(q, p)


# ------------------------------------------------------------------- distance2


def test_distance2_singleton_center_is_zero():
    p = raw([0.3, -0.7, 1.0], 4, sw=0.5)
    c = Center(p.explicit.copy(), {p.id: p.slack_weight})
    assert distance2(c, p) == 0.0


def test_distance2_from_origin_is_norm():
    p = raw([1.0, 0.0, 1.0], 0, sw=1.0)  # C = 1, kappa^2 = 3
    c = Center(np.zeros(3))
    assert distance2(c, p) == 3.0


def test_distance2_midpoint_of_antipodal_pair():
    p = raw([1.0, 0.0, 1.0], 0)
    q = raw([-1.0, 0.0, -1.0], 1)
    mid = Center((p.explicit + q.explicit) / 2.0)
    assert distance2(mid, p) == 2.0
    assert distance2(mid, q) == 2.0


def test_distance2_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        distance2(Center(np.zeros(2)), raw([1.0, 2.0, 3.0], 0))


def test_distance2_nonnegative():
    rng = np.random.default_rng(1)
    for i in range(100):
        c = Center(rng.normal(size=3), {int(rng.integers(5)): float(rng.normal())})
        p = raw(rng.normal(size=3), int(rng.integers(5)), sw=float(rng.random()))
        assert distance2(c, p) >= 0.0


# ------------------------------------------------------------------ approx_meb


def test_approx_meb_single_point():
    p = raw([1.0, 2.0], 0, sw=0.25)
    ball, core = approx_meb([p], 0.1, slack_weight=0.25)
    assert np.array_equal(ball.center.explicit, p.explicit)
    assert ball.center.slack_coeffs == {0: 0.25}
    assert ball.radius == 0.0
    assert core.members == [p]


def test_approx_meb_two_points():
    a, b = raw([0.0, 0.0], 0), raw([2.0, 0.0], 1)
    ball, core = approx_meb([a, b], 0.01)
    assert np.allclose(ball.center.explicit, [1.0, 0.0], atol=1e-12)
    assert 1.0 <= ball.radius <= 1.01
    assert {p.id for p in core.members} == {0, 1}


def test_approx_meb_triangle_matches_oracle():
    pts = [raw([0.0, 0.0], 0), raw([2.0, 0.0], 1), raw([1.0, 1.0], 2)]
    ball, _ = approx_meb(pts, 0.01)
    center, radius = exact_meb_small([[0, 0], [2, 0], [1, 1]])
    assert np.allclose(center, [1.0, 0.0])
    assert radius == 1.0
    assert ball.radius <= 1.01 * radius * (1 + 1e-9)
    for p in pts:
        assert distance2(ball.center, p) <= (1.01 * ball.radius) ** 2 + 1e-12


def test_approx_meb_empty_input():
    with pytest.raises(ValueError, match="at least one point"):
        approx_meb([], 0.1)
    with pytest.raises(ValueError, match="delta"):
        approx_meb([raw([1.0], 0)], 0.0)


@pytest.mark.parametrize("delta", [0.1, 0.01])
def test_approx_meb_containment_and_core_bound(delta):
    rng = np.random.default_rng(7)
    bound = math.ceil(1.0 / delta**2) + 1
    for trial in range(20):
        n = int(rng.integers(2, 80))
        dim = int(rng.integers(2, 8))
        pts = [raw(v, i) for i, v in enumerate(rng.normal(size=(n, dim)))]
        ball, core = approx_meb(pts, delta)
        limit = (1.0 + delta) * ball.radius * (1.0 + 1e-9)
        for p in pts:
            assert math.sqrt(distance2(ball.center, p)) <= limit
        assert len(core.members) <= bound
        member_ids = {p.id for p in core.members}
        assert len(member_ids) == len(core.members)


def test_approx_meb_near_optimal_vs_oracle():
    rng = np.random.default_rng(9)
    for trial in range(30):
        dim = int(rng.integers(2, 4))
        n = int(rng.integers(2, 51))
        pts = rng.uniform(-1.0, 1.0, (n, dim))
        for delta in (0.1, 0.01):
            ball, _ = approx_meb([raw(v, i) for i, v in enumerate(pts)], delta)
            _, r_star = exact_meb_small(pts)
            assert ball.radius <= (1.0 + delta) * r_star * (1.0 + 1e-9)


def test_approx_meb_slack_bookkeeping_consistency():
    # Zero slack weights leave the center without slack coefficients; with
    # nonzero ones the radius is the oracle's distance to the farthest input.
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(40, 6))
    ball, _ = approx_meb([raw(v, i) for i, v in enumerate(vecs)], 0.01)
    assert ball.center.slack_coeffs == {}
    pts = [raw(v, i, sw=0.5) for i, v in enumerate(vecs)]
    ball, core = approx_meb(pts, 0.01, slack_weight=0.5)
    assert set(ball.center.slack_coeffs) == {p.id for p in core.members}
    farthest2 = max(distance2(ball.center, p) for p in pts)
    assert math.isclose(ball.radius**2, farthest2, rel_tol=1e-12)


def test_approx_meb_finite_slack_center_combination():
    # Center slack coefficients follow the convex weights of the members.
    pts = [raw([1.0, 0.0, 1.0], 0, sw=1.0), raw([-1.0, 0.0, -1.0], 1, sw=1.0)]
    ball, _ = approx_meb(pts, 0.01, slack_weight=1.0)
    coeffs = ball.center.slack_coeffs
    assert set(coeffs) == {0, 1}
    assert math.isclose(coeffs[0], 0.5, rel_tol=1e-9)
    assert math.isclose(coeffs[1], 0.5, rel_tol=1e-9)
    assert all(v != 0.0 for v in coeffs.values())
    # both points end up equidistant from the center
    d0, d1 = distance2(ball.center, pts[0]), distance2(ball.center, pts[1])
    assert math.isclose(d0, d1, rel_tol=1e-9)


def convex_weights(ball, core, sw):
    """The weights that make ``ball.center`` a combination of the core.

    Read from the slack coefficients when the points have slack axes, else
    solved from the explicit block and the condition that they sum to one;
    either way they must rebuild the center.
    """
    E = np.array([p.explicit for p in core.members])
    if sw:
        a = np.array([ball.center.slack_coeffs[p.id] for p in core.members]) / sw
    else:
        A = np.vstack([E.T, np.ones(len(E))])
        a = np.linalg.lstsq(A, np.append(ball.center.explicit, 1.0), rcond=None)[0]
    assert math.isclose(a.sum(), 1.0, rel_tol=1e-9)
    assert np.allclose(a @ E, ball.center.explicit, rtol=0.0, atol=1e-9)
    return a


def test_approx_meb_meets_its_contract_on_seeded_instances():
    # Every input inside the ball, a core of distinct inputs whose positive
    # weights give the center, and the (1+delta) certificate: the radius is
    # within (1+delta) of a lower bound on the optimum, either half the
    # farthest distance from input 0 or the dual value sum a_i d_i^2.
    rng = np.random.default_rng(2024)
    for instance in range(200):
        dim = int(rng.integers(2, 26))
        m = int(rng.integers(1, 81))
        vecs = rng.normal(size=(m, dim))
        ids = rng.permutation(4 * m)[:m]
        sw = 0.5 if instance % 2 else 0.0
        delta = (0.1, 0.01, 0.003)[instance % 3]
        pts = [raw(v, int(i), sw=sw) for v, i in zip(vecs, ids)]
        ball, core = approx_meb(pts, delta, slack_weight=sw)
        d2 = np.array([distance2(ball.center, p) for p in pts])
        assert d2.max() <= ball.radius**2 * (1.0 + 1e-12), f"instance {instance}"
        core_ids = [p.id for p in core.members]
        assert len(set(core_ids)) == len(core_ids)
        assert set(core_ids) <= set(ids.tolist())
        a = convex_weights(ball, core, sw)
        assert (a > 0.0).all(), f"instance {instance}"
        start = max(distance2(Center(pts[0].explicit, {pts[0].id: sw}), p) for p in pts)
        dual = sum(w * distance2(ball.center, p) for w, p in zip(a, core.members))
        lower2 = max(0.25 * start, dual)
        assert ball.radius**2 <= (1.0 + delta) ** 2 * lower2 * (1.0 + 1e-9), (
            f"instance {instance}"
        )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(1, 3),
    delta=st.sampled_from([0.2, 0.05, 0.01]),
    data=st.data(),
)
def test_approx_meb_contains_inputs_within_one_plus_delta(dim, delta, data):
    coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    point = st.lists(coords, min_size=dim, max_size=dim)
    vecs = np.array(data.draw(st.lists(point, min_size=1, max_size=12)))
    ball, _ = approx_meb([raw(v, i) for i, v in enumerate(vecs)], delta)
    dists = np.linalg.norm(vecs - ball.center.explicit, axis=1)
    assert dists.max() <= ball.radius * (1.0 + 1e-12) + 1e-12
    _, r_star = exact_meb_small(vecs)
    assert ball.radius <= (1.0 + delta) * r_star * (1.0 + 1e-9) + 1e-9


@st.composite
def degenerate_sets(draw):
    """Point sets in dimension 1-3 with many more points than dim + 1:
    general, collinear, cocircular (or cospherical) and coincident copies."""
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(dim + 2, 30))
    kind = draw(st.sampled_from(["general", "collinear", "cocircular", "coincident"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = rng.normal(size=dim)
    if kind == "general":
        return rng.normal(size=(m, dim))
    if kind == "collinear":
        return np.outer(rng.normal(size=m), rng.normal(size=dim)) + shift
    if kind == "cocircular":
        # On the unit sphere of dim, and of a random plane when dim = 3.
        vecs = rng.normal(size=(m, min(dim, 2 if draw(st.booleans()) else 3)))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return np.hstack([vecs, np.zeros((m, dim - vecs.shape[1]))]) @ np.linalg.qr(
            rng.normal(size=(dim, dim))
        )[0] + shift
    base = rng.normal(size=(draw(st.integers(1, 3)), dim))
    return base[rng.integers(0, len(base), size=m)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    vecs=degenerate_sets(),
    delta=st.sampled_from([0.2, 0.01, 1e-4]),
    sw=st.sampled_from([0.0, 0.5]),
)
def test_approx_meb_on_degenerate_sets_within_one_plus_delta(vecs, delta, sw):
    ids = np.random.default_rng(len(vecs)).permutation(3 * len(vecs))[: len(vecs)]
    pts = [raw(v, int(i), sw=sw) for v, i in zip(vecs, ids)]
    ball, core = approx_meb(pts, delta, slack_weight=sw)
    for p in pts:
        assert distance2(ball.center, p) <= ball.radius**2 * (1.0 + 1e-12) + 1e-300
    core_ids = [p.id for p in core.members]
    assert len(set(core_ids)) == len(core_ids)
    if sw:
        # Each core member carries weight, so its slack coefficient is set.
        assert set(ball.center.slack_coeffs) == set(core_ids)
        assert all(c > 0.0 for c in ball.center.slack_coeffs.values())
    else:
        assert (convex_weights(ball, core, sw) > 0.0).all()
        _, r_star = exact_meb_small(vecs)
        assert ball.radius <= (1.0 + delta) * r_star * (1.0 + 1e-9) + 1e-12


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    vecs=degenerate_sets(),
    delta=st.sampled_from([0.2, 0.01, 1e-4]),
    sw=st.sampled_from([0.0, 0.5]),
    data=st.data(),
)
def test_approx_meb_from_any_warm_subset_within_one_plus_delta(vecs, delta, sw, data):
    # Any inputs, in any order, may be the warm start: the contract is the
    # cold start's.  With slack axes the optimum is bounded by a cold solve
    # to 1e-7, whose radius is at least the optimal one.
    ids = np.random.default_rng(len(vecs)).permutation(3 * len(vecs))[: len(vecs)]
    pts = [raw(v, int(i), sw=sw) for v, i in zip(vecs, ids)]
    order = data.draw(st.permutations(range(len(pts))))
    warm = [pts[k] for k in order[: data.draw(st.integers(0, len(pts)))]]
    warm *= data.draw(st.integers(1, 2))  # a repeated point counts once
    ball, core = approx_meb(pts, delta, slack_weight=sw, warm=warm)
    for p in pts:
        assert distance2(ball.center, p) <= ball.radius**2 * (1.0 + 1e-12) + 1e-300
    core_ids = [p.id for p in core.members]
    assert len(set(core_ids)) == len(core_ids)
    assert set(core_ids) <= set(ids.tolist())
    assert (convex_weights(ball, core, sw) > 0.0).all()
    if sw:
        r_star = approx_meb(pts, 1e-7, slack_weight=sw)[0].radius
    else:
        _, r_star = exact_meb_small(vecs)
    assert ball.radius <= (1.0 + delta) * r_star * (1.0 + 1e-9) + 1e-12


def test_approx_meb_refuses_a_warm_point_that_is_not_an_input():
    pts = [raw([0.0, 1.0], 4), raw([1.0, 0.0], 7), raw([2.0, 2.0], 9)]
    for stranger in (0, 5, 10):
        with pytest.raises(ValueError, match=f"warm ids \\[{stranger}\\]"):
            approx_meb(pts, 0.01, warm=[pts[0], raw([1.0, 1.0], stranger)])


def test_approx_meb_warm_from_the_last_core_meets_the_cold_contract():
    # The merge pattern: a ball, then the ball of its inputs plus new
    # points, warm from its core.  Every certificate of the cold start holds.
    rng = np.random.default_rng(41)
    for trial in range(20):
        dim, sw = int(rng.integers(2, 30)), (0.0, 0.5)[trial % 2]
        vecs = rng.normal(size=(120, dim))
        pts = [raw(v, i, sw=sw) for i, v in enumerate(vecs)]
        _, core = approx_meb(pts[:100], 1e-3, slack_weight=sw)
        ball, warm_core = approx_meb(pts, 1e-3, slack_weight=sw, warm=core.members)
        cold, _ = approx_meb(pts, 1e-3, slack_weight=sw)
        farthest2 = max(distance2(ball.center, p) for p in pts)
        assert farthest2 <= ball.radius**2 * (1.0 + 1e-12)
        a = convex_weights(ball, warm_core, sw)
        assert (a > 0.0).all()
        assert ball.radius <= 1.001 * cold.radius, f"trial {trial}"
        # The certificate of the final core's own weights.
        start = max(distance2(Center(pts[0].explicit, {pts[0].id: sw}), p) for p in pts)
        dual = sum(w * distance2(ball.center, p) for w, p in zip(a, warm_core.members))
        lower2 = max(0.25 * start, dual)
        assert ball.radius**2 <= (1.0 + 1e-3) ** 2 * lower2 * (1.0 + 1e-9), trial


def test_approx_meb_warm_trim_certifies_normalised_weights():
    # Four copies of one point and three of another, 2 apart, warm from all
    # seven: the optimal radius is 1.  A trim that certified the downdated
    # weights without normalising them to sum to 1 returned 1.0068 here (a
    # case the warm-subset property test found).
    a, b = -0.810946618206467, 1.1890533817935331
    ids = np.random.default_rng(7).permutation(21)[:7]
    pts = [raw([x], int(i)) for x, i in zip([a, a, a, b, b, a, b], ids)]
    ball, _ = approx_meb(pts, 1e-4, warm=[pts[k] for k in (3, 1, 2, 0, 4, 5, 6)])
    assert ball.radius <= (1.0 + 1e-4) * 1.0


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the body runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_approx_meb_returns_at_delta_1e7_on_three_points():
    # After a near-singular downdate the weights summed to 0.99999971 here:
    # the dual overstated the lower bound, the inverse kept an active point
    # farthest, and the loop re-added it until the cap of 10^14 steps.
    vals = [-1.099861376574743, -1.7835165294861448, 0.9139667610676986]
    pts = [raw([x], i) for x, i in zip(vals, [8, 2, 5])]
    with time_limit(5):
        ball, _ = approx_meb(pts, 1e-7)
    assert ball.radius <= (1.0 + 1e-7) * 1.3487416452769216


def _lines_run(func, *args):
    """``func(*args)`` and the line numbers its own frame ran."""
    code, lines = func.__code__, set()

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return func(*args), lines
    finally:
        sys.settrace(previous)


@pytest.mark.parametrize("delta", [1e-7, 1e-9])
def test_approx_meb_keeps_its_bound_when_a_rebuilt_inverse_is_stuck_again(delta):
    # A square's corners, one of them twice, warm from all five: the ridge
    # barely separates the twins, the rebuilt inverse is stuck again, and the
    # loop restarts from the cold start.  Stopping there instead gave radii
    # sqrt(2)(1 + 9.5e-7) at delta = 1e-7 and sqrt(2)(1 + 1.2e-4) at 1e-9.
    rows = [[-1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [1.0, -1.0]]
    pts = [raw(r, i) for i, r in enumerate(rows)]
    warm = [pts[k] for k in (2, 0, 3, 1, 4)]
    with time_limit(5):
        (ball, core), lines = _lines_run(approx_meb, pts, delta, 0.0, warm)
    source, first = inspect.getsourcelines(approx_meb)
    restart = first + next(k for k, line in enumerate(source) if "= cold\n" in line)
    assert restart in lines
    assert ball.radius <= (1.0 + delta) * math.sqrt(2.0)
    for p in pts:
        assert distance2(ball.center, p) <= ball.radius**2
    assert len(core.members) >= 2


def test_approx_meb_at_delta_1e7_matches_the_oracle():
    rng = np.random.default_rng(1307)
    with time_limit(10):
        for instance in range(120):
            dim, m = int(rng.integers(1, 4)), int(rng.integers(2, 25))
            vecs = rng.normal(size=(m, dim))
            ids = rng.permutation(3 * m)[:m]
            ball, _ = approx_meb([raw(v, int(i)) for v, i in zip(vecs, ids)], 1e-7)
            dists = np.linalg.norm(vecs - ball.center.explicit, axis=1)
            assert dists.max() <= ball.radius * (1.0 + 1e-12), f"instance {instance}"
            _, r_star = exact_meb_small(vecs)
            assert ball.radius <= (1.0 + 1e-7) * r_star * (1.0 + 1e-9), (
                f"instance {instance}"
            )


def test_approx_meb_small_ball_far_from_the_origin():
    # A spread of 1e-6 at distance 1e4, and copies of one unit vector a few
    # ulps apart: Gram entries of the raw points would cancel to noise.
    rng = np.random.default_rng(8)
    for trial in range(10):
        if trial % 2:
            vecs = 1e4 * rng.normal(size=3) + 1e-6 * rng.normal(size=(20, 3))
        else:
            unit = rng.normal(size=3) / math.sqrt(3.0)
            vecs = unit * (1.0 + rng.integers(-3, 4, size=(12, 1)) * 2.0**-52)
        pts = [raw(v, i) for i, v in enumerate(vecs)]
        ball, core = approx_meb(pts, 0.01)
        assert math.isfinite(ball.radius)
        assert len({p.id for p in core.members}) == len(core.members)
        for p in pts:
            assert distance2(ball.center, p) <= ball.radius**2 * (1.0 + 1e-12)
        if trial % 2:  # the oracle on differences, which it resolves
            _, r_star = exact_meb_small(vecs - vecs[0])
            assert ball.radius <= 1.01 * r_star * (1.0 + 1e-6), f"trial {trial}"


def test_approx_meb_reruns_bit_for_bit():
    rng = np.random.default_rng(12)
    for sw, warm in [(0.0, None), (0.5, None), (0.0, range(0, 300, 7)), (0.5, [5, 2])]:
        vecs = rng.normal(size=(300, 21))
        runs = []
        for _ in range(2):
            pts = [raw(v.copy(), i, sw=sw) for i, v in enumerate(vecs)]
            warm_pts = warm and [pts[k] for k in warm]
            runs.append(approx_meb(pts, 1e-4, slack_weight=sw, warm=warm_pts))
        (b1, c1), (b2, c2) = runs
        assert b1.radius == b2.radius
        assert b1.center.explicit.tobytes() == b2.center.explicit.tobytes()
        assert list(b1.center.slack_coeffs.items()) == list(
            b2.center.slack_coeffs.items()
        )
        assert [p.id for p in c1.members] == [p.id for p in c2.members]


def test_approx_meb_on_many_points_builds_no_gram_matrix():
    # 5,000 inputs: an (m, m) float array would take 200 MB.  The solver
    # takes distances from the center and keeps no Gram rows.
    vecs = np.random.default_rng(31).normal(size=(5000, 3))
    pts = [raw(v, i) for i, v in enumerate(vecs)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        ball, _ = approx_meb(pts, 1e-3)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert np.linalg.norm(vecs - ball.center.explicit, axis=1).max() <= ball.radius


@pytest.mark.parametrize("copies, sw", [(1, 0.0), (1, 0.5), (3, 0.0)])
def test_approx_meb_coincident_points_stop_at_zero_radius(copies, sw):
    # Rounding must not leave a point a hair away from itself or from its
    # copies: at delta = 1e-4 the step cap is 10^8, so a missed exit at the
    # first check would run for minutes.
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    for _ in range(20):
        vec = rng.normal(size=int(rng.integers(2, 300)))
        pts = [raw(vec.copy(), 10 - i, sw=sw) for i in range(copies)]
        ball, core = approx_meb(pts, 1e-4, slack_weight=sw)
        assert ball.radius == 0.0
        assert np.array_equal(ball.center.explicit, vec)
        assert [p.id for p in core.members] == [10]
    assert time.perf_counter() - start < 0.5


def test_approx_meb_ties_go_to_the_lowest_id():
    # From the start point both others are exactly equally far.
    pts = [raw([0.0, 0.0], 5), raw([1.0, 0.0], 9), raw([-1.0, 0.0], 2)]
    _, core = approx_meb(pts, 0.1)
    # Id 2 enters first; once 9 enters, the start point 5 lies between them
    # and drops out with a weight of zero.
    assert [p.id for p in core.members] == [2, 9]


# -------------------------------------------------------------- exact_meb_small


def test_exact_meb_single_and_collinear():
    center, radius = exact_meb_small([[5.0, 5.0]])
    assert np.array_equal(center, [5.0, 5.0]) and radius == 0.0
    center, radius = exact_meb_small([[0.0], [1.0], [2.0]])
    assert center[0] == 1.0 and radius == 1.0


def test_exact_meb_triangle():
    center, radius = exact_meb_small([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    assert np.allclose(center, [1.0, 0.0]) and radius == 1.0


def test_exact_meb_errors():
    with pytest.raises(ValueError, match="at least one point"):
        exact_meb_small(np.empty((0, 2)))
    with pytest.raises(ValueError, match="dimension"):
        exact_meb_small(np.zeros((3, 4)))


def test_exact_meb_random_sanity():
    rng = np.random.default_rng(11)
    for trial in range(20):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 40))
        pts = rng.normal(size=(n, dim))
        center, radius = exact_meb_small(pts)
        dists = np.linalg.norm(pts - center, axis=1)
        assert dists.max() <= radius * (1.0 + 1e-9)
        # radius can never beat half the diameter
        diam = max(
            np.linalg.norm(pts[i] - pts[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert radius >= diam / 2.0 - 1e-12


def test_exact_meb_duplicates():
    center, radius = exact_meb_small([[1.0, 1.0], [1.0, 1.0], [3.0, 1.0]])
    assert np.allclose(center, [2.0, 1.0]) and math.isclose(radius, 1.0)


# ---------------------------------------------------------- expansion_contains


def test_expansion_contains_boundary_cases():
    ball = Ball(Center(np.array([1.0, 0.0])), 1.0)
    assert expansion_contains(ball, raw([2.05, 0.0], 0), 0.1)
    assert not expansion_contains(ball, raw([2.2, 0.0], 1), 0.1)


def test_expansion_contains_zero_radius():
    ball = Ball(Center(np.array([1.0, 2.0])), 0.0)
    assert expansion_contains(ball, raw([1.0, 2.0], 0), 0.5)
    assert not expansion_contains(ball, raw([1.0, 2.0001], 1), 0.5)
