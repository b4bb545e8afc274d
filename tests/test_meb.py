import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbsvm.meb import AugPoint, Ball, Center, approx_meb
from oracle import (
    distance2,
    exact_meb_small,
    expansion_contains,
    inner_product,
    reference_badoiu_clarkson,
)


def raw(vec, pid, sw=0.0, label=None):
    return AugPoint(np.asarray(vec, dtype=float), sw, pid, label=label)


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
    ball, core = approx_meb([p], 0.1)
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
    ball, core = approx_meb(pts, 0.01)
    assert set(ball.center.slack_coeffs) == {p.id for p in core.members}
    farthest2 = max(distance2(ball.center, p) for p in pts)
    assert math.isclose(ball.radius**2, farthest2, rel_tol=1e-12)


def test_approx_meb_finite_slack_center_combination():
    # Center slack coefficients follow the convex weights of the members.
    pts = [raw([1.0, 0.0, 1.0], 0, sw=1.0), raw([-1.0, 0.0, -1.0], 1, sw=1.0)]
    ball, _ = approx_meb(pts, 0.01)
    coeffs = ball.center.slack_coeffs
    assert set(coeffs) == {0, 1}
    assert math.isclose(coeffs[0], 0.5, rel_tol=1e-9)
    assert math.isclose(coeffs[1], 0.5, rel_tol=1e-9)
    assert all(v != 0.0 for v in coeffs.values())
    # both points end up equidistant from the center
    d0, d1 = distance2(ball.center, pts[0]), distance2(ball.center, pts[1])
    assert math.isclose(d0, d1, rel_tol=1e-9)


def test_approx_meb_walks_the_reference_iterates():
    # Seeded draws rather than hypothesis: exactly symmetric inputs tie,
    # and rounding may break such a tie differently in the two loops.
    rng = np.random.default_rng(2024)
    for instance in range(200):
        dim = int(rng.integers(2, 26))
        m = int(rng.integers(1, 81))
        vecs = rng.normal(size=(m, dim))
        ids = rng.permutation(4 * m)[:m]
        sw = 0.5 if instance % 2 else 0.0
        delta = (0.1, 0.01, 0.003)[instance % 3]
        pts = [raw(v, int(i), sw=sw) for v, i in zip(vecs, ids)]
        ball, core = approx_meb(pts, delta)
        want_ball, want_core = reference_badoiu_clarkson(pts, delta)
        assert [p.id for p in core.members] == [p.id for p in want_core.members], (
            f"instance {instance}"
        )
        assert math.isclose(ball.radius, want_ball.radius, rel_tol=1e-12), (
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
        ball, core = approx_meb(pts, 1e-4)
        assert ball.radius == 0.0
        assert np.array_equal(ball.center.explicit, vec)
        assert [p.id for p in core.members] == [10]
    assert time.perf_counter() - start < 0.5


def test_approx_meb_ties_go_to_the_lowest_id():
    # From the start point both others are exactly equally far.
    pts = [raw([0.0, 0.0], 5), raw([1.0, 0.0], 9), raw([-1.0, 0.0], 2)]
    _, core = approx_meb(pts, 0.1)
    assert [p.id for p in core.members] == [5, 2, 9]


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
