"""Scalar reference geometry that the tests compare the library against.

The library computes distances, escape tests and scores in vectorized form
only (``BlurredBallCover.escapes``, ``Model.predict``).  This module keeps
the plain one-point, one-ball versions of the same formulas, written from
the definitions of the augmented space, the all-points-by-all-balls escape
test whose decisions ``escapes`` must repeat bit for bit, an exact minimum
enclosing ball for dimension <= 3 to measure ``approx_meb`` against, and
the rescaling Badoiu-Clarkson loop that ``approx_meb`` must walk step for
step.  It also holds the small views the tests read and the library does
not: a dense copy of a sparse vector, a point's squared norm and a cover's
list of balls.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from bbsvm.cover import BlurredBallCover
from bbsvm.data import SparseVector
from bbsvm.meb import AugPoint, Ball, Center, CoreSet


def to_dense(x: SparseVector, dim: int) -> np.ndarray:
    """``x`` as a dense vector of length ``dim`` (index i at position i-1)."""
    out = np.zeros(dim)
    out[x.indices - 1] = x.values
    return out


def point_norm2(p: AugPoint) -> float:
    """Squared norm of a point: its explicit block plus its slack axis."""
    return float(p.explicit @ p.explicit) + p.slack_weight**2


def balls(cover: BlurredBallCover) -> list[Ball]:
    """The retained balls, oldest first."""
    return [cs.ball for cs in cover.cores]


def inner_product(p: AugPoint, q: AugPoint) -> float:
    """Dot product in the augmented space; slack axes meet only on equal ids."""
    value = float(p.explicit @ q.explicit)
    if p.id == q.id:
        value += p.slack_weight * q.slack_weight
    return value


def center_dot(c: Center, p: AugPoint) -> float:
    """Dot product of a center with a point."""
    value = float(c.explicit @ p.explicit)
    coeff = c.slack_coeffs.get(p.id)
    if coeff is not None:
        value += coeff * p.slack_weight
    return value


def distance2(c: Center, p: AugPoint) -> float:
    """Squared distance from a center to a point.

    Slack coefficients on axes other than ``p.id`` contribute their squares;
    the ``p.id`` axis contributes ``(coeff - slack_weight)**2``.
    """
    if c.explicit.shape != p.explicit.shape:
        raise ValueError(
            f"dimension mismatch: center has {c.explicit.shape[0]}, "
            f"point has {p.explicit.shape[0]}"
        )
    diff = c.explicit - p.explicit
    total = float(diff @ diff)
    coeff = c.slack_coeffs.get(p.id, 0.0)
    total += c.slack_norm2() - coeff * coeff + (coeff - p.slack_weight) ** 2
    return total


def expansion_contains(b: Ball, p: AugPoint, eps: float) -> bool:
    """Closed membership test against the (1+eps)-expanded ball."""
    limit = (1.0 + eps) * b.radius
    return distance2(b.center, p) <= limit * limit


def support(cover: BlurredBallCover, p: AugPoint) -> list[Ball]:
    """Balls of the cover that contain ``p`` (closed, unexpanded radii)."""
    return [
        cs.ball
        for cs in cover.cores
        if distance2(cs.ball.center, p) <= cs.ball.radius**2
    ]


def score(cover: BlurredBallCover, p: AugPoint) -> float:
    """Sum of ``p``'s signed distances to the separators of its support.

    Each supporting ball contributes ``p . c / |c|``; a supporting ball with
    a zero-norm center has no separator and contributes nothing.
    """
    total = 0.0
    for ball in support(cover, p):
        norm2 = ball.center.norm2()
        if norm2 > 0.0:
            total += center_dot(ball.center, p) / math.sqrt(norm2)
    return total


def escape_distances(
    cover: BlurredBallCover, pts: Sequence[AugPoint]
) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances (points, balls) of fresh points to every retained
    center, and the squared (1+eps)-expanded radii, as one 3-D broadcast.

    This is the cover's former vectorized escape test: the slack cross term
    is dropped, which is exact for ids that no core member carries.
    """
    centers, center_slack2, radii = cover.query_arrays()
    limits = (1.0 + cover.epsilon) * radii
    P = np.stack([p.explicit for p in pts])
    sw = np.array([p.slack_weight for p in pts])
    d2 = ((P[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    d2 += center_slack2[None, :]
    d2 += (sw * sw)[:, None]
    return d2, limits * limits


def escape_mask(cover: BlurredBallCover, pts: Sequence[AugPoint]) -> np.ndarray:
    """Per point: outside every (1+eps)-expanded retained ball."""
    d2, limits2 = escape_distances(cover, pts)
    return (d2 > limits2[None, :]).all(axis=1)


_combo_cache: dict[tuple[int, int], np.ndarray] = {}


def _combinations(n: int, k: int) -> np.ndarray:
    """Index array of all k-subsets of range(n), cached."""
    key = (n, k)
    if key not in _combo_cache:
        _combo_cache[key] = np.array(
            list(itertools.combinations(range(n), k)), dtype=np.intp
        )
    return _combo_cache[key]


def _hull_vertices(pts: np.ndarray) -> np.ndarray:
    """Indices of convex-hull vertices (all indices when the hull degenerates)."""
    n, d = pts.shape
    if d < 2 or n <= d + 2:
        return np.arange(n)
    try:
        from scipy.spatial import ConvexHull

        return np.sort(ConvexHull(pts).vertices)
    except Exception:  # degenerate (flat) inputs: fall back to everything
        return np.arange(n)


def _circumcenters(subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers of the smallest balls having each point subset on the boundary.

    ``subsets`` has shape (N, k, d).  Returns the (N, d) centers and a mask
    of the affinely independent subsets for which the center is defined.
    """
    p0 = subsets[:, 0, :]
    U = subsets[:, 1:, :] - p0[:, None, :]
    A = U @ np.transpose(U, (0, 2, 1))
    rn2 = np.einsum("nij,nij->ni", U, U)
    b = 0.5 * rn2
    det = np.linalg.det(A)
    ok = np.abs(det) > 1e-12 * np.maximum(rn2.prod(axis=1), 1e-300)
    centers = np.array(p0, copy=True)
    if ok.any():
        beta = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
        centers[ok] = p0[ok] + np.einsum("ni,nid->nd", beta, U[ok])
    return centers, ok


def exact_meb_small(points) -> tuple[np.ndarray, float]:
    """Exact minimum enclosing ball of raw vectors in dimension <= 3.

    Every minimum enclosing ball is determined by an affinely independent
    set of at most dim+1 boundary points, so enumerating the circumsphere of
    every such subset (restricted to convex-hull vertices, which is where
    boundary points live) and keeping the smallest enclosing candidate is
    exact.  Intended as a test oracle; cost grows combinatorially with the
    hull size.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, d = pts.shape
    if n == 0:
        raise ValueError("exact_meb_small requires at least one point")
    if d > 3:
        raise ValueError("exact_meb_small supports dimension <= 3 only")

    uniq = np.unique(pts, axis=0)
    if len(uniq) == 1:
        return uniq[0].copy(), 0.0

    hull = _hull_vertices(uniq)
    un2 = np.einsum("nd,nd->n", uniq, uniq)
    best_center: np.ndarray | None = None
    best_r2 = math.inf
    for k in range(2, min(len(hull), d + 1) + 1):
        combos = _combinations(len(hull), k)
        subsets = uniq[hull[combos]]
        centers, ok = _circumcenters(subsets)
        diff = centers - subsets[:, 0, :]
        r2 = np.einsum("nd,nd->n", diff, diff)
        cn2 = np.einsum("nd,nd->n", centers, centers)
        dist2_max = (cn2[:, None] + un2[None, :] - 2.0 * (centers @ uniq.T)).max(axis=1)
        encloses = dist2_max <= r2 * (1.0 + 1e-10) + 1e-12 * cn2
        valid = ok & encloses
        if valid.any():
            idx = np.flatnonzero(valid)
            pick = idx[int(np.argmin(r2[idx]))]
            if r2[pick] < best_r2:
                best_r2 = float(r2[pick])
                best_center = centers[pick].copy()
    if best_center is None:  # unreachable for nondegenerate inputs
        raise RuntimeError("no enclosing candidate found")
    return best_center, math.sqrt(best_r2)


# Input size above which the reference stops caching its Gram matrix.
_GRAM_LIMIT = 2048


def _farthest(d2: np.ndarray, ids: np.ndarray) -> int:
    """Index of the max entry; ties broken toward the lowest id."""
    j = int(np.argmax(d2))
    ties = np.flatnonzero(d2 == d2[j])
    if ties.size > 1:
        j = int(ties[np.argmin(ids[ties])])
    return j


def reference_badoiu_clarkson(
    points: Sequence[AugPoint], delta: float
) -> tuple[Ball, CoreSet]:
    """Badoiu-Clarkson core-set iteration with a duality-gap early exit.

    The same iteration in its rescaling form: every maintained vector is
    rescaled on each 1/(i+1) step.  ``approx_meb`` must pick the same points.

    Starting from the first input point, the center repeatedly moves a
    1/(i+1) step toward the farthest input.  The loop stops as soon as the
    farthest distance is within (1+delta) of a certified lower bound on the
    optimal radius, or after ceil(1/delta^2) steps; the classical analysis
    guarantees the returned radius is at most (1+delta) times optimal either
    way.  The lower bound combines half the first farthest-pair distance
    with the weak-duality value ``sum_i a_i |p_i|^2 - |c|^2`` of the
    maintained convex weights ``a``.

    Returns the ball (radius = exact max distance from the final center to
    any input, so containment holds by construction) and the core set of
    points selected along the way, in selection order.

    Slack bookkeeping runs only when some input has a nonzero slack weight;
    with all slack weights zero it would add zeros and cost time.
    """
    m = len(points)
    if m == 0:
        raise ValueError("approx_meb requires at least one point")
    if delta <= 0.0:
        raise ValueError("delta must be positive")

    E = np.stack([np.asarray(p.explicit, dtype=float) for p in points])
    sw = np.array([p.slack_weight for p in points], dtype=float)
    ids = np.array([p.id for p in points], dtype=np.int64)
    has_slack = bool(np.any(sw != 0.0))

    en2 = np.einsum("ij,ij->i", E, E)
    sw2 = sw * sw
    pn2 = en2 + sw2 if has_slack else en2

    cap = math.ceil(1.0 / (delta * delta))
    threshold = (1.0 + delta) ** 2

    alpha = np.zeros(m)
    alpha[0] = 1.0
    selected = [0]
    is_member = np.zeros(m, dtype=bool)
    is_member[0] = True

    # A cached Gram matrix turns each iteration from O(m * dim) into O(m),
    # but costs O(m^2 * dim) to build; only worth it when the loop is long.
    gram = m <= _GRAM_LIMIT and min(cap, int(3.0 / delta) + 1) > m
    if gram:
        G = E @ E.T
        # q[j] = <center, p_j>, maintained incrementally.
        q = G[0].copy()
        if has_slack:
            q[0] += sw2[0]
        c2 = float(pn2[0])
        m2 = float(pn2[0])
    else:
        ce = E[0].copy()

    lower2 = 0.0
    for i in range(1, cap + 1):
        if not gram:
            q = E @ ce
            c2 = float(ce @ ce)
            if has_slack:
                q = q + alpha * sw2
                cs = alpha * sw
                c2 += float(cs @ cs)
            m2 = float(alpha @ pn2)
        d2 = c2 + pn2 - 2.0 * q
        j = _farthest(d2, ids)
        dmax2 = max(float(d2[j]), 0.0)
        if i == 1:
            # The start center is an input point, so dmax is a pairwise
            # distance and half of it lower-bounds the optimal radius.
            lower2 = max(lower2, 0.25 * dmax2)
        lower2 = max(lower2, m2 - c2)
        if dmax2 <= threshold * lower2:
            break
        gamma = 1.0 / (i + 1.0)
        if gram:
            if has_slack and sw2[j] != 0.0:
                kcol = G[j].copy()
                kcol[j] += sw2[j]
            else:
                kcol = G[j]
            c2 = (
                (1.0 - gamma) ** 2 * c2
                + 2.0 * gamma * (1.0 - gamma) * float(q[j])
                + gamma * gamma * float(pn2[j])
            )
            q = (1.0 - gamma) * q + gamma * kcol
            m2 = (1.0 - gamma) * m2 + gamma * float(pn2[j])
        else:
            ce = (1.0 - gamma) * ce + gamma * E[j]
        alpha *= 1.0 - gamma
        alpha[j] += gamma
        if not is_member[j]:
            is_member[j] = True
            selected.append(j)

    # Reconstruct the center exactly from the weights and measure the true
    # max distance; any drift in the incremental quantities drops out here.
    ce = alpha @ E
    diff = E - ce
    d2 = np.einsum("ij,ij->i", diff, diff)
    if has_slack:
        cs = alpha * sw
        d2 = d2 + float(cs @ cs) - cs * cs + (cs - sw) ** 2
        coeffs = {
            int(ids[k]): float(cs[k]) for k in np.flatnonzero(cs != 0.0)
        }
    else:
        coeffs = {}
    radius = math.sqrt(max(float(d2.max()), 0.0))
    ball = Ball(Center(ce, coeffs), radius)
    core = CoreSet([points[k] for k in selected], ball)
    return ball, core
