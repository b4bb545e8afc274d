"""Scalar reference geometry that the tests compare the library against.

The library computes distances, escape tests and scores in vectorized form
only (``BlurredBallCover.escapes``, ``Model.predict``).  This module keeps
the plain one-point, one-ball versions of the same formulas, written from
the definitions of the augmented space, the all-points-by-all-balls escape
test whose decisions ``escapes`` must repeat bit for bit, a cover that
decides each buffer by that test, and an exact minimum enclosing ball
for dimension <= 3 to measure ``approx_meb`` against.

The library's points (``AugPoint``) are a row and an id: every point of a
model sits at the model's slack weight on its own slack axis.  The formulas
here read the weight from the point instead, a ``WeightedPoint``, so they
also cover points of different weights; ``weighted`` gives a library point
its model's weight.  The library takes a ``WeightedPoint`` wherever it takes
an ``AugPoint``, since it reads only ``explicit`` and ``id``.

This module also holds the small views the tests read and the library does
not: a dense copy of a sparse vector, a point's and a center's squared norm,
a query's mapped point, a cover's list of balls and its core point ids; and
the single-pass perceptron, the baseline that the acceptance criteria and
the experiment demo score the trainer against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from bbsvm.cover import BlurredBallCover, Lookahead
from bbsvm.data import Dataset, SparseVector, TrainingExample
from bbsvm.meb import AugPoint, Ball, Center
from bbsvm.model import ModelParams, _augment

TEST_POINT_ID = -1


@dataclass(eq=False)
class WeightedPoint:
    """A point of the augmented space that carries its own slack weight: its
    coordinate on the private slack axis that ``id`` names."""

    explicit: np.ndarray
    slack_weight: float
    id: int


def weighted(p: AugPoint, params: ModelParams) -> WeightedPoint:
    """The library point ``p`` with the slack weight of its model."""
    return WeightedPoint(p.explicit, params.slack_weight, p.id)


def to_dense(x: SparseVector, dim: int) -> np.ndarray:
    """``x`` as a dense vector of length ``dim`` (index i at position i-1)."""
    out = np.zeros(dim)
    out[x.indices - 1] = x.values
    return out


def point_norm2(p: WeightedPoint) -> float:
    """Squared norm of a point: its explicit block plus its slack axis."""
    return float(p.explicit @ p.explicit) + p.slack_weight**2


def center_norm2(c: Center) -> float:
    """Squared norm of a center: its explicit block plus its slack part."""
    return float(c.explicit @ c.explicit) + c.slack_norm2


def map_test_point(x: SparseVector, params: ModelParams) -> WeightedPoint:
    """Map an unlabeled query to ``[x_hat ; 1]`` with no slack component."""
    return WeightedPoint(_augment(x, 1, params), 0.0, TEST_POINT_ID)


def balls(cover: BlurredBallCover) -> list[Ball]:
    """The retained balls, oldest first."""
    return [cs.ball for cs in cover.cores]


def core_point_ids(cover: BlurredBallCover) -> list[int]:
    """Ids of the retained core points, each once, in cover order."""
    return list(dict.fromkeys(p.id for cs in cover.cores for p in cs.members))


def inner_product(p: WeightedPoint, q: WeightedPoint) -> float:
    """Dot product in the augmented space; slack axes meet only on equal ids."""
    value = float(p.explicit @ q.explicit)
    if p.id == q.id:
        value += p.slack_weight * q.slack_weight
    return value


def center_dot(c: Center, p: WeightedPoint) -> float:
    """Dot product of a center with a point."""
    value = float(c.explicit @ p.explicit)
    coeff = c.slack_coeffs.get(p.id)
    if coeff is not None:
        value += coeff * p.slack_weight
    return value


def distance2(c: Center, p: WeightedPoint) -> float:
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
    total += c.slack_norm2 - coeff * coeff + (coeff - p.slack_weight) ** 2
    return total


def expansion_contains(b: Ball, p: WeightedPoint, eps: float) -> bool:
    """Closed membership test against the (1+eps)-expanded ball."""
    limit = (1.0 + eps) * b.radius
    return distance2(b.center, p) <= limit * limit


def support(cover: BlurredBallCover, p: WeightedPoint) -> list[Ball]:
    """Balls of the cover that contain ``p`` (closed, unexpanded radii)."""
    return [
        cs.ball
        for cs in cover.cores
        if distance2(cs.ball.center, p) <= cs.ball.radius**2
    ]


def score(cover: BlurredBallCover, p: WeightedPoint) -> float:
    """Sum of ``p``'s signed distances to the separators of its support.

    Each supporting ball contributes ``p . c / |c|``; a supporting ball with
    a zero-norm center has no separator and contributes nothing.
    """
    total = 0.0
    for ball in support(cover, p):
        norm2 = center_norm2(ball.center)
        if norm2 > 0.0:
            total += center_dot(ball.center, p) / math.sqrt(norm2)
    return total


def escape_distances(
    cover: BlurredBallCover, pts: Sequence[WeightedPoint]
) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances (points, balls) of fresh points to every retained
    center, and the squared (1+eps)-expanded radii, as one 3-D broadcast.

    This is the cover's former vectorized escape test: the slack cross term
    is dropped, which is exact for ids that no core member carries.
    """
    centers, center_slack2, radii = cover.query_arrays()
    limits = (1.0 + cover.params.epsilon) * radii
    P = np.stack([p.explicit for p in pts])
    sw = np.array([p.slack_weight for p in pts])
    d2 = ((P[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    d2 += center_slack2[None, :]
    d2 += (sw * sw)[:, None]
    return d2, limits * limits


def escape_mask(cover: BlurredBallCover, pts: Sequence[WeightedPoint]) -> np.ndarray:
    """Per point: outside every (1+eps)-expanded retained ball."""
    d2, limits2 = escape_distances(cover, pts)
    return (d2 > limits2[None, :]).all(axis=1)


class EscapeMaskCover(BlurredBallCover):
    """The cover with the reference buffer decision: merge iff the cover is
    empty or ``escape_mask`` puts some pending point outside every ball."""

    def _process(self, buffer: Lookahead) -> bool:
        pending = buffer.pending
        merged = self.query_arrays() is None or bool(
            escape_mask(self, [weighted(p, self.params) for p in pending]).any()
        )
        if merged:
            self.merge_update(pending)
        pending.clear()
        return merged


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


def perceptron_stream(
    train: Iterable[TrainingExample], test: Dataset, dim: int | None = None
) -> float:
    """Single-pass mistake-driven perceptron baseline; returns test accuracy.

    ``train`` is read once, so a one-pass iterator works; with ``dim=None``
    it is held in a list to infer the dimension before training.

    Rows are mapped by ``map_test_point`` to ``[x_hat ; 1]``; a row it
    rejects (NaN, infinite or zero) raises ``ValueError`` naming it, as
    ``training example N: ...`` or ``test example N: ...``.  A prediction
    of exactly zero counts as a mistake during training and is reported as
    +1 at test time.
    """
    if not test.examples:
        raise ValueError("perceptron_stream requires a nonempty test set")
    if dim is None:
        train = list(train)
        dim = test.dim
        for ex in train:
            if ex.x.indices.size:
                dim = max(dim, int(ex.x.indices[-1]))
    params = ModelParams(dim=dim)

    def mapped(what: str, position: int, x) -> np.ndarray:
        try:
            return map_test_point(x, params).explicit
        except ValueError as err:
            raise ValueError(f"{what} example {position}: {err}") from err

    w = np.zeros(dim + 1)
    for position, ex in enumerate(train):
        xt = mapped("training", position, ex.x)
        if ex.y * float(w @ xt) <= 0.0:
            w += ex.y * xt
    correct = 0
    for position, ex in enumerate(test.examples):
        value = float(w @ mapped("test", position, ex.x))
        correct += (-1 if value < 0.0 else 1) == ex.y
    return correct / len(test.examples)
