"""Augmented-space geometry and (1+delta)-approximate minimum enclosing balls.

Each point carries a dense explicit block plus one private "slack" axis,
identified by the point id and materialized only as a scalar weight.  Ball
centers are convex combinations of such points, so a center's slack
component is a sparse map from point id to coefficient.  All slack axes are
mutually orthogonal and orthogonal to the explicit block, which keeps every
inner product computable without ever building the full-dimensional space.

``approx_meb`` is the core-set method of Kumar, Mitchell and Yildirim: add
the farthest input, then solve the MEB dual exactly on the points added so
far, here by a primal active-set method; ties go to the lowest point id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "AugPoint",
    "Ball",
    "Center",
    "CoreSet",
    "approx_meb",
]

@dataclass(eq=False)
class AugPoint:
    """A point of the augmented space: dense block plus one slack axis.

    ``explicit`` holds the block ``[y * x_hat ; y]`` for mapped training
    points (any dense vector for raw geometry).  ``slack_weight`` is the
    coordinate along the point's private slack axis: 1/sqrt(C) for training
    points under a finite soft-margin penalty, 0 for test points and for
    C = inf.  ``id`` names the slack axis; training ids are unique
    nonnegative stream indices, test points use -1.
    """

    explicit: np.ndarray
    slack_weight: float
    id: int
    label: int | None = None


@dataclass(eq=False)
class Center:
    """Ball center: explicit vector plus coefficients on point slack axes."""

    explicit: np.ndarray
    slack_coeffs: dict[int, float] = field(default_factory=dict)

    def slack_norm2(self) -> float:
        return sum(v * v for v in self.slack_coeffs.values())

    def norm2(self) -> float:
        return float(self.explicit @ self.explicit) + self.slack_norm2()


@dataclass(eq=False)
class Ball:
    center: Center
    radius: float


@dataclass(eq=False)
class CoreSet:
    """The witness points whose convex combination defines a ball's center."""

    members: list[AugPoint]
    ball: Ball


def approx_meb(points: Sequence[AugPoint], delta: float) -> tuple[Ball, CoreSet]:
    """Core-set MEB by a primal active-set method, with a duality-gap stop.

    The dual is ``max q.a - a.K.a`` over the simplex, with ``K`` the Gram
    matrix of the inputs and ``q`` its diagonal; the center is ``sum a_i
    p_i``.  Starting from the first input point, each step adds the
    farthest input to the active set ``A`` and solves the bordered KKT
    system ``[[0, 1'], [1, 2 K_AA]]`` for the weights that put every active
    point at one distance from the center.  When a weight would turn
    non-positive, a ratio test stops on the segment from the old weights
    and drops that point.  The inverse of the bordered matrix is kept up to
    date by Schur complements, and only the active points' Gram rows are
    kept, so a step costs O(|A|^2 + |A| m) and one new Gram row.  Ties
    for the farthest point go to the lowest id.  ``K_AA`` carries a ridge
    ``lam`` on its diagonal, which is the same as giving every point a
    private axis of length ``sqrt(lam)``, so every active set is affinely
    independent; at ``lam = 1e-3 * delta * dmax0^2 / 4`` (``dmax0`` the
    first farthest distance) the farthest input is already active only
    once the certificate holds.

    The loop stops as soon as the farthest distance is within (1+delta) of
    a certified lower bound on the optimal radius, or after ceil(1/delta^2)
    steps.  The lower bound combines half the first farthest-pair distance
    with the weak-duality value ``q.a - a.K.a = sum a_i d_i^2`` of the
    current weights, ``d_i`` the distance of input ``i`` from the center.

    Returns the ball (radius = exact max distance from the final center to
    any input, so containment holds by construction) and the core set: the
    active points, in order of entry, each with a positive weight.
    """
    m = len(points)
    if m == 0:
        raise ValueError("approx_meb requires at least one point")
    if delta <= 0.0:
        raise ValueError("delta must be positive")

    # In id order np.argmax's first maximal index is the lowest id.
    order = np.argsort([p.id for p in points], kind="stable")
    E = np.stack([np.asarray(points[k].explicit, dtype=float) for k in order])
    sw = np.array([points[k].slack_weight for k in order], dtype=float)
    sw2 = sw * sw
    start = int(order.argmin())  # where input 0 sits in id order
    # The Gram matrix of the inputs less the start point: the MEB moves with
    # a translation, and differences keep the distances accurate for a ball
    # much smaller than |p|.  Copies of the start point get rows of exact
    # zeros, so a lone point and coincident points stop at once.
    D = E - E[start]
    D2 = 2.0 * D
    q = np.einsum("ij,ij->i", D, D) + sw2

    def gram_row(j: int) -> np.ndarray:
        # 2 K[j, :].  Slack axes meet only on the diagonal, 2 q[j].
        row = D @ D2[j]
        row[j] = 2.0 * q[j]
        return row

    cap = math.ceil(1.0 / (delta * delta))
    threshold = (1.0 + delta) ** 2

    act = np.array([start])
    alpha = np.ones(1)
    # Row 0 is the border of the KKT matrix, row 1 + i the active point i's
    # Gram row times 2, so column j holds the border entries of input j.
    rows = np.ones((5, m))
    rows[1] = gram_row(start)
    H = None  # inverse of the bordered KKT matrix of the active set
    lower2 = 0.0
    steps = 0
    while True:
        g = alpha @ rows[1 : len(act) + 1]  # 2 K a
        c2 = 0.5 * float(alpha @ g[act])  # |c|^2
        h = q - g  # d_i^2 - |c|^2
        j = int(h.argmax())
        dmax2 = max(float(h[j]) + c2, 0.0)
        if H is None:
            # The start center is an input point, so dmax is a pairwise
            # distance and half of it lower-bounds the optimal radius.
            lower2 = 0.25 * dmax2
            lam = 1e-3 * delta * lower2
            H = np.array([[-2.0 * (q[start] + lam), 1.0], [1.0, 0.0]])
        lower2 = max(lower2, float(alpha @ q[act]) - c2)
        if dmax2 <= threshold * lower2 or steps == cap:
            break
        steps += 1

        # Border the system with j: H gains s * w w' with w = [H v; -1].
        n = len(act)
        if n + 1 == len(rows):
            rows = np.concatenate((rows, np.empty_like(rows[1:])))
        rows[n + 1] = gram_row(j)
        v = rows[: n + 1, j]
        w = np.append(H @ v, -1.0)
        s = 1.0 / (2.0 * (q[j] + lam) - float(v @ w[:-1]))
        grown = np.zeros((n + 2, n + 2))
        grown[:-1, :-1] = H
        grown += np.outer(s * w, w)
        H = grown
        act = np.append(act, j)
        if n == 1:
            # The MEB of two points is their midpoint.  Exact halves give a
            # pair p, -p (a contradicting hard-margin pair) the zero center.
            alpha = np.array([0.5, 0.5])
            continue
        alpha = np.append(alpha, 0.0)
        while True:
            target = H[1:, 0] + H[1:, 1:] @ q[act]
            out = np.flatnonzero(target <= 0.0)
            if out.size == 0:
                alpha = target
                break
            ratios = alpha[out] / (alpha[out] - target[out])
            k = int(out[ratios.argmin()])
            alpha = np.delete(alpha + float(ratios.min()) * (target - alpha), k)
            col = H[:, k + 1]
            H = H - np.outer(col, col / col[k + 1])
            H = np.delete(np.delete(H, k + 1, 0), k + 1, 1)
            rows[k + 1 : len(act)] = rows[k + 2 : len(act) + 1]
            act = np.delete(act, k)

    # Reconstruct the center from the weights and measure the exact max
    # distance; any drift in the Gram-form distances drops out here.
    a = alpha / alpha.sum()
    cs = a * sw[act]
    ce = E[start] + a @ D[act]
    diff = E - ce
    d2 = np.einsum("ij,ij->i", diff, diff) + (float(cs @ cs) + sw2)
    d2[act] -= 2.0 * cs * sw[act]
    members = [points[k] for k in order[act]]
    coeffs = {p.id: float(c) for p, c in zip(members, cs) if c != 0.0}
    ball = Ball(Center(ce, coeffs), math.sqrt(max(float(d2.max()), 0.0)))
    return ball, CoreSet(members, ball)
