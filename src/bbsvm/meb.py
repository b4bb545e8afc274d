"""Augmented-space geometry and (1+delta)-approximate minimum enclosing balls.

Each point carries a dense explicit block plus one private "slack" axis,
identified by the point id and materialized only as a scalar weight.  Ball
centers are convex combinations of such points, so a center's slack
component is a sparse map from point id to coefficient.  All slack axes are
mutually orthogonal and orthogonal to the explicit block, which keeps every
inner product computable without ever building the full-dimensional space.
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

# Never cache the Gram matrix above this input size (memory cap); below it
# the solver still weighs the build cost against the expected loop length.
_GRAM_LIMIT = 2048


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

    def norm2(self) -> float:
        return float(self.explicit @ self.explicit) + self.slack_weight**2


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


def _farthest(d2: np.ndarray, ids: np.ndarray) -> int:
    """Index of the max entry; ties broken toward the lowest id."""
    j = int(np.argmax(d2))
    ties = np.flatnonzero(d2 == d2[j])
    if ties.size > 1:
        j = int(ties[np.argmin(ids[ties])])
    return j


def approx_meb(points: Sequence[AugPoint], delta: float) -> tuple[Ball, CoreSet]:
    """Badoiu-Clarkson core-set iteration with a duality-gap early exit.

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
