"""Augmented-space geometry and (1+delta)-approximate minimum enclosing balls.

Each point carries a dense explicit block plus one private "slack" axis,
identified by the point id and materialized only as a scalar weight.  Ball
centers are convex combinations of such points, so a center's slack
component is a sparse map from point id to coefficient.  All slack axes are
mutually orthogonal and orthogonal to the explicit block, which keeps every
inner product computable without ever building the full-dimensional space.

``approx_meb`` runs Badoiu-Clarkson on integer pick counts (the center is
the mean of the points picked so far); ties go to the lowest point id.
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

# Above this input size the solver recomputes a step row on every pick
# instead of caching one row per distinct pick (memory cap).
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


def approx_meb(points: Sequence[AugPoint], delta: float) -> tuple[Ball, CoreSet]:
    """Badoiu-Clarkson core-set iteration with a duality-gap early exit.

    Starting from the first input point, the center repeatedly moves a
    1/(i+1) step toward the farthest input, so after n picks it is the mean
    ``P/n`` of the picks (with repetition).  The loop keeps
    ``h_k = n|p_k|^2 - 2<P, p_k>``, whose argmax is the farthest input,
    ``T = |P|^2`` and the sum ``M`` of the picked squared norms; a step adds
    one cached row ``|p|^2 - 2 K[j, :]`` to ``h``.  Ties for the farthest
    point go to the lowest id.

    The loop stops as soon as the farthest distance is within (1+delta) of
    a certified lower bound on the optimal radius, or after ceil(1/delta^2)
    steps; the classical analysis guarantees the returned radius is at most
    (1+delta) times optimal either way.  The lower bound combines half the
    first farthest-pair distance with the weak-duality value
    ``M/n - T/n^2`` of the convex weights ``counts/n``.

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
    pn2 = en2 + sw * sw if has_slack else en2

    cap = math.ceil(1.0 / (delta * delta))
    threshold = (1.0 + delta) ** 2

    # In id order np.argmax's first maximal index is the lowest id.
    order = np.argsort(ids, kind="stable")
    Es = E[order]
    sn2 = pn2[order]
    sn2_list = sn2.tolist()
    j = int(order.argmin())  # where input 0 sits in id order
    hj = 0.0

    rows: dict[int, np.ndarray] = {}
    h = np.zeros(m)
    counts = [0] * m
    selected: list[int] = []
    n = 0
    T = 0.0  # |P|^2
    M = 0.0  # sum of |p|^2 over the picks
    lower2 = 0.0
    while True:
        row = rows.get(j)
        if row is None:
            # Slack axes meet only on the diagonal, which is set to exactly
            # -|p_j|^2.  einsum sums like en2 above, so a lone point and
            # coincident points reach dmax^2 = 0 bitwise and stop at once
            # instead of running to the cap.
            row = sn2 - 2.0 * np.einsum("ij,j->i", Es, Es[j])
            row[j] = -sn2_list[j]
            if m <= _GRAM_LIMIT:
                rows[j] = row
        if counts[j] == 0:
            selected.append(j)
        counts[j] += 1
        pj = sn2_list[j]
        T += (n * pj - hj) + pj
        M += pj
        h += row
        n += 1
        if n > cap:
            break
        j = int(h.argmax())
        hj = float(h[j])
        n2 = n * n
        dmax2 = max(hj / n + T / n2, 0.0)
        if n == 1:
            # The start center is an input point, so dmax is a pairwise
            # distance and half of it lower-bounds the optimal radius.
            lower2 = 0.25 * dmax2
        lower2 = max(lower2, M / n - T / n2)
        if dmax2 <= threshold * lower2:
            break

    # Reconstruct the center exactly from the weights and measure the true
    # max distance; any drift in the incremental quantities drops out here.
    alpha = np.empty(m)
    alpha[order] = np.array(counts, dtype=float) / n
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
    core = CoreSet([points[int(order[k])] for k in selected], ball)
    return ball, core
