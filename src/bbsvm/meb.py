"""Augmented-space geometry and (1+delta)-approximate minimum enclosing balls.

Each point carries a dense explicit block plus one private "slack" axis,
identified by the point id, where it sits at its solve's slack weight.  Ball
centers are convex combinations of such points, so a center's slack
component is a sparse map from point id to coefficient.  All slack axes are
mutually orthogonal and orthogonal to the explicit block, which keeps every
inner product computable without ever building the full-dimensional space.

``approx_meb`` is the core-set method of Kumar, Mitchell and Yildirim: add
the farthest input, then solve the MEB dual exactly on the points added so
far, here by a primal active-set method; ties go to the lowest point id.
It starts from the first input, or warm from given inputs (a ball's core).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["AugPoint", "Ball", "Center", "CoreSet", "approx_meb"]

@dataclass(eq=False, slots=True)
class AugPoint:
    """A point of the augmented space: dense block plus one slack axis.

    ``explicit`` holds the block ``[y * x_hat ; y]`` for mapped training
    points (any dense vector for raw geometry), so a training point's label
    is its last coordinate.  ``id`` names the point's private slack axis,
    where every point of a model sits at the model's slack weight (see
    ``approx_meb``); training ids are unique nonnegative stream indices, test
    points use -1.
    """

    explicit: np.ndarray
    id: int


@dataclass(eq=False)
class Center:
    """Ball center: explicit vector plus coefficients on point slack axes."""

    explicit: np.ndarray
    slack_coeffs: dict[int, float] = field(default_factory=dict)
    slack_norm2: float = field(init=False)  # squared norm of the slack part

    def __post_init__(self):  # the coefficients never change: sum them once
        self.slack_norm2 = sum(v * v for v in self.slack_coeffs.values())


@dataclass(eq=False)
class Ball:
    center: Center
    radius: float


@dataclass(eq=False)
class CoreSet:
    """The witness points whose convex combination defines a ball's center."""

    members: list[AugPoint]
    ball: Ball


def approx_meb(
    points: Sequence[AugPoint], delta: float, slack_weight: float = 0.0,
    warm: Sequence[AugPoint] | None = None,
) -> tuple[Ball, CoreSet]:
    """Core-set MEB by a primal active-set method, with a duality-gap stop.

    Every input sits at ``slack_weight`` on its own slack axis: 1/sqrt(C)
    for training points, 0 for C = inf and for raw geometry.  The dual is
    ``max q.a - a.K.a`` over the simplex, with ``K`` the Gram matrix of the
    inputs and ``q`` its diagonal; the center is ``c = sum a_i p_i``.
    Starting from the first input point, each step adds the farthest input
    to the active set ``A`` and solves the bordered KKT system ``[[0, 1'],
    [1, 2 K_AA]]`` for the weights that put every active point at one
    distance from the center.  When a weight would turn non-positive, a
    ratio test stops on the segment from the old weights and drops that
    point.  The state is ``A``, its weights and the bordered matrix's
    inverse, updated in place by Schur complements; distances come from the
    center (``2 K a`` is the inputs times ``2 c``), so a step costs O(m d +
    |A| d + |A|^2).  Ties for the farthest point go to the lowest id.
    ``K_AA`` carries a ridge ``lam = 1e-3 * delta * dmax0^2 / 4`` (``dmax0``
    the farthest distance from the first input), as if every point had a
    private axis of length ``sqrt(lam)``, so every active set is affinely
    independent.  When rounding in the inverse puts an active input
    farthest, or gives the entering one no positive weight, the inverse is
    rebuilt on ``A``; if the next step fails alike, the loop stops.

    ``warm`` lists inputs, matched by id (else ``ValueError``).  If two or
    more get positive weights from one KKT solve, the loop starts from them;
    once it stops on the certificate, it drops the lightest active point
    while all weights stay positive and certify the bound on their own.

    The loop stops as soon as the farthest distance is within (1+delta) of
    a certified lower bound on the optimal radius, or after ceil(1/delta^2)
    steps.  The lower bound combines ``dmax0 / 2`` (from any point of the
    inputs' hull, such as the first input, the farthest input is at most
    twice the optimal radius away) with the weak-duality value ``q.a -
    a.K.a = sum a_i d_i^2`` of the current weights normalised to sum to 1,
    ``d_i`` the distance of input ``i`` from the center.

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
    ids = np.array([p.id for p in points])
    order = np.argsort(ids, kind="stable")
    E = np.array([points[k].explicit for k in order], dtype=float)
    sw2 = slack_weight * slack_weight
    start = int(order.argmin())  # where input 0 sits in id order
    # The inputs less the start point: the MEB moves with a translation, and
    # differences keep the distances accurate for a ball much smaller than
    # |p|.  Copies of the start point become exact zeros, so a lone point
    # and coincident points stop at once.
    D = E - E[start]
    D2 = 2.0 * D
    q = np.einsum("ij,ij->i", D, D) + sw2

    def gap(a: np.ndarray, A: np.ndarray) -> tuple[int, float, float]:
        # Weights a on inputs A: the farthest input, dmax^2, sum a_i d_i^2.
        g = D2 @ (a @ D.take(A, axis=0))  # 2 K a; slack axes meet only on the diagonal
        if sw2:  # 0 at C = inf, where the diagonal adds only zeros
            g[A] += 2.0 * sw2 * a
        c2 = 0.5 * float(a @ g[A])  # |c|^2
        h = q - g  # d_i^2 - |c|^2
        j = int(h.argmax())
        return j, max(float(h[j]) + c2, 0.0), float(a @ q[A]) - c2

    def kkt(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The inverse of the bordered KKT system [[0, 1'], [1, 2 K_WW]],
        # ridge on the diagonal, and the weights it gives W.
        M = np.ones((len(W) + 1, len(W) + 1))
        M[0, 0], M[1:, 1:] = 0.0, D2[W] @ D[W].T
        M[1:, 1:].flat[:: len(W) + 1] = 2.0 * (q[W] + lam)
        Hw = np.linalg.inv(M)
        return Hw, Hw[1:] @ np.concatenate(([1.0], q[W]))

    def drop(k: int, n: int) -> np.ndarray:
        # Take act[k] out of the n active points (a rank-one downdate of H,
        # later entries shift down); return the rest's KKT weights.
        col = H[: n + 1, k + 1].copy()
        H[: n + 1, : n + 1] -= col[:, None] * (col / col[k + 1])
        H[k + 1 : n, : n + 1] = H[k + 2 : n + 1, : n + 1]
        H[:n, k + 1 : n] = H[:n, k + 2 : n + 1]
        act[k : n - 1], alpha[k : n - 1] = act[k + 1 : n], alpha[k + 1 : n]
        return H[1:n, 0] + H[1:n, 1:n] @ q[act[: n - 1]]

    cap = math.ceil(1.0 / (delta * delta))
    threshold = (1.0 + delta) ** 2
    # From the start point dmax0 is a pairwise distance, so half of it
    # lower-bounds the optimal radius.
    d0 = np.where(np.arange(m) == start, 0.0, q + q[start])
    lower0 = lower2 = 0.25 * float(d0.max())
    lam = 1e-3 * delta * lower0

    init = [start], [1.0], [[-2.0 * (q[start] + lam), 1.0], [1.0, 0.0]]
    if warm and lam > 0.0:  # lam = 0: every input is the start point
        wanted = list(dict.fromkeys(p.id for p in warm))  # each id once, in order
        W = np.searchsorted(ids[order], wanted)
        missing = [i for i, k in zip(wanted, W) if k == m or ids[order[k]] != i]
        if missing:
            raise ValueError(f"warm ids {missing} are not among the inputs")
        Hw, aw = kkt(W)
        if len(W) >= 2 and (aw > 0.0).all():
            init = W, aw, Hw
    # Active points act[:n], weights alpha[:n], inverse KKT H[: n + 1, : n + 1].
    n = len(init[0])
    warmed, size = n > 1, max(4, 2 * n)  # room to add points before doubling
    act, alpha, H = np.empty(size, np.intp), np.empty(size), np.empty((size + 1,) * 2)
    act[:n], alpha[:n], H[: n + 1, : n + 1] = init
    steps, rebuilt = 0, False
    while True:
        j, dmax2, dual = gap(alpha[:n] / alpha[:n].sum(), act[:n])
        lower2 = max(lower2, dual)
        if dmax2 <= threshold * lower2 or steps == cap:
            break
        steps += 1
        fresh = j not in act[:n].tolist()  # faster than NumPy's `in` here
        if fresh:
            if n == len(act):  # double the buffers
                act, alpha = np.resize(act, 2 * n), np.resize(alpha, 2 * n)
                H = np.pad(H, (0, n))
            # Border the system with j: H gains s * w w' with w = [H v; -1].
            v = np.concatenate(([1.0], np.dot(D.take(act[:n], axis=0), D2[j])))
            w = np.concatenate((H[: n + 1, : n + 1] @ v, [-1.0]))
            s = 1.0 / (2.0 * (q[j] + lam) - float(v @ w[:-1]))
            H[n + 1, : n + 2] = H[: n + 1, n + 1] = 0.0
            H[: n + 2, : n + 2] += (s * w)[:, None] * w  # np.outer(s * w, w)
            act[n] = j
            n += 1
            if n == 2:
                # The MEB of two points is their midpoint.  Exact halves give a
                # pair p, -p (a contradicting hard-margin pair) the zero center.
                alpha[:2], rebuilt = 0.5, False
                continue
            alpha[n - 1] = 0.0
            target = H[1 : n + 1, 0] + H[1 : n + 1, 1 : n + 1] @ q[act[:n]]
        stuck = not fresh or target[-1] <= 0.0
        if stuck:
            # In exact arithmetic j is outside A and gets a positive weight, so
            # H has drifted: rebuild it on A less j; after a rebuild, stop.
            if rebuilt:
                break
            n -= fresh
            H[: n + 1, : n + 1], target = kkt(act[:n])
        rebuilt = stuck
        while (out := (target <= 0.0).nonzero()[0]).size:
            a = alpha[:n]
            ratios = a[out] / (a[out] - target[out])
            k = int(out[ratios.argmin()])
            a += float(ratios.min()) * (target - a)
            target = drop(k, n)
            n -= 1
        alpha[:n] = target
    # Trim a warm core: drop the lightest point while every weight stays
    # positive and the certificate holds for the new weights, normalised.
    while warmed and n > 1 and dmax2 <= threshold * lower2:
        saved = act[:n].copy(), alpha[:n].copy()
        target = drop(int(alpha[:n].argmin()), n)
        n -= 1
        a = target / target.sum()
        _, far2, dual = gap(a, act[:n])
        if (target > 0.0).all() and far2 <= threshold * max(lower0, dual):
            alpha[:n] = a
        else:
            n += 1
            act[:n], alpha[:n] = saved
            break

    # Reconstruct the center from the weights and measure the exact max
    # distance; any drift in the Gram-form distances drops out here.
    A = act[:n]
    a = alpha[:n] / alpha[:n].sum()
    cs = a * slack_weight
    ce = E[start] + a @ D[A]
    diff = E - ce
    d2 = np.einsum("ij,ij->i", diff, diff) + (float(cs @ cs) + sw2)
    d2[A] -= 2.0 * cs * slack_weight
    members = [points[k] for k in order[A]]
    coeffs = {p.id: float(c) for p, c in zip(members, cs) if c != 0.0}
    ball = Ball(Center(ce, coeffs), math.sqrt(max(float(d2.max()), 0.0)))
    return ball, CoreSet(members, ball)
