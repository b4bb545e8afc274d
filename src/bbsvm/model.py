"""Streaming linear SVM over a blurred ball cover.

Training maps each labeled example onto a constant-norm sphere in an
augmented space: the unit-normalized input, a bias coordinate, and (for a
finite soft-margin penalty C) a per-point slack axis of weight 1/sqrt(C).
Every augmented training point then has norm kappa = sqrt(2 + 1/C), and the
maximum-margin separator coincides with the center of the stream's minimum
enclosing ball.  The cover maintains several approximate balls; each center
acts as a linear classifier and queries are labeled by comparing the summed
signed distances (scores) of the query and its mirror image across the
balls that contain them.

An input's norm is the BLAS ddot of its dense row with itself (``_norm``),
which ``np.vecdot`` takes on each contiguous row of a query block, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cover import BlurredBallCover, Lookahead
from .data import SparseVector, TrainingExample
from .meb import AugPoint

__all__ = ["Model", "ModelParams", "feature_map"]

QUERY_CHUNK = 256  # queries whose indices and values predict concatenates at once
MARGIN2_RTOL = 1e-9  # margin^2 / kappa^2 at or below which a ball separates nothing
_vdot = np.vdot.__wrapped__  # v.dot's bits, no overflow warning, no dispatch cost


@dataclass
class ModelParams:
    """Training configuration; ``delta`` defaults to ``epsilon / 2``."""

    dim: int
    epsilon: float = 0.001
    C: float = math.inf
    lookahead: int = 10
    delta: float | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if (self.dim + 1) * 8 > np.iinfo(np.intp).max:  # NumPy's array size limit
            raise ValueError(f"feature index {self.dim} implies dense points of "
                             f"{self.dim + 1} float64 values, more than an array holds")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not self.C > 0.0:
            raise ValueError("C must be positive (or inf)")
        if self.lookahead < 0:
            raise ValueError("lookahead must be nonnegative")
        if self.delta is None:
            self.delta = self.epsilon / 2.0
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        # Not a field: derived from C, once, here and on dataclasses.replace.
        self.slack_weight = 0.0 if math.isinf(self.C) else 1.0 / math.sqrt(self.C)

    @property
    def kappa(self) -> float:
        """Constant norm of every mapped training point: sqrt(2 + 1/C)."""
        inv_c = 0.0 if math.isinf(self.C) else 1.0 / self.C
        return math.sqrt(2.0 + inv_c)


def _norm(row: np.ndarray) -> float:
    """``sqrt`` of the BLAS ddot of a dense row with itself; squares that
    overflow or underflow are rescaled by the largest magnitude."""
    norm = math.sqrt(_vdot(row, row))
    if norm == math.inf or (norm == 0.0 and row.any()):
        scale = float(np.abs(row).max())
        if scale < math.inf:  # the rescaled row's norm lies in [1, sqrt(dim)]
            norm = scale * _norm(row / scale)
    return norm


def _augment(x: SparseVector, sign: int, params: ModelParams) -> np.ndarray:
    """The explicit block ``[sign * x_hat ; sign]`` of a mapped input.

    Raises ``ValueError`` unless the indices lie in 1..dim (dim+1 is the bias
    slot; NumPy refuses one above dim, and the first is checked against 1,
    which covers sorted rows), then unless the ``_norm`` of the dense row is
    finite and nonzero with a finite reciprocal: no NaN or inf reaches a ball.
    """
    dim = params.dim
    if x.indices.size and x.indices[0] < 1:
        raise ValueError(f"feature index {x.indices[0]} is below 1")
    explicit = np.zeros(dim + 1)
    features = explicit[:-1]
    try:
        features[x.indices - 1] = x.values
    except IndexError:  # name the index; an unsorted row may also wrap below 1
        top = x.indices.max()
        if top > dim:
            raise ValueError(f"feature index {top} exceeds dimension {dim}") from None
        raise ValueError(f"feature index {x.indices.min()} is below 1") from None
    norm = _norm(features)
    if not 0.0 < norm < math.inf or 1.0 / norm == math.inf:
        raise ValueError("input vector needs a finite nonzero norm with a finite "
                         f"reciprocal, got {norm!r}")
    # In place: the bits of dense ``x`` times ``sign * (1/norm)``, -0.0 zeros included.
    features *= sign * (1.0 / norm)
    explicit[-1] = float(sign)
    return explicit


@np.errstate(divide="ignore", over="ignore")  # each 1/norm is checked below
def _query_rows(xs: Sequence[SparseVector], params: ModelParams) -> np.ndarray:
    """The rows ``_augment(x, 1, params)`` of a batch, bit for bit, as one block:
    one ``np.vecdot`` takes the norms of a chunk's rows with ``_norm``'s ddot."""
    P = np.zeros((len(xs), params.dim + 1))
    P[:, -1] = 1.0
    for start in range(0, len(xs), QUERY_CHUNK):
        chunk = xs[start : start + QUERY_CHUNK]
        F = P[start : start + QUERY_CHUNK, :-1]
        rows = np.repeat(np.arange(len(chunk)), [x.indices.size for x in chunk])
        cols = np.concatenate([x.indices for x in chunk]) - 1
        if ((0 <= cols) & (cols < params.dim)).all():  # else all rows stay 0: refused
            F[rows, cols] = np.concatenate([x.values for x in chunk])
        norms = np.sqrt(np.vecdot(F, F))
        for k in np.flatnonzero((norms == math.inf) | (norms == 0.0)):
            norms[k] = _norm(F[k])  # rescaled
        scale = 1.0 / norms
        if not ((0.0 < scale) & (scale < math.inf)).all():  # _augment's checks
            for k, x in enumerate(chunk, start):  # _augment checks one index below 1
                order = np.argsort(x.indices)
                try:
                    _augment(SparseVector(x.indices[order], x.values[order]), 1, params)
                except ValueError as err:
                    raise ValueError(f"query {k}: {err}") from err
        F *= scale[:, None]
    return P


def feature_map(
    x: SparseVector, y: int, params: ModelParams, point_id: int
) -> AugPoint:
    """Map a labeled input to its augmented point ``[y*x_hat ; y]`` + slack.

    The raw input is normalized to unit Euclidean norm first, so the
    resulting augmented norm is exactly kappa.
    """
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    return AugPoint(_augment(x, y, params), params.slack_weight, point_id)


@dataclass(eq=False)
class Model:
    """Streaming SVM state, built from ``params`` alone: the ball ``cover``,
    whose ``points_seen`` numbers the next training point.
    """

    params: ModelParams

    def __post_init__(self):
        self.cover = BlurredBallCover(self.params.epsilon, self.params.delta)

    def train_stream(self, examples: Iterable[TrainingExample]) -> "Model":
        """Consume a training stream in one pass.

        Each example is mapped with its stream position as id and offered
        to the cover through a lookahead buffer of this call; a final
        partial-buffer flush runs one last merge check.
        """
        params, cover = self.params, self.cover
        buffer = Lookahead(params.lookahead)
        offer = cover.offer
        for position, ex in enumerate(examples):
            try:  # the module global, looked up per point, so a patched one is used
                p = feature_map(ex.x, ex.y, params, cover.points_seen)
            except ValueError as err:
                raise ValueError(f"training example {position}: {err}") from err
            offer(buffer, p)
        cover.flush(buffer)
        return self

    def predict(self, xs: Sequence[SparseVector]) -> np.ndarray:
        """Labels for a batch of queries (vector of -1/+1 ints).

        For each query p the decision is sign(S(p) - S(-p)) where S sums
        the signed distances over the balls containing its argument; exact
        ties fall back to the sign of the summed distances over all balls,
        and +1 if that is still zero.  The queries are mapped as one block with
        the bits of the per-point map; a query that cannot be mapped, or with
        any index outside 1..dim, raises ``ValueError`` naming its position.
        """
        arrays = self.cover.query_arrays()
        if arrays is None:
            raise ValueError("model has no balls; train before classifying")
        centers, center_slack2, radii = arrays
        P = _query_rows(xs, self.params)

        norms2 = np.einsum("ij,ij->i", centers, centers) + center_slack2
        pn2 = np.einsum("ij,ij->i", P, P)
        dots = P @ centers.T  # (queries, balls)

        r2 = radii * radii
        base = pn2[:, None] + norms2[None, :]
        in_pos = base - 2.0 * dots <= r2[None, :]
        in_neg = base + 2.0 * dots <= r2[None, :]

        # A zero center has no separator: it adds 0 to both sums and the tie.
        signed = dots / np.sqrt(np.where(norms2 > 0.0, norms2, np.inf))[None, :]

        # S(p) - S(-p) = sum over Sup(p) of p.c_hat + sum over Sup(-p) of p.c_hat
        margin = (in_pos * signed).sum(axis=1) + (in_neg * signed).sum(axis=1)
        labels = np.where(margin > 0.0, 1, -1)
        tied = margin == 0.0
        labels[tied] = np.where(signed[tied].sum(axis=1) < 0.0, -1, 1)
        return labels

    def degenerate_balls(self) -> list[int]:
        """Positions of the balls that separate nothing: a zero explicit center
        block, or ``(kappa^2 - r^2) / kappa^2 <= MARGIN2_RTOL`` (no margin)."""
        kappa2 = self.params.kappa**2
        return [k for k, cs in enumerate(self.cover.cores)
                if not cs.ball.center.explicit.any()
                or kappa2 - cs.ball.radius**2 <= MARGIN2_RTOL * kappa2]
