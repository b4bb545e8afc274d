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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cover import BlurredBallCover, Lookahead
from .data import SparseVector, TrainingExample
from .meb import AugPoint

__all__ = ["Model", "ModelParams", "feature_map", "map_test_point"]

TEST_POINT_ID = -1
QUERY_CHUNK = 256  # queries whose indices and values predict concatenates at once


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


def _augment(x: SparseVector, sign: int, params: ModelParams) -> np.ndarray:
    """The explicit block ``[sign * x_hat ; sign]`` of a mapped input.

    Raises ``ValueError`` unless ``x`` has a finite nonzero norm with a
    finite reciprocal, so a NaN or infinite value can never reach a ball,
    and unless its indices lie in 1..dim (index dim+1 is the bias slot).
    """
    norm = x.norm()
    if not 0.0 < norm < math.inf or 1.0 / norm == math.inf:
        raise ValueError(
            f"input vector needs a finite nonzero norm with a finite "
            f"reciprocal, got {norm!r}"
        )
    dim = params.dim
    if x.indices.size and x.indices[-1] > dim:
        raise ValueError(f"feature index {x.indices[-1]} exceeds dimension {dim}")
    if x.indices.size and x.indices[0] < 1:
        raise ValueError(f"feature index {x.indices[0]} is below 1")
    # In place: the bits of dense ``x`` times ``sign * (1/norm)``, -0.0 zeros included.
    explicit = np.zeros(dim + 1)
    explicit[x.indices - 1] = x.values
    explicit[:-1] *= sign * (1.0 / norm)
    explicit[-1] = float(sign)
    return explicit


@np.errstate(divide="ignore", over="ignore")  # each 1/norm is checked below
def _query_rows(xs: Sequence[SparseVector], params: ModelParams) -> np.ndarray:
    """The rows ``_augment(x, 1, params)`` of a batch, bit for bit, as one block."""
    P = np.zeros((len(xs), params.dim + 1))
    P[:, -1] = 1.0
    for start in range(0, len(xs), QUERY_CHUNK):
        chunk = xs[start : start + QUERY_CHUNK]
        stop = start + len(chunk)
        scale = 1.0 / np.array([x.norm() for x in chunk])
        rows = np.repeat(np.arange(start, stop), [x.indices.size for x in chunk])
        cols = np.concatenate([x.indices for x in chunk]) - 1
        fine = (0.0 < scale) & (scale < math.inf)  # _augment's norm check
        if not fine.all() or ((cols < 0) | (cols >= params.dim)).any():
            for k, x in enumerate(chunk, start):  # _augment checks only the ends: sort
                try:
                    _augment(SparseVector(np.sort(x.indices), x.values), 1, params)
                except ValueError as err:
                    raise ValueError(f"query {k}: {err}") from err
        P[rows, cols] = np.concatenate([x.values for x in chunk])
        P[start:stop, :-1] *= scale[:, None]
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
    return AugPoint(_augment(x, y, params), params.slack_weight, point_id, label=y)


def map_test_point(x: SparseVector, params: ModelParams) -> AugPoint:
    """Map an unlabeled query to ``[x_hat ; 1]`` with no slack component."""
    return AugPoint(_augment(x, 1, params), 0.0, TEST_POINT_ID)


@dataclass(eq=False)
class Model:
    """Streaming SVM state, built from ``params`` alone: the ball ``cover``,
    whose ``points_seen`` numbers the next training point, and the lookahead
    ``buffer``, which ``train_stream`` leaves empty.
    """

    params: ModelParams

    def __post_init__(self):
        self.cover = BlurredBallCover(self.params.epsilon, self.params.delta)
        self.buffer = Lookahead(self.params.lookahead)

    def train_stream(self, examples: Iterable[TrainingExample]) -> "Model":
        """Consume a training stream in one pass.

        Each example is mapped with its stream position as id and offered
        to the cover; a final partial-buffer flush runs one last merge check.
        """
        for position, ex in enumerate(examples):
            try:
                p = feature_map(ex.x, ex.y, self.params, self.cover.points_seen)
            except ValueError as err:
                raise ValueError(f"training example {position}: {err}") from err
            self.cover.offer(self.buffer, p)
        self.cover.flush(self.buffer)
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

        cen2 = np.einsum("ij,ij->i", centers, centers)
        norms2 = cen2 + center_slack2
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

    def classify(self, x: SparseVector) -> int:
        return int(self.predict([x])[0])
