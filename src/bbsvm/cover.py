"""Streaming blurred ball cover.

The cover retains a small list of (core set, ball) pairs.  Incoming points
are buffered; once the lookahead buffer fills, the buffer is tested against
the (1+eps)-expansions of the retained balls.  If any buffered point escapes
them all, a new ball is computed as the approximate minimum enclosing ball
of the buffer together with every retained core point, and older balls with
radius below eps/4 of the new radius are discarded.  The solver starts warm
from the newest ball's core, which is among those inputs (see ``approx_meb``).

The escape test tries the newest ball first.  It encloses the last merge's
buffer and every core point retained then, so it holds most points that do
not escape, and only a point outside it is measured against all balls.  The
order changes no decision: a point is inside when it lies in any expanded
ball, the newest ball's distance is computed by the same expression (same
bits) as its row of the all-balls test, and no merge discards the ball it
makes.

A buffer of two or more points meets the newest ball as one block: its rows
are subtracted from the newest center, squared in place and summed along
each row.  A C-contiguous row sum over the last axis is NumPy's pairwise sum
of that row, so each row carries the bits of ``escapes``' own sum, and the
slack terms are added in the same order.  Only the rows outside the newest
ball go on to ``escapes``, and the buffer merges iff one of them escapes: the
decision of testing every point alone.  A one-point buffer (L = 0 or 1) goes
straight to ``escapes``, since building a block costs more than it saves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .meb import AugPoint, CoreSet, approx_meb

__all__ = ["BlurredBallCover", "Lookahead"]

_row_sum = np.add.reduce  # the pairwise sum of ``ndarray.sum``, without its wrapper


@dataclass(eq=False)
class Lookahead:
    """Pending-point buffer; capacity L = 0 means per-point processing."""

    capacity: int
    pending: list[AugPoint] = field(default_factory=list)
    effective_capacity: int = field(init=False)

    def __post_init__(self):
        self.effective_capacity = max(self.capacity, 1)


class BlurredBallCover:
    """Retained (core set, ball) pairs plus the update rules that maintain them."""

    def __init__(self, epsilon: float, delta: float | None = None):
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        self.delta = epsilon / 2.0 if delta is None else delta
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        self.cores: list[CoreSet] = []
        self.points_seen = 0
        self._refresh_cache()

    def escapes(self, p: AugPoint) -> bool:
        """True iff ``p`` lies outside every (1+eps)-expanded retained ball.

        Vacuously true on an empty cover; boundary points count as inside.
        ``p`` must be fresh, its id a stream position no center has met (see
        ``offer``): it then meets no center's slack coefficients, so its
        squared distance is the explicit part plus both slack norms.  The
        newest ball is tested first and the rest only when ``p`` is outside
        it, which is exact (see the module docstring).
        """
        if self._centers is None:
            return True
        sw2 = p.slack_weight * p.slack_weight
        d = self._newest - p.explicit
        d *= d
        if _row_sum(d) + self._newest_slack2 + sw2 <= self._newest_limit2:
            return False
        d = self._centers - p.explicit
        d *= d
        d2 = _row_sum(d, axis=1)
        d2 += self._center_slack2
        d2 += sw2
        return bool((d2 > self._limits2).all())

    def offer(self, buffer: Lookahead, p: AugPoint) -> bool:
        """Buffer ``p``; process the buffer when it reaches capacity.

        Returns whether a merge update was performed.  Whenever the buffer
        is processed it is cleared afterward, merge or not.  ``p.id`` must
        be new to the cover (``Model`` passes the stream position, which is
        ``points_seen`` before the offer): the escape test ignores slack axes
        a point shares with a center, and a merge keeps one point of each id.
        """
        pending = buffer.pending
        pending.append(p)
        self.points_seen += 1
        if len(pending) < buffer.effective_capacity:
            return False
        return self._process(buffer)

    def flush(self, buffer: Lookahead) -> bool:
        """Run one merge check on a partially filled buffer (end of stream)."""
        if not buffer.pending:
            return False
        return self._process(buffer)

    def _process(self, buffer: Lookahead) -> bool:
        """Merge iff a pending point escapes (two or more points are first
        tested as one block, see the module docstring); clear the buffer."""
        pending = buffer.pending
        if len(pending) == 1 or self._centers is None:
            merged = self.escapes(pending[0])
        else:
            D = np.array([p.explicit for p in pending], dtype=np.float64)
            np.subtract(self._newest, D, out=D)
            D *= D
            d2 = _row_sum(D, axis=1)
            d2 += self._newest_slack2
            d2 += [p.slack_weight * p.slack_weight for p in pending]
            outside = (d2 > self._newest_limit2).nonzero()[0]
            merged = any(self.escapes(pending[i]) for i in outside)
        if merged:
            self.merge_update(list(pending))
        pending.clear()
        return merged

    def merge_update(self, escaped_buffer: list[AugPoint]) -> None:
        """Fold a buffer into the cover (call only when some point escapes).

        Computes the approximate MEB of the buffer plus all retained core
        points, started warm from the newest ball's core, appends the
        resulting pair, then discards every older pair whose ball radius
        falls below eps/4 of the new radius.
        """
        by_id: dict[int, AugPoint] = {}  # one point an id: buffer, then cores in order
        for members in [escaped_buffer, *(cs.members for cs in self.cores)]:
            for p in members:
                by_id.setdefault(p.id, p)
        warm = self.cores[-1].members if self.cores else None
        ball, core = approx_meb(list(by_id.values()), self.delta, warm=warm)
        self.cores.append(core)
        cut = (self.epsilon / 4.0) * ball.radius
        self.cores = [cs for cs in self.cores if cs.ball.radius >= cut or cs is core]
        self._refresh_cache()

    # -- cached query arrays ------------------------------------------------

    def _refresh_cache(self) -> None:
        if not self.cores:
            self._centers = self._newest = self._center_slack2 = None
            self._radii = self._limits2 = None
            return
        self._centers = np.stack([cs.ball.center.explicit for cs in self.cores])
        self._newest = self._centers[-1]
        self._center_slack2 = np.array([cs.ball.center.slack_norm2 for cs in self.cores])
        self._radii = np.array([cs.ball.radius for cs in self.cores])
        limits = (1.0 + self.epsilon) * self._radii
        self._limits2 = limits * limits
        self._newest_slack2 = float(self._center_slack2[-1])
        self._newest_limit2 = float(self._limits2[-1])

    def query_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(centers, center slack norms squared, radii) or None when empty."""
        if self._centers is None:
            return None
        return self._centers, self._center_slack2, self._radii
