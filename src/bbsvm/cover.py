"""Streaming blurred ball cover.

The cover retains a small list of (core set, ball) pairs.  Incoming points
are buffered; once the lookahead buffer fills, the buffer is tested against
the (1+eps)-expansions of the retained balls.  If any buffered point escapes
them all, a new ball is computed as the approximate minimum enclosing ball
of the buffer together with every retained core point, and older balls with
radius below eps/4 of the new radius are discarded.  The solver starts warm
from the newest ball's core, which is among those inputs (see ``approx_meb``).

The escape test decides in two stages.  First the newest ball, which holds
most points that do not escape, in dot form: ``d~ = N - 2 c.e + P``, with
``N = |c|^2 + s`` (``s`` the center's slack norm squared) cached with that
ball and ``P = e.e + sw^2`` (``sw`` the slack weight), two dots a point.  It
settles the point as inside only when the bound ``tau = 8 g (N + P + L) + n
2^-1060`` shows that the difference form ``D^`` (subtract, square, row sum,
add ``s`` and ``sw^2``) lies within its squared expanded radius ``L``; ``n``
is the explicit length, ``u = 2^-53`` and ``g = (n+4) u / (1 - (n+4) u)``.
With ``D`` the exact value: a dot product of length n in any order, FMA
included, errs by at most ``g sum |c_i e_i| <= g (|c|^2 + |e|^2) / 2``, so
the errors of ``N``, ``P`` and ``2 c.e`` and two roundings give ``|d~ - D|
<= 3 g (N + P)``; every term of the difference form is nonnegative and
carries at most n + 4 roundings, so ``|D^ - D| <= g D <= 2 g (N + P)``.  The
other ``3 g (N + P) + 8 g L`` of ``tau`` covers the roundings of ``tau`` and
of ``d~ + tau``, and ``n 2^-1060`` covers underflow (at most 2^-1075 a
product).  So, in finite arithmetic, ``d~ + tau <= L`` proves ``D^ <= L``; a
NaN fails it.  Every other point, outside the newest ball or within ``tau``
of its boundary (``8 g`` is 2.2e-14 for 20 features), goes to the second
stage, the difference form over all balls, which decides.  Every decision
is the difference form's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .meb import AugPoint, CoreSet, approx_meb

if TYPE_CHECKING:  # model imports this module
    from .model import ModelParams

__all__ = ["BlurredBallCover", "Lookahead"]

_row_sum = np.add.reduce  # the pairwise sum of ``ndarray.sum``, without its wrapper
_vdot = np.vdot.__wrapped__  # v.dot's bits, no overflow warning, no dispatch cost


@dataclass(eq=False)
class Lookahead:
    """Pending-point buffer; the cover processes it once it holds L =
    ``params.lookahead`` points (L = 0 means per-point processing)."""

    pending: list[AugPoint] = field(default_factory=list)


class BlurredBallCover:
    """Retained (core set, ball) pairs plus the update rules that maintain them,
    with the epsilon, delta, slack weight and lookahead L of ``params``."""

    def __init__(self, params: ModelParams):
        self.params = params
        self._slack2 = params.slack_weight * params.slack_weight  # each escape test adds it
        self.cores = []
        self.points_seen = 0

    def escapes(self, p: AugPoint) -> bool:
        """True iff ``p`` lies outside every (1+eps)-expanded retained ball.

        Vacuously true on an empty cover; boundary points count as inside.
        ``p`` must be fresh, its id a stream position no center has met (see
        ``offer``): it then meets no center's slack coefficients, so its
        squared distance is the explicit part plus both slack norms.  The
        decisions are the difference form's; the newest ball's dot form, with
        its rounding bound, settles most points that are inside (see the
        module docstring).
        """
        if self._centers is None:
            return True
        e = p.explicit
        P = float(_vdot(e, e)) + self._slack2
        d = self._newest_norm2 - 2.0 * float(_vdot(self._newest, e)) + P
        if d + (self._newest_tau + self._gamma8 * P) <= self._newest_limit2:
            return False  # the newest ball certainly holds p
        d = self._centers - e
        d *= d
        d2 = _row_sum(d, axis=1)
        d2 += self._center_slack2
        d2 += self._slack2
        return bool((d2 > self._limits2).all())

    def offer(self, buffer: Lookahead, p: AugPoint) -> bool:
        """Buffer ``p``; process the buffer when it holds L = ``params.lookahead``.

        Returns whether a merge update was performed.  Whenever the buffer
        is processed it is cleared afterward, merge or not.  ``p.id`` must
        be new to the cover (``Model`` passes the stream position, which is
        ``points_seen`` before the offer): the escape test ignores slack axes
        a point shares with a center, and a merge takes each point object once.
        """
        pending = buffer.pending
        pending.append(p)
        self.points_seen += 1
        if len(pending) < self.params.lookahead:  # at L = 0 too: p is already in
            return False
        return self._process(buffer)

    def flush(self, buffer: Lookahead) -> bool:
        """Run one merge check on a partially filled buffer (end of stream)."""
        if not buffer.pending:
            return False
        return self._process(buffer)

    def _process(self, buffer: Lookahead) -> bool:
        """Merge iff a pending point escapes (tested in stream order up to
        the first that does); clear the buffer."""
        pending = buffer.pending
        merged = False
        for p in pending:  # any(map(...)) calls escapes from C: 0.4 us more a point
            if self.escapes(p):
                self.merge_update(pending)  # returns before the clear
                merged = True
                break
        pending.clear()
        return merged

    def merge_update(self, escaped_buffer: list[AugPoint]) -> None:
        """Fold a buffer into the cover (call only when some point escapes).

        Computes the approximate MEB of the buffer plus all retained core
        points, started warm from the newest ball's core, then keeps every
        older pair whose ball radius is at least eps/4 of the new radius,
        and the new pair last.
        """
        params = self.params
        members = chain(escaped_buffer, *(cs.members for cs in self.cores))
        points = list(dict.fromkeys(members))  # each object once: one an id (see cores)
        warm = self.cores[-1].members if self.cores else None
        ball, core = approx_meb(points, params.delta, params.slack_weight, warm)
        cut = (params.epsilon / 4.0) * ball.radius
        self.cores = [cs for cs in self.cores if cs.ball.radius >= cut] + [core]

    # -- the balls and their query arrays ------------------------------------

    @property
    def cores(self) -> list[CoreSet]:
        """The retained (core set, ball) pairs, oldest first, which hold one
        ``AugPoint`` object an id (``Model.feed``, ``approx_meb`` and
        ``load_model`` keep it so).  Assign a new list to change them: that
        rebuilds the escape and predict arrays."""
        return self._cores

    @cores.setter
    def cores(self, cores: list[CoreSet]) -> None:
        self._cores = cores
        if not cores:
            self._centers = None  # what escapes and query_arrays test first
            return
        self._centers = np.array([cs.ball.center.explicit for cs in cores])
        self._newest = self._centers[-1]
        self._center_slack2 = np.array([cs.ball.center.slack_norm2 for cs in cores])
        self._radii = np.array([cs.ball.radius for cs in cores])
        limits = (1.0 + self.params.epsilon) * self._radii
        self._limits2 = limits * limits
        # The newest ball's dot form: its center norm and share of the bound tau.
        n = self._centers.shape[1]
        self._gamma8 = 8.0 * (n + 4) * 2.0**-53 / (1.0 - (n + 4) * 2.0**-53)
        norm2 = float(_vdot(self._newest, self._newest)) + float(self._center_slack2[-1])
        limit2 = float(self._limits2[-1])
        self._newest_norm2, self._newest_limit2 = norm2, limit2
        self._newest_tau = self._gamma8 * (norm2 + limit2) + n * 2.0**-1060

    def query_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(centers, center slack norms squared, radii) or None when empty."""
        if self._centers is None:
            return None
        return self._centers, self._center_slack2, self._radii
