#!/usr/bin/env python3
"""Watch a blurred ball cover digest a stream.

Points are buffered L at a time; a buffered point that lands outside every
(1+eps)-expanded ball triggers a merge, and merges can discard older balls
whose radius fell below eps/4 of the newest one.  Storage stays small no
matter how long the stream runs.  The cover reads eps, delta, L and the slack
weight from its ``ModelParams``; these raw 2-D points have no slack axes
(C = inf).
"""

import numpy as np

from bbsvm.cover import BlurredBallCover, Lookahead
from bbsvm.meb import AugPoint
from bbsvm.model import ModelParams

rng = np.random.default_rng(7)
cover = BlurredBallCover(ModelParams(dim=2, epsilon=0.05, lookahead=10))
buffer = Lookahead()

params = cover.params
print(f"eps = {params.epsilon}, delta = {params.delta}, L = {params.lookahead}\n")
print(f"{'points':>8} {'balls':>6} {'radii'}")

merges = 0
for i in range(5000):
    # a drifting cluster: the stream keeps finding new territory for a while
    center = np.array([np.cos(i / 800.0), np.sin(i / 800.0)])
    p = AugPoint(center + 0.2 * rng.normal(size=2), i)
    if cover.offer(buffer, p):
        merges += 1
    if (i + 1) % 1000 == 0:
        radii = ", ".join(f"{cs.ball.radius:.3f}" for cs in cover.cores)
        print(f"{cover.points_seen:>8} {len(cover.cores):>6} [{radii}]")
cover.flush(buffer)

core_points = sum(len(cs.members) for cs in cover.cores)
print(f"\n{merges} merges over {cover.points_seen} points")
print(f"retained: {len(cover.cores)} balls backed by {core_points} core points")
print("every stored point lives in some core set; the raw stream is gone.")
