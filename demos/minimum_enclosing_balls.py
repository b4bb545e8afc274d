#!/usr/bin/env python3
"""Approximate minimum enclosing balls versus the exact small-dimension oracle.

The approximate solver adds the farthest point to an active set and
re-solves the ball of the active points exactly, dropping points that no
longer carry weight; the active points are the core set.  On small 2-D and
3-D instances we can afford the exact enumeration oracle and compare.  A
point is a row and an id; raw geometry has no slack axes, so the solver's
``slack_weight`` stays at its default of 0.
"""

import sys
from pathlib import Path

import numpy as np

from bbsvm.meb import AugPoint, approx_meb

# The exact oracle is test code and lives in tests/oracle.py.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracle import exact_meb_small  # noqa: E402

rng = np.random.default_rng(42)

print("=== tiny hand-checkable instance ===")
pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
ball, core = approx_meb([AugPoint(p, i) for i, p in enumerate(pts)], 0.01)
center, radius = exact_meb_small(pts)
print(f"exact : center {center}, radius {radius}")
print(f"approx: center {ball.center.explicit}, radius {ball.radius:.6f}")
print(f"core set ids: {[p.id for p in core.members]}")

print("\n=== random instances, delta = 0.01 ===")
for trial in range(5):
    dim = int(rng.integers(2, 4))
    n = int(rng.integers(10, 51))
    pts = rng.normal(size=(n, dim))
    ball, core = approx_meb([AugPoint(p, i) for i, p in enumerate(pts)], 0.01)
    _, r_exact = exact_meb_small(pts)
    dists = np.linalg.norm(pts - ball.center.explicit, axis=1)
    print(
        f"n={n:2d} dim={dim}: ratio to optimal {ball.radius / r_exact:.5f}, "
        f"core size {len(core.members):2d}, max dist/radius {dists.max() / ball.radius:.6f}"
    )

print("\nThe ratio never exceeds 1 + delta and the returned radius always")
print("covers every input point, because it is measured after the fact.")
