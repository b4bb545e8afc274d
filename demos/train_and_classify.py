#!/usr/bin/env python3
"""Train the streaming SVM on synthetic data and poke at the classifier.

Each retained ball doubles as a linear separator: its center's direction is
the normal, and sqrt(kappa^2 - r^2) is the attained margin.  Queries are
labeled by comparing the summed signed distances of the query and its mirror
image over the balls that contain them, so a query and its mirror always get
opposite labels.
"""

import math

import numpy as np

from bbsvm import Dataset, Model, ModelParams, SparseVector, generate_synthetic

full = generate_synthetic(n=6000, dim=12, margin=0.2, noise=0.0, seed=3)
train = Dataset(full.examples[:5000], 12)
test = Dataset(full.examples[5000:], 12)

params = ModelParams(dim=12, epsilon=0.001, lookahead=10)
model = Model(params).train_stream(train.examples)

preds = model.predict([ex.x for ex in test.examples])
truth = np.array([ex.y for ex in test.examples])
print(f"test accuracy: {(preds == truth).mean():.4f} on {len(test)} points")
print(f"cover: {len(model.cover.cores)} balls, "
      f"{sum(len(cs.members) for cs in model.cover.cores)} core points, "
      f"kappa = {params.kappa:.4f}")

print("\nball radii and implied margins (sqrt(kappa^2 - r^2)):")
for cs in model.cover.cores[:8]:
    r, c = cs.ball.radius, cs.ball.center
    margin = math.sqrt(max(params.kappa**2 - r * r, 0.0))
    norm = math.sqrt(float(c.explicit @ c.explicit) + c.slack_norm2)
    print(f"  radius {r:.4f} -> margin {margin:.4f}, |center| {norm:.4f}")

print("\nthree queries and their mirrors -x:")
queries = [ex.x for ex in test.examples[:3]]
mirrors = [SparseVector(x.indices, -x.values) for x in queries]
for ex, plus, minus in zip(test.examples, model.predict(queries), model.predict(mirrors)):
    print(f"  true {ex.y:+d}: predicted {plus:+d}, mirror predicted {minus:+d}")
