"""Dataset ingestion and synthesis.

Provides a sparse LIBSVM-format text parser, a seeded synthetic generator
for linearly separable data, and reproducible stream shuffling.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "DataFormatError",
    "Dataset",
    "SparseVector",
    "TrainingExample",
    "format_libsvm",
    "generate_synthetic",
    "load_libsvm",
    "parse_libsvm",
    "shuffled",
]

GZIP_SUFFIX = ".gz"


class DataFormatError(ValueError):
    """Malformed dataset text; messages carry the offending line number."""


@dataclass(eq=False)
class SparseVector:
    """Sparse real vector with 1-based, strictly increasing indices."""

    indices: np.ndarray
    values: np.ndarray

    def norm(self) -> float:
        v = self.values
        norm = math.sqrt(float(v.dot(v)))  # what np.linalg.norm computes
        if norm == math.inf or (norm == 0.0 and v.any()):
            # The squares overflowed or underflowed: rescale by the largest
            # magnitude.  Other inputs keep the plain norm bit for bit.
            scale = float(np.abs(v).max())
            if scale < math.inf:
                u = v / scale
                norm = scale * math.sqrt(float(u.dot(u)))
        return norm


@dataclass(eq=False)
class TrainingExample:
    x: SparseVector
    y: int  # -1 or +1


@dataclass(eq=False)
class Dataset:
    examples: list[TrainingExample] = field(default_factory=list)
    dim: int = 0  # max feature index present (or larger)

    def __len__(self) -> int:
        return len(self.examples)


def _parse_label(token: str, lineno: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise DataFormatError(f"line {lineno}: bad label {token!r}") from None
    if value == 1.0:
        return 1
    if value == -1.0 or value == 0.0:  # 0 is the "negative" convention
        return -1
    raise DataFormatError(f"line {lineno}: unknown label {token!r}")


def parse_libsvm(lines: Iterable[str] | str) -> Dataset:
    """Parse LIBSVM-format text: ``<label> <idx>:<val> ...`` per line.

    Labels +1/1 map to +1; -1 and 0 map to -1.  Indices are 1-based and must
    be strictly increasing within a line, and values must be finite.  ``#``
    starts a comment that runs to the end of the line; blank lines are
    skipped.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    examples: list[TrainingExample] = []
    dim = 0
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        label = _parse_label(tokens[0], lineno)
        idxs: list[int] = []
        vals: list[float] = []
        prev = 0
        for token in tokens[1:]:
            name, sep, text = token.partition(":")
            if not sep:
                raise DataFormatError(f"line {lineno}: malformed feature {token!r}")
            try:
                idx = int(name)
                val = float(text)
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: malformed feature {token!r}"
                ) from None
            if idx <= prev:
                raise DataFormatError(
                    f"line {lineno}: feature indices must be strictly increasing "
                    f"(got {idx} after {prev})"
                )
            prev = idx
            idxs.append(idx)
            vals.append(val)
        if not idxs:
            raise DataFormatError(f"line {lineno}: no features")
        if not math.isfinite(sum(vals)):  # NaN and inf propagate; cheap per line
            bad = [t for t, v in zip(tokens[1:], vals) if not math.isfinite(v)]
            if bad:  # else the sum of finite values overflowed
                raise DataFormatError(
                    f"line {lineno}: non-finite value {bad[0].partition(':')[2]!r}"
                )
        dim = max(dim, idxs[-1])
        examples.append(
            TrainingExample(
                SparseVector(np.array(idxs, dtype=np.int64), np.array(vals)), label
            )
        )
    return Dataset(examples, dim)


def format_libsvm(dataset: Dataset) -> str:
    """Render a dataset in canonical LIBSVM text (round-trips exactly).

    Values use Python's shortest round-trip decimal encoding (``repr``), so
    ``parse_libsvm(format_libsvm(ds))`` reproduces every float bit for bit.
    """
    lines = []
    for ex in dataset.examples:
        parts = ["+1" if ex.y > 0 else "-1"]
        parts.extend(
            f"{int(i)}:{float(v)!r}" for i, v in zip(ex.x.indices, ex.x.values)
        )
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def load_libsvm(path) -> Dataset:
    """Read a LIBSVM text file; files ending in ``.gz`` are gunzipped."""
    opener = gzip.open if str(path).endswith(GZIP_SUFFIX) else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return parse_libsvm(fh)


def generate_synthetic(
    n: int, dim: int, margin: float, noise: float, seed: int
) -> Dataset:
    """Draw ``n`` unit-sphere points labeled by a random hyperplane.

    A unit normal ``u`` is drawn first (deterministic from ``seed``), then
    points are sampled uniformly on the unit sphere and resampled until
    ``|u . x| >= margin``.  Labels are ``sign(u . x)``, each flipped
    independently with probability ``noise``.  Identical seeds produce
    byte-identical datasets.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if not 0.0 <= margin < 1.0:
        raise ValueError("margin must lie in [0, 1)")
    if not 0.0 <= noise <= 1.0:
        raise ValueError("noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)

    chunks: list[np.ndarray] = []
    collected = 0
    empty_batches = 0
    while collected < n:
        batch = rng.standard_normal((max(128, n), dim))
        norms = np.linalg.norm(batch, axis=1)
        keep = norms > 1e-12
        batch = batch[keep] / norms[keep, None]
        batch = batch[np.abs(batch @ u) >= margin]
        if len(batch) == 0:
            empty_batches += 1
            if empty_batches >= 64:
                raise ValueError(
                    f"margin {margin} rejects essentially every sample in "
                    f"dimension {dim}"
                )
            continue
        empty_batches = 0
        chunks.append(batch)
        collected += len(batch)
    points = np.vstack(chunks)[:n] if chunks else np.empty((0, dim))

    labels = np.where(points @ u >= 0.0, 1, -1)
    if n:
        flip = rng.random(n) < noise
        labels[flip] *= -1

    index = np.arange(1, dim + 1, dtype=np.int64)
    examples = [
        TrainingExample(SparseVector(index, points[i].copy()), int(labels[i]))
        for i in range(n)
    ]
    return Dataset(examples, dim)


def shuffled(dataset: Dataset, seed: int) -> list[TrainingExample]:
    """Return the examples in a seed-determined random order.

    The permutation is produced by NumPy's PCG64 generator
    (``np.random.default_rng(seed).permutation``, a Fisher-Yates shuffle),
    so orderings are reproducible for a given seed across platforms.
    """
    perm = np.random.default_rng(seed).permutation(len(dataset.examples))
    return [dataset.examples[int(i)] for i in perm]
