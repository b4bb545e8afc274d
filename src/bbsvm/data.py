"""Dataset ingestion and synthesis.

Provides a sparse LIBSVM-format text parser, a seeded synthetic generator
for linearly separable data, and reproducible stream shuffling.

The parser reads ``CHUNK_CHARS`` (about 128 KB) of text at a time.  A chunk
of canonical lines (ASCII ``<label> <index>:<value> ...``, single spaces, no
comment, tab or blank line) is read by one ``np.fromstring`` call; any other
chunk, and any with an error, goes line by line, which gives the same rows
and names the line of the first error.  A chunk's transient copies peak at
about 0.4 MB, three times its text.  Index arrays are read-only: a row with
indices 1..k, parsed or synthetic, holds the one live ``_dense_index(k)``,
which tells the feature map to copy it; other rows view their chunk's copy.
A dense 20-feature row keeps about 380 bytes, 160 its values.
"""

from __future__ import annotations

import gzip
import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Iterator

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
CHUNK_CHARS = 1 << 17  # text parsed as one block: about 128 KB


class DataFormatError(ValueError):
    """Malformed dataset text; messages carry the offending line number."""


@dataclass(eq=False, slots=True)
class SparseVector:
    """Sparse real vector with 1-based, strictly increasing indices, one value
    each; lists and other sequences are taken as NumPy arrays."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # An array is kept as it is: a dense row's index is known by identity.
        self.indices, self.values = np.asarray(self.indices), np.asarray(self.values)
        if len(self.indices) != len(self.values):
            raise ValueError(f"{len(self.values)} values for {len(self.indices)} indices")


@dataclass(eq=False, slots=True)
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
    skipped.  Chunks of lines are read as blocks (see the module docstring);
    only lines with their endings, as a file yields them, can take that path.
    """
    if isinstance(lines, str):
        lines = lines.splitlines(keepends=True)
    examples: list[TrainingExample] = []
    first, dim = 1, 0
    for chunk in _chunks(lines):
        rows, top = _parse_block(chunk) or _parse_lines(chunk, first)
        examples += rows
        dim = max(dim, top)
        first += len(chunk)
    return Dataset(examples, dim)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Weak, so an array lives only while some row holds it: a strong cache would
# keep one array for every length ever parsed.
_dense_indices = weakref.WeakValueDictionary()


def _dense_index(k: int) -> np.ndarray:
    """The one live read-only int64 array ``1..k``, made if no row holds it."""
    index = _dense_indices.get(k)
    if index is None:
        index = _dense_indices[k] = _read_only(np.arange(1, k + 1, dtype=np.int64))
    return index


def _chunks(lines: Iterable[str]) -> Iterator[list[str]]:
    """``lines`` in runs of ``CHUNK_CHARS`` or more characters; the last may be less."""
    chunk, size = [], 0
    for line in lines:
        chunk.append(line)
        size += len(line)
        if size >= CHUNK_CHARS:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _parse_block(lines: list[str]) -> tuple[list, int] | None:
    """Rows and top index of ``lines`` read as one block, or None for the line parser.

    Taken are ASCII lines ``<label>( <index>:<value>)+``, single-spaced, with
    only digits and signs in an index and ``0-9+-.eE`` in a word.  No word
    then holds whitespace, and ``np.fromstring`` raises on a word it cannot
    read whole, so at the right count each word is one number, with the bits
    ``float`` gives it.
    """
    raw = "".join(lines).encode("ascii", "replace")  # a "?" fails the checks
    if not raw.endswith(b"\n"):
        raw += b"\n"
    signs = raw.translate(None, b"0123456789+-")
    marks = signs.translate(None, b".eE")
    n, features = len(lines), marks.count(b":")
    if (
        marks.replace(b" :", b"") != b"\n" * n  # each line " :" * k + "\n"
        or marks.count(b":\n") != n  # with k > 0
        or signs.count(b" :") != features  # an index is digits and signs
    ):
        return None
    try:
        numbers = np.fromstring(raw.replace(b":", b" "), sep=" ")
    except ValueError:
        return None
    # Free the text before the rows are built: kept to the end, it raised the
    # peak RSS of the ingest benchmark from 81 to 92 MB.
    del raw, signs
    if numbers.size != n + 2 * features:
        return None
    # Line r is 2 k_r marks and "\n": its newline's offset less r is twice
    # the features of lines 0..r.
    stops = (np.flatnonzero(np.frombuffer(marks, np.uint8) == 10) - np.arange(n)) // 2
    starts = np.concatenate(([0], stops[:-1]))
    heads = np.arange(n) + 2 * starts  # each line's label
    labels, pairs = numbers[heads], np.delete(numbers, heads)
    index, values = pairs[0::2], pairs[1::2].copy()
    step = np.diff(index, prepend=0.0)
    step[starts] = index[starts]
    if not (
        (step > 0.0).all()
        and (top := index.max()) < 2.0**53  # so every index is exact
        and np.isfinite(values).all()
        and np.isin(labels, (1.0, -1.0, 0.0)).all()
    ):
        return None
    # Indices rise from 1 or more, so a row is 1..k when its last index is k.
    dense = index[stops - 1] == stops - starts
    index = index if dense.all() else _read_only(index.astype(np.int64))
    shared = {k: _dense_index(k) for k in set((stops - starts)[dense].tolist())}
    ys = np.where(labels == 1.0, 1, -1).tolist()
    return [
        TrainingExample(SparseVector(shared[b - a] if d else index[a:b], values[a:b]), y)
        for a, b, y, d in zip(starts.tolist(), stops.tolist(), ys, dense.tolist())
    ], int(top)


def _parse_lines(lines: Iterable[str], first: int) -> tuple[list, int]:
    """The rows and largest index of ``lines``, numbered from ``first``."""
    examples, top = [], 0
    for lineno, raw in enumerate(lines, first):
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
        if idxs[-1] >= 2**63:  # the largest, as indices increase
            raise DataFormatError(
                f"line {lineno}: feature index {idxs[-1]} does not fit in int64"
            )
        if not math.isfinite(sum(vals)):  # NaN and inf propagate; cheap per line
            bad = [t for t, v in zip(tokens[1:], vals) if not math.isfinite(v)]
            if bad:  # else the sum of finite values overflowed
                raise DataFormatError(
                    f"line {lineno}: non-finite value {bad[0].partition(':')[2]!r}"
                )
        top = max(top, idxs[-1])
        index = _read_only(np.array(idxs, dtype=np.int64))
        examples.append(TrainingExample(SparseVector(index, np.array(vals)), label))
    return examples, top


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

    index = _dense_index(dim)
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
