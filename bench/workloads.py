"""Workload definitions and the seeded LIBSVM input generator.

The generator uses NumPy only, never bbsvm, so a change to the library can
not change the benchmark's inputs.  Every label comes from one hidden unit
hyperplane ``u`` drawn from the seed.  Each of a workload's ``jobs``
training files and its one query file is drawn from its own child stream
of the seed.  Training labels are flipped with probability ``noise``; query
labels are the clean ``sign(u . x)``, so ``accuracy`` measures how well a
model recovers the hyperplane.

A workload trains several independent models (jobs) because one stream's
merge count is a record process: one job's training time and core-point
count vary by 10-30% (interquartile range over median) from stream to
stream, and most merges happen early in a stream.  Summing over many jobs
keeps one seed's figures close to another's; each job is only as long as
its workload's layer shares need (``soft-l0`` needs 20k points a job for
the escape test to outweigh the merges).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int  # independent training files, each trained into its own model
    n_train: int  # lines per training file
    n_query: int  # lines of the query file every model predicts
    dim: int
    nnz: int  # nonzeros per line; equal to dim for dense inputs
    margin: float
    noise: float
    C: float
    epsilon: float
    lookahead: int
    accuracy_floor: float  # on the mean over jobs; catches a broken model


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="solve",
            jobs=20,
            n_train=400,
            n_query=8_000,
            dim=20,
            nnz=20,
            margin=0.2,
            noise=0.0,
            C=math.inf,
            epsilon=1e-4,
            lookahead=10,
            accuracy_floor=0.99,
        ),
        Workload(
            name="soft-l0",
            jobs=8,
            n_train=20_000,
            n_query=4_000,
            dim=20,
            nnz=20,
            margin=0.05,
            noise=0.05,
            C=10.0,
            epsilon=1e-3,
            lookahead=0,
            accuracy_floor=0.7,
        ),
        Workload(
            name="ingest",
            jobs=6,
            n_train=15_000,
            n_query=5_000,
            dim=300,
            nnz=60,
            margin=0.1,
            noise=0.0,
            C=math.inf,
            epsilon=1e-2,
            lookahead=10,
            accuracy_floor=0.85,
        ),
    ]
}


# Candidate rows drawn at a time; bounds the generator's memory.
BATCH = 8192
# Value draws per sparse index set.  Only about 8% of ``ingest`` candidates
# clear the margin, and choosing 60 of 300 indices costs far more than
# drawing 60 values, so each index set is tried with several value draws.
# Every kept row is still an exact draw from the rejection sampler; rows
# that share an index set are shuffled apart within their batch.
INDEX_REUSE = 8


def _draw(rng: np.random.Generator, w: Workload, u: np.ndarray, n: int):
    """``n`` unit vectors with ``|u . x| >= margin``, as (indices, values).

    Indices are 0-based and sorted within each row; dense rows use every
    index.  Rejected draws are replaced until ``n`` rows are kept.
    """
    rows_i, rows_v, have = [], [], 0
    while have < n:
        if w.nnz == w.dim:
            idx = np.broadcast_to(np.arange(w.dim), (BATCH, w.dim))
        else:
            keys = rng.random((BATCH // INDEX_REUSE, w.dim), np.float32)
            idx = np.argpartition(keys, w.nnz, axis=1)
            idx = np.repeat(np.sort(idx[:, : w.nnz], axis=1), INDEX_REUSE, axis=0)
        vals = rng.standard_normal((BATCH, w.nnz))
        vals /= np.linalg.norm(vals, axis=1, keepdims=True)
        keep = np.abs((vals * u[idx]).sum(axis=1)) >= w.margin
        order = rng.permutation(int(keep.sum()))
        rows_i.append(idx[keep][order])
        rows_v.append(vals[keep][order])
        have += len(order)
    return np.concatenate(rows_i)[:n], np.concatenate(rows_v)[:n]


def rows_digest(rows) -> str:
    """SHA-256 over ``(label, 1-based indices, values)`` rows, bit for bit."""
    h = hashlib.sha256()
    for y, idx, vals in rows:
        idx = np.asarray(idx, dtype=np.int64)
        h.update(b"+" if y > 0 else b"-")
        h.update(len(idx).to_bytes(4, "little"))
        h.update(idx.tobytes())
        h.update(np.asarray(vals, dtype=np.float64).tobytes())
    return h.hexdigest()


def _write(path, idx: np.ndarray, vals: np.ndarray, labels: np.ndarray) -> str:
    """Write LIBSVM text and return the rows' digest."""
    # repr(float) is the shortest round-trip text; a bare NumPy scalar would
    # print as "np.float64(...)", which is not LIBSVM.
    prefix = [f" {i + 1}:" for i in range(int(idx.max()) + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        for row_i, row_v, y in zip(idx.tolist(), vals.tolist(), labels.tolist()):
            fh.write("+1" if y > 0 else "-1")
            names = map(prefix.__getitem__, row_i)
            fh.write("".join([a + b for a, b in zip(names, map(repr, row_v))]))
            fh.write("\n")
    return rows_digest(zip(labels, idx + 1, vals))


def files(w: Workload, workdir) -> tuple[list[Path], Path]:
    """Paths of the training files and of the query file under ``workdir``."""
    workdir = Path(workdir)
    return [workdir / f"train-{k}.svm" for k in range(w.jobs)], workdir / "query.svm"


def generate(w: Workload, seed: int, workdir) -> list[str]:
    """Write the seeded input files; return the digests of training files
    ``0 .. jobs-1`` followed by that of the query file."""
    hyper, *streams = np.random.SeedSequence(seed).spawn(w.jobs + 2)
    u = np.random.default_rng(hyper).standard_normal(w.dim)
    u /= np.linalg.norm(u)
    train_paths, query_path = files(w, workdir)
    outputs = [(p, w.n_train, w.noise) for p in train_paths]
    outputs.append((query_path, w.n_query, 0.0))
    digests = []
    for (path, n, noise), stream in zip(outputs, streams):
        rng = np.random.default_rng(stream)
        idx, vals = _draw(rng, w, u, n)
        labels = np.where((vals * u[idx]).sum(axis=1) >= 0.0, 1, -1)
        labels[rng.random(n) < noise] *= -1
        digests.append(_write(path, idx, vals, labels))
    return digests
