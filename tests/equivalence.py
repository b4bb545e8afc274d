#!/usr/bin/env python3
"""Bit-equivalence records of the benchmark's jobs, and their comparison.

    OPENBLAS_NUM_THREADS=1 python3 tests/equivalence.py --out FILE
                                   [--tree DIR] [--seeds 1,2,3]
    python3 tests/equivalence.py --compare A B

The first form writes each workload's files for each seed with
``bench/workloads.py``, then parses, trains, saves, reloads and predicts
every job with the bbsvm of ``DIR/src`` (default: this checkout), through
``DIR/bench``.  It writes one JSON line a job: the training and query
files' digests and dims, the bench's ``cover_digest`` of the trained and of
the reloaded model, SHA-256 of the model file and of both prediction
vectors, the ball and core point counts (members summed over balls, as the
bench counts them) and the accuracy.  BLAS threads change the bits of a
matrix product, so run it single-threaded, as the bench runs its worker.

The second form prints, per workload, how many jobs of A and B agree on
each field, and how many of B's reloaded covers equal their trained
covers; it exits 1 unless every count is the job count.  A change that
keeps every bit keeps every count; record its parent from a copy of the
parent's tree (``git archive``) with ``--tree``.

pytest does not collect this file; ``test_bench_hooks.py`` runs it on
small workloads.  It imports ``bench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from operator import itemgetter
from pathlib import Path

import numpy as np

FIELDS = ("train_digest", "dim", "query_digest", "query_dim", "cover", "reloaded_cover",
          "model_sha", "pred_sha", "reloaded_pred_sha", "balls", "core_points", "accuracy")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def job_records(workloads, seeds, workdir):
    """One record a job of each workload and seed, its files under ``workdir``.

    ``bench/`` must be importable; its ``worker`` module puts its own
    checkout's ``src`` first on ``sys.path``, so that is the bbsvm tested.
    """
    import worker
    from workloads import files, generate

    bbsvm = worker.bbsvm
    for w in workloads:
        params = bbsvm.ModelParams(
            dim=w.dim, epsilon=w.epsilon, C=w.C, lookahead=w.lookahead
        )
        for seed in seeds:
            where = Path(workdir) / f"{w.name}-{seed}"
            where.mkdir(parents=True)
            generate(w, seed, where)
            train_paths, query_path = files(w, where)
            queries = bbsvm.load_libsvm(query_path)
            qx = [ex.x for ex in queries.examples]
            qy = np.array([ex.y for ex in queries.examples])
            for job, train_path in enumerate(train_paths):
                ds = bbsvm.load_libsvm(train_path)
                model = bbsvm.Model(params).train_stream(ds.examples)
                model_path = where / f"model-{job}.bbsvm"
                bbsvm.save_model(model, model_path)
                loaded = bbsvm.load_model(model_path)
                predictions = model.predict(qx)
                yield {
                    "workload": w.name, "seed": seed, "job": job,
                    "train_digest": worker.dataset_digest(ds), "dim": ds.dim,
                    "query_digest": worker.dataset_digest(queries), "query_dim": queries.dim,
                    "cover": worker.cover_digest(model),
                    "reloaded_cover": worker.cover_digest(loaded),
                    "model_sha": _sha(model_path.read_bytes()),
                    "pred_sha": _sha(predictions.tobytes()),
                    "reloaded_pred_sha": _sha(loaded.predict(qx).tobytes()),
                    "balls": len(model.cover.cores),
                    "core_points": sum(len(cs.members) for cs in model.cover.cores),
                    "accuracy": float(np.mean(predictions == qy)),
                }


def compare(a: list[dict], b: list[dict]) -> dict:
    """Per workload: the jobs, how many agree on each field, and how many of
    ``b``'s reloaded covers equal their trained covers."""
    key = itemgetter("workload", "seed", "job")
    a_by, b_by = {key(r): r for r in a}, {key(r): r for r in b}
    if a_by.keys() != b_by.keys():
        raise ValueError("the two records hold different jobs")
    by_workload = {}
    for k in sorted(a_by):
        ra, rb = a_by[k], b_by[k]
        counts = by_workload.setdefault(k[0], dict.fromkeys(
            ["jobs", *(f + "_equal" for f in FIELDS), "cover_equals_reloaded"], 0))
        counts["jobs"] += 1
        for f in FIELDS:
            counts[f + "_equal"] += ra[f] == rb[f]
        counts["cover_equals_reloaded"] += rb["cover"] == rb["reloaded_cover"]
    return {"jobs": len(a_by), "by_workload": by_workload}


def _read(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path)
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        result = compare(*map(_read, args.compare))
        print(json.dumps(result, indent=1))
        return int(any(v != c["jobs"] for c in result["by_workload"].values()
                       for v in c.values()))
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "bench"))
    import worker
    from workloads import WORKLOADS

    if not Path(worker.bbsvm.__file__).is_relative_to(tree / "src"):
        raise SystemExit(f"bbsvm came from {worker.bbsvm.__file__}, not {tree / 'src'}")
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as workdir, open(args.out, "w") as out:
        for record in job_records(WORKLOADS.values(), seeds, workdir):
            out.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
