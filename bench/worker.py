"""The measured process: runs one workload's pipeline again and again.

    python3 bench/worker.py --spec JSON --workdir D --digests A,B,...
                            --seconds S --trace 0|1 [--spans F]

``run.py`` has generated the inputs in ``--workdir`` beforehand, so this
process does only the workload and its peak RSS counts only bbsvm.  A job
is the user's closed loop through the public API, one call after another:

    load_libsvm -> Model.train_stream -> save_model -> load_model -> predict

Jobs run one after another, cycling through the workload's jobs until the
time is up; every job runs at least once.  Operations are timed in CPU
seconds of this single-threaded process (``time.process_time``): on a
shared virtual machine the wall clock also counts time the host gives to
other tenants, which made the same job's wall time vary by 30-50% from one
run to the next.  The host's own speed changes too, so each operation's
time is divided by the host's speed factor, measured by the reference
kernels just before and just after it (``reference.py``).  Every one of the five
operations of a job is checked; the last line of standard output is a JSON
object with the operation counts and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bbsvm  # noqa: E402
import bbsvm.data  # noqa: E402
import bbsvm.model_file  # noqa: E402

from reference import speed_factor  # noqa: E402
from spans import UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import Workload, files, rows_digest  # noqa: E402

OPERATIONS = ("load_libsvm", "train_stream", "save_model", "load_model", "predict")


class CountingStream:
    """Iterable over examples that counts passes and items handed out."""

    def __init__(self, items):
        self.items = items
        self.passes = 0
        self.reads = 0

    def __iter__(self):
        self.passes += 1
        for item in self.items:
            self.reads += 1
            yield item


def dataset_digest(ds) -> str:
    return rows_digest((ex.y, ex.x.indices, ex.x.values) for ex in ds.examples)


def cover_digest(model) -> str:
    """Radius, center bytes, slack coefficients and member ids of every ball."""
    h = hashlib.sha256()
    for cs in model.cover.cores:
        h.update(np.float64(cs.ball.radius).tobytes())
        h.update(cs.ball.center.explicit.tobytes())
        coeffs = cs.ball.center.slack_coeffs
        h.update(np.array(list(coeffs), dtype=np.int64).tobytes())
        h.update(np.array(list(coeffs.values()), dtype=np.float64).tobytes())
        h.update(np.array([p.id for p in cs.members], dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass
class Reference:
    """What every run of one job must reproduce, fixed by its first run."""

    train_digest: str
    cover_digest: str | None = None
    predictions: np.ndarray | None = None
    accuracy: float = 0.0
    core_points: int = 0


class Bench:
    def __init__(self, w: Workload, workdir, digests):
        self.w = w
        self.params = bbsvm.ModelParams(
            dim=w.dim, epsilon=w.epsilon, C=w.C, lookahead=w.lookahead
        )
        self.train_paths, query_path = files(w, workdir)
        self.model_paths = [Path(workdir) / f"model-{k}.bbsvm" for k in range(w.jobs)]
        queries = bbsvm.data.load_libsvm(query_path)
        if len(queries) != w.n_query or dataset_digest(queries) != digests[-1]:
            raise SystemExit("query file did not parse to the generated rows")
        self.qx = [ex.x for ex in queries.examples]
        self.qy = np.array([ex.y for ex in queries.examples])
        self.refs = [Reference(d) for d in digests[: w.jobs]]
        self.attempted = 0
        self.failed = 0
        self.predicts_passed = 0
        self.speeds: list[float] = []  # host speed factors of this run
        # The parsed queries live as long as this process; frozen, they are
        # left out of the collections that bbsvm's own allocations trigger.
        gc.collect()
        gc.freeze()

    def run(self, job: int) -> dict[str, float] | None:
        """One checked run of a job; its scaled timings, or None if a check
        failed."""
        clock = time.process_time
        gc.collect()
        self.attempted += len(OPERATIONS)
        model_path = self.model_paths[job]
        speeds, spent = [speed_factor()], []

        def measure(fn, *args):
            """Call ``fn``; note its CPU time and the host speed after it."""
            start = clock()
            result = fn(*args)
            spent.append(clock() - start)
            speeds.append(speed_factor())
            return result

        def reload():
            loaded = bbsvm.model_file.load_model(model_path)
            return loaded, loaded.predict(self.qx)

        try:
            model = bbsvm.Model(self.params)
            ds = measure(bbsvm.data.load_libsvm, self.train_paths[job])
            stream = CountingStream(ds.examples)
            measure(model.train_stream, stream)
            measure(bbsvm.model_file.save_model, model, model_path)
            loaded, predictions = measure(reload)
            bad = self.check(job, ds, stream, model, loaded, predictions)
        except Exception:
            traceback.print_exc()
            self.failed += len(OPERATIONS)
            return None
        self.failed += len(bad)
        self.predicts_passed += "predict" not in bad
        if bad:
            print(f"job {job} failed checks: {', '.join(bad)}", file=sys.stderr)
            return None
        self.speeds += speeds
        # Each operation is scaled by the speed factors on either side of it.
        parse, train, save, predict = (
            t / ((before + after) / 2)
            for t, before, after in zip(spent, speeds, speeds[1:])
        )
        return {"fit": parse + train + save, "train": train, "predict": predict}

    def check(self, job, ds, stream, model, loaded, predictions) -> list[str]:
        """Names of the operations whose output is wrong."""
        ref, bad = self.refs[job], []
        if len(ds) != self.w.n_train or dataset_digest(ds) != ref.train_digest:
            bad.append("load_libsvm")
        digest = cover_digest(model)
        if ref.cover_digest is None:
            ref.cover_digest = digest
            ref.predictions = model.predict(self.qx)
            ref.accuracy = float(np.mean(ref.predictions == self.qy))
            ref.core_points = sum(len(cs.members) for cs in model.cover.cores)
        once = stream.passes == 1 and stream.reads == len(stream.items)
        if digest != ref.cover_digest or not once:
            bad.append("train_stream")
        saved = self.model_paths[job]
        if not saved.is_file() or saved.stat().st_size == 0:
            bad.append("save_model")
        if cover_digest(loaded) != digest:
            bad.append("load_model")
        if not np.array_equal(predictions, ref.predictions):
            bad.append("predict")
        return bad

    def accuracy(self) -> float:
        """Mean accuracy of the jobs' models, checked against the floor.

        One job's accuracy has a long lower tail (see README.md), so the
        workload's floor applies to the mean over its jobs; below it, every
        predict that passed its other checks counts as failed.
        """
        accuracy = statistics.fmean(r.accuracy for r in self.refs)
        if accuracy < self.w.accuracy_floor:
            print(f"accuracy {accuracy:.4f} is below the floor", file=sys.stderr)
            self.failed += self.predicts_passed
            self.predicts_passed = 0
        return accuracy

    def run_pass(self, runs) -> None:
        """Run every job once, adding the timings of each to ``runs[job]``."""
        for job in range(self.w.jobs):
            self.run_into(runs, job)

    def run_into(self, runs, job: int) -> None:
        times = self.run(job)
        if times is not None:
            runs[job].append(times)


def repeat(deadline: float, step) -> None:
    """Call ``step()`` once, then again until the next call would end after
    ``deadline`` on the ``time.perf_counter`` clock."""
    while True:
        start = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def job_seconds(runs, key: str) -> tuple[float, int]:
    """Sum over jobs of each job's median time, and the number of jobs.

    A job whose every run failed its checks has no time and is left out;
    its failures are in the operation counts.
    """
    times = [statistics.median(r[key] for r in job) for job in runs if job]
    if not times:
        raise SystemExit("no job passed its checks")
    return sum(times), len(times)


def throughput(runs, key: str, size: int) -> float:
    """Items per second, for ``size`` items a job."""
    seconds, jobs = job_seconds(runs, key)
    return size * jobs / seconds


def peak_rss_kb() -> int:
    """High-water RSS of this process's own memory since it started.

    ``ru_maxrss`` is not used: Linux carries it across ``execve``, so a
    worker started by a parent that has just generated large inputs would
    report the parent's peak.  ``VmHWM`` belongs to the new address space.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def timed(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics over as many job runs as fit in ``seconds``."""
    w, refs = bench.w, bench.refs
    runs = [[] for _ in range(w.jobs)]
    deadline = time.perf_counter() + seconds
    bench.run_pass(runs)  # every job runs at least once
    started = w.jobs

    def step():
        nonlocal started
        bench.run_into(runs, started % w.jobs)
        started += 1

    repeat(deadline, step)
    return {
        "runs": started,
        "speed_factor": statistics.median(bench.speeds),
        "metrics": {
            "fit_pts_per_s": (throughput(runs, "fit", w.n_train), "points/s"),
            "train_pts_per_s": (throughput(runs, "train", w.n_train), "points/s"),
            "predict_qps": (throughput(runs, "predict", w.n_query), "queries/s"),
            "accuracy": (bench.accuracy(), "fraction"),
            "core_points": (statistics.fmean(r.core_points for r in refs), "count"),
            "peak_rss_mb": (peak_rss_kb() / 1024.0, "MB"),
        },
    }


def traced(bench: Bench, seconds: float, spans_path) -> dict:
    """Per-layer metrics from traced passes over the jobs.

    In a pass each job runs untraced and then traced, so the two runs of a
    job see the same host speed; the first untraced run fixes the job's
    references.  Each per-layer metric is the median over passes; the
    tracing overhead is the traced minus the untraced ``train_stream`` CPU
    time of a pass.
    """
    w, tracer = bench.w, Tracer()
    plain = [[] for _ in range(w.jobs)]
    traced_runs = [[] for _ in range(w.jobs)]
    layers = []
    deadline = time.perf_counter() + seconds

    def step():
        first = len(tracer.spans)
        for job in range(w.jobs):
            bench.run_into(plain, job)
            with tracer:
                tracer.run += 1
                bench.run_into(traced_runs, job)
        layers.append(layer_metrics(tracer.spans[first:], first))

    repeat(deadline, step)
    bench.accuracy()
    tracer.write(spans_path)
    metrics = {
        name: (statistics.median(layer[name] for layer in layers), unit)
        for name, unit in UNITS.items()
    }
    overhead = job_seconds(traced_runs, "train")[0] - job_seconds(plain, "train")[0]
    metrics["trace.overhead_s"] = (overhead, "s")
    return {
        "runs": 2 * w.jobs * len(layers),
        "speed_factor": statistics.median(bench.speeds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="workload as JSON")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--digests", required=True, help="comma-separated file digests")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    w = Workload(**json.loads(args.spec))
    bench = Bench(w, args.workdir, args.digests.split(","))
    if args.trace:
        result = traced(bench, args.seconds, args.spans)
    else:
        result = timed(bench, args.seconds)
    result.update(attempted=bench.attempted, failed=bench.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
