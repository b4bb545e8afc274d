"""bbsvm benchmark: seeded LIBSVM files through the whole user pipeline.

    python3 bench/run.py --workload solve|soft-l0|ingest --seed N
                         --seconds S --trace 0|1

Run from the root of a source checkout; bbsvm is imported from ``src/``.
This process generates the inputs under ``.bench_work/`` and then starts
``worker.py``, which does only the workload: with ``--trace 0`` it times
the pipeline and reports the end-to-end metrics, with ``--trace 1`` it
wraps each module's entry points and reports the per-layer metrics.
``setup_s`` is measured here, from fresh interpreters.  Every time is CPU
time scaled to a nominal host speed by reference work timed next to it
(see ``reference.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``README.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, generate  # noqa: E402

SETUP_STARTS = 9
# Each child reports the CPU time it used from its start, like every other
# time of the benchmark: wall time also counts what the host of a shared
# virtual machine gives to other tenants.  A start is scaled to the nominal
# host by the reference starts on either side of it, fresh interpreters
# that import only NumPy: the host's speed moved the median start by 35%
# between minutes, the ratio of a bbsvm start to a NumPy start by 3%.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); import bbsvm; "
    "bbsvm.Model(bbsvm.ModelParams(dim=20)); "
    "print(time.process_time())"
)
REFERENCE_START_CODE = "import time; import numpy; print(time.process_time())"
# CPU time of a reference start on the nominal host.
NOMINAL_START_SECONDS = 0.15
TIMEOUT_S = 150

# The benchmark measures one single-threaded process; BLAS threads would
# add contention noise on a small machine.
ENV = dict(
    os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
)


def start_seconds(code: str) -> float:
    """CPU time a fresh interpreter reports after running ``code``."""
    return float(subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=ENV, check=True, timeout=60,
        stdout=subprocess.PIPE, text=True,
    ).stdout)


def setup_seconds() -> float:
    """Median CPU time of a fresh interpreter importing bbsvm and building a
    Model, scaled to the nominal host speed."""
    samples = []
    before = start_seconds(REFERENCE_START_CODE)
    for _ in range(SETUP_STARTS):
        setup = start_seconds(SETUP_CODE)
        after = start_seconds(REFERENCE_START_CODE)
        samples.append(setup * NOMINAL_START_SECONDS / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the inputs, run the worker on them and return the result."""
    work = ROOT / ".bench_work" / f"{w.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = None if trace else setup_seconds()
        digests = generate(w, seed, work)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--spec", json.dumps(dataclasses.asdict(w)),
            "--workdir", str(work), "--digests", ",".join(digests),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--spans", str(work.parent / f"spans-{w.name}-{seed}.jsonl.gz"),
        ]
        out = subprocess.run(
            cmd, cwd=ROOT, env=ENV, check=True, timeout=TIMEOUT_S,
            stdout=subprocess.PIPE, text=True,
        ).stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = (setup, "s")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "runs": result["runs"],
        "speed_factor": result["speed_factor"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bbsvm" / "__init__.py").is_file():
        print(f"no bbsvm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(
        f"# {args.workload} seed={args.seed} job_runs={result.pop('runs')} "
        f"speed_factor={result.pop('speed_factor'):.3f}"
    )
    for name, m in result["metrics"].items():
        print(f"{name:26s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
