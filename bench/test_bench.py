"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bbsvm  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, files, generate  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small(name: str):
    return replace(WORKLOADS[name], jobs=2, n_train=400, n_query=200)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layer == {**spans.UNITS, "trace.overhead_s": "s"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_is_seeded(name, tmp_path):
    w = small(name)
    contents = {}
    for label, seed in [("a", 7), ("b", 7), ("c", 8)]:
        (tmp_path / label).mkdir()
        generate(w, seed, tmp_path / label)
        train, query = files(w, tmp_path / label)
        contents[label] = [p.read_bytes() for p in [*train, query]]
    assert contents["a"] == contents["b"]
    assert all(x != y for x, y in zip(contents["a"], contents["c"]))
    assert len(set(contents["a"])) == len(contents["a"])  # every file its own draw


def test_generated_rows_parse_back_exactly(tmp_path):
    w = small("ingest")
    digests = generate(w, 3, tmp_path)
    train, query = files(w, tmp_path)
    for path, digest in zip([*train, query], digests):
        ds = bbsvm.load_libsvm(path)
        assert worker.dataset_digest(ds) == digest
        assert all(len(ex.x.indices) == w.nnz for ex in ds.examples)


@pytest.mark.parametrize("trace", [False, True])
def test_reduced_run_reports_every_metric(trace):
    result = run.run(small("soft-l0"), seed=5, seconds=8.0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["runs"] > 2  # medians over runs of a job, not a single sample
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["model.feature_map_calls"] == 2 * 400
        assert metrics["cover.escape_checks"] == 2 * 400  # L=0: one test a point


def test_tracer_restores_the_originals_and_nests_spans(tmp_path):
    originals = [vars(owner)[attr] for _, owner, attr, _, _ in spans.TARGETS]
    w = small("solve")
    generate(w, 1, tmp_path)
    train, query = files(w, tmp_path)
    params = bbsvm.ModelParams(dim=w.dim, epsilon=w.epsilon, lookahead=w.lookahead)
    with spans.Tracer() as tracer:
        ds = bbsvm.data.load_libsvm(train[0])
        model = bbsvm.Model(params).train_stream(ds.examples)
        bbsvm.model_file.save_model(model, tmp_path / "m")
        bbsvm.model_file.load_model(tmp_path / "m").predict(
            [ex.x for ex in bbsvm.load_libsvm(query).examples]
        )
    assert [vars(owner)[attr] for _, owner, attr, _, _ in spans.TARGETS] == originals

    names = [s[1] for s in tracer.spans]
    parent = {s[1]: names[s[4]] for s in tracer.spans if s[4] >= 0}
    assert parent["model.feature_map"] == "model.train_stream"
    assert parent["cover.merge_update"] in ("cover.offer", "cover.flush")
    assert parent["meb.approx_meb"] == "cover.merge_update"
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["model.feature_map_calls"] == w.n_train
    assert metrics["cover.merges"] == metrics["meb.calls"] > 0
    assert metrics["cover.balls_final"] == len(model.cover.cores)
    assert metrics["model.train_self_s"] > 0.0


def test_self_times_subtract_direct_children():
    fake = [
        (1, "outer", 0.0, 10.0, -1, None),
        (1, "child", 1.0, 4.0, 0, None),
        (1, "grandchild", 2.0, 3.0, 1, None),
        (1, "child", 5.0, 6.0, 0, None),
    ]
    assert spans.self_times(fake) == [6.0, 2.0, 1.0, 1.0]
    assert spans.self_times(fake[1:3], offset=1) == [2.0, 1.0]


def test_a_job_that_failed_every_run_is_left_out_of_the_times():
    runs = [[], [{"train": 2.0}, {"train": 4.0}, {"train": 3.0}]]
    assert worker.job_seconds(runs, "train") == (3.0, 1)
    assert worker.throughput(runs, "train", 300) == 100.0
    with pytest.raises(SystemExit):
        worker.job_seconds([[], []], "train")


def test_accuracy_below_the_floor_fails_every_passed_predict():
    bench = object.__new__(worker.Bench)
    bench.w = WORKLOADS["solve"]
    bench.refs = [worker.Reference("a", accuracy=1.0), worker.Reference("b", accuracy=0.9)]
    bench.failed, bench.predicts_passed = 1, 7
    assert bench.accuracy() == 0.95
    assert (bench.failed, bench.predicts_passed) == (8, 0)
