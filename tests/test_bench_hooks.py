"""The frozen benchmark's hooks into the library, checked with the library's tests.

``bench/test_bench.py`` lies outside the test paths, so a library change
that broke the bench tracer's patch points, its reload check or its parse
check would still pass ``pytest``.  These tests import the bench's own code
and run it, check that its generated files parse to their digests, and use
its cover digest to check that a reloaded model resumes training as the
saved one does.
"""

import gzip
import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbsvm.data
from bbsvm.data import format_libsvm, generate_synthetic, load_libsvm
from bbsvm.model import Model, ModelParams
from bbsvm.model_file import load_model, save_model

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_tests", BENCH / "test_bench.py")
bench_tests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_tests)


def test_bench_tracer_restores_the_originals_and_nests_spans(tmp_path):
    bench_tests.test_tracer_restores_the_originals_and_nests_spans(tmp_path)


def test_bench_generated_rows_parse_back_exactly(tmp_path):
    bench_tests.test_generated_rows_parse_back_exactly(tmp_path)


def _traced_metrics(tmp_path, n, C, lookahead):
    """The bench's per-layer metrics of training on ``n`` parsed points."""
    noise = 0.0 if C == math.inf else 0.05
    path = tmp_path / "train.svm"
    path.write_text(format_libsvm(generate_synthetic(n, 8, 0.05, noise, seed=3)))
    params = ModelParams(dim=8, epsilon=0.01, C=C, lookahead=lookahead)
    with bench_tests.spans.Tracer() as tracer:
        Model(params).train_stream(bbsvm.data.load_libsvm(path).examples)  # traced
    return bench_tests.spans.layer_metrics(tracer.spans)


@pytest.mark.parametrize("C", [10.0, math.inf])
def test_bench_counts_at_a_lookahead_of_ten(tmp_path, C):
    # With a partial last buffer, the bench must still count one feature map
    # a point, one escape check a full buffer plus one for the flush, and
    # one solver call a merge.
    metrics = _traced_metrics(tmp_path, 95, C, 10)
    assert metrics["model.feature_map_calls"] == 95
    assert metrics["cover.escape_checks"] == 95 // 10 + 1
    assert metrics["cover.merges"] == metrics["meb.calls"] > 0


@pytest.mark.parametrize("C", [10.0, math.inf])
def test_bench_counts_at_a_lookahead_of_zero(tmp_path, C):
    # The soft-l0 workload's path: one feature map and one escape check a
    # point (the flush finds no pending point), and one solver call a merge.
    metrics = _traced_metrics(tmp_path, 95, C, 0)
    assert metrics["model.feature_map_calls"] == 95
    assert metrics["cover.escape_checks"] == 95
    assert metrics["cover.merges"] == metrics["meb.calls"] > 0


@pytest.mark.parametrize("name", ["solve", "soft-l0"])
def test_bench_inputs_parse_to_their_digests_plain_and_gzipped(tmp_path, name):
    w = bench_tests.small(name)
    digests = bench_tests.generate(w, 3, tmp_path)
    train, query = bench_tests.files(w, tmp_path)
    for path, digest in zip([*train, query], digests):
        zipped = path.with_name(path.name + ".gz")
        zipped.write_bytes(gzip.compress(path.read_bytes()))
        for copy in (path, zipped):
            assert bench_tests.worker.dataset_digest(load_libsvm(copy)) == digest


@pytest.mark.parametrize("C", [10.0, math.inf])
def test_bench_cover_digest_survives_save_and_load(tmp_path, C):
    ds = generate_synthetic(600, 8, 0.05, 0.05 if C < math.inf else 0.0, seed=5)
    model = Model(ModelParams(dim=8, epsilon=0.01, C=C)).train_stream(ds.examples)
    assert len(model.cover.cores) > 1
    save_model(model, tmp_path / "m.bbsvm")
    digest = bench_tests.worker.cover_digest
    assert digest(load_model(tmp_path / "m.bbsvm")) == digest(model)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(20, 300),
    split=st.floats(0.0, 1.0),
    C=st.sampled_from([math.inf, 10.0]),
    lookahead=st.sampled_from([0, 3, 10]),
)
def test_a_reloaded_model_resumes_training_exactly(
    tmp_path_factory, seed, n, split, C, lookahead
):
    # Train on a prefix, then continue on the rest in memory and after a
    # save/load: the two covers and their saved files must be identical.
    noise = 0.0 if C == math.inf else 0.05
    examples = generate_synthetic(n, 8, 0.05, noise, seed=seed).examples
    k = int(split * n)
    params = ModelParams(dim=8, epsilon=0.01, C=C, lookahead=lookahead)
    model = Model(params).train_stream(examples[:k])
    path = tmp_path_factory.mktemp("resume")
    save_model(model, path / "prefix.bbsvm")
    loaded = load_model(path / "prefix.bbsvm")
    model.train_stream(examples[k:])
    loaded.train_stream(examples[k:])
    digest = bench_tests.worker.cover_digest
    assert digest(loaded) == digest(model)
    save_model(model, path / "memory.bbsvm")
    save_model(loaded, path / "loaded.bbsvm")
    assert (path / "loaded.bbsvm").read_bytes() == (path / "memory.bbsvm").read_bytes()


@pytest.mark.parametrize("C", [math.inf, 10.0])
@pytest.mark.parametrize("lookahead", [0, 3, 10])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(0, 300),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=12),
)
def test_feeding_any_chunking_then_finishing_is_one_pass(
    tmp_path_factory, C, lookahead, seed, n, cuts
):
    # The buffer lives in the model, so the chunk ends (empty chunks too)
    # change nothing: the cover and the saved file are one train_stream's.
    noise = 0.0 if C == math.inf else 0.05
    examples = generate_synthetic(n, 8, 0.05, noise, seed=seed).examples
    params = ModelParams(dim=8, epsilon=0.01, C=C, lookahead=lookahead)
    whole = Model(params).train_stream(examples)
    chunked = Model(params)
    ends = [0, *sorted(int(f * n) for f in cuts), n]
    for start, stop in zip(ends, ends[1:]):
        chunked.feed(examples[start:stop])
    chunked.finish()
    digest = bench_tests.worker.cover_digest
    assert digest(chunked) == digest(whole)
    path = tmp_path_factory.mktemp("chunks")
    save_model(whole, path / "whole.bbsvm")
    save_model(chunked, path / "chunked.bbsvm")
    assert (path / "chunked.bbsvm").read_bytes() == (path / "whole.bbsvm").read_bytes()
