"""The frozen benchmark's hooks into the library, checked with the library's tests.

``bench/test_bench.py`` lies outside the test paths, so a library change
that broke the bench tracer's patch points or its reload check would still
pass ``pytest``.  These tests import the bench's own code and run it.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from bbsvm.data import generate_synthetic
from bbsvm.model import Model, ModelParams
from bbsvm.model_file import load_model, save_model

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_tests", BENCH / "test_bench.py")
bench_tests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_tests)


def test_bench_tracer_restores_the_originals_and_nests_spans(tmp_path):
    bench_tests.test_tracer_restores_the_originals_and_nests_spans(tmp_path)


@pytest.mark.parametrize("C", [10.0, math.inf])
def test_bench_cover_digest_survives_save_and_load(tmp_path, C):
    ds = generate_synthetic(600, 8, 0.05, 0.05 if C < math.inf else 0.0, seed=5)
    model = Model(ModelParams(dim=8, epsilon=0.01, C=C)).train_stream(ds.examples)
    assert len(model.cover.cores) > 1
    save_model(model, tmp_path / "m.bbsvm")
    digest = bench_tests.worker.cover_digest
    assert digest(load_model(tmp_path / "m.bbsvm")) == digest(model)
