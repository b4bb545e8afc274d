import gzip
import math

import numpy as np
import pytest

from bbsvm.data import (
    DataFormatError,
    format_libsvm,
    generate_synthetic,
    load_libsvm,
    parse_libsvm,
    shuffled,
    SparseVector,
)
from oracle import to_dense


# ---------------------------------------------------------------------- parser


def test_parse_basic_line():
    ds = parse_libsvm("+1 1:0.5 3:2.0\n")
    assert len(ds) == 1 and ds.dim == 3
    ex = ds.examples[0]
    assert ex.y == 1
    assert list(ex.x.indices) == [1, 3]
    assert list(ex.x.values) == [0.5, 2.0]


def test_parse_zero_label_is_negative():
    ds = parse_libsvm("0 2:1\n")
    assert ds.examples[0].y == -1
    assert ds.dim == 2


def test_parse_label_variants():
    ds = parse_libsvm("1 1:1\n-1 1:1\n+1 1:1\n1.0 1:1\n")
    assert [ex.y for ex in ds.examples] == [1, -1, 1, 1]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DataFormatError, match="line 1"):
        parse_libsvm("abc 1:1\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_libsvm("+1 1:1\n+1 2:1 2:3\n")  # non-increasing index
    with pytest.raises(DataFormatError, match="line 1"):
        parse_libsvm("+1 0:1\n")  # indices are 1-based
    with pytest.raises(DataFormatError, match="line 3"):
        parse_libsvm("+1 1:1\n-1 1:1\n+1 1:x\n")
    with pytest.raises(DataFormatError, match="no features"):
        parse_libsvm("+1\n")
    with pytest.raises(DataFormatError, match="unknown label"):
        parse_libsvm("3 1:1\n")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
def test_parse_rejects_non_finite_values_with_line_number(text):
    with pytest.raises(DataFormatError, match=f"line 3: non-finite value '{text}'"):
        parse_libsvm(f"+1 1:1\n-1 1:0.5 2:1\n+1 1:0.25 2:{text} 3:1\n")


def test_parse_accepts_finite_values_whose_sum_overflows():
    ds = parse_libsvm("+1 1:1e308 2:1e308 3:-1e308\n")
    assert ds.examples[0].x.values.tolist() == [1e308, 1e308, -1e308]


def test_parse_comments_and_blank_lines():
    text = "# header comment\n\n+1 1:1.5  # trailing comment\n"
    ds = parse_libsvm(text)
    assert len(ds) == 1
    assert ds.examples[0].x.values[0] == 1.5


def test_format_parse_round_trip():
    text = "+1 1:0.5 3:2.0\n-1 2:0.1\n+1 4:-1.75\n"
    ds = parse_libsvm(text)
    canonical = format_libsvm(ds)
    again = parse_libsvm(canonical)
    assert format_libsvm(again) == canonical
    for a, b in zip(ds.examples, again.examples):
        assert a.y == b.y
        assert np.array_equal(a.x.indices, b.x.indices)
        assert np.array_equal(a.x.values, b.x.values)


def test_round_trip_preserves_awkward_floats():
    ds = generate_synthetic(25, 4, 0.1, 0.0, seed=99)
    again = parse_libsvm(format_libsvm(ds))
    for a, b in zip(ds.examples, again.examples):
        assert np.array_equal(a.x.values, b.x.values)  # exact decimal round-trip


@pytest.mark.filterwarnings("error")
def test_sparse_vector_norm():
    rng = np.random.default_rng(12)
    for scale in (1e-3, 1.0, 1e3):
        for n in (1, 5, 60):
            values = rng.normal(size=n) * scale
            x = SparseVector(np.arange(1, n + 1), values)
            assert x.norm() == float(np.linalg.norm(values))
    # Squares that overflow or underflow are rescaled instead.
    for value in (1e200, 1e-200, 5e-324):
        x = SparseVector(np.array([1, 2]), np.array([value, -value]))
        assert math.isclose(x.norm(), value * math.sqrt(2.0), rel_tol=1e-15)
    assert SparseVector(np.array([1]), np.array([0.0])).norm() == 0.0
    assert SparseVector(np.array([], dtype=int), np.array([])).norm() == 0.0
    assert SparseVector(np.array([1]), np.array([math.inf])).norm() == math.inf
    assert math.isnan(SparseVector(np.array([1]), np.array([math.nan])).norm())


def test_load_libsvm_gzip(tmp_path):
    text = "+1 1:1.0 2:2.0\n-1 1:-1.0\n"
    plain = tmp_path / "d.txt"
    plain.write_text(text)
    zipped = tmp_path / "d.txt.gz"
    with gzip.open(zipped, "wt", encoding="utf-8") as fh:
        fh.write(text)
    a, b = load_libsvm(plain), load_libsvm(zipped)
    assert len(a) == len(b) == 2
    assert format_libsvm(a) == format_libsvm(b)


# ------------------------------------------------------------------- generator


def test_generate_empty():
    ds = generate_synthetic(0, 5, 0.2, 0.0, seed=42)
    assert ds.examples == [] and ds.dim == 5


def test_generate_deterministic():
    a = generate_synthetic(50, 6, 0.15, 0.3, seed=42)
    b = generate_synthetic(50, 6, 0.15, 0.3, seed=42)
    assert format_libsvm(a) == format_libsvm(b)
    c = generate_synthetic(50, 6, 0.15, 0.3, seed=43)
    assert format_libsvm(a) != format_libsvm(c)


def test_generate_separable_with_margin():
    ds = generate_synthetic(200, 8, 0.25, 0.0, seed=1)
    # recover the generator's normal the same way it was drawn
    rng = np.random.default_rng(1)
    u = rng.standard_normal(8)
    u /= np.linalg.norm(u)
    for ex in ds.examples:
        proj = float(to_dense(ex.x, 8) @ u)
        assert abs(proj) >= 0.25
        assert ex.y == (1 if proj >= 0 else -1)


def test_generate_points_on_unit_sphere():
    ds = generate_synthetic(50, 5, 0.0, 0.0, seed=2)
    for ex in ds.examples:
        assert abs(ex.x.norm() - 1.0) <= 1e-12


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_synthetic(-1, 5, 0.2, 0.0, 0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 1, 0.2, 0.0, 0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 5, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 5, 0.2, 1.5, 0)


# -------------------------------------------------------------------- shuffled


def test_shuffled_singleton():
    ds = generate_synthetic(1, 3, 0.0, 0.0, seed=0)
    assert shuffled(ds, 5) == ds.examples


def test_shuffled_is_permutation_and_seeded():
    ds = generate_synthetic(100, 3, 0.0, 0.0, seed=0)
    a = shuffled(ds, 1)
    b = shuffled(ds, 1)
    c = shuffled(ds, 2)
    assert a == b
    assert sorted(map(id, a)) == sorted(map(id, ds.examples))
    assert any(x is not y for x, y in zip(a, c))
