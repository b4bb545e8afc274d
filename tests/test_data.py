import gc
import gzip
import io
import tracemalloc
import weakref
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbsvm import data
from bbsvm.data import (
    DataFormatError,
    format_libsvm,
    generate_synthetic,
    load_libsvm,
    parse_libsvm,
    shuffled,
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
    # "1e" passes the block parser's character checks, and np.fromstring refuses it.
    with pytest.raises(DataFormatError, match="^line 1: malformed feature '1:1e'$"):
        parse_libsvm("+1 1:1e\n")
    with pytest.raises(DataFormatError, match="no features"):
        parse_libsvm("+1\n")
    with pytest.raises(DataFormatError, match="unknown label"):
        parse_libsvm("3 1:1\n")


def test_parse_rejects_an_index_beyond_int64_with_line_number():
    message = "line 2: feature index 9223372036854775808 does not fit in int64"
    with pytest.raises(DataFormatError, match=message):
        parse_libsvm("+1 1:1\n+1 1:1 9223372036854775808:1\n")
    ds = parse_libsvm("+1 9223372036854775807:1\n")
    assert ds.examples[0].x.indices.tolist() == [2**63 - 1]


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


# ------------------------------------------------------- block and line parser


def _outcome(parse):
    """The dim and every row's label, dtypes and bytes, or the error message."""
    try:
        ds = parse()
    except DataFormatError as err:
        return str(err)
    rows = [
        (ex.y, ex.x.indices.dtype.str, ex.x.indices.tobytes(),
         ex.x.values.dtype.str, ex.x.values.tobytes())
        for ex in ds.examples
    ]
    return ds.dim, rows


def _line_parser(lines):
    """The reference: the line parser alone, over every line."""

    def parse():
        rows, _ = data._parse_lines(lines, 1)
        return data.Dataset(rows, max((int(r.x.indices[-1]) for r in rows), default=0))

    return parse


_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_VALUES = st.one_of(_FLOATS, _FLOATS, _FLOATS, st.sampled_from(
    ["-0", "1E5", ".5", "5.", "+2", "1e999", "-1e999", "nan(1)", "nan", "inf",
     "1_0", "٣", "0x1", "1-2", "1\t2", "\t", ""]
))
_LABELS = ["+1", "-1", "1", "0"] * 4 + ["-0", "1.0", "+0", "1e0", "١", "3", "x", ""]
_ODD_TOKENS = ["3.0:1", "+3:1", "1:2:3", "1:2 3", "3:", ":4", "+-3:1", "١:2", "1e1:1"]
_SEPARATORS = [" "] * 8 + ["\t", "  ", "\x0c"]
_ENDS = ["\n"] * 8 + ["\r\n", " # note\n", "\t\n", "\r", "\x0b"]


@st.composite
def _line(draw):
    """A line, most often canonical, else with one or more odd parts."""
    indices = sorted(draw(st.sets(st.integers(1, 40), max_size=4)))
    tokens = [f"{i}:{draw(_VALUES)}" for i in indices]
    if draw(st.integers(0, 3)) == 0:
        odd = draw(st.sampled_from(_ODD_TOKENS))
        tokens.insert(draw(st.integers(0, len(tokens))), odd)
    line = draw(st.sampled_from(_LABELS))
    for token in tokens:
        line += draw(st.sampled_from(_SEPARATORS)) + token
    return line + draw(st.sampled_from(_ENDS))


_TEXT = st.lists(
    st.one_of(_line(), _line(), _line(), st.sampled_from(["\n", "# c\n", "  \n"])),
    max_size=30,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=_TEXT, chunk=st.integers(1, 400), final_newline=st.booleans())
# An empty word ("3:") and a word with whitespace in it ("3\t4") must not
# cancel out in the count of numbers.
@example(text="+1 3:\n", chunk=1, final_newline=True)
@example(text="+1 1:\t 2:3\t4\n", chunk=1, final_newline=True)
@example(text="+1 9007199254740993:1\n", chunk=1, final_newline=True)  # 2**53 + 1
def test_the_chunked_parser_equals_the_line_parser(text, chunk, final_newline):
    if not final_newline:
        text = text.rstrip("\n")
    with patch.object(data, "CHUNK_CHARS", chunk):
        got = _outcome(lambda: parse_libsvm(text))
        assert got == _outcome(_line_parser(text.splitlines()))
        # A text file yields lines split at "\n" only, line endings kept.
        assert _outcome(lambda: parse_libsvm(io.StringIO(text))) == _outcome(
            _line_parser(io.StringIO(text))
        )


def test_canonical_lines_take_the_block_path():
    text = format_libsvm(generate_synthetic(30, 4, 0.1, 0.0, seed=3))
    lines = text.splitlines(keepends=True)
    rows, top = data._parse_block(lines)
    assert _outcome(lambda: data.Dataset(rows, top)) == _outcome(_line_parser(lines))
    # The last line may lack its newline; a line with a comment may not.
    assert data._parse_block(["+1 1:2 3:0.5"]) is not None
    assert data._parse_block(["+1 1:2 3:0.5 # c\n"]) is None


def test_dense_rows_share_one_index_array_a_length_and_stay_small():
    text = format_libsvm(generate_synthetic(2000, 20, 0.1, 0.0, seed=5))
    gc.collect()
    tracemalloc.start()
    try:
        ds = parse_libsvm(io.StringIO(text))  # many chunks: one array for the parse
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len({id(ex.x.indices) for ex in ds.examples}) == 1
    assert ds.examples[0].x.indices.tolist() == list(range(1, 21))
    # 160 bytes of values a row.  With its own view of a per-chunk index
    # copy and a __dict__ on each row object, a row kept 729.
    assert kept / len(ds) <= 450


def test_a_mixed_chunk_gives_sparse_rows_their_own_indices():
    lines = ["+1 1:0.5 2:1\n", "-1 2:3 5:1\n", "+1 1:2\n", "-1 1:1 2:2 4:3\n",
             "+1 1:7 2:-1\n", "-1 3:0.25\n"]
    rows, top = data._parse_block(lines)
    shared = {k: a for k, a in data._dense_indices.items()
              if any(row.x.indices is a for row in rows)}
    assert top == 5 and sorted(shared) == [1, 2]
    assert rows[0].x.indices is rows[4].x.indices is shared[2] is data._dense_index(2)
    assert rows[2].x.indices is shared[1] is data._dense_index(1)
    for k in (1, 3, 5):
        assert not any(rows[k].x.indices is a for a in data._dense_indices.values())
    assert _outcome(lambda: data.Dataset(rows, top)) == _outcome(_line_parser(lines))


def test_dense_rows_hold_one_index_array_a_length_while_any_row_holds_it():
    text = format_libsvm(generate_synthetic(5, 13, 0.1, 0.0, seed=4))
    first, second = parse_libsvm(text), parse_libsvm(io.StringIO(text))
    synthetic = generate_synthetic(3, 13, 0.1, 0.0, seed=5)
    live = weakref.ref(data._dense_index(13))
    assert all(ex.x.indices is live()
               for ds in (first, second, synthetic) for ex in ds.examples)
    del first, second
    gc.collect()
    assert live() is not None and data._dense_index(13) is live()  # synthetic's rows
    del synthetic
    gc.collect()
    assert live() is None and 13 not in data._dense_indices


@pytest.mark.parametrize(
    "text",
    [
        "+1 1:1 2:2\n-1 1:3\n",  # block parser, shared arrays
        "+1 2:1 5:2\n-1 1:3 4:1\n",  # block parser, views of a chunk's copy
        "+1 1:1 2:2 # c\n-1 3:1\n",  # line parser
        None,  # generate_synthetic
    ],
    ids=["block-dense", "block-sparse", "lines", "synthetic"],
)
def test_every_row_index_array_is_read_only(text):
    if text is None:
        ds = generate_synthetic(2, 3, 0.1, 0.0, seed=2)
    else:
        ds = parse_libsvm(text)
    for ex in ds.examples:
        assert ex.x.indices.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            ex.x.indices[0] = 5


def test_an_error_on_the_first_line_of_a_later_chunk_names_its_file_line(tmp_path):
    lines = format_libsvm(generate_synthetic(40, 3, 0.1, 0.0, seed=1)).splitlines(True)
    path = tmp_path / "d.txt.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("".join(lines[:20]) + "+1 2:1 1:1\n" + "".join(lines[20:]))
    assert data._parse_block(lines[:20]) is not None
    message = (
        r"^line 21: feature indices must be strictly increasing \(got 1 after 2\)$"
    )
    with patch.object(data, "CHUNK_CHARS", sum(map(len, lines[:20]))):
        with pytest.raises(DataFormatError, match=message):
            load_libsvm(path)


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
        assert abs(np.linalg.norm(ex.x.values) - 1.0) <= 1e-12


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_synthetic(-1, 5, 0.2, 0.0, 0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 1, 0.2, 0.0, 0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 5, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 5, 0.2, 1.5, 0)
    # No unit vector in 50 dimensions comes that close to the normal.
    message = "^margin 0.999 rejects essentially every sample in dimension 50$"
    with pytest.raises(ValueError, match=message):
        generate_synthetic(1, 50, 0.999, 0.0, 0)


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
