import math
from pathlib import Path

import numpy as np
import pytest

from bbsvm.cli import run_cli
from bbsvm.data import TrainingExample, format_libsvm, generate_synthetic, load_libsvm
from bbsvm.experiments import CSV_HEADER
from bbsvm.model import Model, ModelParams
from bbsvm.model_file import ModelFormatError, load_model, save_model
from oracle import core_point_ids

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "data.txt"
    code = run_cli(
        ["gen", "--n", "100", "--dim", "5", "--margin", "0.2", "--seed", "7",
         "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture()
def model_file(tmp_path, dataset_file):
    path = tmp_path / "model.bbsvm"
    code = run_cli(
        ["train", "--data", str(dataset_file), "--epsilon", "0.001",
         "--L", "10", "--model", str(path)]
    )
    assert code == 0
    return path


def test_gen_writes_parseable_libsvm(dataset_file):
    ds = load_libsvm(dataset_file)
    assert len(ds) == 100 and ds.dim == 5


def test_train_then_predict(dataset_file, model_file, capsys):
    code = run_cli(["predict", "--model", str(model_file), "--data", str(dataset_file)])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert len(lines) == 100
    assert set(lines) <= {"+1", "-1"}
    assert "accuracy" in captured.err


@pytest.mark.parametrize("L", ["0", "10"])
def test_train_warns_of_a_ball_that_separates_nothing(tmp_path, capsys, L):
    # One point with both labels gives a zero-center ball of radius exactly
    # kappa; it holds every later point, so no merge ever replaces it.
    text = format_libsvm(generate_synthetic(2000, 5, 0.1, 0.0, seed=3))
    x = text.split("\n", 1)[0].split(" ", 1)[1]
    data, model = tmp_path / "d.txt", str(tmp_path / "m.bbsvm")
    data.write_text(text)
    assert run_cli(["train", "--data", str(data), "--L", L, "--model", model]) == 0
    assert capsys.readouterr().err == ""
    data.write_text(f"+1 {x}\n-1 {x}\n" + text)
    assert run_cli(["train", "--data", str(data), "--L", L, "--model", model]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"warning: ball 0 has radius {math.sqrt(2.0)!r} >= kappa")
    assert sorted(err.split("stream positions ")[1].split(",")[0].split()) == ["0", "1"]


def test_train_warns_of_a_zero_center_whose_radius_rounds_below_kappa(tmp_path, capsys):
    # |x_hat|^2 of (1, 0.5) rounds low: the contradicting pair's ball has a
    # radius one ulp below kappa, and every prediction is +1.
    text = "+1 1:1 2:0.5\n-1 1:1 2:0.5\n" + format_libsvm(
        generate_synthetic(200, 2, 0.2, 0.0, 1)
    )
    data, model = tmp_path / "d.txt", str(tmp_path / "m.bbsvm")
    data.write_text(text)
    args = ["train", "--data", str(data), "--epsilon", "0.01", "--L", "0"]
    assert run_cli(args + ["--model", model]) == 0
    assert capsys.readouterr().err == (
        "warning: ball 0 has radius 1.414213562373095 < kappa 1.4142135623730951 "
        "and separator norm 0.0, so it separates nothing: its core points, at "
        "stream positions 1 0, contradict each other\n"
    )
    assert run_cli(["predict", "--model", model, "--data", str(data)]) == 0
    assert capsys.readouterr().err == "accuracy 0.470297 on 202 points\n"


def test_predict_to_file(tmp_path, dataset_file, model_file):
    out = tmp_path / "labels.txt"
    assert run_cli(
        ["predict", "--model", str(model_file), "--data", str(dataset_file),
         "--out", str(out)]
    ) == 0
    assert len(out.read_text().splitlines()) == 100


def test_usage_errors_exit_1():
    assert run_cli([]) == 1
    assert run_cli(["train"]) == 1  # missing required flags
    assert run_cli(["gen", "--n", "x", "--dim", "5", "--out", "d"]) == 1
    assert run_cli(["bogus-command"]) == 1


def test_a_bad_sweep_list_exits_1(dataset_file, capsys):
    data = str(dataset_file)
    assert run_cli(["sweep", "--train", data, "--test", data, "--epsilons", "0.1,abc"]) == 1
    assert "usage error: bad epsilon list: '0.1,abc'" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0
    assert run_cli(["sweep", "--help"]) == 0
    assert "--epsilons" in capsys.readouterr().out


def test_data_errors_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert run_cli(
        ["train", "--data", str(empty), "--model", str(tmp_path / "m.bbsvm")]
    ) == 2
    assert run_cli(
        ["train", "--data", str(tmp_path / "missing.txt"),
         "--model", str(tmp_path / "m.bbsvm")]
    ) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("wibble 1:1\n")
    assert run_cli(
        ["train", "--data", str(bad), "--model", str(tmp_path / "m.bbsvm")]
    ) == 2
    bad.write_text("+1 9223372036854775808:1\n")  # an index beyond int64
    assert run_cli(
        ["train", "--data", str(bad), "--model", str(tmp_path / "m.bbsvm")]
    ) == 2
    bad.write_text("+1 4611686018427387904:1\n")  # a dense point beyond NumPy's limit
    capsys.readouterr()
    assert run_cli(
        ["train", "--data", str(bad), "--model", str(tmp_path / "m.bbsvm")]
    ) == 2
    assert "index 4611686018427387904 implies dense points of 4611686018427387905 " in (
        capsys.readouterr().err
    )
    good = tmp_path / "good.txt"
    good.write_text("+1 1:1\n-1 1:-1\n")
    assert run_cli(
        ["train", "--data", str(good), "--model", str(tmp_path / "m.bbsvm"),
         "--epsilon", "nan"]
    ) == 2
    assert "epsilon must be positive and finite" in capsys.readouterr().err


def test_train_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # An index whose dense points (32 GB each) the host refuses: the refusal
    # is simulated at np.zeros, so nothing that large is allocated.
    zeros = np.zeros

    def refusing_zeros(shape, *args, **kwargs):
        if np.prod(shape) > 10**9:
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing_zeros)
    data = tmp_path / "wide.txt"
    data.write_text("+1 4000000000:1\n")
    assert run_cli(["train", "--data", str(data), "--model", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory for dense points of 4000000001 ")
    assert "Traceback" not in err


def assert_same_cover(model, reference):
    """Radius, center bytes, slack items and member ids equal, ball by ball."""
    assert len(model.cover.cores) == len(reference.cover.cores)
    for cs, ref in zip(model.cover.cores, reference.cover.cores):
        assert cs.ball.radius == ref.ball.radius
        assert cs.ball.center.explicit.tobytes() == ref.ball.center.explicit.tobytes()
        assert list(cs.ball.center.slack_coeffs.items()) == list(
            ref.ball.center.slack_coeffs.items()
        )
        assert [p.id for p in cs.members] == [p.id for p in ref.members]
    assert model.cover.points_seen == reference.cover.points_seen


@pytest.mark.parametrize("C", [math.inf, 10.0])
def test_model_round_trip_predictions_exact(tmp_path, dataset_file, C):
    ds = load_libsvm(dataset_file)
    model = Model(ModelParams(dim=ds.dim, C=C)).train_stream(ds.examples)
    path = tmp_path / "m.bbsvm"
    save_model(model, path)
    reloaded = load_model(path)
    xs = [ex.x for ex in ds.examples]
    assert np.array_equal(model.predict(xs), reloaded.predict(xs))
    assert reloaded.params == model.params
    assert_same_cover(reloaded, model)

    # One point per core id, shared by every ball that holds it, as after
    # training; the file holds one full row per id.
    members = [p for cs in reloaded.cover.cores for p in cs.members]
    ids = {p.id for p in members}
    assert len(members) > len(ids)  # some point sits in several balls
    assert len({id(p) for p in members}) == len(ids)
    lines = path.read_text().splitlines()
    full_rows = [line.split()[0] for line in lines if len(line.split()) == ds.dim + 4]
    assert sorted(map(int, full_rows)) == sorted(ids)

    # the save is byte-stable too
    again = tmp_path / "again.bbsvm"
    save_model(reloaded, again)
    assert path.read_text() == again.read_text()


# Written by save_model at commit aa361a2 from v3_train.txt (sparse rows of
# both labels) with these parameters; it pins the writer's BBSVM 3 bytes.
V3_MODEL = FIXTURES / "v3_model.bbsvm"
V3_PARAMS = ModelParams(dim=6, epsilon=0.02, C=10.0, lookahead=3)


def test_model_file_version_3_fixture_pins_the_written_bytes(tmp_path):
    text = V3_MODEL.read_text()
    fields = [line.split() for line in text.splitlines()]
    assert sum(len(f) == 1 for f in fields) > 0  # bare-id members
    assert sum(len(f) == 2 and f[0].isdigit() for f in fields) > 0  # slack entries
    assert " -0.0 " in text
    ds = load_libsvm(FIXTURES / "v3_train.txt")
    assert {ex.y for ex in ds.examples} == {-1, 1}
    save_model(Model(V3_PARAMS).train_stream(ds.examples), tmp_path / "trained.bbsvm")
    assert (tmp_path / "trained.bbsvm").read_bytes() == V3_MODEL.read_bytes()
    save_model(load_model(V3_MODEL), tmp_path / "again.bbsvm")
    assert (tmp_path / "again.bbsvm").read_bytes() == V3_MODEL.read_bytes()


def test_a_full_row_for_an_id_written_earlier_is_refused(tmp_path):
    # A bare id replaced by its full row: a cover holds one point an id.
    lines = V3_MODEL.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if len(line.split()) == 1)
    row = next(line for line in lines if line.split()[0] == lines[index]
               and len(line.split()) == V3_PARAMS.dim + 4)
    path = tmp_path / "repeated.bbsvm"
    path.write_text("\n".join(lines[:index] + [row] + lines[index + 1 :]) + "\n")
    message = f"^line {index + 1}: member {lines[index]} was written earlier$"
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


@pytest.mark.parametrize("drift, refusal", [
    (0.5e-9, None), (-0.5e-9, None),
    (2e-9, "exceeds 2"), (-2e-9, "is below 2"),
])
def test_a_member_norm_loads_within_rounding_of_2_and_no_further(tmp_path, drift, refusal):
    # The first full row, [y x_hat; y], becomes [1, a, 0, ..., 0; 1] with
    # a^2 = 1 + 2 drift: squared norm 2 (1 + drift), against the load's
    # bounds of 2 (1 -+ 1e-9).
    lines = V3_MODEL.read_text().splitlines()
    index = lines.index("core 3") + 1
    parts = lines[index].split()
    coords = [math.sqrt(1.0 + 2.0 * drift)] + [0.0] * (V3_PARAMS.dim - 1) + [1.0]
    lines[index] = " ".join([parts[0], "1", *map(repr, coords), parts[-1]])
    path = tmp_path / "drift.bbsvm"
    path.write_text("\n".join(lines) + "\n")
    if refusal is None:
        loaded = load_model(path)
        point = next(p for cs in loaded.cover.cores for p in cs.members
                     if p.id == int(parts[0]))
        assert point.explicit.tolist() == coords
    else:
        message = rf"^line {index + 1}: member squared norm \S+ {refusal}$"
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)


def test_a_slack_norm_that_overflows_names_its_center_line(tmp_path):
    # Each coefficient is finite, but their squared sum is inf: the center,
    # whose squared norm counts it, lies outside the sphere of radius kappa.
    lines = V3_MODEL.read_text().splitlines()
    center = lines.index("slack 3")  # the first center's line number, counted from 1
    lines[center + 1 : center + 4] = [f"{line.split()[0]} 1e200"
                                      for line in lines[center + 1 : center + 4]]
    path = tmp_path / "overflow.bbsvm"
    path.write_text("\n".join(lines) + "\n")
    message = rf"^line {center}: center squared norm inf exceeds kappa\^2$"
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


def test_model_file_rejects_other_versions(tmp_path, model_file):
    # Only BBSVM 3, the format save_model writes, loads.
    text = model_file.read_text().splitlines()
    bad = tmp_path / "other.bbsvm"
    for version in "124":
        text[0] = f"BBSVM {version}"
        bad.write_text("\n".join(text) + "\n")
        message = f"^unsupported model format version '{version}'$"
        with pytest.raises(ModelFormatError, match=message):
            load_model(bad)
        assert run_cli(["predict", "--model", str(bad), "--data", str(model_file)]) == 2

    not_model = tmp_path / "junk.bbsvm"
    not_model.write_text("hello world\n")
    with pytest.raises(ModelFormatError, match="not a BBSVM"):
        load_model(not_model)


def test_model_file_keeps_training_state(tmp_path):
    ds = generate_synthetic(500, 5, 0.1, 0.0, seed=7)
    delta = 0.001 / 3.0  # round-trips only with every digit of its repr
    params = ModelParams(dim=5, epsilon=0.01, C=10.0, lookahead=3, delta=delta)
    model = Model(params).train_stream(ds.examples)
    save_model(model, tmp_path / "m.bbsvm")
    loaded = load_model(tmp_path / "m.bbsvm")
    assert loaded.params.delta == delta and loaded.cover.params is loaded.params
    assert loaded.params.lookahead == 3
    assert loaded.cover.points_seen == 500
    assert loaded.params == model.params
    # Each full member row's label field is the sign of its bias coordinate.
    rows = [line.split() for line in (tmp_path / "m.bbsvm").read_text().splitlines()]
    rows = [fields for fields in rows if len(fields) == params.dim + 4]
    assert len(rows) == len(core_point_ids(model.cover))
    assert all(int(fields[1]) == float(fields[-2]) for fields in rows)
    assert {int(fields[1]) for fields in rows} == {-1, 1}
    # so labels given as floats write the same bytes, a file that loads
    floats = [TrainingExample(ex.x, float(ex.y)) for ex in ds.examples]
    save_model(Model(params).train_stream(floats), tmp_path / "f.bbsvm")
    assert (tmp_path / "f.bbsvm").read_bytes() == (tmp_path / "m.bbsvm").read_bytes()


def test_a_model_saved_after_a_partial_buffer_reloads_its_cover(tmp_path):
    # 23 points at L=10: train_stream flushes the last 3 before it returns.
    ds = generate_synthetic(23, 4, 0.1, 0.0, seed=3)
    model = Model(ModelParams(dim=4, epsilon=0.01, lookahead=10))
    model.train_stream(ds.examples)
    path = tmp_path / "m.bbsvm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.cover.points_seen == 23
    assert_same_cover(loaded, model)


def _line_index(lines, where):
    """Index of the first record ``where``, or of the first (or second) slack
    entry, full member row or reference line."""
    if where in ("slack entry", "second slack entry"):
        return (where == "second slack entry") + 1 + next(
            i for i, line in enumerate(lines)
            if line.startswith("slack ") and line != "slack 0"
        )
    if where == "member":
        return 1 + next(i for i, line in enumerate(lines) if line.startswith("core "))
    if where == "reference":
        return next(i for i, line in enumerate(lines) if len(line.split()) == 1)
    return next(i for i, line in enumerate(lines) if line.split()[0] == where)


@pytest.mark.parametrize(
    "where, edit, message",
    [
        ("kappa", "kappa x", "bad kappa 'x'"),
        ("kappa", "kappa nan", "kappa nan is inconsistent with C"),
        ("C", "C ten", "bad C 'ten'"),
        ("dim", "dim", "bad dim ''"),
        # Values that parse but that ModelParams refuses name their line too.
        ("epsilon", "epsilon -0.5", "epsilon must be positive and finite"),
        ("epsilon", "epsilon nan", "epsilon must be positive and finite"),
        ("epsilon", "epsilon inf", "epsilon must be positive and finite"),
        ("delta", "delta 0.0", "delta must be positive and finite"),
        ("delta", "delta nan", "delta must be positive and finite"),
        ("C", "C -1", "C must be positive (or inf)"),
        ("dim", "dim 0", "dim must be positive"),
        ("dim", "dim 4611686018427387904", "feature index 4611686018427387904 implies "
         "dense points of 4611686018427387905 float64 values, more than an array holds"),
        ("lookahead", "lookahead ten", "bad lookahead 'ten'"),
        ("points_seen", "points_seen 1 2", "bad points_seen '1 2'"),
        ("points_seen", "points_seen 3", "points_seen 3 is not above every member id"),
        # 94 is the largest member id of the model below: equal is too small.
        ("points_seen", "points_seen 94", "points_seen 94 is not above every member id"),
        ("balls", "balls 2.5", "bad balls '2.5'"),
        ("balls", "balls -1", "balls -1 is negative"),
        ("ball", "ball r", "bad ball 'r'"),
        # Non-finite values parse; a NaN ball labels every query alike and
        # absorbs training without a merge.  C alone may be inf.
        ("ball", "ball nan", "ball radius nan is negative or not finite"),
        ("ball", "ball inf", "ball radius inf is negative or not finite"),
        ("ball", "ball -1.0", "ball radius -1.0 is negative or not finite"),
        # Mapped points lie on the sphere of radius kappa = sqrt(2.1), their
        # explicit blocks of squared norm 2: no trained center lies outside
        # it, no radius is above 2 kappa and no full row is longer.
        ("ball", "ball 2.9", "ball radius 2.9 exceeds 2 kappa"),
        ("center", "center 1e100 0 0 0 0 1", "center squared norm 1e+200 exceeds kappa^2"),
        ("center", "center 0 0 1e200 0 0 1", "center squared norm inf exceeds kappa^2"),
        ("center", "center 0 0 nan 0 0 1", "center coordinate nan is not finite"),
        ("center", "center 0 0 0 0 0 -inf", "center coordinate -inf is not finite"),
        ("center", "center 1 2", "center has the wrong dimension"),
        ("slack", "slack many", "bad slack 'many'"),
        ("slack", "slack -5", "slack -5 is negative"),
        ("slack entry", "x 0.5", "bad slack id 'x'"),
        ("slack entry", "3 y", "bad slack coefficient 'y'"),
        ("slack entry", "3", "slack coefficient needs an id and a value"),
        ("slack entry", "{own} nan", "slack coefficient nan is not finite"),
        ("second slack entry", "{own} inf", "slack coefficient inf is not finite"),
        # The first ball's core is 1, 2, 3, 5, 9, and points_seen is 100.
        ("slack entry", "4 0.5", "slack id 4 is no core member"),
        ("slack entry", "100 0.5", "slack id 100 is no core member"),
        # {first} is the first entry's id; a repeat would replace its
        # coefficient.
        ("second slack entry", "{first} 123.0", "slack id {first} repeats"),
        ("core", "core", "bad core ''"),
        ("core", "core -1", "core -1 is negative"),
        ("member", "1 2 3", "core member has the wrong field count"),
        ("member", "a +1 0 0 0 0 0 1 0.3", "bad member id 'a'"),
        ("member", "0 one 0 0 0 0 0 1 0.3", "bad member label 'one'"),
        # The label is the sign of the bias coordinate, or 0 when that is not +-1.
        ("member", "0 7 0 0 0 0 0 1 0.3",
         "member label 7 is not the sign of its bias coordinate 1.0"),
        ("member", "0 1 0 0 0 0 0 0.5 0.3",
         "member label 1 is not the sign of its bias coordinate 0.5"),
        ("member", "0 1 0 z 0 0 0 1 0.3", "bad member coordinate 'z'"),
        ("member", "0 1 0 nan 0 0 0 1 0.3", "member coordinate nan is not finite"),
        ("member", "0 1 0 0 0 0 0 inf 0.3", "member coordinate inf is not finite"),
        ("member", "0 1 0 0 0 0 0 1 w", "bad member slack weight 'w'"),
        ("member", "0 1 2 2 0 0 0 1 0.31622776601683794", "member squared norm 9.0 exceeds 2"),
        ("member", "0 1 0 0 1e200 0 0 1 0.31622776601683794",
         "member squared norm inf exceeds 2"),
        ("member", "0 1 0.75 0 0 0 0 1 0.31622776601683794",
         "member squared norm 1.5625 is below 2"),
        # Every member sits at the model's slack weight, 1/sqrt(10) here.
        ("member", "0 1 0 0 0 0 0 1 0.3",
         "member slack weight 0.3 is not the model's 0.31622776601683794"),
        ("reference", "r", "bad member id 'r'"),
        ("reference", "999999", "member 999999 was not written earlier"),
    ],
)
def test_model_file_names_a_bad_record_and_its_line(
    tmp_path, dataset_file, where, edit, message
):
    ds = load_libsvm(dataset_file)
    model = Model(ModelParams(dim=ds.dim, C=10.0)).train_stream(ds.examples)
    save_model(model, tmp_path / "m.bbsvm")
    lines = (tmp_path / "m.bbsvm").read_text().splitlines()
    index = _line_index(lines, where)
    ids = {"first": lines[index - 1].split()[0],  # a slack entry's: the id before it
           "own": lines[index].split()[0]}
    lines[index] = edit.format(**ids)
    message = message.format(**ids)
    bad = tmp_path / "bad.bbsvm"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError) as err:
        load_model(bad)
    assert str(err.value) == f"line {index + 1}: {message}"
    assert run_cli(["predict", "--model", str(bad), "--data", str(dataset_file)]) == 2


def test_a_negative_slack_count_is_refused_where_it_would_read_as_empty(tmp_path):
    # At C = inf every slack block is empty, so "slack -5" once read as
    # "slack 0" and the file loaded.
    ds = generate_synthetic(60, 3, 0.1, 0.0, seed=4)
    model = Model(ModelParams(dim=3)).train_stream(ds.examples)
    save_model(model, tmp_path / "m.bbsvm")
    lines = (tmp_path / "m.bbsvm").read_text().splitlines()
    index = lines.index("slack 0")
    lines[index] = "slack -5"
    bad = tmp_path / "bad.bbsvm"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match=f"^line {index + 1}: slack -5 is negative$"):
        load_model(bad)


def _later_block_line(lines, block, position):
    """Index of the middle or the last line of the third ball's ``slack`` or
    ``core`` block."""
    head = [i for i, line in enumerate(lines) if line.split()[0] == block][2]
    count = int(lines[head].split()[1])
    assert count >= 3
    return head + (count // 2 + 1 if position == "middle" else count)


@pytest.mark.parametrize("position", ["middle", "last"])
@pytest.mark.parametrize(
    "block, edit, message",
    [
        ("slack", "1 2 3", "slack coefficient needs an id and a value"),
        ("slack", "x 0.5", "bad slack id 'x'"),
        ("slack", "{own} y", "bad slack coefficient 'y'"),
        ("slack", "{first} 0.5", "slack id {first} repeats"),
        ("slack", "100 0.5", "slack id 100 is no core member"),
        ("core", "r", "bad member id 'r'"),
        ("core", "999999", "member 999999 was not written earlier"),
        ("core", "1 2 3", "core member has the wrong field count"),
        ("core", "{first}", "member {first} repeats in its core"),
    ],
)
def test_model_file_names_a_bad_line_inside_a_later_block(
    tmp_path, dataset_file, block, position, edit, message
):
    ds = load_libsvm(dataset_file)
    model = Model(ModelParams(dim=ds.dim, C=10.0)).train_stream(ds.examples)
    save_model(model, tmp_path / "m.bbsvm")
    lines = (tmp_path / "m.bbsvm").read_text().splitlines()
    index = _later_block_line(lines, block, position)
    head = max(i for i in range(index) if lines[i].startswith(block + " "))
    ids = {"first": lines[head + 1].split()[0], "own": lines[index].split()[0]}
    lines[index] = edit.format(**ids)
    bad = tmp_path / "bad.bbsvm"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError) as err:
        load_model(bad)
    assert str(err.value) == f"line {index + 1}: {message.format(**ids)}"


@pytest.mark.parametrize("C, weight", [(10.0, "0.5"), (math.inf, "0.3")])
def test_model_file_refuses_member_slack_weights_that_are_not_the_models(
    tmp_path, dataset_file, C, weight
):
    # Every full member row edited to one other weight: the first is named.
    ds = load_libsvm(dataset_file)
    model = Model(ModelParams(dim=ds.dim, C=C)).train_stream(ds.examples)
    save_model(model, tmp_path / "m.bbsvm")
    lines = (tmp_path / "m.bbsvm").read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if len(line.split()) == ds.dim + 4]
    for i in rows:
        lines[i] = " ".join(lines[i].split()[:-1] + [weight])
    bad = tmp_path / "bad.bbsvm"
    bad.write_text("\n".join(lines) + "\n")
    own = model.params.slack_weight
    with pytest.raises(ModelFormatError) as err:
        load_model(bad)
    assert str(err.value) == (
        f"line {rows[0] + 1}: member slack weight {weight} is not the model's {own}"
    )
    assert run_cli(["predict", "--model", str(bad), "--data", str(dataset_file)]) == 2


def test_model_file_detects_truncation(tmp_path, model_file):
    # A file cut anywhere names its first missing line: halfway, inside a
    # slack block and inside a core block (after one of its lines).
    half = model_file.read_text().splitlines()
    lines = V3_MODEL.read_text().splitlines()
    slack = lines.index("slack 3") + 2
    core = lines.index("core 3") + 2
    truncated = tmp_path / "trunc.bbsvm"
    for kept in (half[: len(half) // 2], lines[:slack], lines[:core]):
        truncated.write_text("\n".join(kept) + "\n")
        with pytest.raises(ModelFormatError) as err:
            load_model(truncated)
        assert str(err.value) == f"line {len(kept) + 1}: unexpected end of model file"
    # A bad line before the cut is named first, as in a whole file.
    truncated.write_text("\n".join(lines[: slack - 1] + ["x 0.5"]) + "\n")
    with pytest.raises(ModelFormatError, match=f"^line {slack}: bad slack id 'x'$"):
        load_model(truncated)
    truncated.write_text("\n".join(lines[: core - 1] + ["999999"]) + "\n")
    message = f"^line {core}: member 999999 was not written earlier$"
    with pytest.raises(ModelFormatError, match=message):
        load_model(truncated)


def test_model_file_names_a_misplaced_record_and_checks_kappa(tmp_path, model_file):
    lines = model_file.read_text().splitlines()
    assert lines[2].startswith("epsilon ")
    bad = tmp_path / "bad.bbsvm"
    bad.write_text("\n".join([*lines[:2], "epsilonn 0.001", *lines[3:]]) + "\n")
    with pytest.raises(ModelFormatError, match="^line 3: expected 'epsilon' record$"):
        load_model(bad)
    bad.write_text("\n".join(["BBSVM 3", "kappa 1.5", *lines[2:]]) + "\n")  # C = inf
    with pytest.raises(ModelFormatError, match="^line 2: kappa 1.5 is inconsistent with C$"):
        load_model(bad)


def test_model_file_rejects_records_after_the_last_ball(tmp_path):
    lines = V3_MODEL.read_text().splitlines()
    lines[lines.index("balls 4")] = "balls 1"
    bad = tmp_path / "short.bbsvm"
    bad.write_text("\n".join(lines) + "\n")
    balls = [i for i, line in enumerate(lines) if line.startswith("ball ")]
    message = f"line {balls[1] + 1}: record after the last ball"
    with pytest.raises(ModelFormatError, match=f"^{message}$"):
        load_model(bad)


def test_eval_writes_csv(tmp_path, dataset_file):
    out = tmp_path / "report.csv"
    code = run_cli(
        ["eval", "--train", str(dataset_file), "--test", str(dataset_file),
         "--runs", "2", "--epsilon", "0.01", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("epsilon,L,runs,")
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "2"


def test_sweep_writes_rows_per_combination(tmp_path, dataset_file):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--train", str(dataset_file), "--test", str(dataset_file),
         "--epsilons", "0.1,0.01", "--lookaheads", "0,10", "--runs", "1",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 2 epsilons x 2 lookaheads
    eps_col = [line.split(",")[0] for line in lines[1:]]
    assert eps_col == ["0.01", "0.01", "0.1", "0.1"]


def test_eval_row_matches_its_sweep_cell(tmp_path, dataset_file):
    # Same (epsilon, L, runs, seed): the same CSV row apart from the timing.
    data = str(dataset_file)
    common = ["--train", data, "--test", data, "--runs", "3", "--seed", "4"]
    ev, sweep = tmp_path / "eval.csv", tmp_path / "sweep.csv"
    assert run_cli(["eval", *common, "--epsilon", "0.05", "--L", "3",
                    "--out", str(ev)]) == 0
    assert run_cli(["sweep", *common, "--epsilons", "0.2,0.05",
                    "--lookaheads", "0,3", "--out", str(sweep)]) == 0
    header, row = ev.read_text().splitlines()
    sweep_lines = sweep.read_text().splitlines()
    assert header == sweep_lines[0] == CSV_HEADER
    cells = {tuple(line.split(",")[:2]): line for line in sweep_lines[1:]}
    timing = CSV_HEADER.split(",").index("mean_train_seconds")

    def without_timing(line):
        return line.split(",")[:timing] + line.split(",")[timing + 1:]

    assert without_timing(row) == without_timing(cells["0.05", "3"])


def test_sweep_duplicate_epsilon_exits_2(tmp_path, dataset_file):
    assert run_cli(
        ["sweep", "--train", str(dataset_file), "--test", str(dataset_file),
         "--epsilons", "0.1,0.1", "--runs", "1"]
    ) == 2


@pytest.mark.parametrize("lookaheads, message", [
    ("", "lookaheads must be nonempty"), ("10,10", "duplicate lookahead values")])
def test_a_sweep_lookahead_list_that_is_empty_or_repeats_exits_2(
        tmp_path, dataset_file, capsys, lookaheads, message):
    out = tmp_path / "sweep.csv"
    assert run_cli(
        ["sweep", "--train", str(dataset_file), "--test", str(dataset_file),
         "--epsilons", "0.1", "--lookaheads", lookaheads, "--runs", "1", "--out", str(out)]
    ) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_gzip_input_accepted(tmp_path, dataset_file):
    import gzip

    zipped = tmp_path / "data.txt.gz"
    with gzip.open(zipped, "wt", encoding="utf-8") as fh:
        fh.write(dataset_file.read_text())
    model = tmp_path / "m.bbsvm"
    assert run_cli(["train", "--data", str(zipped), "--model", str(model)]) == 0
    assert model.exists()
