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


# Written by save_model at commit 7b384cf, the last BBSVM 2 writer, from
# v2_train.txt with these parameters.
V2_MODEL = FIXTURES / "v2_model.bbsvm"
V2_PARAMS = ModelParams(dim=3, epsilon=0.02, C=10.0, lookahead=5)


def _fixture_balls(lines):
    """Radius, center, slack items and member rows of each ball, read from
    the text of a ``BBSVM 2`` file, where every member is a full row."""
    balls, i = [], lines.index("balls 5") + 1
    while i < len(lines):
        radius, center = float(lines[i].split()[1]), lines[i + 1].split()[1:]
        n_slack = int(lines[i + 2].split()[1])
        slack = [line.split() for line in lines[i + 3 : i + 3 + n_slack]]
        i += 3 + n_slack
        n_core = int(lines[i].split()[1])
        rows = [line.split() for line in lines[i + 1 : i + 1 + n_core]]
        i += 1 + n_core
        balls.append((
            radius,
            [float(t) for t in center],
            [(int(pid), float(c)) for pid, c in slack],
            [(int(r[0]), int(r[1]), [float(t) for t in r[2:-1]], float(r[-1]))
             for r in rows],
        ))
    return balls


def test_model_file_version_2_fixture_loads_its_records():
    lines = V2_MODEL.read_text().splitlines()
    assert lines[0] == "BBSVM 2" and "points_seen 40" in lines
    model = load_model(V2_MODEL)
    assert model.params == V2_PARAMS and model.cover.points_seen == 40
    assert [
        (
            cs.ball.radius,
            cs.ball.center.explicit.tolist(),
            list(cs.ball.center.slack_coeffs.items()),
            # the label column is the bias coordinate
            [(p.id, p.explicit[-1], p.explicit.tolist(), p.slack_weight) for p in cs.members],
        )
        for cs in model.cover.cores
    ] == _fixture_balls(lines)
    assert any(cs.ball.center.slack_coeffs for cs in model.cover.cores)
    # The fixture's cover labels every row of its training file correctly.
    ds = load_libsvm(FIXTURES / "v2_train.txt")
    labels = model.predict([ex.x for ex in ds.examples])
    assert labels.tolist() == [ex.y for ex in ds.examples]


def test_model_file_rejects_other_versions(tmp_path, model_file):
    text = model_file.read_text().splitlines()
    text[0] = "BBSVM 4"
    bad = tmp_path / "v4.bbsvm"
    bad.write_text("\n".join(text) + "\n")
    with pytest.raises(ModelFormatError, match="version"):
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
    assert loaded.params.delta == delta and loaded.cover.delta == delta
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


def _version_1_copy(tmp_path):
    """The v2 fixture without the records that version 1 lacks."""
    lines = V2_MODEL.read_text().splitlines()
    lines = ["BBSVM 1"] + [
        line for line in lines[1:]
        if line.split()[0] not in ("delta", "lookahead", "points_seen")
    ]
    v1 = tmp_path / "v1.bbsvm"
    v1.write_text("\n".join(lines) + "\n")
    return v1


def _member_ids(model):
    return set(core_point_ids(model.cover))


def test_model_file_version_1_loads_with_defaults(tmp_path):
    model, old = load_model(V2_MODEL), load_model(_version_1_copy(tmp_path))
    assert old.params.delta == old.params.epsilon / 2.0
    assert old.params.lookahead == 10
    assert old.cover.points_seen == max(_member_ids(old)) + 1
    assert old.params.C == model.params.C
    xs = [ex.x for ex in load_libsvm(FIXTURES / "v2_train.txt").examples]
    assert np.array_equal(old.predict(xs), model.predict(xs))


def test_model_file_version_1_continues_with_fresh_ids(tmp_path):
    # Without a count, training resumes past every member id, so no fresh
    # point shares an id (and a slack axis) with a core point.
    old = load_model(_version_1_copy(tmp_path))
    before = _member_ids(old)
    more = generate_synthetic(200, 3, 0.1, 0.05, seed=12)
    old.train_stream(more.examples)
    slack_ids = {pid for cs in old.cover.cores for pid in cs.ball.center.slack_coeffs}
    fresh = (_member_ids(old) | slack_ids) - before
    assert fresh and min(fresh) > max(before)


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
        ("C", "C ten", "bad C 'ten'"),
        ("dim", "dim", "bad dim ''"),
        ("lookahead", "lookahead ten", "bad lookahead 'ten'"),
        ("points_seen", "points_seen 1 2", "bad points_seen '1 2'"),
        ("points_seen", "points_seen 3", "points_seen 3 is not above every member id"),
        # 94 is the largest member id of the model below: equal is too small.
        ("points_seen", "points_seen 94", "points_seen 94 is not above every member id"),
        ("balls", "balls 2.5", "bad balls '2.5'"),
        ("ball", "ball r", "bad ball 'r'"),
        ("center", "center 1 2", "center has the wrong dimension"),
        ("slack", "slack many", "bad slack 'many'"),
        ("slack entry", "x 0.5", "bad slack id 'x'"),
        ("slack entry", "3 y", "bad slack coefficient 'y'"),
        ("slack entry", "3", "slack coefficient needs an id and a value"),
        # The first ball's core is 1, 2, 3, 5, 9, and points_seen is 100.
        ("slack entry", "4 0.5", "slack id 4 is no core member"),
        ("slack entry", "100 0.5", "slack id 100 is no core member"),
        # {first} is the first entry's id; a repeat would replace its
        # coefficient.
        ("second slack entry", "{first} 123.0", "slack id {first} repeats"),
        ("core", "core", "bad core ''"),
        ("member", "1 2 3", "core member has the wrong field count"),
        ("member", "a +1 0 0 0 0 0 1 0.3", "bad member id 'a'"),
        ("member", "0 one 0 0 0 0 0 1 0.3", "bad member label 'one'"),
        # The label is the sign of the bias coordinate, or 0 when that is not +-1.
        ("member", "0 7 0 0 0 0 0 1 0.3",
         "member label 7 is not the sign of its bias coordinate 1.0"),
        ("member", "0 1 0 0 0 0 0 0.5 0.3",
         "member label 1 is not the sign of its bias coordinate 0.5"),
        ("member", "0 1 0 z 0 0 0 1 0.3", "bad member coordinate 'z'"),
        ("member", "0 1 0 0 0 0 0 1 w", "bad member slack weight 'w'"),
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
    first = lines[index - 1].split()[0]  # a slack entry's line: the id before it
    lines[index] = edit.format(first=first)
    message = message.format(first=first)
    bad = tmp_path / "bad.bbsvm"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError) as err:
        load_model(bad)
    assert str(err.value) == f"line {index + 1}: {message}"
    assert run_cli(["predict", "--model", str(bad), "--data", str(dataset_file)]) == 2


def test_model_file_detects_truncation(tmp_path, model_file):
    text = model_file.read_text().splitlines()
    truncated = tmp_path / "trunc.bbsvm"
    truncated.write_text("\n".join(text[: len(text) // 2]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(truncated)


@pytest.mark.parametrize("count", ["1", "-2"])
def test_model_file_rejects_records_after_the_last_ball(tmp_path, count):
    lines = V2_MODEL.read_text().splitlines()
    index = lines.index("balls 5")
    lines[index] = f"balls {count}"
    bad = tmp_path / "short.bbsvm"
    bad.write_text("\n".join(lines) + "\n")
    balls = [i for i, line in enumerate(lines) if line.startswith("ball ")]
    first_extra = balls[1] if count == "1" else index + 1
    message = f"line {first_extra + 1}: record after the last ball"
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


def test_gzip_input_accepted(tmp_path, dataset_file):
    import gzip

    zipped = tmp_path / "data.txt.gz"
    with gzip.open(zipped, "wt", encoding="utf-8") as fh:
        fh.write(dataset_file.read_text())
    model = tmp_path / "m.bbsvm"
    assert run_cli(["train", "--data", str(zipped), "--model", str(model)]) == 0
    assert model.exists()
