import numpy as np
import pytest

from bbsvm.cli import run_cli
from bbsvm.data import load_libsvm
from bbsvm.experiments import CSV_HEADER
from bbsvm.model_file import ModelFormatError, load_model, save_model


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


def test_data_errors_exit_2(tmp_path):
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


def test_model_round_trip_predictions_exact(tmp_path, dataset_file, model_file):
    model = load_model(model_file)
    ds = load_libsvm(dataset_file)
    xs = [ex.x for ex in ds.examples]
    before = model.predict(xs)
    copy_path = tmp_path / "copy.bbsvm"
    save_model(model, copy_path)
    reloaded = load_model(copy_path)
    after = reloaded.predict(xs)
    assert np.array_equal(before, after)
    # the save is byte-stable too
    again = tmp_path / "again.bbsvm"
    save_model(reloaded, again)
    assert copy_path.read_text() == again.read_text()


def test_model_file_rejects_other_versions(tmp_path, model_file):
    text = model_file.read_text().splitlines()
    text[0] = "BBSVM 2"
    bad = tmp_path / "v2.bbsvm"
    bad.write_text("\n".join(text) + "\n")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(bad)
    assert run_cli(["predict", "--model", str(bad), "--data", str(model_file)]) == 2

    not_model = tmp_path / "junk.bbsvm"
    not_model.write_text("hello world\n")
    with pytest.raises(ModelFormatError, match="not a BBSVM"):
        load_model(not_model)


def test_model_file_detects_truncation(tmp_path, model_file):
    text = model_file.read_text().splitlines()
    truncated = tmp_path / "trunc.bbsvm"
    truncated.write_text("\n".join(text[: len(text) // 2]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(truncated)


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
