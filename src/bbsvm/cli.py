"""Command-line surface: gen / train / predict / eval / sweep.

Exit codes: 0 success, 1 usage error, 2 data or model error.
"""

from __future__ import annotations

import argparse
import io
import sys

from .data import DataFormatError, generate_synthetic, format_libsvm, load_libsvm
from .experiments import epsilon_sweep, run_experiment, write_csv
from .model import Model, ModelParams
from .model_file import ModelFormatError, load_model, save_model

__all__ = ["main", "run_cli"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bbsvm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic LIBSVM dataset")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--margin", type=float, default=0.2)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    train = sub.add_parser("train", help="train on a dataset and save the model")
    train.add_argument("--data", required=True)
    train.add_argument("--model", required=True)
    _add_model_flags(train)
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="write one predicted label per line")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--out", default=None, help="defaults to stdout")
    predict.set_defaults(func=_cmd_predict)

    ev = sub.add_parser("eval", help="multi-run experiment, CSV report")
    ev.add_argument("--train", required=True)
    ev.add_argument("--test", required=True)
    ev.add_argument("--runs", type=int, default=20)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", default=None, help="defaults to stdout")
    _add_model_flags(ev)
    ev.set_defaults(func=_cmd_eval)

    sweep = sub.add_parser("sweep", help="epsilon sweep, CSV report")
    sweep.add_argument("--train", required=True)
    sweep.add_argument("--test", required=True)
    sweep.add_argument("--epsilons", required=True, help="comma-separated list")
    sweep.add_argument("--lookaheads", default="0,10", help="comma-separated list")
    sweep.add_argument("--C", type=float, default=float("inf"))
    sweep.add_argument("--runs", type=int, default=20)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", default=None, help="defaults to stdout")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def _add_model_flags(cmd) -> None:
    cmd.add_argument("--epsilon", type=float, default=0.001)
    cmd.add_argument("--C", type=float, default=float("inf"), help="'inf' allowed")
    cmd.add_argument("--L", type=int, default=10, help="lookahead buffer size")
    cmd.add_argument("--delta", type=float, default=None, help="default epsilon/2")


def _model_params(args, dim: int) -> ModelParams:
    return ModelParams(
        dim=dim, epsilon=args.epsilon, C=args.C, lookahead=args.L, delta=args.delta
    )


def _load_nonempty(path):
    dataset = load_libsvm(path)
    if not dataset.examples:
        raise DataFormatError(f"{path}: empty dataset")
    return dataset


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    dataset = generate_synthetic(args.n, args.dim, args.margin, args.noise, args.seed)
    _write_text(args.out, format_libsvm(dataset))
    return 0


def _cmd_train(args) -> int:
    dataset = _load_nonempty(args.data)
    model = Model(_model_params(args, dataset.dim)).train_stream(dataset.examples)
    save_model(model, args.model)
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    dataset = _load_nonempty(args.data)
    labels = model.predict([ex.x for ex in dataset.examples])
    _write_text(args.out, "".join("+1\n" if y > 0 else "-1\n" for y in labels))
    truth = [ex.y for ex in dataset.examples]
    accuracy = sum(int(p == t) for p, t in zip(labels, truth)) / len(truth)
    print(f"accuracy {accuracy:.6f} on {len(truth)} points", file=sys.stderr)
    return 0


def _report_csv(reports, out) -> None:
    buf = io.StringIO()
    write_csv(reports, buf)
    _write_text(out, buf.getvalue())


def _cmd_eval(args) -> int:
    train = _load_nonempty(args.train)
    test = _load_nonempty(args.test)
    params = _model_params(args, max(train.dim, test.dim))
    _report_csv([run_experiment(train, test, params, args.runs, args.seed)], args.out)
    return 0


def _parse_list(text: str, kind, what: str) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad {what} list: {text!r}") from None


def _cmd_sweep(args) -> int:
    train = _load_nonempty(args.train)
    test = _load_nonempty(args.test)
    epsilons = _parse_list(args.epsilons, float, "epsilon")
    lookaheads = _parse_list(args.lookaheads, int, "lookahead")
    params = ModelParams(dim=max(train.dim, test.dim), C=args.C)
    rows = epsilon_sweep(train, test, params, epsilons, args.runs, lookaheads, args.seed)
    _report_csv(rows, args.out)
    return 0


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if not exc.code else int(exc.code)
    try:
        return args.func(args)
    except (DataFormatError, ModelFormatError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
