"""Command-line front end: extract, select, train, evaluate, classify.

Features are always extracted at the paper's one setting: 512-sample
windows, a 256-sample hop, 22050 Hz (audio_io.DEFAULT_*); no flag changes
it, and the model records it. `select` and `train` take their training
settings from flags alone. An unset --learning-rate, --momentum,
--max-epochs, --patience or --seed keeps mlp.TrainingConfig's default; an
unset --layers gives one hidden layer, and an unset --hidden makes it as wide
as the class count. A UserWarning, such as the small-class fold warning,
prints as one `warning: <message>` line on stderr. `main` parses with one
parser, built on first use and kept for the process. Every artifact is
UTF-8 text whatever the locale, a file system name that is not UTF-8 written
with \\xNN escapes, and a manifest's paths reach the file system as their
UTF-8 bytes; a class name that stdout cannot encode prints with backslash
escapes in `classify` and `evaluate`. Commands raise; `main` alone turns a
failure into an exit code:
  2  a missing or malformed corpus, cache, model or subset file (a model
     that records other extraction settings included), a corpus with no
     usable clip, an out-of-range setting, or an allocation that fails;
  3  a class of fewer than 3 samples, or classes that all have 3-5 and so
     leave no class a test row, in select or train;
  4  a clip that cannot be opened or parsed, or that resamples to no
     samples, in classify; `extract` skips it with the same message;
  5  a feature vector whose length does not match the model.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from . import dataset, evaluation, mlp, pipeline, selection
from .errors import (ClassTooSmall, DimensionMismatch, EmptyClip, MalformedRiff,
                     UnsupportedFormat, VocalnetError)

EXIT_CODES = (  # the first entry a failure is an instance of decides its code
    (ClassTooSmall, 3),
    ((MalformedRiff, UnsupportedFormat, EmptyClip), 4),
    (DimensionMismatch, 5),
    ((VocalnetError, OSError, MemoryError), 2),
)

_TRAINING = mlp.TrainingConfig()


def _add_training(parser):
    parser.add_argument("--hidden", type=int, help="hidden layer width (default: class count)")
    parser.add_argument("--layers", type=int, default=1, help="hidden layer count")
    parser.add_argument("--learning-rate", dest="learning_rate", type=float,
                        default=_TRAINING.learning_rate)
    parser.add_argument("--momentum", type=float, default=_TRAINING.momentum)
    parser.add_argument("--max-epochs", dest="max_epochs", type=int,
                        default=_TRAINING.max_epochs)
    parser.add_argument("--patience", type=int, default=_TRAINING.test_patience)
    parser.add_argument("--seed", type=int, default=_TRAINING.seed, help="random seed")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of all five commands, built on the first call and shared
    from then on, so callers must not change it. A parse leaves nothing on
    it, and help takes the terminal's width when it is printed."""
    parser = argparse.ArgumentParser(
        prog="vocalnet",
        description="Identify animal species from vocalization recordings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute the per-clip feature cache")
    p.add_argument("--corpus", required=True,
                   help="class-per-directory root or path,label manifest CSV")
    p.add_argument("--out", required=True, help="feature cache CSV")

    p = sub.add_parser("select", help="forward feature selection by MDL")
    p.add_argument("--cache", required=True, help="feature cache CSV")
    p.add_argument("--trace", required=True, help="selection trace CSV")
    p.add_argument("--subset", required=True, help="selected-slots output CSV")
    _add_training(p)

    p = sub.add_parser("train", help="10-fold training; exports the best fold's network")
    p.add_argument("--cache", required=True, help="feature cache CSV")
    p.add_argument("--model", required=True, help="model JSON output")
    p.add_argument("--report", help="report path prefix (.txt, .csv and "
                                    ".features.csv written)")
    p.add_argument("--subset", help="selected-slots CSV from the select command")
    _add_training(p)

    p = sub.add_parser("evaluate", help="score a model against a feature cache")
    p.add_argument("--model", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--report", help="report path prefix (.txt and .csv written)")

    p = sub.add_parser("classify", help="classify one WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("wav", help="clip to classify")
    return parser


def _training_config(args) -> mlp.TrainingConfig:
    return mlp.TrainingConfig(learning_rate=args.learning_rate, momentum=args.momentum,
                              max_epochs=args.max_epochs, test_patience=args.patience,
                              seed=args.seed)


def _hidden_width(args, corpus) -> int:
    return corpus.n_classes if args.hidden is None else args.hidden


def cmd_extract(args) -> int:
    corpus = dataset.load_corpus(args.corpus)
    for path, message in corpus.load_errors:
        print(f"warning: skipped {path}: {message}", file=sys.stderr)
    dataset.write_feature_cache(corpus, args.out)
    print(f"extracted {len(corpus.samples)} clips "
          f"({len(corpus.class_names)} classes) -> {args.out}")
    return 0


def cmd_select(args) -> int:
    corpus = dataset.read_feature_cache(args.cache)
    config = _training_config(args)
    folds = dataset.plan_folds(corpus, config.seed)
    trace = selection.forward_select(corpus, folds, _hidden_width(args, corpus),
                                     args.layers, config)
    selection.export_trace(trace, args.trace)
    selection.write_subset(trace, args.subset)
    print(f"selected {len(trace.final_subset)} slots: "
          f"{', '.join(trace.subset_names())}")
    return 0


def cmd_train(args) -> int:
    corpus = dataset.read_feature_cache(args.cache)
    subset = selection.read_subset(args.subset) if args.subset else None
    config = _training_config(args)
    folds = dataset.plan_folds(corpus, config.seed)
    run = pipeline.train_all_folds(
        corpus, folds, config,
        hidden_width=_hidden_width(args, corpus),
        hidden_layers=args.layers,
        feature_slots=subset)

    mlp.save_model(run.best.network, args.model, seed=config.seed,
                   stop_reason=run.best.state.stop_reason)

    for result in run.results:
        print(f"fold {result.fold}: eval accuracy "
              f"{result.report.overall_accuracy:.2f}% "
              f"(stop: {result.state.stop_reason}, epoch {result.state.epoch})")
    print(f"mean accuracy {run.summary.mean_accuracy:.2f}% "
          f"(std {run.summary.std_accuracy:.2f}, "
          f"min {run.summary.min_accuracy:.2f}, max {run.summary.max_accuracy:.2f})")
    print(f"exported fold {run.best.fold} -> {args.model}")

    if args.report:
        evaluation.write_report(run.summary.summed_matrix, args.report)
        evaluation.write_feature_summary(evaluation.feature_summary(corpus),
                                         corpus.class_names,
                                         args.report + ".features.csv")
    return 0


def _print_escaped(text: str) -> None:
    """print(text), or, where stdout cannot encode all of it, text with each
    character it cannot encode written as a backslash escape, as Python
    writes to stderr."""
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding:
        try:
            text.encode(encoding, sys.stdout.errors or "strict")
        except UnicodeEncodeError:
            text = text.encode(encoding, "backslashreplace").decode(encoding)
    print(text)


def cmd_evaluate(args) -> int:
    net, _doc = mlp.load_model(args.model)
    report = pipeline.evaluate(net, dataset.read_feature_cache(args.cache))
    _print_escaped(evaluation.render_report_text(report))
    if args.report:
        evaluation.write_report(report, args.report)
    return 0


def cmd_classify(args) -> int:
    net, _doc = mlp.load_model(args.model)
    values = dataset.clip_features(args.wav)
    if net.feature_slots is not None:
        values = values[net.feature_slots]
    label, activations = mlp.classify(net, values)
    _print_escaped(net.label_map[label])
    print(" ".join(f"{a:.4f}" for a in activations))
    return 0


COMMANDS = {
    "extract": cmd_extract,
    "select": cmd_select,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "classify": cmd_classify,
}


def _warning_lines(show):
    """A showwarning that prints a UserWarning as one `warning: <message>`
    line on stderr and passes any other category on to `show`."""
    def showwarning(message, category, *where):
        if issubclass(category, UserWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *where)
    return showwarning


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # restores showwarning on the way out
        warnings.showwarning = _warning_lines(warnings.showwarning)
        try:
            return COMMANDS[args.command](args)
        except (VocalnetError, OSError, MemoryError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
