"""Command-line front end: extract, select, train, evaluate, classify.

Configuration precedence is flags > config file (key = value lines) >
defaults. Commands raise; `main` alone turns a failure into an exit code:
  2  a missing or malformed corpus, cache, model, subset or config file, a
     corpus with no usable clip, or an out-of-range setting;
  3  a class too small to split, in select or train;
  4  a clip that cannot be opened or parsed, in classify;
  5  a feature vector whose length does not match the model.
"""

from __future__ import annotations

import argparse
import sys

from . import audio_io, dataset, evaluation, features, mlp, pipeline, selection
from .errors import (ClassTooSmall, DimensionMismatch, InvalidSetting,
                     LabelOutOfRange, MalformedRiff, UnsupportedFormat,
                     VocalnetError)

EXIT_CODES = (  # the first entry a failure is an instance of decides its code
    (ClassTooSmall, 3),
    ((MalformedRiff, UnsupportedFormat), 4),
    (DimensionMismatch, 5),
    ((VocalnetError, OSError), 2),
)

_TRAINING = mlp.TrainingConfig()
EXTRACTION_KEYS = ("window", "hop", "rate")  # recorded in the model for classify
DEFAULTS = {
    "window": audio_io.DEFAULT_WINDOW,
    "hop": audio_io.DEFAULT_HOP,
    "rate": audio_io.DEFAULT_RATE,
    "hidden": None,   # the class count; see _hidden_width
    "layers": 1,
    "learning_rate": _TRAINING.learning_rate,
    "momentum": _TRAINING.momentum,
    "max_epochs": _TRAINING.max_epochs,
    "patience": _TRAINING.test_patience,
    "seed": _TRAINING.seed,
}


def read_config_file(path) -> dict:
    """key = value lines; # comments and blank lines ignored, bad bytes read as U+FFFD."""
    values = {}
    with open(path, errors="replace") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def resolve(args, key, cast=int):
    """flags > config file > defaults."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in args._config:
        try:
            return cast(args._config[key])
        except ValueError:
            raise InvalidSetting(f"config value {key} = {args._config[key]!r} "
                                 f"is not {cast.__name__}") from None
    return DEFAULTS[key]


def _add_extraction(parser):
    parser.add_argument("--window", type=int, help="analysis window (samples)")
    parser.add_argument("--hop", type=int, help="hop between windows (samples)")
    parser.add_argument("--rate", type=int, help="common sample rate (Hz)")


def _add_training(parser):
    parser.add_argument("--hidden", type=int, help="hidden layer width (default: class count)")
    parser.add_argument("--layers", type=int, help="hidden layer count")
    parser.add_argument("--learning-rate", dest="learning_rate", type=float)
    parser.add_argument("--momentum", type=float)
    parser.add_argument("--max-epochs", dest="max_epochs", type=int)
    parser.add_argument("--patience", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocalnet",
        description="Identify animal species from vocalization recordings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute the per-clip feature cache")
    p.add_argument("--corpus", required=True,
                   help="class-per-directory root or path,label manifest CSV")
    p.add_argument("--out", required=True, help="feature cache CSV")
    _add_extraction(p)

    p = sub.add_parser("select", help="forward feature selection by MDL")
    p.add_argument("--cache", required=True, help="feature cache CSV")
    p.add_argument("--trace", required=True, help="selection trace CSV")
    p.add_argument("--subset", required=True, help="selected-slots output CSV")
    _add_training(p)

    p = sub.add_parser("train", help="10-fold training; exports the best fold's network")
    p.add_argument("--cache", required=True, help="feature cache CSV")
    p.add_argument("--model", required=True, help="model JSON output")
    p.add_argument("--report", help="report path prefix (.txt and .csv written)")
    p.add_argument("--subset", help="selected-slots CSV from the select command")
    _add_extraction(p)
    _add_training(p)

    p = sub.add_parser("evaluate", help="score a model against a feature cache")
    p.add_argument("--model", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--report", help="report path prefix (.txt and .csv written)")

    p = sub.add_parser("classify", help="classify one WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("wav", help="clip to classify")

    for p in sub.choices.values():  # options every command takes
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--ci", action="store_true",
                       help="CI mode: --seed must be given explicitly")
    return parser


def _prepare(args) -> None:
    args._config = read_config_file(args.config) if args.config else {}
    if args.ci and args.command in ("train", "select") and args.seed is None:
        raise InvalidSetting("--seed is mandatory for train/select in CI mode")


def _training_config(args) -> mlp.TrainingConfig:
    return mlp.TrainingConfig(
        learning_rate=resolve(args, "learning_rate", float),
        momentum=resolve(args, "momentum", float),
        max_epochs=resolve(args, "max_epochs"),
        test_patience=resolve(args, "patience"),
        seed=resolve(args, "seed"))


def _hidden_width(args, corpus) -> int:
    hidden = resolve(args, "hidden")
    return corpus.n_classes if hidden is None else hidden


def _write_report(report, prefix) -> None:
    with open(prefix + ".txt", "w") as fh:
        fh.write(evaluation.render_report_text(report) + "\n")
    with open(prefix + ".csv", "w") as fh:
        fh.write(evaluation.render_report_csv(report))


def cmd_extract(args) -> int:
    corpus = dataset.load_corpus(args.corpus, *(resolve(args, key) for key in EXTRACTION_KEYS))
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
                                     resolve(args, "layers"), config)
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
        hidden_layers=resolve(args, "layers"),
        feature_slots=subset)

    extraction = {key: resolve(args, key) for key in EXTRACTION_KEYS}
    mlp.save_model(run.best.network, args.model, seed=config.seed,
                   stop_reason=run.best.state.stop_reason,
                   extraction=extraction)

    for result in run.results:
        print(f"fold {result.fold}: eval accuracy "
              f"{result.report.overall_accuracy:.2f}% "
              f"(stop: {result.state.stop_reason}, epoch {result.state.epoch})")
    print(f"mean accuracy {run.summary.mean_accuracy:.2f}% "
          f"(std {run.summary.std_accuracy:.2f}, "
          f"min {run.summary.min_accuracy:.2f}, max {run.summary.max_accuracy:.2f})")
    print(f"exported fold {run.best.fold} -> {args.model}")

    if args.report:
        _write_report(evaluation.summarize(run.summary.summed_matrix), args.report)
    return 0


def cmd_evaluate(args) -> int:
    net, _doc = mlp.load_model(args.model)
    corpus = dataset.read_feature_cache(args.cache)

    # the cache numbers its own classes; score against the model's numbering
    model_index = {name: i for i, name in
                   enumerate(net.label_map or corpus.class_names)}
    unknown = [name for name in corpus.class_names if name not in model_index]
    if unknown:
        raise LabelOutOfRange(f"classes not in the model: {', '.join(unknown)}")
    truths = [model_index[corpus.class_names[label]] for label in corpus.labels()]

    matrix = corpus.feature_matrix()
    if net.feature_slots is not None:
        matrix = matrix[:, net.feature_slots]
    predictions = [mlp.classify(net, row)[0] for row in matrix]
    cm = evaluation.confusion_matrix(truths, predictions,
                                     net.spec.n, net.label_map or None)
    report = evaluation.summarize(cm)
    print(evaluation.render_report_text(report))
    if args.report:
        _write_report(report, args.report)
    return 0


def cmd_classify(args) -> int:
    net, doc = mlp.load_model(args.model)
    try:
        clip = audio_io.read_wav(args.wav)
    except OSError as exc:  # an unopenable clip is a bad clip (4), not a bad file (2)
        raise MalformedRiff(f"cannot read clip: {exc}") from exc

    extraction = doc.get("extraction") or {}
    window, hop, rate = (extraction.get(key, DEFAULTS[key]) for key in EXTRACTION_KEYS)
    vector = features.extract_features(audio_io.resample(clip, rate), window, hop)
    values = vector.values
    if net.feature_slots is not None:
        values = values[net.feature_slots]
    label, activations = mlp.classify(net, values)
    name = net.label_map[label] if net.label_map else str(label)
    print(name)
    print(" ".join(f"{a:.4f}" for a in activations))
    return 0


COMMANDS = {
    "extract": cmd_extract,
    "select": cmd_select,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _prepare(args)
        return COMMANDS[args.command](args)
    except (VocalnetError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
