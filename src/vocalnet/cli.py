"""Command-line front end: extract, select, train, evaluate, classify.

Configuration precedence is flags > config file (key = value lines) >
defaults. Exit codes: 2 unreadable inputs / nothing extracted, 3 class too
small to split, 4 unparseable clip, 5 feature dimension mismatch.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import audio_io, dataset, evaluation, features, mlp, pipeline, selection
from .errors import (ClassTooSmall, DimensionMismatch, EmptyCorpus,
                     MalformedRiff, UnsupportedFormat, VocalnetError)

EXIT_UNREADABLE = 2
EXIT_CLASS_TOO_SMALL = 3
EXIT_BAD_CLIP = 4
EXIT_DIMENSION = 5

DEFAULTS = {
    "window": audio_io.DEFAULT_WINDOW,
    "hop": audio_io.DEFAULT_HOP,
    "rate": audio_io.DEFAULT_RATE,
    "hidden": None,   # defaults to the class count
    "layers": 1,
    "learning_rate": 0.1,
    "momentum": 0.9,
    "max_epochs": 10000,
    "patience": 20,
    "seed": 0,
}


def read_config_file(path) -> dict:
    """key = value lines; blank lines and # comments ignored."""
    values = {}
    with open(path) as fh:
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
    if getattr(args, "_config", None) and key in args._config:
        return cast(args._config[key])
    return DEFAULTS[key]


def _add_common(parser):
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--ci", action="store_true",
                        help="CI mode: --seed must be given explicitly")


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
    _add_common(p)

    p = sub.add_parser("select", help="forward feature selection by MDL")
    p.add_argument("--cache", required=True, help="feature cache CSV")
    p.add_argument("--trace", required=True, help="selection trace CSV")
    p.add_argument("--subset", required=True, help="selected-slots output CSV")
    _add_training(p)
    _add_common(p)

    p = sub.add_parser("train", help="10-fold training; exports the best fold's network")
    p.add_argument("--cache", required=True, help="feature cache CSV")
    p.add_argument("--model", required=True, help="model JSON output")
    p.add_argument("--report", help="report path prefix (.txt and .csv written)")
    p.add_argument("--subset", help="selected-slots CSV from the select command")
    _add_extraction(p)
    _add_training(p)
    _add_common(p)

    p = sub.add_parser("evaluate", help="score a model against a feature cache")
    p.add_argument("--model", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--report", help="report path prefix (.txt and .csv written)")
    _add_common(p)

    p = sub.add_parser("classify", help="classify one WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("wav", help="clip to classify")
    _add_common(p)

    return parser


def _prepare(args) -> None:
    args._config = read_config_file(args.config) if getattr(args, "config", None) else {}
    if args.ci and args.command in ("train", "select") and args.seed is None:
        print("error: --seed is mandatory for train/select in CI mode",
              file=sys.stderr)
        raise SystemExit(EXIT_UNREADABLE)


def _training_config(args) -> mlp.TrainingConfig:
    return mlp.TrainingConfig(
        learning_rate=resolve(args, "learning_rate", float),
        momentum=resolve(args, "momentum", float),
        max_epochs=resolve(args, "max_epochs"),
        test_patience=resolve(args, "patience"),
        seed=resolve(args, "seed"))


def cmd_extract(args) -> int:
    window = resolve(args, "window")
    hop = resolve(args, "hop")
    rate = resolve(args, "rate")
    try:
        corpus = dataset.load_corpus(args.corpus, window, hop, rate)
    except EmptyCorpus as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    for path, message in corpus.load_errors:
        print(f"warning: skipped {path}: {message}", file=sys.stderr)
    dataset.write_feature_cache(corpus, args.out)
    print(f"extracted {len(corpus.samples)} clips "
          f"({len(corpus.class_names)} classes) -> {args.out}")
    return 0


def cmd_select(args) -> int:
    try:
        corpus = dataset.read_feature_cache(args.cache)
    except (OSError, EmptyCorpus, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    config = _training_config(args)
    folds = dataset.plan_folds(corpus, config.seed)
    hidden = resolve(args, "hidden") or corpus.n_classes
    trace = selection.forward_select(corpus, folds, hidden,
                                     resolve(args, "layers"), config)
    selection.export_trace(trace, args.trace)
    selection.write_subset(trace, args.subset)
    print(f"selected {len(trace.final_subset)} slots: "
          f"{', '.join(trace.subset_names())}")
    return 0


def cmd_train(args) -> int:
    try:
        corpus = dataset.read_feature_cache(args.cache)
    except (OSError, EmptyCorpus, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    subset = selection.read_subset(args.subset) if args.subset else None
    config = _training_config(args)
    try:
        folds = dataset.plan_folds(corpus, config.seed)
        run = pipeline.train_all_folds(
            corpus, folds, config,
            hidden_width=resolve(args, "hidden"),
            hidden_layers=resolve(args, "layers"),
            feature_slots=subset)
    except ClassTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLASS_TOO_SMALL

    extraction = {"window": resolve(args, "window"),
                  "hop": resolve(args, "hop"),
                  "rate": resolve(args, "rate")}
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
        aggregate = evaluation.summarize(run.summary.summed_matrix)
        with open(args.report + ".txt", "w") as fh:
            fh.write(evaluation.render_report_text(aggregate) + "\n")
        with open(args.report + ".csv", "w") as fh:
            fh.write(evaluation.render_report_csv(aggregate))
    return 0


def cmd_evaluate(args) -> int:
    try:
        net, _doc = mlp.load_model(args.model)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    try:
        corpus = dataset.read_feature_cache(args.cache)
    except (OSError, EmptyCorpus, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE

    # the cache numbers its own classes; score against the model's numbering
    model_index = {name: i for i, name in
                   enumerate(net.label_map or corpus.class_names)}
    unknown = [name for name in corpus.class_names if name not in model_index]
    if unknown:
        print(f"error: classes not in the model: {', '.join(unknown)}",
              file=sys.stderr)
        return EXIT_UNREADABLE
    truths = [model_index[corpus.class_names[label]] for label in corpus.labels()]

    matrix = corpus.feature_matrix()
    if net.feature_slots is not None:
        matrix = matrix[:, net.feature_slots]
    try:
        predictions = [mlp.classify(net, row)[0] for row in matrix]
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    cm = evaluation.confusion_matrix(truths, predictions,
                                     net.spec.n, net.label_map)
    report = evaluation.summarize(cm)
    print(evaluation.render_report_text(report))
    if args.report:
        with open(args.report + ".txt", "w") as fh:
            fh.write(evaluation.render_report_text(report) + "\n")
        with open(args.report + ".csv", "w") as fh:
            fh.write(evaluation.render_report_csv(report))
    return 0


def cmd_classify(args) -> int:
    try:
        net, doc = mlp.load_model(args.model)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    try:
        clip = audio_io.read_wav(args.wav)
    except OSError as exc:
        print(f"error: cannot read clip: {exc}", file=sys.stderr)
        return EXIT_BAD_CLIP
    except (MalformedRiff, UnsupportedFormat) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_CLIP

    extraction = doc.get("extraction") or {}
    clip = audio_io.resample(clip, extraction.get("rate", audio_io.DEFAULT_RATE))
    vector = features.extract_features(
        clip,
        extraction.get("window", audio_io.DEFAULT_WINDOW),
        extraction.get("hop", audio_io.DEFAULT_HOP))
    values = vector.values
    if net.feature_slots is not None:
        values = values[net.feature_slots]
    try:
        label, activations = mlp.classify(net, values)
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
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
    _prepare(args)
    try:
        return COMMANDS[args.command](args)
    except VocalnetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE


if __name__ == "__main__":
    sys.exit(main())
