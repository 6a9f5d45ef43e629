"""Command-line front end: extract, select, train, evaluate, classify.

Configuration precedence is flags > config file (key = value lines) >
defaults. A UserWarning, such as the small-class fold warning, prints as one
`warning: <message>` line on stderr. Commands raise; `main` alone turns a
failure into an exit code:
  2  a missing or malformed corpus, cache, model, subset or config file
     (a config line without `=` or whose key is no setting), a corpus with
     no usable clip, or an out-of-range setting;
  3  a class too small to split, in select or train;
  4  a clip that cannot be opened or parsed, or that resamples to no
     samples, in classify;
  5  a feature vector whose length does not match the model.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import audio_io, dataset, evaluation, features, mlp, pipeline, selection
from .errors import (ClassTooSmall, DimensionMismatch, EmptyClip, InvalidSetting,
                     MalformedRiff, UnsupportedFormat, VocalnetError)

EXIT_CODES = (  # the first entry a failure is an instance of decides its code
    (ClassTooSmall, 3),
    ((MalformedRiff, UnsupportedFormat, EmptyClip), 4),
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
    """key = value lines; # comments and blank lines ignored, bad bytes read as
    U+FFFD. A line without `=`, or a key that is not in DEFAULTS, raises
    InvalidSetting; any command's settings may share one file."""
    values = {}
    with open(path, errors="replace") as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, equals, value = (part.strip() for part in line.partition("="))
            if not equals or key not in DEFAULTS:
                raise InvalidSetting(f"{path}: line {number}: {line!r} is not "
                                     f"key = value with a key in {', '.join(DEFAULTS)}")
            values[key] = value
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
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--ci", action="store_true",
                        help="CI mode: --seed must be given explicitly")


def _add_extract(parser):
    parser.add_argument("--corpus", required=True,
                        help="class-per-directory root or path,label manifest CSV")
    parser.add_argument("--out", required=True, help="feature cache CSV")
    _add_extraction(parser)


def _add_select(parser):
    parser.add_argument("--cache", required=True, help="feature cache CSV")
    parser.add_argument("--trace", required=True, help="selection trace CSV")
    parser.add_argument("--subset", required=True, help="selected-slots output CSV")
    _add_training(parser)


def _add_train(parser):
    parser.add_argument("--cache", required=True, help="feature cache CSV")
    parser.add_argument("--model", required=True, help="model JSON output")
    parser.add_argument("--report", help="report path prefix (.txt, .csv and "
                                         ".features.csv written)")
    parser.add_argument("--subset", help="selected-slots CSV from the select command")
    _add_extraction(parser)
    _add_training(parser)


def _add_evaluate(parser):
    parser.add_argument("--model", required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--report", help="report path prefix (.txt and .csv written)")


def _add_classify(parser):
    parser.add_argument("--model", required=True)
    parser.add_argument("wav", help="clip to classify")


_SUBCOMMANDS = {  # name -> (help, adds the command's arguments)
    "extract": ("compute the per-clip feature cache", _add_extract),
    "select": ("forward feature selection by MDL", _add_select),
    "train": ("10-fold training; exports the best fold's network", _add_train),
    "evaluate": ("score a model against a feature cache", _add_evaluate),
    "classify": ("classify one WAV file", _add_classify),
}
_CONFIG_COMMANDS = ("extract", "select", "train")  # the commands that resolve settings


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv. When argv[0] names a command only that command's
    subparser is built, which parses and helps exactly as the full parser
    does; otherwise (no command, -h, an unknown word) all five are."""
    parser = argparse.ArgumentParser(
        prog="vocalnet",
        description="Identify animal species from vocalization recordings")
    chosen = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    # the usage line of an error (unrecognized arguments) names every command
    every_name = "{" + ",".join(_SUBCOMMANDS) + "}" if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every_name)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        if chosen in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            if name in _CONFIG_COMMANDS:
                p.add_argument("--config", help="key = value config file")
    return parser


def _prepare(args) -> None:
    config = getattr(args, "config", None)
    args._config = read_config_file(config) if config else {}
    if getattr(args, "ci", False) and args.seed is None:
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
    # train never extracts, so check the settings classify will extract with
    extraction = {key: resolve(args, key) for key in EXTRACTION_KEYS}
    features.check_extraction(**extraction)
    corpus = dataset.read_feature_cache(args.cache)
    subset = selection.read_subset(args.subset) if args.subset else None
    config = _training_config(args)
    folds = dataset.plan_folds(corpus, config.seed)
    run = pipeline.train_all_folds(
        corpus, folds, config,
        hidden_width=_hidden_width(args, corpus),
        hidden_layers=resolve(args, "layers"),
        feature_slots=subset)

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
        evaluation.write_feature_summary(evaluation.feature_summary(corpus),
                                         args.report + ".features.csv")
    return 0


def cmd_evaluate(args) -> int:
    net, _doc = mlp.load_model(args.model)
    report = pipeline.evaluate(net, dataset.read_feature_cache(args.cache))
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
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    with warnings.catch_warnings():  # restores showwarning on the way out
        warnings.showwarning = _warning_lines(warnings.showwarning)
        try:
            _prepare(args)
            return COMMANDS[args.command](args)
        except (VocalnetError, OSError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
