"""Per-layer metrics derived from a traced run.

Every layer is one module of `src/vocalnet/`. Work counts are reported per
pass (one pass is one full repetition of the workload), so they repeat
exactly between runs of the same code and seed; a change that moves them
has changed behaviour, not speed. Timings divide a span total by the work
it covered. A layer with no calls on a workload reports 0.
"""

from __future__ import annotations

import functools
import inspect

MODULES = ("audio_io", "features", "dataset", "mlp", "selection", "pipeline",
           "evaluation", "cli")

STOP_REASONS = ("TestWorsening", "TrainStalled", "TargetReached", "EpochCap")

PER_FRAME = ("magnitude_spectrum", "time_domain_features",
             "spectral_shape_features", "mfcc", "lpc")

# Which end-to-end metric each layer should move, and on which workload.
TARGETS = {
    "audio_io": "unit_cost_us on extract-long (parse and resample scale with "
                "audio length); a small share of unit_cost_us on classify-short",
    "features": "unit_cost_us and op_unit_p50_us on extract-long and "
                "classify-short; no change on select-train, where it has 0 calls",
    "dataset": "load_corpus and write_feature_cache: unit_cost_us on "
               "extract-long; read_feature_cache and plan_folds: unit_cost_us "
               "on select-train",
    "mlp": "unit_cost_us and op_unit_p50_us on select-train; only classify "
           "and load_model reach classify-short; 0 train calls elsewhere",
    "selection": "unit_cost_us on select-train (the select stage)",
    "pipeline": "unit_cost_us on select-train (the train stage)",
    "evaluation": "bookkeeping inside unit_cost_us on select-train",
    "cli": "op_unit_p50_us on classify-short (argparse and model load are "
           "paid on every call)",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(spans: dict, counts: dict, passes: int,
                      traced_wall_s: float, untraced_wall_s: float,
                      n_spans: int, failed_share: float) -> dict:
    """name -> (value, unit) for every per-layer metric."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def per_pass(value):
        return _div(value, passes)

    frames = counts.get("features.frames", 0)
    clips = calls("features.extract_features")
    m = {}
    m["audio_io.parse_wav.us_per_clip"] = (
        1e6 * _div(total("audio_io.parse_wav"), calls("audio_io.parse_wav")), "us")
    m["audio_io.parse_wav.mb_per_s"] = (
        _div(counts.get("audio_io.parse_wav.bytes", 0) / 1e6,
             total("audio_io.parse_wav")), "MB/s")
    m["audio_io.resample.us_per_clip"] = (
        1e6 * _div(total("audio_io.resample"), calls("audio_io.resample")), "us")
    m["audio_io.resample.calls"] = (
        per_pass(counts.get("audio_io.resample.converted", 0)), "count")
    m["audio_io.frame_clip.us_per_clip"] = (
        1e6 * _div(total("audio_io.frame_clip"), calls("audio_io.frame_clip")), "us")

    m["features.frames"] = (per_pass(frames), "count")
    m["features.extract_features.us_per_frame"] = (
        1e6 * _div(total("features.extract_features"), frames), "us")
    m["features.extract_features.self_us_per_frame"] = (
        1e6 * _div(self_s("features.extract_features"), frames), "us")
    for fn in PER_FRAME:
        m[f"features.{fn}.us_per_frame"] = (
            1e6 * _div(total(f"features.{fn}"), frames), "us")
    m["features.clip_level_features.us_per_clip"] = (
        1e6 * _div(total("features.clip_level_features"), clips), "us")
    m["features.aggregate_clip.us_per_clip"] = (
        1e6 * _div(total("features.aggregate_clip"), clips), "us")

    m["dataset.load_corpus.s"] = (
        _div(total("dataset.load_corpus"), calls("dataset.load_corpus")), "s")
    m["dataset.load_corpus.skipped"] = (
        per_pass(counts.get("dataset.load_corpus.skipped", 0)), "count")
    m["dataset.write_feature_cache.us_per_row"] = (
        1e6 * _div(total("dataset.write_feature_cache"),
                   counts.get("dataset.write_feature_cache.rows", 0)), "us")
    m["dataset.read_feature_cache.us_per_row"] = (
        1e6 * _div(total("dataset.read_feature_cache"),
                   counts.get("dataset.read_feature_cache.rows", 0)), "us")
    m["dataset.plan_folds.ms"] = (
        1e3 * _div(total("dataset.plan_folds"), calls("dataset.plan_folds")), "ms")

    epochs = counts.get("mlp.train.epochs", 0)
    m["mlp.train.calls"] = (per_pass(calls("mlp.train")), "count")
    m["mlp.train.ms_per_call"] = (
        1e3 * _div(total("mlp.train"), calls("mlp.train")), "ms")
    m["mlp.train.epochs"] = (per_pass(epochs), "count")
    m["mlp.train_epoch.us_per_update"] = (
        1e6 * _div(total("mlp.train_epoch"),
                   counts.get("mlp.train_epoch.updates", 0)), "us")
    m["mlp.train.useful_epoch_ratio"] = (
        _div(counts.get("mlp.train.useful_epochs", 0), epochs), "ratio")
    for reason in STOP_REASONS:
        m[f"mlp.train.stop.{reason}"] = (
            per_pass(counts.get(f"mlp.train.stop.{reason}", 0)), "count")
    m["mlp.mse.calls"] = (per_pass(calls("mlp.mse")), "count")
    m["mlp.mse.us_per_call"] = (1e6 * _div(total("mlp.mse"), calls("mlp.mse")), "us")
    m["mlp.classify.us_per_call"] = (
        1e6 * _div(total("mlp.classify"), calls("mlp.classify")), "us")
    m["mlp.load_model.us_per_call"] = (
        1e6 * _div(total("mlp.load_model"), calls("mlp.load_model")), "us")

    candidates = counts.get("selection.candidates", 0)
    m["selection.forward_select.s"] = (
        _div(total("selection.forward_select"), calls("selection.forward_select")), "s")
    m["selection.candidates"] = (per_pass(candidates), "count")
    m["selection.rounds"] = (per_pass(counts.get("selection.rounds", 0)), "count")
    m["selection.accepted_ratio"] = (
        _div(counts.get("selection.accepted", 0), candidates), "ratio")
    m["selection.ms_per_candidate"] = (
        1e3 * _div(total("selection.forward_select"), candidates), "ms")
    m["selection.mdl_score.us_per_call"] = (
        1e6 * _div(total("selection.mdl_score"), calls("selection.mdl_score")), "us")

    m["pipeline.train_all_folds.s"] = (
        _div(total("pipeline.train_all_folds"), calls("pipeline.train_all_folds")), "s")
    m["pipeline.train_fold.ms_per_fold"] = (
        1e3 * _div(total("pipeline.train_fold"), calls("pipeline.train_fold")), "ms")
    m["evaluation.summarize.us_per_call"] = (
        1e6 * _div(total("evaluation.summarize"), calls("evaluation.summarize")), "us")
    m["cli.main.ms_per_call"] = (
        1e3 * _div(total("cli.main"), calls("cli.main")), "ms")
    m["cli.build_parser.us_per_call"] = (
        1e6 * _div(total("cli.build_parser"), calls("cli.build_parser")), "us")

    for module in MODULES:
        own = sum(s["self_s"] for name, s in spans.items()
                  if name.split(".", 1)[0] == module)
        m[f"{module}.self_pct"] = (100.0 * _div(own, traced_wall_s), "%")

    m["trace.spans"] = (per_pass(n_spans), "count")
    m["trace.overhead_s"] = (per_pass(traced_wall_s - untraced_wall_s), "s")
    m["trace.overhead_pct"] = (
        100.0 * _div(traced_wall_s - untraced_wall_s, untraced_wall_s), "%")
    m["failed_op_share"] = (failed_share, "ratio")
    return m


@functools.lru_cache(maxsize=None)
def _position(fn, name: str) -> int:
    return list(inspect.signature(fn).parameters).index(name)


def argument(fn, args: tuple, kwargs: dict, name: str):
    """The value a call passed for parameter `name`, or its default."""
    if name in kwargs:
        return kwargs[name]
    i = _position(fn, name)
    if i < len(args):
        return args[i]
    return inspect.signature(fn).parameters[name].default


def frame_count(n_samples: int, window: int, hop: int) -> int:
    """Analysis frames in a clip: one per hop, or one zero-padded frame for a
    clip shorter than the window. This is the benchmark's unit of
    extraction work and does not depend on how the extractor is written."""
    return 1 if n_samples < window else (n_samples - window) // hop + 1


def _frames(tracer, fn, args, kwargs, result):
    clip = argument(fn, args, kwargs, "clip")
    tracer.count("features.frames", frame_count(
        len(clip.samples), argument(fn, args, kwargs, "window_size"),
        argument(fn, args, kwargs, "hop_size")))


def _train(tracer, fn, args, kwargs, result):
    _, state = result
    patience = argument(fn, args, kwargs, "config").test_patience
    tracer.count("mlp.train.epochs", state.epoch)
    tracer.count(f"mlp.train.stop.{state.stop_reason}")
    # a TestWorsening stop returns the snapshot taken `patience` epochs back
    tracer.count("mlp.train.useful_epochs", state.epoch - patience
                 if state.stop_reason == "TestWorsening" else state.epoch)


def _forward_select(tracer, fn, args, kwargs, result):
    tracer.count("selection.candidates", len(result.steps))
    tracer.count("selection.rounds", len({s.round for s in result.steps}))
    tracer.count("selection.accepted", len(result.final_subset))


# span name -> probe(tracer, fn, args, kwargs, result), run after each call
PROBES = {
    "audio_io.parse_wav": lambda t, fn, a, k, r: t.count(
        "audio_io.parse_wav.bytes", len(argument(fn, a, k, "data"))),
    "audio_io.resample": lambda t, fn, a, k, r: t.count(
        "audio_io.resample.converted",
        r is not argument(fn, a, k, "clip")),
    "features.extract_features": _frames,
    "dataset.load_corpus": lambda t, fn, a, k, r: t.count(
        "dataset.load_corpus.skipped", len(r.load_errors)),
    "dataset.write_feature_cache": lambda t, fn, a, k, r: t.count(
        "dataset.write_feature_cache.rows",
        len(argument(fn, a, k, "corpus").samples)),
    "dataset.read_feature_cache": lambda t, fn, a, k, r: t.count(
        "dataset.read_feature_cache.rows", len(r.samples)),
    "mlp.train": _train,
    "mlp.train_epoch": lambda t, fn, a, k, r: t.count(
        "mlp.train_epoch.updates", len(argument(fn, a, k, "inputs"))),
    "selection.forward_select": _forward_select,
}
