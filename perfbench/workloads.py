"""The three benchmark workloads: set-up, one pass, and the output checks.

Every workload is a closed loop with one caller: the next command starts only
after the previous one returned. A pass is one full repetition of the
workload; a run repeats passes until its time is up. Commands run in-process
through `vocalnet.cli.main`, with stdout and stderr captured for the checks.

An operation is one clip on extract-long, one candidate or fold training on
select-train and one `classify` call on classify-short. It fails when its
outcome differs from the expected one; a failed whole-pass check (cache
header, determinism across passes, the evaluate cross-check) fails every
operation of that pass.

Each operation also has a count of work units, so that timings compare
across seeds whose inputs need different amounts of work: analysis frames on
extract-long, per-sample back-prop updates on select-train, and calls on
classify-short.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from calibrate import Reference
from layers import STOP_REASONS, argument, frame_count

SIZES = {
    "full": {
        "extract_clips": 100, "extract_malformed": 4, "extract_dur": (1.0, 5.0),
        "select_rows": 8, "select_flags": ["--max-epochs", "150"],
        "classify_train_clips": 50, "classify_train_dur": (0.3, 0.8),
        "classify_clips": 200, "classify_malformed": 8,
        "classify_dur": (0.02, 1.0), "setup_repeats": 3,
    },
    "tiny": {
        "extract_clips": 12, "extract_malformed": 2, "extract_dur": (0.2, 0.5),
        "select_rows": 10, "select_flags": ["--max-epochs", "8"],
        "classify_train_clips": 30, "classify_train_dur": (0.1, 0.2),
        "classify_clips": 10, "classify_malformed": 2,
        "classify_dur": (0.02, 0.3), "setup_repeats": 1,
    },
}

TRAIN_FLAGS = ["--seed", "0"]


@dataclass
class Op:
    start: float  # perf_counter at the start
    seconds: float
    units: float
    ok: bool = True


@dataclass
class PassResult:
    start: float
    end: float
    wall_s: float  # end - start, less the reference bursts in between
    ops: list[Op]
    facts: dict = field(default_factory=dict)

    def fail_all(self, reason: str) -> None:
        for op in self.ops:
            op.ok = False
        self.facts.setdefault("failures", []).append(reason)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in-process; an escaping exception becomes exit code -1 with
    its traceback as stderr. The binding is looked up on every call so a
    traced run goes through the wrapped one."""
    from vocalnet import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except BaseException:  # SystemExit from argparse included
            err.write(traceback.format_exc())
            code = -1
    return code, out.getvalue(), err.getvalue()


def cache_digest(rows: list[tuple[str, str, list[float]]]) -> str:
    """sha256 over (path, label, values rounded to 9 significant digits)."""
    h = hashlib.sha256()
    for path, label, values in rows:
        h.update(f"{path},{label},{','.join(f'{v:.9g}' for v in values)}\n".encode())
    return h.hexdigest()


def read_cache(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [(r[0], r[1], [float(v) for v in r[2:]]) for r in reader if r]
    return header, rows


def cache_header() -> list[str]:
    from vocalnet.features import FEATURE_NAMES
    return ["clip_path", "label", *FEATURE_NAMES]


class OpClock:
    """Per-operation timing at the operation's boundary in the program.

    `opens` marks the start of an operation, `closes` its end with a count of
    work units; an operation still open when the next one opens (or when the
    pass ends) was rejected by the program and is recorded with 0 units.
    `whole` wraps a call that is one operation by itself. Only one clock read
    per boundary, so it stays on in untraced runs. Reference bursts run at
    operation starts, before the clock starts. The wrappers keep the wrapped
    function's name and module, so a tracer installed later wraps them like
    any other binding.
    """

    def __init__(self, ref: Reference):
        self.ref = ref
        self.ops: list[Op] = []
        self._t0: float | None = None
        self._installed: list[tuple[object, str, object]] = []

    def _set(self, module, name, wrapper):
        self._installed.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def opens(self, module, name):
        fn, clock = getattr(module, name), self

        @functools.wraps(fn)
        def opened(*args, **kwargs):
            clock.drop_open()
            clock.ref.maybe()
            clock._t0 = time.perf_counter()
            return fn(*args, **kwargs)
        self._set(module, name, opened)

    def closes(self, module, name, units_of):
        fn, clock = getattr(module, name), self

        @functools.wraps(fn)
        def closed(*args, **kwargs):
            result = fn(*args, **kwargs)
            clock.ops.append(Op(clock._t0, time.perf_counter() - clock._t0,
                                units_of(fn, args, kwargs, result)))
            clock._t0 = None
            return result
        self._set(module, name, closed)

    def whole(self, module, name, units_of):
        fn, clock = getattr(module, name), self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            clock.ref.maybe()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            clock.ops.append(Op(t0, time.perf_counter() - t0,
                                units_of(fn, args, kwargs, result)))
            return result
        self._set(module, name, timed)

    def drop_open(self):
        if self._t0 is not None:
            self.ops.append(Op(self._t0, time.perf_counter() - self._t0, 0.0))
            self._t0 = None

    def take(self) -> list[Op]:
        self.drop_open()
        ops, self.ops = self.ops, []
        return ops

    def uninstall(self):
        for module, name, fn in reversed(self._installed):
            setattr(module, name, fn)
        self._installed.clear()


class Workload:
    name = ""
    unit = ""

    def __init__(self, size: dict):
        self.size = size
        self.ref = Reference()
        self.clock = OpClock(self.ref)
        self.tracing = None  # during a traced pass: () -> context that traces

    def timed_pass(self, body) -> PassResult:
        """Run body() -> (ops, facts) as one pass; the wall time leaves out
        the reference bursts run during it. Only body() is traced, not the
        checks that follow it."""
        with self.tracing() if self.tracing else contextlib.nullcontext():
            spent, t0 = self.ref.spent, time.perf_counter()
            ops, facts = body()
            t1 = time.perf_counter()
        return PassResult(t0, t1, t1 - t0 - (self.ref.spent - spent), ops, facts)

    def setup(self, root: Path, seed: int) -> None:
        raise NotImplementedError

    def install_clock(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def finish(self, untraced: list[PassResult], traced: list[PassResult]) -> dict:
        """Checks across all passes; returns the workload's own named metrics
        (from the untraced passes) and the behaviour facts for the record."""
        raise NotImplementedError


class ExtractLong(Workload):
    """`vocalnet extract` over a mixed-encoding corpus of 1-5 s clips."""

    name = "extract-long"
    unit = "analysis frame"

    def setup(self, root, seed):
        s = self.size
        self.corpus = root / "corpus"
        self.cache = root / "cache.csv"
        self.clips = gen.write_corpus(self.corpus, [seed, 1], s["extract_clips"],
                                      s["extract_malformed"], *s["extract_dur"])

    def install_clock(self):
        from vocalnet import audio_io, features

        def frames(fn, args, kwargs, result):
            clip = argument(fn, args, kwargs, "clip")
            return frame_count(len(clip.samples),
                               argument(fn, args, kwargs, "window_size"),
                               argument(fn, args, kwargs, "hop_size"))
        self.clock.opens(audio_io, "read_wav")
        self.clock.closes(features, "extract_features", frames)

    def run_pass(self):
        def body():
            out = run_cli(["extract", "--corpus", str(self.corpus),
                           "--out", str(self.cache)])
            return self.clock.take(), {"cli": out}
        result = self.timed_pass(body)
        code, out, err = result.facts.pop("cli")
        ops = result.ops
        if code != 0 or len(ops) != len(self.clips):
            result.fail_all(f"extract exited {code} after {len(ops)} clips: "
                            f"{err[-500:]}")
            result.ops = [Op(result.start, result.wall_s / len(self.clips), 0.0, False)
                          for _ in self.clips]
            return result
        header, rows = read_cache(self.cache)
        if header != cache_header():
            result.fail_all("cache header differs from FEATURE_NAMES")
        by_path = {}
        for path, label, values in rows:
            by_path.setdefault(path, []).append((label, values))
        good = [c for c in self.clips if c.malformed is None]
        if len(rows) != len(good):
            result.fail_all(f"{len(rows)} cache rows for {len(good)} good clips")
        # timings follow the program's order (sorted class dirs, sorted files)
        order = sorted(self.clips, key=lambda c: (c.label, c.path.name))
        for op, clip in zip(ops, order):
            found = by_path.get(str(clip.path), [])
            if clip.malformed is None:
                op.ok = op.ok and (len(found) == 1 and found[0][0] == clip.label
                                   and len(found[0][1]) == 28
                                   and all(map(math.isfinite, found[0][1])))
            else:
                op.ok = op.ok and not found and f"skipped {clip.path}" in err
        rel = [(str(Path(p).relative_to(self.corpus)), label, values)
               for p, label, values in rows]
        result.facts["cache_digest"] = cache_digest(rel)
        return result

    def finish(self, untraced, traced):
        passes = untraced
        digests = {p.facts.get("cache_digest") for p in untraced + traced}
        if len(digests) != 1:
            for p in untraced + traced:
                p.fail_all("feature cache differs between passes")
        walls = sum(p.wall_s for p in passes)
        good = [c for c in self.clips if c.malformed is None]
        audio = sum(c.duration for c in good) * len(passes)
        return {
            "metrics": {
                "extract_clips_per_s": (len(self.clips) * len(passes) / walls, "clips/s"),
                "extract_realtime_x": (audio / walls, "x"),
            },
            "facts": {"cache_digest": passes[0].facts.get("cache_digest"),
                      "clips": len(self.clips), "malformed": len(self.clips) - len(good),
                      "audio_s": round(audio / len(passes), 3),
                      "input_bytes": sum(c.n_bytes for c in self.clips)},
        }


class SelectTrain(Workload):
    """`select` -> `train --subset` -> `evaluate` on a synthetic feature cache."""

    name = "select-train"
    unit = "back-prop sample update"

    def setup(self, root, seed):
        self.root = root
        root.mkdir(parents=True)
        self.cache = root / "cache.csv"
        gen.write_feature_cache(self.cache, [seed, 2], self.size["select_rows"],
                                cache_header())
        _, rows = read_cache(self.cache)
        self.rows = len(rows)
        self.input_digest = cache_digest(rows)

    def install_clock(self):
        from vocalnet import pipeline, selection

        def updates(fn, args, kwargs, result):
            _, state = result
            return state.epoch * len(argument(fn, args, kwargs, "train_inputs"))
        self.clock.whole(selection, "train", updates)
        self.clock.whole(pipeline, "train", updates)

    def run_pass(self):
        r = self.root
        flags = TRAIN_FLAGS + self.size["select_flags"]

        def net_time():  # perf_counter less the reference bursts so far
            return time.perf_counter() - self.ref.spent

        def body():
            t0 = net_time()
            sel = run_cli(["select", "--cache", str(self.cache), "--trace",
                           str(r / "trace.csv"), "--subset", str(r / "subset.csv"),
                           *flags])
            t1 = net_time()
            trn = run_cli(["train", "--cache", str(self.cache), "--model",
                           str(r / "model.json"), "--subset", str(r / "subset.csv"),
                           *flags])
            t2 = net_time()
            ev = run_cli(["evaluate", "--model", str(r / "model.json"),
                          "--cache", str(self.cache)])
            return self.clock.take(), {"cli": (sel, trn, ev),
                                       "select_s": t1 - t0, "train_s": t2 - t1}
        result = self.timed_pass(body)
        sel, trn, ev = result.facts.pop("cli")
        ops = result.ops
        if any(code != 0 for code, _, _ in (sel, trn, ev)):
            result.fail_all("a command failed: " + " | ".join(
                e[-300:] for code, _, e in (sel, trn, ev) if code != 0))
            if not ops:
                result.ops = [Op(result.start, result.wall_s, 0.0, False)]
            return result

        with open(r / "trace.csv", newline="") as fh:
            steps = list(csv.DictReader(fh))
        with open(r / "subset.csv", newline="") as fh:
            subset = [int(row["slot"]) for row in csv.DictReader(fh)]
        folds = re.findall(r"fold (\d+): eval accuracy ([\d.]+)% "
                           r"\(stop: (\w+), epoch (\d+)\)", trn[1])
        if len(ops) != len(steps) + len(folds) or len(folds) != 10:
            result.fail_all(f"{len(ops)} trainings for {len(steps)} candidates "
                            f"and {len(folds)} folds")
        for op, step in zip(ops, steps):
            op.ok = op.ok and math.isfinite(float(step["mdl"]))
        for op, (_, _, reason, epoch) in zip(ops[len(steps):], folds):
            op.ok = op.ok and reason in STOP_REASONS and int(epoch) >= 1
        accepted = [int(s["slot"]) for s in steps if s["accepted"] == "1"]
        if accepted != subset or len(set(subset)) != len(subset) or not subset:
            result.fail_all(f"subset {subset} differs from accepted {accepted}")

        printed = re.search(r"Overall accuracy \(%\):\s+([\d.]+)", ev[1])
        recomputed = self._recompute_accuracy(r / "model.json")
        if printed is None or abs(float(printed.group(1)) - recomputed) > 0.005:
            result.fail_all(f"evaluate printed {printed and printed.group(1)}, "
                            f"mlp.classify gives {recomputed:.2f}")
        mean = re.search(r"mean accuracy ([\d.]+)%", trn[1])
        result.facts.update({
            "subset": subset, "candidates": len(steps),
            "folds": [(int(f), reason, int(epoch)) for f, _, reason, epoch in folds],
            "mean_eval_accuracy_pct": float(mean.group(1)) if mean else float("nan"),
            "eval_accuracy_pct": recomputed,
        })
        return result

    def _recompute_accuracy(self, model_path: Path) -> float:
        from vocalnet import mlp
        net, _ = mlp.load_model(model_path)
        _, rows = read_cache(self.cache)
        hits = 0
        for _, label, values in rows:
            x = np.array(values)
            if net.feature_slots is not None:
                x = x[net.feature_slots]
            hits += net.label_map[mlp.classify(net, x)[0]] == label
        return 100.0 * hits / len(rows)

    def finish(self, untraced, traced):
        passes = untraced
        keys = ("subset", "folds", "candidates")
        first = {k: passes[0].facts.get(k) for k in keys}
        for p in passes[1:] + traced:
            if {k: p.facts.get(k) for k in keys} != first:
                p.fail_all("selection or training differs between passes")
        return {
            "metrics": {
                "select_s": (float(np.median([p.facts["select_s"] for p in passes])), "s"),
                "train_s": (float(np.median([p.facts["train_s"] for p in passes])), "s"),
                "mean_eval_accuracy_pct": (
                    passes[0].facts.get("mean_eval_accuracy_pct", float("nan")), "%"),
            },
            "facts": {**first, "input_digest": self.input_digest,
                      "rows": self.rows,
                      "eval_accuracy_pct": passes[0].facts.get("eval_accuracy_pct")},
        }


class ClassifyShort(Workload):
    """Sequential `vocalnet classify` calls on 0.02-1 s clips."""

    name = "classify-short"
    unit = "classify call"

    def setup(self, root, seed):
        s = self.size
        train_dir, short_dir = root / "train", root / "short"
        gen.write_corpus(train_dir, [seed, 3], s["classify_train_clips"], 0,
                         *s["classify_train_dur"])
        self.model = root / "model.json"
        self.train_cache = root / "train.csv"
        for argv in (["extract", "--corpus", str(train_dir), "--out",
                      str(self.train_cache)],
                     ["train", "--cache", str(self.train_cache), "--model",
                      str(self.model), *TRAIN_FLAGS, "--max-epochs", "200"]):
            code, _, err = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"setup command {argv[0]} failed: {err[-500:]}")
        self.clips = gen.write_corpus(short_dir, [seed, 4], s["classify_clips"],
                                      s["classify_malformed"], *s["classify_dur"])
        # interleave classes and lengths so no stretch of the loop is special
        order = np.random.default_rng([seed, 5]).permutation(len(self.clips))
        self.clips = [self.clips[i] for i in order]

    def install_clock(self):
        pass  # the benchmark's own loop is the operation boundary

    def run_pass(self):
        def body():
            ops, outputs = [], []
            for clip in self.clips:
                self.ref.maybe()
                t = time.perf_counter()
                outputs.append(run_cli(["classify", "--model", str(self.model),
                                        str(clip.path)]))
                ops.append(Op(t, time.perf_counter() - t, 1.0))
            return ops, {"outputs": outputs}
        result = self.timed_pass(body)
        outputs = result.facts.pop("outputs")
        labels = []
        for op, clip, (code, out, err) in zip(result.ops, self.clips, outputs):
            lines = out.splitlines()
            if clip.malformed is not None:
                op.ok = code == 4 and err.startswith("error:")
                labels.append(None)
                continue
            try:
                activations = [float(v) for v in lines[1].split()]
                op.ok = (code == 0 and len(activations) == len(gen.CLASSES)
                         and all(0.0 <= a <= 1.0 for a in activations))
                labels.append(lines[0])
            except (IndexError, ValueError):
                op.ok = False
                labels.append(None)
        result.facts["labels"] = labels
        return result

    def finish(self, untraced, traced):
        passes = untraced
        for p in passes[1:] + traced:
            if p.facts["labels"] != passes[0].facts["labels"]:
                p.fail_all("predictions differ between passes")
        expected = self._oracle()
        for p in untraced + traced:
            for op, got, want in zip(p.ops, p.facts["labels"], expected):
                op.ok = op.ok and got == want
        times = np.array([op.seconds for p in passes for op in p.ops])
        walls = sum(p.wall_s for p in passes)
        good = [(c, lab) for c, lab in zip(self.clips, passes[0].facts["labels"])
                if c.malformed is None]
        hits = sum(lab == c.label for c, lab in good)
        _, rows = read_cache(self.train_cache)
        return {
            "metrics": {
                "classify_p50_ms": (1e3 * float(np.percentile(times, 50)), "ms"),
                "classify_p95_ms": (1e3 * float(np.percentile(times, 95)), "ms"),
                "classify_clips_per_s": (len(times) / walls, "calls/s"),
                "classify_accuracy_pct": (100.0 * hits / len(good), "%"),
            },
            "facts": {"calls_per_pass": len(self.clips),
                      "malformed": sum(c.malformed is not None for c in self.clips),
                      "train_cache_digest": cache_digest(rows),
                      "labels_digest": hashlib.sha256(
                          repr(passes[0].facts["labels"]).encode()).hexdigest()},
        }

    def _oracle(self) -> list[str | None]:
        """Each clip's label computed with library calls instead of the CLI."""
        from vocalnet import audio_io, features, mlp
        from vocalnet.errors import VocalnetError
        net, doc = mlp.load_model(self.model)
        ext = doc.get("extraction") or {}
        expected = []
        for clip in self.clips:
            try:
                audio = audio_io.resample(audio_io.read_wav(clip.path),
                                          ext.get("rate", audio_io.DEFAULT_RATE))
            except VocalnetError:
                expected.append(None)
                continue
            values = features.extract_features(
                audio, ext.get("window", audio_io.DEFAULT_WINDOW),
                ext.get("hop", audio_io.DEFAULT_HOP)).values
            if net.feature_slots is not None:
                values = values[net.feature_slots]
            expected.append(net.label_map[mlp.classify(net, values)[0]])
        return expected


WORKLOADS = {w.name: w for w in (ExtractLong, SelectTrain, ClassifyShort)}
