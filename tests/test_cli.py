import argparse
import contextlib
import copy
import csv
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalnet import dataset, pipeline, selection
from vocalnet.cli import COMMANDS, build_parser, main
from vocalnet.dataset import (make_corpus, plan_folds, read_feature_cache,
                              write_feature_cache)
from vocalnet.evaluation import _quartiles
from vocalnet.features import FEATURE_NAMES
from vocalnet.mlp import TrainingConfig, classify, load_model

from conftest import (UNUSABLE_CLIPS, build_tone_corpus_dir, noise_clip, save_wav,
                      synthetic_feature_corpus, wav_bytes)


def write_text(path, text) -> str:
    path.write_text(text)
    return str(path)


def output_flags(command, directory) -> list[str]:
    """The output files that `train` or `select` writes, under directory."""
    return {"train": ["--model", str(directory / "m.json")],
            "select": ["--trace", str(directory / "t.csv"),
                       "--subset", str(directory / "s.csv")]}[command]


@pytest.fixture(scope="module")
def small_corpus_dir(tmp_path_factory):
    # small corpus keeps CLI round trips fast: 3 tone classes + pseudo, 10 each
    return build_tone_corpus_dir(tmp_path_factory.mktemp("cli_tones"),
                                 clips_per_class=10, seed=11)


@pytest.fixture(scope="module")
def cache_path(small_corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cache") / "features.csv"
    assert main(["extract", "--corpus", str(small_corpus_dir),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_path(cache_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["train", "--cache", str(cache_path), "--model", str(out),
                 "--seed", "0", "--max-epochs", "500"]) == 0
    return out


class TestExtract:
    def test_cache_has_one_row_per_clip(self, cache_path):
        corpus = read_feature_cache(cache_path)
        assert len(corpus.samples) == 40
        assert corpus.class_names[-1] == "_pseudo"

    def test_rerun_is_byte_identical(self, small_corpus_dir, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["extract", "--corpus", str(small_corpus_dir),
                     "--out", str(a)]) == 0
        assert main(["extract", "--corpus", str(small_corpus_dir),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", UNUSABLE_CLIPS)
    def test_a_clip_error_is_skipped_and_classify_exits_4_alike(
            self, small_corpus_dir, model_path, tmp_path, capsys, kind):
        # each kind of ClipError: extract skips the clip with one warning, and
        # classify exits 4 with the warning's message under the kind's name
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus_dir, root)
        name, data = UNUSABLE_CLIPS[kind]
        bad = root / "tone440" / name
        bad.write_bytes(data)
        out = tmp_path / "cache.csv"
        assert main(["extract", "--corpus", str(root), "--out", str(out)]) == 0
        assert len(read_feature_cache(out).samples) == 40
        warning, = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: skipped ")]
        prefix = f"warning: skipped {bad}: "
        assert warning.startswith(prefix)

        assert main(["classify", "--model", str(model_path), str(bad)]) == 4
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: {kind}: {warning[len(prefix):]}\n"

    @pytest.mark.parametrize("layout", ["directory", "manifest"])
    def test_unreadable_clip_is_skipped_and_classify_exits_4_alike(
            self, small_corpus_dir, model_path, tmp_path, capsys, layout):
        # a directory named like a clip, or a manifest row naming no file
        import shutil
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus_dir, root)
        if layout == "directory":
            bad = root / "tone440" / "x.wav"
            bad.mkdir()
            corpus = root
        else:
            bad = root / "missing.wav"
            corpus = root / "manifest.csv"
            rows = [f"{wav.relative_to(root)},{wav.parent.name}"
                    for wav in sorted(root.glob("*/*.wav"))]
            corpus.write_text("path,label\n" + "\n".join(rows + ["missing.wav,tone440"]))
        out = tmp_path / "cache.csv"
        assert main(["extract", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert len(read_feature_cache(out).samples) == 40
        warning, = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: skipped ")]
        prefix = f"warning: skipped {bad}: "
        assert warning.startswith(prefix + "cannot read clip: ")

        assert main(["classify", "--model", str(model_path), str(bad)]) == 4
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: MalformedRiff: {warning[len(prefix):]}\n"

    def test_unreadable_clip_under_a_class_that_is_not_utf8_keeps_one_spelling(
            self, small_corpus_dir, model_path, tmp_path, capsys):
        # a directory named like a clip in a class directory named by the
        # bytes caf\xe9: the message spells the path with the \xNN escape
        # of the warning's own path, not with Python's surrogate escape
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus_dir, root)
        cafe = root / os.fsdecode(b"caf\xe9")
        (root / "tone440").rename(cafe)
        bad = cafe / "bad.wav"
        bad.mkdir()
        assert main(["extract", "--corpus", str(root),
                     "--out", str(tmp_path / "cache.csv")]) == 0
        err = capsys.readouterr().err
        warning, = [line for line in err.splitlines()
                    if line.startswith("warning: skipped ")]
        shown = f"{root}/caf\\xe9/bad.wav"
        prefix = f"warning: skipped {shown}: "
        assert warning.startswith(prefix + "cannot read clip: ")
        assert warning.endswith(f": '{shown}'")
        assert "\\udc" not in err and not any("\udc80" <= c <= "\udcff" for c in err)

        assert main(["classify", "--model", str(model_path), str(bad)]) == 4
        out, err = capsys.readouterr()
        assert not out
        assert err == f"error: MalformedRiff: {warning[len(prefix):]}\n"

    def test_empty_corpus_exits_2(self, tmp_path):
        (tmp_path / "cls").mkdir()
        assert main(["extract", "--corpus", str(tmp_path),
                     "--out", str(tmp_path / "out.csv")]) == 2

    def test_one_column_manifest_row_exits_2(self, tmp_path, capsys):
        save_wav(noise_clip(np.random.default_rng(0), duration=0.1),
                 tmp_path / "a.wav")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label\na.wav\n")
        assert main(["extract", "--corpus", str(manifest),
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert "manifest.csv" in err and "row 2" in err

    @pytest.mark.parametrize("text, row", [
        ("a.wav,dog\n,cat\n", 2),
        ("path,label\na.wav,dog\n  ,cat\n", 3),
    ], ids=["blank-path", "spaces-for-path"])
    def test_manifest_row_without_a_path_exits_2(self, tmp_path, capsys, text, row):
        # at most the first row is a header, and a row of blank fields is
        # skipped, but a labelled row must name its clip
        save_wav(noise_clip(np.random.default_rng(0), duration=0.1),
                 tmp_path / "a.wav")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text)
        assert main(["extract", "--corpus", str(manifest),
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedArtifact") and f"row {row} has no path" in err
        assert not (tmp_path / "out.csv").exists()

    def test_manifest_skips_blank_rows_and_reads_only_a_first_header(self, tmp_path):
        save_wav(noise_clip(np.random.default_rng(0), duration=0.1),
                 tmp_path / "a.wav")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label\na.wav,dog\n , \n,\npath,label\n")
        assert main(["extract", "--corpus", str(manifest),
                     "--out", str(tmp_path / "out.csv")]) == 0
        corpus = read_feature_cache(tmp_path / "out.csv")
        # a later `path,label` row names a clip `path`, which fails to load
        assert corpus.class_names == ["dog"] and len(corpus.samples) == 1

    def test_undecodable_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"a.wav,\xff\xfe\n")
        assert main(["extract", "--corpus", str(manifest),
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: MalformedArtifact")


class TestTrain:
    def test_model_file_written(self, model_path):
        doc = json.loads(model_path.read_text())
        assert doc["format_version"] == 1
        assert doc["spec"]["n"] == 4
        assert doc["spec"]["k"] == 4  # default hidden width = class count
        assert doc["label_map"][-1] == "_pseudo"

    def test_rerun_identical_model_bytes(self, cache_path, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["train", "--cache", str(cache_path),
                         "--model", str(out), "--seed", "0",
                         "--max-epochs", "500"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_geometry_override(self, cache_path, tmp_path):
        out = tmp_path / "m.json"
        assert main(["train", "--cache", str(cache_path), "--model", str(out),
                     "--seed", "0", "--hidden", "9", "--layers", "1",
                     "--max-epochs", "200"]) == 0
        doc = json.loads(out.read_text())
        assert doc["spec"]["k"] == 9
        assert doc["spec"]["m"] == 1

    def test_unset_flags_take_the_training_defaults(self, tmp_path, capsys):
        # overlapping classes stop on TestWorsening, so the patience shows
        cache, model = tmp_path / "cache.csv", tmp_path / "m.json"
        write_feature_cache(synthetic_feature_corpus([(0, 0), (1, 0), (0, 1)],
                                                     samples_per_class=10, noise=1.0), cache)
        runs = []
        for flags in ([], ["--hidden", "3", "--layers", "1", "--learning-rate", "0.1",
                           "--momentum", "0.9", "--patience", "20", "--seed", "0"]):
            assert main(["train", "--cache", str(cache), "--model", str(model),
                         "--max-epochs", "100", *flags]) == 0
            runs.append((capsys.readouterr().out, model.read_bytes()))
        assert runs[0] == runs[1]
        assert "stop: TestWorsening" in runs[0][0]

    def test_report_files(self, cache_path, tmp_path):
        out = tmp_path / "m.json"
        prefix = str(tmp_path / "report")
        assert main(["train", "--cache", str(cache_path), "--model", str(out),
                     "--seed", "0", "--max-epochs", "500",
                     "--report", prefix]) == 0
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.csv").exists()

    def test_report_writes_feature_summary(self, cache_path, tmp_path):
        prefix = str(tmp_path / "report")
        assert main(["train", "--cache", str(cache_path), "--model",
                     str(tmp_path / "m.json"), "--seed", "0", "--max-epochs", "5",
                     "--report", prefix]) == 0
        with open(prefix + ".features.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        corpus = read_feature_cache(cache_path)
        assert rows[0] == ["class", "slot", "min", "q1", "median", "q3", "max"]
        assert [row[:2] for row in rows[1:]] == [
            [name, slot] for name in corpus.class_names for slot in FEATURE_NAMES]
        cls, slot = 2, FEATURE_NAMES.index("spectral_centroid_mean")
        row = rows[1 + cls * len(FEATURE_NAMES) + slot]
        column = corpus.samples[corpus.labels == cls, slot]
        assert [float(v) for v in row[2:]] == _quartiles(column[:, None])[:, 0].tolist()

    def test_a_network_too_large_to_allocate_exits_2(self, cache_path, tmp_path, capsys):
        # 29 x 10**13 weights are 2 PiB, more than a 47-bit address space holds
        assert main(["train", "--cache", str(cache_path), "--model",
                     str(tmp_path / "m.json"), "--hidden", "10000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MemoryError" in err
        assert err.count("\n") == 1 and not (tmp_path / "m.json").exists()

    def test_unreadable_cache_exits_2(self, tmp_path):
        assert main(["train", "--cache", str(tmp_path / "nope.csv"),
                     "--model", str(tmp_path / "m.json"), "--seed", "0"]) == 2

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_class_too_small_exits_3(self, tmp_path, command, capsys):
        corpus = synthetic_feature_corpus([(0,), (5,)], samples_per_class=2)
        cache = tmp_path / "tiny.csv"
        write_feature_cache(corpus, cache)
        assert main([command, "--cache", str(cache),
                     *output_flags(command, tmp_path), "--seed", "0"]) == 3
        err = capsys.readouterr().err  # the error alone, with no fold warning
        assert err.startswith("error: ClassTooSmall") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_classes_without_a_test_row_exit_3(self, tmp_path, command, capsys):
        corpus = synthetic_feature_corpus([(0,), (5,)], samples_per_class=5)
        cache = tmp_path / "tiny.csv"
        write_feature_cache(corpus, cache)
        assert main([command, "--cache", str(cache),
                     *output_flags(command, tmp_path), "--seed", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ClassTooSmall") and err.count("\n") == 1

    @staticmethod
    def count_trainings(monkeypatch) -> list:
        """The calls select and train make to mlp.train, from now on."""
        calls = []
        for module in (selection, pipeline):
            def counted(*args, train=module.train):
                calls.append(args)
                return train(*args)
            monkeypatch.setattr(module, "train", counted)
        return calls

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_overflowing_input_statistics_exit_2(self, tmp_path, command, capsys,
                                                 monkeypatch):
        # every value is finite, but slot 5's std overflows to inf, and no
        # model with an infinite input_std loads; select's round 0 trains
        # slots 0-4 first, but the check comes before any training
        corpus = synthetic_feature_corpus([(0,), (5,)], samples_per_class=10)
        corpus.samples[:, 5] = np.where(np.arange(20) % 2, -1e308, 1e308)
        cache = tmp_path / "huge.csv"
        write_feature_cache(corpus, cache)
        assert read_feature_cache(cache).samples[1, 5] == -1e308
        trainings = self.count_trainings(monkeypatch)
        assert main([command, "--cache", str(cache), *output_flags(command, tmp_path),
                     "--seed", "0", "--max-epochs", "20"]) == 2
        err = capsys.readouterr().err  # no numpy RuntimeWarning lines
        assert err == ("error: MalformedArtifact: feature slots [5] of the training "
                       "inputs have a mean or std that is not finite\n")
        assert trainings == []
        assert not any((tmp_path / name).exists() for name in ("m.json", "t.csv", "s.csv"))

    def test_overflow_in_a_later_fold_exits_before_fold_0(self, tmp_path, capsys,
                                                          monkeypatch):
        # one 1e308 among small values overflows the std of each train set
        # that holds it; this row is in no train set of fold 0's
        corpus = synthetic_feature_corpus([(0,), (5,)], samples_per_class=10)
        row = np.setdiff1d(np.arange(20), plan_folds(corpus, seed=0)[0].train_ids)[0]
        corpus.samples[row, 5] = 1e308
        cache = tmp_path / "huge.csv"
        write_feature_cache(corpus, cache)
        trainings = self.count_trainings(monkeypatch)
        assert main(["train", "--cache", str(cache), "--model", str(tmp_path / "m.json"),
                     "--seed", "0", "--max-epochs", "20"]) == 2
        assert capsys.readouterr().err.startswith("error: MalformedArtifact: feature slots [5]")
        assert trainings == []
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_small_class_warning_is_one_line(self, tmp_path, command, capsys):
        corpus = synthetic_feature_corpus([(0,), (5,)], samples_per_class=8)
        cache = tmp_path / "small.csv"
        write_feature_cache(corpus, cache)
        assert main([command, "--cache", str(cache), *output_flags(command, tmp_path),
                     "--seed", "0", "--max-epochs", "5"]) == 0
        err = capsys.readouterr().err
        assert err == ("warning: classes smaller than 10 samples reuse eval "
                       "members across folds: class_0, class_1\n")
        assert "UserWarning" not in err and ".py:" not in err

    def test_test_row_far_outside_the_train_statistics_warns_nothing(self, tmp_path):
        # slot 5 varies by about 1e-3 over fold 0's train rows, so the
        # z-score of a fold-0 test row holding 1e308 overflows to inf; the
        # -1e308 sits in an eval row, outside every statistic select fits.
        # A process of its own prints a RuntimeWarning as Python does, where
        # pytest would record it
        corpus = synthetic_feature_corpus([(0,), (5,)], samples_per_class=8)
        corpus.samples[:, 5] *= 1e-3
        with pytest.warns(UserWarning, match="smaller than 10"):
            fold = plan_folds(corpus, seed=0)[0]
        corpus.samples[fold.test_ids[0], 5] = 1e308
        corpus.samples[fold.eval_ids[0], 5] = -1e308
        cache = tmp_path / "far.csv"
        write_feature_cache(corpus, cache)
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "vocalnet.cli", "select", "--cache", str(cache),
             *output_flags("select", tmp_path), "--seed", "0", "--max-epochs", "5"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ("warning: classes smaller than 10 samples reuse eval "
                               "members across folds: class_0, class_1\n")

    @pytest.mark.parametrize("extra", [
        lambda d: ["--hidden", "0"],
        lambda d: ["--layers", "0"],
        lambda d: ["--learning-rate", "0"],
        lambda d: ["--learning-rate", "nan"],
        lambda d: ["--learning-rate", "inf"],
        lambda d: ["--learning-rate=-inf"],
        lambda d: ["--momentum", "1"],
        lambda d: ["--seed", "-1"],
        lambda d: ["--subset", str(d / "missing.csv")],
        lambda d: ["--model", str(d / "missing" / "m.json"), "--max-epochs", "5"],
        lambda d: ["--max-epochs", "-5"],
        lambda d: ["--patience", "0"],
    ], ids=["hidden-0", "layers-0", "learning-rate-0", "learning-rate-nan",
            "learning-rate-inf", "learning-rate-minus-inf", "momentum-1",
            "negative-seed", "missing-subset", "model-dir-missing",
            "negative-max-epochs", "patience-0"])
    def test_bad_input_exits_2(self, cache_path, tmp_path, capsys, extra):
        assert main(["train", "--cache", str(cache_path),
                     "--model", str(tmp_path / "m.json"), "--seed", "0",
                     *extra(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("text", [
        "slot,slot_name\nabc,x\n", "slot,slot_name\n40,x\n",
        "slot,slot_name\n3,zero_crossings_std\n3,zero_crossings_std\n",
        "slot,slot_name\n", "3,zero_crossings_std\n5,rms_std\n",
        "slot,slot_name\n3,lpc_mean\n",
    ], ids=["non-integer", "out-of-range", "duplicate", "empty", "no-header",
            "misnamed-slot"])
    def test_bad_subset_exits_2(self, cache_path, tmp_path, capsys, text):
        subset = write_text(tmp_path / "subset.csv", text)
        assert main(["train", "--cache", str(cache_path),
                     "--model", str(tmp_path / "m.json"), "--seed", "0",
                     "--subset", subset]) == 2
        assert capsys.readouterr().err.startswith("error: MalformedArtifact")

    @pytest.mark.parametrize("line, edit", [
        (2, lambda cells: cells[:5] + ["nan"] + cells[6:]),
        (3, lambda cells: cells[:-1] + ["inf"]),
        (1, lambda cells: cells[:2] + ["slot_x"] + cells[3:]),
        (2, lambda cells: cells[:1] + [""] + cells[2:]),
        (3, lambda cells: [""] + cells[1:]),
    ], ids=["nan", "inf", "renamed-slot", "empty-label", "empty-path"])
    def test_bad_cache_exits_2(self, cache_path, tmp_path, capsys, line, edit):
        lines = cache_path.read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        cache = write_text(tmp_path / "cache.csv", "\n".join(lines) + "\n")
        model = tmp_path / "m.json"
        assert main(["train", "--cache", cache, "--model", str(model),
                     "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedArtifact")
        assert f"{cache}: row {line}:" in err
        assert not model.exists()


class TestSelect:
    def test_select_round_trip(self, tmp_path):
        corpus = synthetic_feature_corpus([(0, 0), (4, 0), (0, 4)], seed=3)
        cache = tmp_path / "cache.csv"
        write_feature_cache(corpus, cache)
        trace = tmp_path / "trace.csv"
        subset = tmp_path / "subset.csv"
        assert main(["select", "--cache", str(cache), "--trace", str(trace),
                     "--subset", str(subset), "--seed", "0",
                     "--max-epochs", "150"]) == 0
        from vocalnet.selection import read_subset
        chosen = read_subset(subset)
        assert set(chosen[:2]) == {0, 1}

    def test_unreadable_cache_exits_2(self, tmp_path):
        assert main(["select", "--cache", str(tmp_path / "nope.csv"),
                     "--trace", str(tmp_path / "t.csv"),
                     "--subset", str(tmp_path / "s.csv"), "--seed", "0"]) == 2

    def test_hidden_0_exits_2(self, tmp_path, capsys):
        cache = tmp_path / "cache.csv"
        write_feature_cache(synthetic_feature_corpus([(0, 0), (4, 0)]), cache)
        assert main(["select", "--cache", str(cache),
                     "--trace", str(tmp_path / "t.csv"),
                     "--subset", str(tmp_path / "s.csv"), "--seed", "0",
                     "--hidden", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: InvalidSetting")


@pytest.fixture(scope="module")
def three_class_model(tmp_path_factory):
    """A model trained on a 3-class synthetic cache, plus the cache."""
    root = tmp_path_factory.mktemp("three_class")
    corpus = synthetic_feature_corpus([(0, 0), (4, 0), (0, 4)], seed=3)
    cache = root / "cache.csv"
    write_feature_cache(corpus, cache)
    model = root / "model.json"
    assert main(["train", "--cache", str(cache), "--model", str(model),
                 "--seed", "0", "--max-epochs", "150"]) == 0
    return model, corpus


def write_cache_without(corpus, class_name, path):
    names = [corpus.class_names[label] for label in corpus.labels]
    keep = [i for i, name in enumerate(names) if name != class_name]
    write_feature_cache(make_corpus([corpus.clip_paths[i] for i in keep],
                                    [names[i] for i in keep],
                                    corpus.samples[keep]), path)


class TestEvaluate:
    def test_labels_match_by_class_name(self, three_class_model, tmp_path,
                                        capsys):
        model, corpus = three_class_model
        reduced = tmp_path / "reduced.csv"
        write_cache_without(corpus, "class_0", reduced)
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model),
                     "--cache", str(reduced)]) == 0
        out = capsys.readouterr().out

        net, _ = load_model(model)
        rows = read_feature_cache(reduced)
        agree = [classify(net, values)[0]
                 == net.label_map.index(rows.class_names[label])
                 for values, label in zip(rows.samples, rows.labels)]
        expected = 100.0 * sum(agree) / len(agree)
        assert expected > 90.0
        assert f"Overall accuracy (%):   {expected:.2f}" in out

    def test_class_missing_from_model_exits_2(self, three_class_model,
                                              tmp_path, capsys):
        model, corpus = three_class_model
        names = [corpus.class_names[label] for label in corpus.labels]
        extra = make_corpus(corpus.clip_paths + [p + "_new" for p in corpus.clip_paths[:3]],
                            names + ["class_new"] * 3,
                            np.vstack([corpus.samples, corpus.samples[:3]]))
        cache = tmp_path / "extra.csv"
        write_feature_cache(extra, cache)
        assert main(["evaluate", "--model", str(model),
                     "--cache", str(cache)]) == 2
        assert "class_new" in capsys.readouterr().err

    def test_evaluate_prints_report(self, model_path, cache_path, capsys):
        assert main(["evaluate", "--model", str(model_path),
                     "--cache", str(cache_path)]) == 0
        out = capsys.readouterr().out
        assert "Overall accuracy" in out

    # few epochs keep the exported fold's accuracy below 100%
    @pytest.mark.parametrize("slots, epochs", [(None, "5"), ([0, 8, 18, 19], "20")],
                             ids=["all-slots", "subset"])
    def test_agrees_with_train_on_the_exported_fold(self, cache_path, tmp_path,
                                                    capsys, slots, epochs):
        model = tmp_path / "m.json"
        subset = []
        if slots:
            subset = ["--subset", write_text(tmp_path / "subset.csv", "slot,slot_name\n"
                                             + "".join(f"{i},{FEATURE_NAMES[i]}\n"
                                                       for i in slots))]
        assert main(["train", "--cache", str(cache_path), "--model", str(model),
                     "--seed", "3", "--max-epochs", epochs, *subset]) == 0
        out = capsys.readouterr().out
        fold = int(re.search(r"^exported fold (\d+)", out, re.M).group(1))
        printed = re.search(rf"^fold {fold}: eval accuracy ([\d.]+)%", out, re.M).group(1)
        assert float(printed) < 100.0

        corpus = read_feature_cache(cache_path)
        rows = plan_folds(corpus, 3)[fold].eval_ids
        eval_cache = tmp_path / "eval.csv"
        write_feature_cache(make_corpus([corpus.clip_paths[i] for i in rows],
                                        [corpus.class_names[corpus.labels[i]] for i in rows],
                                        corpus.samples[rows]), eval_cache)
        assert main(["evaluate", "--model", str(model), "--cache", str(eval_cache)]) == 0
        assert f"Overall accuracy (%):   {printed}\n" in capsys.readouterr().out

    def test_unreadable_model_exits_2(self, cache_path, tmp_path):
        assert main(["evaluate", "--model", str(tmp_path / "nope.json"),
                     "--cache", str(cache_path)]) == 2

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["weights"][0].pop(),
        lambda doc: doc["label_map"].pop(),
        lambda doc: doc.update(feature_slots=[0, 40]),
        lambda doc: doc.update(feature_slots=list(range(1, 29))),
        lambda doc: doc.update(spec={**doc["spec"], "k": 2.0}),
        lambda doc: doc.update(extraction={"window": 1024, "hop": 512, "rate": 22050}),
    ], ids=["weight-rows", "label-map", "feature-slots", "slot-bound", "float-width",
            "other-extraction"])
    def test_model_that_misfits_its_spec_exits_2(self, three_class_model,
                                                 tmp_path, capsys, corrupt):
        model, corpus = three_class_model
        doc = json.loads(model.read_text())
        corrupt(doc)
        bad = write_text(tmp_path / "bad.json", json.dumps(doc))
        cache = tmp_path / "cache.csv"
        write_feature_cache(corpus, cache)
        assert main(["evaluate", "--model", bad, "--cache", str(cache)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedArtifact: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["evaluate", "classify"])
    def test_model_without_slots_for_its_width_exits_5(self, cache_path, small_corpus_dir,
                                                       tmp_path, capsys, command):
        # a two-slot model that no longer names its slots is given all 28
        model = tmp_path / "m.json"
        subset = write_text(tmp_path / "subset.csv", "slot,slot_name\n"
                            + "".join(f"{i},{FEATURE_NAMES[i]}\n" for i in (0, 8)))
        assert main(["train", "--cache", str(cache_path), "--model", str(model),
                     "--seed", "0", "--max-epochs", "5", "--subset", subset]) == 0
        doc = json.loads(model.read_text())
        doc["feature_slots"] = None
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        wav = sorted((small_corpus_dir / "tone880").glob("*.wav"))[0]
        inputs = {"evaluate": ["--cache", str(cache_path)], "classify": [str(wav)]}
        assert main([command, "--model", str(model), *inputs[command]]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionMismatch") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["evaluate", "classify"])
    def test_model_without_labels_exits_2(self, model_path, cache_path, small_corpus_dir,
                                          tmp_path, capsys, command):
        doc = json.loads(model_path.read_text())
        doc["label_map"] = []
        bad = write_text(tmp_path / "unlabelled.json", json.dumps(doc))
        wav = sorted((small_corpus_dir / "tone880").glob("*.wav"))[0]
        inputs = {"evaluate": ["--cache", str(cache_path)], "classify": [str(wav)]}
        assert main([command, "--model", bad, *inputs[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedArtifact: ") and err.count("\n") == 1
        assert "label_map" in err

    def test_model_json_list_exits_2(self, cache_path, tmp_path, capsys):
        bad = write_text(tmp_path / "list.json", "[1, 2]")
        assert main(["evaluate", "--model", bad, "--cache", str(cache_path)]) == 2
        assert capsys.readouterr().err.startswith("error: MalformedArtifact")


class TestClassify:
    def test_classifies_training_clip(self, model_path, small_corpus_dir,
                                      capsys):
        wav = sorted((small_corpus_dir / "tone880").glob("*.wav"))[0]
        assert main(["classify", "--model", str(model_path), str(wav)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "tone880"
        activations = out[1].split()
        assert len(activations) == 4
        assert all(len(a.split(".")[1]) == 4 for a in activations)

    def test_truncated_wav_exits_4(self, model_path, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"\x00" * 10)
        assert main(["classify", "--model", str(model_path), str(bad)]) == 4
        assert "MalformedRiff" in capsys.readouterr().err

    def test_absurd_sample_rate_exits_4(self, model_path, tmp_path, capsys):
        clip = tmp_path / "one_hz.wav"
        clip.write_bytes(wav_bytes(np.zeros(100), sample_rate=1))
        assert main(["classify", "--model", str(model_path), str(clip)]) == 4
        assert capsys.readouterr().err.startswith("error: UnsupportedFormat: ")

    def test_clip_that_resamples_to_nothing_exits_4(self, model_path, tmp_path,
                                                      capsys):
        # 100 samples at 2 GHz or more are no sample at 22050 Hz, whether
        # resampled by interpolation or, at 22050 x 100000 Hz, by keeping every
        # k-th sample. Each rate is written as 8-bit mono, 16-bit mono and
        # 16-bit stereo silence; the parser ignores the byte rate, which
        # overflows its 32-bit field at 16 bits and wav_bytes wraps
        for rate in (2_000_000_000, 22050 * 100_000):
            for bits, channels, silence in ((8, 1, 128), (16, 1, 0), (16, 2, 0)):
                clip = tmp_path / f"fast-{rate}-{bits}-{channels}.wav"
                clip.write_bytes(wav_bytes(np.full(100 * channels, silence),
                                           sample_rate=rate, channels=channels,
                                           bits=bits))
                assert main(["classify", "--model", str(model_path), str(clip)]) == 4
                err = capsys.readouterr().err
                assert err.startswith("error: EmptyClip: ")
                assert err.count("\n") == 1 and err.endswith("\n")

    def test_missing_clip_exits_4(self, model_path, tmp_path, capsys):
        assert main(["classify", "--model", str(model_path),
                     str(tmp_path / "nope.wav")]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(extraction={"window": 1024, "hop": 512, "rate": 22050}),
        lambda doc: doc.update(input_std=[0.0] * len(doc["input_std"])),
    ], ids=["other-extraction", "zero-input-std"])
    def test_model_train_never_writes_exits_2(self, model_path, small_corpus_dir,
                                              tmp_path, capsys, edit):
        wav = sorted((small_corpus_dir / "tone880").glob("*.wav"))[0]
        doc = json.loads(model_path.read_text())
        edit(doc)
        bad = write_text(tmp_path / "bad.json", json.dumps(doc))
        assert main(["classify", "--model", bad, str(wav)]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith("error: MalformedArtifact: ") and err.count("\n") == 1

    def test_subset_model_slices_full_vector(self, cache_path, tmp_path,
                                             small_corpus_dir, capsys):
        # train a model restricted to 4 slots; classify must slice internally
        subset = tmp_path / "subset.csv"
        subset.write_text("slot,slot_name\n0,mfcc_mean\n8,spectral_flux_mean\n"
                          "18,spectral_centroid_mean\n19,spectral_centroid_std\n")
        model = tmp_path / "m4.json"
        assert main(["train", "--cache", str(cache_path), "--model", str(model),
                     "--subset", str(subset), "--seed", "0",
                     "--max-epochs", "500"]) == 0
        wav = sorted((small_corpus_dir / "tone440").glob("*.wav"))[0]
        assert main(["classify", "--model", str(model), str(wav)]) == 0


REQUIRED = {"extract": ["--corpus", "c", "--out", "o.csv"],
            "select": ["--cache", "c.csv", "--trace", "t.csv", "--subset", "s.csv"],
            "train": ["--cache", "c.csv", "--model", "m.json"],
            "evaluate": ["--model", "m.json", "--cache", "c.csv"],
            "classify": ["--model", "m.json", "x.wav"]}
EXTRACTION_FLAGS = ("--window", "--hop", "--rate")
IGNORED = {"extract": ("--seed", "--ci", "--config", *EXTRACTION_FLAGS),
           "select": ("--ci", "--config"),
           "train": ("--ci", "--config", *EXTRACTION_FLAGS),
           "evaluate": ("--seed", "--ci", "--config"),
           "classify": ("--seed", "--ci", "--config")}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in IGNORED.items() for flag in flags])
def test_flag_the_command_ignores_exits_2(command, flag, capsys):
    value = [] if flag == "--ci" else ["0"]
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], flag, *value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def fresh_parser() -> argparse.ArgumentParser:
    """A newly built parser of all five commands, not the one main keeps."""
    return build_parser.__wrapped__()


def exit_output(run, capsys, code) -> tuple[str, str]:
    """stdout and stderr of a run that ends argparse-style with SystemExit(code)."""
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == code
    captured = capsys.readouterr()
    return captured.out, captured.err


# main parses with one parser, built on first use and kept for the process;
# whatever earlier calls parsed with it, what it prints must be what a freshly
# built parser prints
@pytest.mark.parametrize("argv", [["--help"], ["-h"]]
                         + [[command, "--help"] for command in COMMANDS],
                         ids=lambda argv: " ".join(argv))
def test_help_matches_the_full_parser(argv, capsys, monkeypatch):
    full = exit_output(lambda: fresh_parser().parse_args(argv), capsys, 0)
    assert full[0].startswith("usage: vocalnet") and not full[1]
    assert exit_output(lambda: main(argv), capsys, 0) == full
    monkeypatch.setattr(sys, "argv", ["vocalnet", *argv])  # the installed entry point
    assert exit_output(main, capsys, 0) == full


@pytest.mark.parametrize("argv, top_level", [
    ([], True), (["bogus"], True),
    (["classify", "--model", "m.json", "a.wav", "b.wav"], True),
    (["evaluate", "--model", "m.json", "--cache", "c.csv", "--seed", "0"], True),
    (["classify"], False),
], ids=["none", "unknown", "extra-positional", "foreign-flag", "missing-required"])
def test_usage_errors_match_the_full_parser(argv, top_level, capsys):
    full = exit_output(lambda: fresh_parser().parse_args(argv), capsys, 2)
    assert exit_output(lambda: main(argv), capsys, 2) == full
    # the top-level parser's usage line lists all five commands
    assert ("{extract,select,train,evaluate,classify}" in full[1]) == top_level


class TestKeptParser:
    """main parses every call with the one parser build_parser keeps; a parse
    leaves nothing on it for the next."""

    @staticmethod
    def parsed(monkeypatch) -> list:
        """The Namespace of each command main runs from now on; none runs."""
        seen = []
        for command in COMMANDS:
            monkeypatch.setitem(COMMANDS, command, lambda args: seen.append(args) or 0)
        return seen

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_flags_of_one_call_do_not_carry_to_the_next(self, monkeypatch):
        seen = self.parsed(monkeypatch)
        argv = ["train", "--cache", "c.csv", "--model", "m.json"]
        assert main([*argv, "--seed", "5", "--hidden", "3"]) == 0
        assert main(argv) == 0
        assert (seen[0].seed, seen[0].hidden) == (5, 3)
        assert vars(seen[1]) == vars(fresh_parser().parse_args(argv))
        assert (seen[1].seed, seen[1].hidden) == (TrainingConfig().seed, None)

    def test_a_usage_error_leaves_the_next_call_parsing_normally(self, monkeypatch,
                                                                 capsys):
        seen = self.parsed(monkeypatch)
        argv = ["classify", "--model", "m.json", "x.wav"]
        exit_output(lambda: main(["classify"]), capsys, 2)
        assert main(argv) == 0
        assert vars(seen[0]) == {"command": "classify", "model": "m.json", "wav": "x.wav"}
        assert not capsys.readouterr().err


def test_cli_imports_without_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c",
         'import sys; sys.modules["scipy"] = None; import vocalnet.cli'],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path):
    """extract -> select -> train --report over a corpus with a non-ASCII
    class and clip name writes the same bytes under the C locale, with
    Python's UTF-8 mode and locale coercion off, as under a UTF-8 locale."""
    corpus = build_tone_corpus_dir(tmp_path / "corpus", clips_per_class=6, seed=5)
    (corpus / "tone440").rename(corpus / "ñandú-tone440")
    (corpus / "tone880" / "clip00.wav").rename(corpus / "tone880" / "canción.wav")
    src = Path(__file__).resolve().parent.parent / "src"
    locales = {"utf8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
               "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}}
    written = {}
    for name, locale_env in locales.items():
        env = {**os.environ, **locale_env, "PYTHONPATH": str(src)}
        encoding = subprocess.run(
            [sys.executable, "-c", "import codecs, locale; "
             "print(codecs.lookup(locale.getpreferredencoding()).name)"],
            env=env, capture_output=True, text=True, timeout=60).stdout.strip()
        assert encoding == {"utf8": "utf-8", "ascii": "ascii"}[name]
        out = tmp_path / name
        out.mkdir()
        training = ["--seed", "0", "--max-epochs", "3"]
        for argv in (["extract", "--corpus", str(corpus), "--out", str(out / "cache.csv")],
                     ["select", "--cache", str(out / "cache.csv"), "--trace",
                      str(out / "trace.csv"), "--subset", str(out / "subset.csv"), *training],
                     ["train", "--cache", str(out / "cache.csv"), "--subset",
                      str(out / "subset.csv"), "--model", str(out / "model.json"),
                      "--report", str(out / "report"), *training]):
            done = subprocess.run([sys.executable, "-m", "vocalnet.cli", *argv], env=env,
                                  capture_output=True, timeout=300)
            assert done.returncode == 0, (name, argv[0], done.stderr.decode())
        written[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sorted(written["utf8"]) == ["cache.csv", "model.json", "report.csv",
                                       "report.features.csv", "report.txt",
                                       "subset.csv", "trace.csv"]
    assert "ñandú-tone440".encode() in written["utf8"]["report.features.csv"]
    assert written["ascii"] == written["utf8"]


def test_printed_names_escape_what_stdout_cannot_encode(tmp_path):
    """classify and evaluate print a class name that stdout cannot encode
    with backslash escapes, as Python's stderr does, and exit 0; where it can
    encode every name, stdout keeps its bytes."""
    corpus = build_tone_corpus_dir(tmp_path / "corpus", clips_per_class=6, seed=5)
    # every class non-ASCII, so whichever one classify picks needs escapes
    shutil.rmtree(corpus / "_pseudo")
    for name in ("tone440", "tone880", "tone1760"):
        (corpus / name).rename(corpus / f"ñandú-{name}")
    cache, model = tmp_path / "cache.csv", tmp_path / "model.json"
    assert main(["extract", "--corpus", str(corpus), "--out", str(cache)]) == 0
    assert main(["train", "--cache", str(cache), "--model", str(model),
                 "--seed", "0", "--max-epochs", "3"]) == 0
    clip = next((corpus / "ñandú-tone880").iterdir())
    src = Path(__file__).resolve().parent.parent / "src"
    locales = {"utf8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
               "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}}
    for argv in (["classify", "--model", str(model), str(clip)],
                 ["evaluate", "--model", str(model), "--cache", str(cache)]):
        stdout = {}
        for name, locale_env in locales.items():
            done = subprocess.run([sys.executable, "-m", "vocalnet.cli", *argv],
                                  env={**os.environ, **locale_env, "PYTHONPATH": str(src)},
                                  capture_output=True, timeout=300)
            assert (done.returncode, done.stderr) == (0, b""), (name, argv[0])
            stdout[name] = done.stdout
        assert "ñandú-tone".encode() in stdout["utf8"]
        assert stdout["ascii"] == stdout["utf8"].decode().encode("ascii",
                                                                   "backslashreplace")
        assert b"\\xf1and\\xfa-tone" in stdout["ascii"]


def test_a_class_name_that_is_not_utf8_runs_through_every_command(tmp_path, capsys):
    """A class directory named with a byte that is not UTF-8 extracts to a
    cache that names it with a \\xNN escape, so every command reads what
    the one before it wrote, and every artifact is strict UTF-8."""
    corpus = build_tone_corpus_dir(tmp_path / "corpus", clips_per_class=6, seed=5)
    cafe = corpus / os.fsdecode(b"caf\xe9")
    (corpus / "tone440").rename(cafe)
    out = tmp_path / "out"
    out.mkdir()
    training = ["--seed", "0", "--max-epochs", "3"]
    for argv in (["extract", "--corpus", str(corpus), "--out", str(out / "cache.csv")],
                 ["select", "--cache", str(out / "cache.csv"), "--trace",
                  str(out / "trace.csv"), "--subset", str(out / "subset.csv"), *training],
                 ["train", "--cache", str(out / "cache.csv"), "--subset",
                  str(out / "subset.csv"), "--model", str(out / "model.json"),
                  "--report", str(out / "report"), *training],
                 ["evaluate", "--model", str(out / "model.json"), "--cache",
                  str(out / "cache.csv"), "--report", str(out / "eval")],
                 ["classify", "--model", str(out / "model.json"),
                  str(cafe / "clip00.wav")]):
        assert main(argv) == 0, (argv[0], capsys.readouterr().err)
    cache = read_feature_cache(out / "cache.csv")
    assert cache.class_names[0] == "caf\\xe9"
    assert f"{corpus}/caf\\xe9/clip00.wav" in cache.clip_paths
    assert sorted(path.name for path in out.iterdir()) == [
        "cache.csv", "eval.csv", "eval.txt", "model.json", "report.csv",
        "report.features.csv", "report.txt", "subset.csv", "trace.csv"]
    for path in out.iterdir():
        path.read_bytes().decode("utf-8")
    assert "caf\\xe9" in json.loads((out / "model.json").read_text())["label_map"]


def test_a_manifest_names_its_clips_in_utf8_under_any_locale(tmp_path):
    """A UTF-8 manifest's paths, relative or absolute, reach the file system
    as their UTF-8 bytes under the C locale, with Python's UTF-8 mode and
    locale coercion off, as under a UTF-8 locale: extract writes the same
    cache bytes under both and skips no clip."""
    rng = np.random.default_rng(4)
    (tmp_path / "abs").mkdir()
    for name in ("canción.wav", "a.wav", "abs/b.wav"):
        save_wav(noise_clip(rng), tmp_path / name)
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(f"path,label\ncanción.wav,pájaro\na.wav,dog\n"
                         f"{tmp_path / 'abs' / 'b.wav'},dog\n".encode())
    src = Path(__file__).resolve().parent.parent / "src"
    locales = {"utf8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
               "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}}
    written = {}
    for name, locale_env in locales.items():
        out = tmp_path / f"{name}.csv"
        done = subprocess.run([sys.executable, "-m", "vocalnet.cli", "extract",
                               "--corpus", str(manifest), "--out", str(out)],
                              env={**os.environ, **locale_env, "PYTHONPATH": str(src)},
                              capture_output=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, b""), (name, done.stderr.decode())
        written[name] = out.read_bytes()
    assert written["ascii"] == written["utf8"]
    cache = read_feature_cache(tmp_path / "utf8.csv")
    assert cache.clip_paths == [str(tmp_path / "canción.wav"), str(tmp_path / "a.wav"),
                                str(tmp_path / "abs" / "b.wav")]
    assert cache.class_names == ["dog", "pájaro"]


def readme() -> str:
    return (Path(__file__).resolve().parent.parent / "README.md").read_text()


def accepted_flags(command) -> set[str]:
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return set(commands.choices[command]._option_string_actions)


def test_readme_cli_block_uses_only_accepted_flags():
    block = readme().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines()
             if line.startswith("vocalnet ")]
    assert [words[1] for words in lines] == list(COMMANDS)
    for words in lines:
        flags = {word.strip("[]") for word in words if word.strip("[").startswith("--")}
        assert flags <= accepted_flags(words[1]), words[1]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=8)
MODEL_FIELDS = ["format_version", "spec", "spec.j", "spec.k", "spec.m", "spec.n",
                "weights", "weights.0", "input_mean", "input_std", "label_map",
                "feature_slots", "extraction", "extraction.rate"]


@st.composite
def near_valid(draw, role, model_doc):
    """A file of the role's own format with one part replaced by junk."""
    if role == "model":
        doc = copy.deepcopy(model_doc)
        *parents, last = draw(st.sampled_from(MODEL_FIELDS)).split(".")
        target = doc
        for key in parents:
            target = target[key]
        target[int(last) if isinstance(target, list) else last] = draw(JSON_VALUES)
        return json.dumps(doc)
    header = {"cache": ",".join(["clip_path", "label", *FEATURE_NAMES]),
              "subset": "slot,slot_name"}[role]
    return header + "\n" + draw(st.text(max_size=80))


@pytest.fixture(scope="module")
def fuzz_inputs(three_class_model, tmp_path_factory):
    model, corpus = three_class_model
    root = tmp_path_factory.mktemp("fuzz")
    cache = root / "cache.csv"
    write_feature_cache(corpus, cache)
    return root, cache, json.loads(model.read_text())


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_main_never_raises(fuzz_inputs, data):
    """Any bytes as the cache, model or subset file end in a
    documented exit code with an error line, never an exception."""
    root, cache, model_doc = fuzz_inputs
    role = data.draw(st.sampled_from(["cache", "model", "subset"]))
    content = data.draw(st.binary(max_size=200)
                        | st.text(max_size=200).map(str.encode)
                        | near_valid(role, model_doc).map(str.encode))
    path = root / f"fuzzed.{role}"
    path.write_bytes(content)
    train = ["train", "--model", str(root / "m.json"), "--seed", "0",
             "--max-epochs", "1", "--hidden", "2", "--layers", "1"]
    argv = {"cache": train + ["--cache", str(path)],
            "model": ["evaluate", "--model", str(path), "--cache", str(cache)],
            "subset": train + ["--cache", str(cache), "--subset", str(path)]}[role]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    assert code == 0 or "error: " in err.getvalue()


class FullDisk(io.FileIO):
    """A file on a disk with room for 512 bytes, less than any artifact the
    commands write here: a write past them raises ENOSPC."""

    def write(self, data):
        if self.tell() + len(data) > 512:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


def open_on_a_full_disk(file, mode="r", encoding=None, newline=None):
    """open(), for the package's artifacts, on a disk that FullDisk fills."""
    if "r" in mode:
        return open(file, mode, encoding=encoding, newline=newline)
    return io.TextIOWrapper(io.BufferedWriter(FullDisk(file, mode[0])),
                            encoding=encoding, newline=newline)


class RowsThenFull:
    """A csv writer that writes `rows` rows, then raises ENOSPC."""

    def __init__(self, writer, rows):
        self.writer, self.rows = writer, rows

    def writerow(self, row):
        if not self.rows:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.rows -= 1
        self.writer.writerow(row)

    def writerows(self, rows):
        for row in rows:
            self.writerow(row)


class TestWholeArtifacts:
    """An artifact appears whole or not at all: a command whose write fails
    exits 2 and leaves the artifacts of an earlier run byte for byte, with no
    file beside them."""

    @pytest.mark.parametrize("command, fault", [
        ("extract", "rows"), ("select", "rows"),
        ("extract", "disk"), ("select", "disk"), ("train", "disk")])
    def test_a_failed_write_leaves_the_earlier_artifacts(
            self, small_corpus_dir, tmp_path, capsys, monkeypatch, command, fault):
        run = tmp_path / "run"
        run.mkdir()
        cache, subset = str(run / "cache.csv"), str(run / "subset.csv")
        flags = ["--seed", "0", "--max-epochs", "5"]
        argv = {
            "extract": ["extract", "--corpus", str(small_corpus_dir), "--out", cache],
            "select": ["select", "--cache", cache, "--trace", str(run / "trace.csv"),
                       "--subset", subset, *flags],
            "train": ["train", "--cache", cache, "--model", str(run / "model.json"),
                      "--subset", subset, *flags]}
        for args in argv.values():
            assert main(args) == 0
        before = {path.name: path.read_bytes() for path in run.iterdir()}
        capsys.readouterr()

        if fault == "rows":
            writer = csv.writer
            monkeypatch.setattr(csv, "writer", lambda fh: RowsThenFull(writer(fh), 3))
        else:
            monkeypatch.setattr(dataset, "open", open_on_a_full_disk, raising=False)
        assert main(argv[command]) == 2
        monkeypatch.undo()
        assert capsys.readouterr() == ("", "error: OSError: [Errno 28] "
                                           "No space left on device\n")
        assert {path.name: path.read_bytes() for path in run.iterdir()} == before
