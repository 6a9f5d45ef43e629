import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalnet.audio_io import save_wav
from vocalnet.cli import DEFAULTS, main, read_config_file
from vocalnet.dataset import (LabeledCorpus, LabeledSample,
                              read_feature_cache, write_feature_cache)
from vocalnet.features import FEATURE_NAMES
from vocalnet.mlp import classify, load_model

from conftest import build_tone_corpus_dir, noise_clip, synthetic_feature_corpus


def write_text(path, text) -> str:
    path.write_text(text)
    return str(path)


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

    def test_corrupt_clip_warns_and_continues(self, small_corpus_dir, tmp_path,
                                              capsys):
        import shutil
        root = tmp_path / "corpus"
        shutil.copytree(small_corpus_dir, root)
        (root / "tone440" / "broken.wav").write_bytes(b"\x00" * 10)
        out = tmp_path / "cache.csv"
        assert main(["extract", "--corpus", str(root), "--out", str(out)]) == 0
        assert "broken.wav" in capsys.readouterr().err
        assert len(read_feature_cache(out).samples) == 40

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

    def test_report_files(self, cache_path, tmp_path):
        out = tmp_path / "m.json"
        prefix = str(tmp_path / "report")
        assert main(["train", "--cache", str(cache_path), "--model", str(out),
                     "--seed", "0", "--max-epochs", "500",
                     "--report", prefix]) == 0
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.csv").exists()

    def test_unreadable_cache_exits_2(self, tmp_path):
        assert main(["train", "--cache", str(tmp_path / "nope.csv"),
                     "--model", str(tmp_path / "m.json"), "--seed", "0"]) == 2

    @pytest.mark.parametrize("command", ["train", "select"])
    def test_class_too_small_exits_3(self, tmp_path, command, capsys):
        corpus = synthetic_feature_corpus([(0,), (5,)], samples_per_class=2)
        cache = tmp_path / "tiny.csv"
        write_feature_cache(corpus, cache)
        outputs = {"train": ["--model", str(tmp_path / "m.json")],
                   "select": ["--trace", str(tmp_path / "t.csv"),
                              "--subset", str(tmp_path / "s.csv")]}
        assert main([command, "--cache", str(cache), *outputs[command],
                     "--seed", "0"]) == 3
        assert capsys.readouterr().err.startswith("error: ClassTooSmall")

    def test_ci_mode_requires_seed(self, cache_path, tmp_path, capsys):
        assert main(["train", "--cache", str(cache_path),
                     "--model", str(tmp_path / "m.json"), "--ci"]) == 2
        assert capsys.readouterr().err.startswith("error: InvalidSetting")

    @pytest.mark.parametrize("extra", [
        lambda d: ["--hidden", "0"],
        lambda d: ["--layers", "0"],
        lambda d: ["--learning-rate", "0"],
        lambda d: ["--momentum", "1"],
        lambda d: ["--seed", "-1"],
        lambda d: ["--config", str(d / "missing.cfg")],
        lambda d: ["--config", write_text(d / "run.cfg", "max_epochs = lots\n")],
        lambda d: ["--subset", str(d / "missing.csv")],
        lambda d: ["--model", str(d / "missing" / "m.json"), "--max-epochs", "5"],
    ], ids=["hidden-0", "layers-0", "learning-rate-0", "momentum-1",
            "negative-seed", "missing-config", "uncastable-config",
            "missing-subset", "model-dir-missing"])
    def test_bad_input_exits_2(self, cache_path, tmp_path, capsys, extra):
        assert main(["train", "--cache", str(cache_path),
                     "--model", str(tmp_path / "m.json"), "--seed", "0",
                     *extra(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("rows", ["abc,x\n", "40,x\n", "3,a\n3,a\n", ""],
                             ids=["non-integer", "out-of-range", "duplicate", "empty"])
    def test_bad_subset_exits_2(self, cache_path, tmp_path, capsys, rows):
        subset = write_text(tmp_path / "subset.csv", "slot,slot_name\n" + rows)
        assert main(["train", "--cache", str(cache_path),
                     "--model", str(tmp_path / "m.json"), "--seed", "0",
                     "--subset", subset]) == 2
        assert capsys.readouterr().err.startswith("error: MalformedArtifact")


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
    keep = [s for s in corpus.samples
            if corpus.class_names[s.label] != class_name]
    names = [n for n in corpus.class_names if n != class_name]
    relabeled = [LabeledSample(s.features, names.index(corpus.class_names[s.label]),
                               s.clip_path) for s in keep]
    write_feature_cache(LabeledCorpus(relabeled, names), path)


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
        agree = [classify(net, s.features.values)[0]
                 == net.label_map.index(rows.class_names[s.label])
                 for s in rows.samples]
        expected = 100.0 * sum(agree) / len(agree)
        assert expected > 90.0
        assert f"Overall accuracy (%):   {expected:.2f}" in out

    def test_class_missing_from_model_exits_2(self, three_class_model,
                                              tmp_path, capsys):
        model, corpus = three_class_model
        names = corpus.class_names + ["class_new"]
        extra = LabeledCorpus(corpus.samples + [
            LabeledSample(s.features, 3, s.clip_path + "_new")
            for s in corpus.samples[:3]], names)
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

    def test_unreadable_model_exits_2(self, cache_path, tmp_path):
        assert main(["evaluate", "--model", str(tmp_path / "nope.json"),
                     "--cache", str(cache_path)]) == 2

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["weights"][0].pop(),
        lambda doc: doc["label_map"].pop(),
        lambda doc: doc.update(feature_slots=[0, 40]),
        lambda doc: doc.update(spec={**doc["spec"], "k": 2.0}),
    ], ids=["weight-rows", "label-map", "feature-slots", "float-width"])
    def test_model_that_misfits_its_spec_exits_2(self, three_class_model,
                                                 tmp_path, capsys, corrupt):
        model, corpus = three_class_model
        doc = json.loads(model.read_text())
        corrupt(doc)
        bad = write_text(tmp_path / "bad.json", json.dumps(doc))
        cache = tmp_path / "cache.csv"
        write_feature_cache(corpus, cache)
        assert main(["evaluate", "--model", bad, "--cache", str(cache)]) == 2
        assert capsys.readouterr().err.startswith("error: MalformedArtifact")

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

    def test_missing_clip_exits_4(self, model_path, tmp_path, capsys):
        assert main(["classify", "--model", str(model_path),
                     str(tmp_path / "nope.wav")]) == 4
        assert capsys.readouterr().err.startswith("error: ")

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


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window = 1024\nhop = 128  # inline comment\n")
        parsed = read_config_file(cfg)
        assert parsed == {"window": "1024", "hop": "128"}

        import argparse
        from vocalnet.cli import resolve
        args = argparse.Namespace(window=256, hop=None, rate=None,
                                  _config=parsed)
        assert resolve(args, "window") == 256    # flag wins
        assert resolve(args, "hop") == 128       # file beats default
        assert resolve(args, "rate") == 22050    # default


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=8)
MODEL_FIELDS = ["format_version", "spec", "spec.j", "spec.k", "spec.m", "spec.n",
                "weights", "weights.0", "input_mean", "input_std", "label_map",
                "feature_slots", "extraction", "extraction.rate"]
CONFIG_LINES = st.tuples(
    st.sampled_from(sorted(DEFAULTS)),
    st.text(max_size=6) | st.integers(-3, 10 ** 6).map(str) | st.floats().map(str),
).map(" = ".join)


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
    if role == "config":
        return "\n".join(draw(st.lists(CONFIG_LINES, max_size=4)))
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
    """Any bytes as the cache, model, subset or config file end in a
    documented exit code with an error line, never an exception."""
    root, cache, model_doc = fuzz_inputs
    role = data.draw(st.sampled_from(["cache", "model", "subset", "config"]))
    content = data.draw(st.binary(max_size=200)
                        | st.text(max_size=200).map(str.encode)
                        | near_valid(role, model_doc).map(str.encode))
    path = root / f"fuzzed.{role}"
    path.write_bytes(content)
    train = ["train", "--model", str(root / "m.json"), "--seed", "0",
             "--max-epochs", "1", "--hidden", "2", "--layers", "1"]
    argv = {"cache": train + ["--cache", str(path)],
            "model": ["evaluate", "--model", str(path), "--cache", str(cache)],
            "subset": train + ["--cache", str(cache), "--subset", str(path)],
            "config": train + ["--cache", str(cache), "--config", str(path)]}[role]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    assert code == 0 or "error: " in err.getvalue()
