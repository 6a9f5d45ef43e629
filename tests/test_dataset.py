import csv
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalnet.dataset import (PSEUDO_CLASS, clip_features, largest_remainder_counts,
                              load_corpus, make_corpus, plan_folds,
                              read_feature_cache, write_csv_rows,
                              write_feature_cache)
from vocalnet.errors import ClassTooSmall, ClipError, EmptyCorpus, MalformedArtifact
from vocalnet.features import FEATURE_NAMES

from conftest import UNUSABLE_CLIPS, noise_clip, save_wav


def label_corpus(class_sizes):
    """Minimal corpus with the given per-class sample counts; class c is
    class_names[c], as the zero-padded names sort in class order."""
    rng = np.random.default_rng(0)
    labels = [f"class_{cls:02d}" for cls, size in enumerate(class_sizes)
              for _ in range(size)]
    rows = rng.standard_normal((len(labels), 28))
    return make_corpus([f"c{i}" for i in range(len(labels))], labels, rows)


class TestLoadCorpus:
    def test_directory_layout(self, tmp_path):
        rng = np.random.default_rng(1)
        for name in ("birdA", "birdB", "birdC"):
            d = tmp_path / name
            d.mkdir()
            for i in range(4):
                save_wav(noise_clip(rng, duration=0.1), d / f"{i}.wav")
        corpus = load_corpus(tmp_path)
        assert len(corpus.samples) == 12
        assert corpus.class_names == ["birdA", "birdB", "birdC"]
        np.testing.assert_array_equal(corpus.labels, np.repeat([0, 1, 2], 4))

    def test_pseudo_class_ordered_last(self, tmp_path):
        rng = np.random.default_rng(2)
        for name in ("birdB", "_pseudo", "birdA"):
            d = tmp_path / name
            d.mkdir()
            save_wav(noise_clip(rng, duration=0.1), d / "0.wav")
        corpus = load_corpus(tmp_path)
        assert corpus.class_names == ["birdA", "birdB", "_pseudo"]

    def test_manifest_with_bad_row(self, tmp_path):
        rng = np.random.default_rng(3)
        save_wav(noise_clip(rng, duration=0.1), tmp_path / "a.wav")
        save_wav(noise_clip(rng, duration=0.1), tmp_path / "b.wav")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label\na.wav,x\nb.wav,y\nmissing.wav,y\n")
        corpus = load_corpus(manifest)
        assert len(corpus.samples) == 2
        assert len(corpus.load_errors) == 1
        assert "missing.wav" in corpus.load_errors[0][0]

    def test_class_whose_every_clip_fails_is_dropped(self, tmp_path):
        rng = np.random.default_rng(4)
        for name in ("birdA", "birdB", "birdC"):
            (tmp_path / name).mkdir()
        for name in ("birdA", "birdC"):
            for i in range(2):
                save_wav(noise_clip(rng, duration=0.1), tmp_path / name / f"{i}.wav")
        (tmp_path / "birdB" / "0.wav").write_bytes(b"RIFF....WAVEjunk")
        corpus = load_corpus(tmp_path)
        assert corpus.class_names == ["birdA", "birdC"]
        np.testing.assert_array_equal(corpus.labels, [0, 0, 1, 1])
        assert corpus.samples.shape == (4, 28)
        assert [path for path, _ in corpus.load_errors] == [
            str(tmp_path / "birdB" / "0.wav")]

    @pytest.mark.parametrize("kind", UNUSABLE_CLIPS)
    def test_a_clip_error_is_recorded_and_skipped(self, tmp_path, kind):
        d = tmp_path / "birdA"
        d.mkdir()
        save_wav(noise_clip(np.random.default_rng(6), duration=0.1), d / "a.wav")
        name, data = UNUSABLE_CLIPS[kind]
        (d / name).write_bytes(data)
        with pytest.raises(ClipError) as raised:
            clip_features(d / name)
        assert type(raised.value).__name__ == kind
        corpus = load_corpus(tmp_path)
        assert corpus.clip_paths == [str(d / "a.wav")]
        assert corpus.load_errors == [(str(d / name), str(raised.value))]

    def test_wav_suffix_in_any_case(self, tmp_path):
        rng = np.random.default_rng(5)
        d = tmp_path / "birdA"
        d.mkdir()
        names = ["a.WAV", "b.wav", "c.Wav", "d.wAv", "e.wav"]
        for name in names:
            save_wav(noise_clip(rng, duration=0.1), d / name)
        (d / "notes.txt").write_text("not a clip")
        corpus = load_corpus(tmp_path)
        assert corpus.clip_paths == [str(d / name) for name in names]
        assert corpus.load_errors == []

    def test_empty_corpus_raises(self, tmp_path):
        (tmp_path / "empty_class").mkdir()
        with pytest.raises(EmptyCorpus):
            load_corpus(tmp_path)


class TestFeatureCache:
    def test_round_trip(self, tmp_path):
        corpus = label_corpus([4, 4])
        path = tmp_path / "cache.csv"
        write_feature_cache(corpus, path)
        back = read_feature_cache(path)
        assert back.class_names == corpus.class_names
        np.testing.assert_array_equal(back.samples, corpus.samples)
        np.testing.assert_array_equal(back.labels, corpus.labels)

    def test_header_names_slots(self, tmp_path):
        corpus = label_corpus([3])
        path = tmp_path / "cache.csv"
        write_feature_cache(corpus, path)
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert header == ["clip_path", "label", *FEATURE_NAMES]

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_file_without_rows_names_row_1(self, tmp_path, text):
        path = tmp_path / "cache.csv"
        path.write_text(text)
        with pytest.raises(MalformedArtifact,
                           match=rf"^{re.escape(str(path))}: row 1: not the header "):
            read_feature_cache(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        # any text a CSV field can hold on one line, quotes and commas included
        text = st.text(st.characters(blacklist_categories=("Cs", "Cc")),
                       min_size=1, max_size=12)
        n = data.draw(st.integers(1, 8))
        labels = data.draw(st.lists(st.one_of(st.just(PSEUDO_CLASS), text),
                                    min_size=n, max_size=n))
        paths = data.draw(st.lists(text, min_size=n, max_size=n))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        rows = np.array(data.draw(st.lists(st.lists(finite, min_size=28, max_size=28),
                                           min_size=n, max_size=n)))
        path = tmp_path_factory.mktemp("cache") / "cache.csv"
        write_feature_cache(make_corpus(paths, labels, rows), path)
        back = read_feature_cache(path)

        np.testing.assert_array_equal(back.samples.view(np.int64),
                                      rows.view(np.int64))
        assert [back.class_names[i] for i in back.labels] == labels
        ordinary = sorted(set(labels) - {PSEUDO_CLASS})
        assert back.class_names == ordinary + [PSEUDO_CLASS] * (PSEUDO_CLASS in labels)
        assert back.clip_paths == paths


class TestWholeArtifacts:
    def test_rows_that_raise_midway_leave_the_earlier_file(self, tmp_path):
        # 5000 rows fill the file's buffer twice before the row that raises
        path = tmp_path / "rows.csv"
        write_csv_rows(path, ["n"], [[0]])
        before = path.read_bytes()

        def rows():
            for n in range(5000):
                yield [n]
            raise RuntimeError("no row 5000")

        with pytest.raises(RuntimeError, match="^no row 5000$"):
            write_csv_rows(path, ["n"], rows())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["rows.csv"]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
    def test_a_file_this_process_may_not_write_is_left_as_it_is(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv_rows(path, ["n"], [[0]])
        path.chmod(0o444)
        with pytest.raises(PermissionError, match=re.escape(f"denied: '{path}'")):
            write_csv_rows(path, ["n"], [[1]])
        assert path.read_bytes() == b"n\r\n0\r\n"
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_a_written_file_has_the_mode_of_a_plain_open(self, tmp_path):
        umask = os.umask(0o027)
        try:
            write_csv_rows(tmp_path / "rows.csv", ["n"], [[0]])
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(umask)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("rows.csv", "plain")]
        assert modes == [0o640, 0o640]
        assert sorted(os.listdir(tmp_path)) == ["plain", "rows.csv"]


class TestLargestRemainder:
    def test_ten(self):
        assert largest_remainder_counts(10) == (7, 1, 2)

    def test_twentyfive_tie_goes_to_train(self):
        assert largest_remainder_counts(25) == (18, 2, 5)

    def test_sums_and_deviation(self):
        for n in range(3, 200):
            train, test, evaluation = largest_remainder_counts(n)
            assert train + test + evaluation == n
            assert abs(train - 0.7 * n) < 1
            assert abs(test - 0.1 * n) < 1
            assert abs(evaluation - 0.2 * n) < 1


class TestPlanSplit:
    """The 70/10/20 split of a single fold."""

    def test_dog_shaped_corpus(self):
        corpus = label_corpus([10] * 9)
        plan = plan_folds(corpus, seed=0)[0]
        assert len(plan.train_ids) == 63
        assert len(plan.test_ids) == 9
        assert len(plan.eval_ids) == 18
        labels = corpus.labels
        for cls in range(9):
            assert np.sum(labels[plan.eval_ids] == cls) == 2

    def test_bird_shaped_corpus(self):
        corpus = label_corpus([25] * 14)
        plan = plan_folds(corpus, seed=0)[0]
        labels = corpus.labels
        assert len(plan.eval_ids) == 70
        for cls in range(14):
            assert np.sum(labels[plan.eval_ids] == cls) == 5
            assert np.sum(labels[plan.train_ids] == cls) == 18
            assert np.sum(labels[plan.test_ids] == cls) == 2

    def test_disjoint_and_complete(self):
        corpus = label_corpus([11, 13, 17])
        plan = plan_folds(corpus, seed=3)[0]
        train = set(plan.train_ids.tolist())
        test = set(plan.test_ids.tolist())
        evaluation = set(plan.eval_ids.tolist())
        assert not train & test
        assert not train & evaluation
        assert not test & evaluation
        assert train | test | evaluation == set(range(len(corpus.samples)))

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            plan_folds(label_corpus([10, 2]), seed=0)

    @pytest.mark.parametrize("sizes", [[3, 4, 5], [5, 5]])
    def test_no_class_with_a_test_row(self, sizes):
        # 3-5 samples split (2,0,1), (3,0,1), (4,0,1): no fold has a test set
        with pytest.raises(ClassTooSmall, match="needs 6 samples"):
            plan_folds(label_corpus(sizes), seed=0)

    def test_one_class_with_a_test_row_suffices(self):
        with pytest.warns(UserWarning, match="smaller than 10"):
            plan = plan_folds(label_corpus([5, 6]), seed=0)
        assert all(len(split.test_ids) == 1 for split in plan)


class TestPlanFolds:
    def test_eval_membership_exactly_twice(self):
        corpus = label_corpus([10, 10, 10])
        plan = plan_folds(corpus, seed=0)
        appearances = np.zeros(30, dtype=int)
        for split in plan:
            appearances[split.eval_ids] += 1
        assert np.all(appearances == 2)

    def test_test_membership_exactly_once(self):
        corpus = label_corpus([10, 20])
        plan = plan_folds(corpus, seed=1)
        appearances = np.zeros(30, dtype=int)
        for split in plan:
            appearances[split.test_ids] += 1
        assert np.all(appearances == 1)

    def test_consecutive_eval_sets_differ(self):
        corpus = label_corpus([12, 15, 10])
        plan = plan_folds(corpus, seed=2)
        for a, b in zip(plan, plan[1:]):
            assert set(a.eval_ids.tolist()) != set(b.eval_ids.tolist())

    def test_every_fold_partitions_the_corpus(self):
        corpus = label_corpus([13, 21, 34])
        plan = plan_folds(corpus, seed=3)
        n = len(corpus.samples)
        for split in plan:
            ids = np.concatenate([split.train_ids, split.test_ids,
                                  split.eval_ids])
            assert len(ids) == n
            assert set(ids.tolist()) == set(range(n))

    def test_seeded_determinism(self):
        corpus = label_corpus([10, 10])
        one = plan_folds(corpus, seed=5)
        two = plan_folds(corpus, seed=5)
        for a, b in zip(one, two):
            np.testing.assert_array_equal(a.train_ids, b.train_ids)
            np.testing.assert_array_equal(a.eval_ids, b.eval_ids)

    def test_small_class_warns(self):
        corpus = label_corpus([5, 10])
        with pytest.warns(UserWarning):
            plan_folds(corpus, seed=0)
