import re
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vocalnet.errors import EmptyMatrix, LabelOutOfRange
from vocalnet.evaluation import (ConfusionMatrix, confusion_matrix,
                                 cross_fold_report, feature_summary,
                                 render_report_text, write_report, _quartiles)

from conftest import synthetic_feature_corpus


def dog_table_matrix():
    """Published dog-breed counts: diagonal 2 for eight breeds, pseudo row
    split 1/1 with ChowChow."""
    counts = np.zeros((9, 9), dtype=int)
    for i in range(8):
        counts[i, i] = 2
    counts[8, 2] = 1  # pseudo mistaken for chow chow
    counts[8, 8] = 1
    names = ["Beagle", "Chihuahua", "ChowChow", "Labrador", "Pomeranian",
             "Poodle", "ShihTzu", "Husky", "Pseudo"]
    return ConfusionMatrix(counts=counts, class_names=names)


def numbered_names(n):
    return [f"c{i}" for i in range(n)]


class TestConfusionMatrix:
    def test_identical_sequences_are_diagonal(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, 50)
        cm = confusion_matrix(labels, labels, numbered_names(4))
        assert np.all(cm.counts == np.diag(np.diag(cm.counts)))
        assert cm.total == 50

    def test_published_dog_counts(self):
        cm = dog_table_matrix()
        assert cm.total == 18
        assert int(np.trace(cm.counts)) == 17

    def test_matches_naive_counting_oracle(self):
        rng = np.random.default_rng(1)
        truths = rng.integers(0, 3, 1000)
        preds = rng.integers(0, 3, 1000)
        cm = confusion_matrix(truths, preds, numbered_names(3))
        for t in range(3):
            for p in range(3):
                naive = sum(1 for a, b in zip(truths, preds)
                            if a == t and b == p)
                assert cm.counts[t, p] == naive

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            confusion_matrix([0, 5], [0, 1], numbered_names(3))

    def test_trace_plus_offdiagonal_is_total(self):
        rng = np.random.default_rng(2)
        cm = confusion_matrix(rng.integers(0, 5, 200),
                              rng.integers(0, 5, 200), numbered_names(5))
        trace = int(np.trace(cm.counts))
        off = int(cm.counts.sum() - trace)
        assert trace + off == cm.total == 200


class TestSummarize:
    def test_bird_table_percentages(self):
        counts = np.zeros((14, 14), dtype=int)
        counts[0, 0] = 50
        counts[0, 1] = 20  # 50 correct of 70
        report = ConfusionMatrix(counts, numbered_names(14))
        assert report.overall_accuracy == pytest.approx(71.43, abs=0.005)
        assert report.overall_error_rate == pytest.approx(28.57, abs=0.005)

    def test_dog_table_percentages(self):
        report = dog_table_matrix()
        assert report.overall_accuracy == pytest.approx(94.44, abs=0.005)
        assert report.overall_error_rate == pytest.approx(5.56, abs=0.005)
        assert report.hypothesis_pass

    def test_identity_matrix_is_perfect(self):
        report = ConfusionMatrix(np.eye(6, dtype=int), numbered_names(6))
        assert report.overall_accuracy == 100.0
        assert report.overall_error_rate == 0.0
        assert report.hypothesis_pass

    def test_accuracy_and_error_sum_to_100(self):
        rng = np.random.default_rng(3)
        report = confusion_matrix(rng.integers(0, 3, 97), rng.integers(0, 3, 97),
                                  numbered_names(3))
        assert report.overall_accuracy + report.overall_error_rate \
            == pytest.approx(100.0, abs=1e-9)

    def test_perfect_real_classes_nonzero_error_via_pseudo(self):
        # both real classes 100% correct; pseudo half-mistaken for class a
        counts = np.array([[5, 0, 0],
                           [0, 5, 0],
                           [1, 0, 1]])
        report = ConfusionMatrix(counts, ["a", "b", "_pseudo"])
        assert counts[0, 0] == 5 and counts[1, 1] == 5
        assert report.overall_error_rate > 0
        assert report.false_positives == [1, 0, 0]

    @pytest.mark.parametrize("name", ["overall_accuracy", "overall_error_rate",
                                      "hypothesis_pass"])
    def test_empty_matrix_properties_raise_empty_matrix(self, name):
        with pytest.raises(EmptyMatrix):
            getattr(confusion_matrix([], [], numbered_names(2)), name)

    def test_below_threshold_fails_hypothesis(self):
        counts = np.array([[1, 1], [1, 1]])
        report = ConfusionMatrix(counts, ["a", "b"])
        assert not report.hypothesis_pass


class TestDerivedFacts:
    """The matrix's properties against plain loops over its counts."""

    @settings(max_examples=200, deadline=None)
    @given(counts=st.integers(1, 8).flatmap(
        lambda n: hnp.arrays(np.int64, (n, n), elements=st.integers(0, 10**4)))
        .filter(lambda counts: counts.sum() > 0))
    @example(counts=np.array([[7, 1], [2, 0]]))  # exactly 70%: the gate passes
    def test_matches_loops_over_the_counts(self, counts):
        matrix = ConfusionMatrix(counts, [f"c{i}" for i in range(len(counts))])
        rows = counts.tolist()
        n = len(rows)
        total = sum(sum(row) for row in rows)
        correct = sum(rows[i][i] for i in range(n))
        accuracy = 100.0 * correct / total
        false_positives = [sum(rows[t][p] for t in range(n) if t != p) for p in range(n)]
        assert matrix.overall_accuracy == accuracy
        assert matrix.overall_error_rate == 100.0 - accuracy
        assert matrix.hypothesis_pass == (accuracy >= 70.0)
        assert matrix.false_positives == false_positives
        fp_row = next(line for line in render_report_text(matrix).splitlines()
                      if line.startswith("False positives"))
        assert fp_row.split()[2:] == [str(v) for v in [*false_positives, correct]]


class TestCrossFold:
    def test_identical_reports(self):
        report = dog_table_matrix()
        summary = cross_fold_report([report] * 10)
        assert summary.std_accuracy == 0.0
        assert summary.mean_accuracy == report.overall_accuracy

    def test_two_folds_stats(self):
        low = ConfusionMatrix(np.array([[3, 2], [0, 5]]), ["a", "b"])
        high = ConfusionMatrix(np.array([[4, 1], [0, 5]]), ["a", "b"])
        assert low.overall_accuracy == 80.0
        assert high.overall_accuracy == 90.0
        summary = cross_fold_report([low, high])
        assert summary.mean_accuracy == 85.0
        assert summary.min_accuracy == 80.0
        assert summary.max_accuracy == 90.0

    def test_summed_matrix_total(self):
        reports = [dog_table_matrix() for _ in range(3)]
        summary = cross_fold_report(reports)
        assert summary.summed_matrix.total == 3 * 18


class TestFeatureSummary:
    @staticmethod
    def quartiles(values):
        """_quartiles of one column, as a tuple of floats."""
        return tuple(_quartiles(np.array(values, dtype=float)[:, None])[:, 0].tolist())

    def test_hand_quartiles(self):
        assert self.quartiles([1, 2, 3, 4, 5]) == (1.0, 1.5, 3.0, 4.5, 5.0)

    def test_single_value(self):
        assert self.quartiles([7]) == (7.0, 7.0, 7.0, 7.0, 7.0)

    def test_even_count(self):
        assert self.quartiles([1, 2, 3, 4]) == (1.0, 1.5, 2.5, 3.5, 4.0)

    def test_columns_are_summarized_alone(self):
        rows = np.array([[5, 1.0], [1, 2.0], [3, 3.0], [2, 4.0], [4, 5.0]])
        np.testing.assert_array_equal(_quartiles(rows),
                                      [[1, 1], [1.5, 1.5], [3, 3], [4.5, 4.5], [5, 5]])

    @staticmethod
    def sorted_list_quartiles(column):
        """Min, median-exclusive quartiles and max of one column, from a
        sorted Python list and statistics.median."""
        values = sorted(column)
        half = len(values) // 2 or 1
        return [values[0], statistics.median(values[:half]), statistics.median(values),
                statistics.median(values[len(values) - half:]), values[-1]]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 40).flatmap(lambda n: hnp.arrays(
        np.float64, (n, 3), elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0]),
            st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
                      st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0),
                      st.integers(-300, 299))))))
    @example(rows=np.array([[-0.0], [-0.0]]))
    @example(rows=np.array([[-0.0], [0.0], [-0.0]]))
    # numpy's AVX-512 sort and its other kernels order these zeros apart
    @example(rows=np.array([[-0.0], [-0.0], [0.0], [0.0], [0.0], [0.0], [0.0], [-1.0]]))
    def test_matches_a_sorted_list_reference_bit_for_bit(self, rows):
        got = _quartiles(rows)
        want = np.array([self.sorted_list_quartiles(column.tolist())
                         for column in rows.T]).T
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_a_median_of_two_huge_values_does_not_overflow(self):
        # 1.7e308 + 1.7e308 passes the largest float; their median is 1.7e308,
        # and the other medians keep the bits of (a + b) / 2
        got = self.quartiles([1e-300, 1e300, 1.7e308, 1.7e308])
        assert got == (1e-300, (1e-300 + 1e300) / 2, (1e300 + 1.7e308) / 2,
                       1.7e308, 1.7e308)
        assert self.quartiles([-1.7e308, -1.7e308, 0.0, 1.0])[1] == -1.7e308
        # infinities keep their sums: the overflow fallback is for finite pairs
        assert self.quartiles([np.inf, np.inf])[2] == np.inf

    def test_per_class_summary_shape(self):
        corpus = synthetic_feature_corpus([(0, 0), (5, 5)], samples_per_class=8)
        summary = feature_summary(corpus)
        assert summary.shape == (len(corpus.class_names), 28, 5) == (2, 28, 5)
        for lo, q1, med, q3, hi in summary[0]:
            assert lo <= q1 <= med <= q3 <= hi


class TestRendering:
    def test_text_report_layout(self):
        text = render_report_text(dog_table_matrix())
        assert "Overall accuracy (%):   94.44" in text
        assert "Overall error rate (%): 5.56" in text
        assert "Correct" in text
        assert "PASS" in text

    def test_text_report_keeps_whole_names_in_aligned_columns(self):
        # names longer than a count's cell; tone_high and tone_low share
        # their first five letters, the width of a cell for small counts
        names = ["chirp", "pulsed", "tone_high", "tone_low", "_pseudo"]
        counts = np.diag([3, 2, 12, 1, 0])
        counts[4, 2], counts[1, 3] = 2, 1
        text = render_report_text(ConfusionMatrix(counts=counts, class_names=names))
        header, *rows = text.splitlines()[:len(names) + 2]
        assert header.split() == [*names, "Correct"]
        label_width = len(header) - len(header.lstrip())

        def cell_ends(line):
            return [m.end() for m in re.finditer(r"\S+", line[label_width:])]

        assert [row[:label_width].strip() for row in rows] == [*names, "False positives"]
        assert all(cell_ends(row) == cell_ends(header) for row in rows)

    # the labels take the longest name two spaces apart; a cell takes the
    # widest count two spaces apart (12345) or the longest name one apart
    @pytest.mark.parametrize("names, counts, expected", [
        (["owl", "jay"], [[12345, 3], [0, 7]], """\
                     owl    jay    Correct
owl                12345      3      12345
jay                    .      7          7
False positives        0      3      12352
Overall error rate (%): 0.02
Overall accuracy (%):   99.98
Hypothesis (>= 70% accuracy): PASS"""),
        (["a_long_class_name_owl", "jay"], [[2, 1], [0, 3]], """\
                        a_long_class_name_owl                   jay                   Correct
a_long_class_name_owl                       2                     1                         2
jay                                         .                     3                         3
False positives                             0                     1                         5
Overall error rate (%): 16.67
Overall accuracy (%):   83.33
Hypothesis (>= 70% accuracy): PASS"""),
    ], ids=["wide-count", "long-name"])
    def test_text_report_column_widths(self, names, counts, expected):
        matrix = ConfusionMatrix(counts=np.array(counts), class_names=names)
        assert render_report_text(matrix) == expected

    def test_write_report_files(self, tmp_path):
        matrix = dog_table_matrix()
        write_report(matrix, str(tmp_path / "report"))
        assert (tmp_path / "report.txt").read_bytes() \
            == (render_report_text(matrix) + "\n").encode()
        assert (tmp_path / "report.csv").read_bytes() == (
            b"true_class,Beagle,Chihuahua,ChowChow,Labrador,Pomeranian,Poodle,"
            b"ShihTzu,Husky,Pseudo,total_correct\r\n"
            b"Beagle,2,0,0,0,0,0,0,0,0,2\r\n"
            b"Chihuahua,0,2,0,0,0,0,0,0,0,2\r\n"
            b"ChowChow,0,0,2,0,0,0,0,0,0,2\r\n"
            b"Labrador,0,0,0,2,0,0,0,0,0,2\r\n"
            b"Pomeranian,0,0,0,0,2,0,0,0,0,2\r\n"
            b"Poodle,0,0,0,0,0,2,0,0,0,2\r\n"
            b"ShihTzu,0,0,0,0,0,0,2,0,0,2\r\n"
            b"Husky,0,0,0,0,0,0,0,2,0,2\r\n"
            b"Pseudo,0,0,1,0,0,0,0,0,1,1\r\n"
            b"overall_error_rate,5.555556\r\n"
            b"overall_accuracy,94.444444\r\n"
            b"hypothesis_pass,1\r\n")
