"""Confusion matrices, accuracy reports, fold aggregation, and feature summaries.

A report is the confusion matrix itself: accuracy is the percentage of
correctly identified samples (matrix trace over total), and a class's false
positives are its column's off-diagonal counts, so a classifier can be 100%
accurate on every real class and still carry a non-zero error rate through
pseudo-class false positives.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledCorpus
from .errors import EmptyMatrix, LabelOutOfRange
from .features import FEATURE_NAMES

ACCURACY_THRESHOLD = 70.0  # the hypothesis gate, percent


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # rows = true class, columns = predicted
    class_names: list[str]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def overall_accuracy(self) -> float:
        total = self.total
        if total == 0:
            raise EmptyMatrix("no evaluated samples")
        return 100.0 * int(np.trace(self.counts)) / total

    @property
    def overall_error_rate(self) -> float:
        return 100.0 - self.overall_accuracy

    @property
    def hypothesis_pass(self) -> bool:
        return self.overall_accuracy >= ACCURACY_THRESHOLD

    @property
    def false_positives(self) -> list[int]:
        """Per predicted class, its column's count off the diagonal."""
        return (self.counts.sum(axis=0) - np.diag(self.counts)).tolist()


@dataclass
class FoldSummary:
    mean_accuracy: float
    std_accuracy: float
    min_accuracy: float
    max_accuracy: float
    summed_matrix: ConfusionMatrix


def confusion_matrix(truths, predictions, n: int,
                     class_names: list[str] | None = None) -> ConfusionMatrix:
    """Count matrix over (true, predicted) label pairs."""
    truths = np.asarray(truths, dtype=int)
    predictions = np.asarray(predictions, dtype=int)
    if len(truths) != len(predictions):
        raise ValueError("truths and predictions differ in length")
    if len(truths) and (truths.min() < 0 or truths.max() >= n
                        or predictions.min() < 0 or predictions.max() >= n):
        raise LabelOutOfRange(f"labels must lie in [0, {n})")
    counts = np.zeros((n, n), dtype=int)
    np.add.at(counts, (truths, predictions), 1)
    if class_names is None:
        class_names = [f"class_{i}" for i in range(n)]
    return ConfusionMatrix(counts=counts, class_names=list(class_names))


def summarize(matrix: ConfusionMatrix) -> ConfusionMatrix:
    """The matrix itself, once it holds an evaluated sample; its properties
    give the overall accuracy, error rate, hypothesis verdict and per-class
    false positives."""
    if matrix.total == 0:
        raise EmptyMatrix("no evaluated samples")
    return matrix


def cross_fold_report(reports: list[ConfusionMatrix]) -> FoldSummary:
    """Population statistics over fold accuracies plus the cell-wise matrix sum."""
    if not reports:
        raise ValueError("need at least one fold report")
    accuracies = np.array([r.overall_accuracy for r in reports])
    summed = ConfusionMatrix(counts=np.sum([r.counts for r in reports], axis=0),
                             class_names=list(reports[0].class_names))
    return FoldSummary(mean_accuracy=float(accuracies.mean()),
                       std_accuracy=float(accuracies.std()),
                       min_accuracy=float(accuracies.min()),
                       max_accuracy=float(accuracies.max()),
                       summed_matrix=summed)


def _quartiles(rows: np.ndarray) -> np.ndarray:
    """Five-number summary of each column, with median-exclusive quartiles:
    (5, columns) rows of min, q1, median, q3 and max."""
    v = np.sort(rows, axis=0, kind="stable")  # -0.0 and 0.0 keep their order on every CPU
    n = len(v)

    def median(a):
        mid = len(a) // 2
        if len(a) % 2:
            return a[mid]
        low, high = a[mid - 1], a[mid]
        with np.errstate(over="ignore"):
            middle = (low + high) / 2
        # two finite values whose sum passes the largest float: halved first,
        # there alone, so every other median keeps the bits of (a + b) / 2
        over = np.isinf(middle) & np.isfinite(low) & np.isfinite(high)
        middle[over] = low[over] / 2 + high[over] / 2
        return middle

    half = n // 2 or 1  # one value is its own lower and upper half
    return np.array([v[0], median(v[:half]), median(v), median(v[n - half:]), v[-1]])


def feature_summary(corpus: LabeledCorpus) -> np.ndarray:
    """Per class, the five-number summary of every feature slot: a (classes,
    28, 5) array of (min, q1, median, q3, max), classes in corpus order; feeds
    the CSV emitter below."""
    return np.stack([_quartiles(corpus.samples[corpus.labels == cls]).T
                     for cls in range(corpus.n_classes)])


def write_feature_summary(summary: np.ndarray, class_names: list[str], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "slot", "min", "q1", "median", "q3", "max"])
        for cls, slots in zip(class_names, summary):
            for slot, stats in zip(FEATURE_NAMES, slots):
                writer.writerow([cls, slot, *(repr(float(s)) for s in stats)])


def render_report_text(matrix: ConfusionMatrix) -> str:
    """Aligned-text table: rows true class, columns predicted, then a Total
    Correct column and overall error/accuracy footer rows."""
    names = matrix.class_names
    counts = matrix.counts
    false_positives = matrix.false_positives
    label_width = max(len(n) for n in [*names, "False positives"]) + 2
    # wide enough for every count and every whole class name, a space apart
    cell = max(6, max(len(str(int(c))) for c in [*counts.flat, *false_positives]) + 2,
               max(len(n) for n in names) + 1)

    lines = []
    header = " " * label_width + "".join(f"{n:>{cell}}" for n in names)
    header += f"{'Correct':>{cell + 4}}"
    lines.append(header)
    for i, name in enumerate(names):
        row = f"{name:<{label_width}}"
        row += "".join(f"{counts[i, j] if counts[i, j] else '.':>{cell}}"
                       for j in range(len(names)))
        row += f"{counts[i, i]:>{cell + 4}}"
        lines.append(row)
    fp_row = f"{'False positives':<{label_width}}"
    fp_row += "".join(f"{fp:>{cell}}" for fp in false_positives)
    fp_row += f"{int(np.trace(counts)):>{cell + 4}}"
    lines.append(fp_row)
    lines.append(f"Overall error rate (%): {matrix.overall_error_rate:.2f}")
    lines.append(f"Overall accuracy (%):   {matrix.overall_accuracy:.2f}")
    lines.append(f"Hypothesis (>= {ACCURACY_THRESHOLD:.0f}% accuracy): "
                 f"{'PASS' if matrix.hypothesis_pass else 'FAIL'}")
    return "\n".join(lines)


def render_report_csv(matrix: ConfusionMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    names = matrix.class_names
    writer.writerow(["true_class", *names, "total_correct"])
    for i, name in enumerate(names):
        writer.writerow([name, *matrix.counts[i].tolist(), matrix.counts[i, i]])
    writer.writerow(["overall_error_rate", f"{matrix.overall_error_rate:.6f}"])
    writer.writerow(["overall_accuracy", f"{matrix.overall_accuracy:.6f}"])
    writer.writerow(["hypothesis_pass", int(matrix.hypothesis_pass)])
    return buf.getvalue()
