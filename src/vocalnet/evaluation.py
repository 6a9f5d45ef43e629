"""Confusion matrices, accuracy reports, fold aggregation, and feature summaries.

Accuracy is the percentage of correctly identified samples (matrix trace over
total); a class's false-positive rate uses the whole evaluated total as its
denominator, so a classifier can be 100% accurate on every real class and
still carry a non-zero error rate through pseudo-class false positives.
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
    def n(self) -> int:
        return len(self.class_names)


@dataclass
class ClassReport:
    name: str
    true_positives: int
    false_positives: int
    fp_rate: float  # percent of the whole evaluated total


@dataclass
class EvalReport:
    matrix: ConfusionMatrix
    overall_accuracy: float
    overall_error_rate: float
    per_class: list[ClassReport]
    hypothesis_pass: bool


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


def summarize(matrix: ConfusionMatrix) -> EvalReport:
    """Overall accuracy/error plus per-class true/false positive breakdown."""
    total = matrix.total
    if total == 0:
        raise EmptyMatrix("no evaluated samples")
    correct = int(np.trace(matrix.counts))
    accuracy = 100.0 * correct / total
    per_class = []
    for i, name in enumerate(matrix.class_names):
        tp = int(matrix.counts[i, i])
        fp = int(matrix.counts[:, i].sum() - tp)
        per_class.append(ClassReport(name=name, true_positives=tp,
                                     false_positives=fp,
                                     fp_rate=100.0 * fp / total))
    return EvalReport(matrix=matrix, overall_accuracy=accuracy,
                      overall_error_rate=100.0 - accuracy,
                      per_class=per_class,
                      hypothesis_pass=accuracy >= ACCURACY_THRESHOLD)


def cross_fold_report(reports: list[EvalReport]) -> FoldSummary:
    """Population statistics over fold accuracies plus the cell-wise matrix sum."""
    if not reports:
        raise ValueError("need at least one fold report")
    accuracies = np.array([r.overall_accuracy for r in reports])
    summed = ConfusionMatrix(
        counts=np.sum([r.matrix.counts for r in reports], axis=0),
        class_names=list(reports[0].matrix.class_names))
    return FoldSummary(mean_accuracy=float(accuracies.mean()),
                       std_accuracy=float(accuracies.std()),
                       min_accuracy=float(accuracies.min()),
                       max_accuracy=float(accuracies.max()),
                       summed_matrix=summed)


def _quartiles(values: np.ndarray) -> tuple[float, float, float, float, float]:
    """Five-number summary with median-exclusive quartiles."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = len(v)

    def median(a):
        k = len(a)
        mid = k // 2
        return float(a[mid]) if k % 2 else float((a[mid - 1] + a[mid]) / 2)

    med = median(v)
    if n == 1:
        return float(v[0]), float(v[0]), med, float(v[0]), float(v[0])
    half = n // 2
    lower, upper = v[:half], v[n - half:]
    return float(v[0]), median(lower), med, median(upper), float(v[-1])


def feature_summary(corpus: LabeledCorpus) -> dict[str, dict[str, tuple]]:
    """Per class, the five-number summary of every feature slot.

    Returned as {class_name: {slot_name: (min, q1, median, q3, max)}}; feeds
    the CSV emitter below.
    """
    out: dict[str, dict[str, tuple]] = {}
    for cls, name in enumerate(corpus.class_names):
        rows = corpus.samples[corpus.labels == cls]
        out[name] = {slot_name: _quartiles(rows[:, i])
                     for i, slot_name in enumerate(FEATURE_NAMES)}
    return out


def write_feature_summary(summary: dict[str, dict[str, tuple]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "slot", "min", "q1", "median", "q3", "max"])
        for cls, slots in summary.items():
            for slot, stats in slots.items():
                writer.writerow([cls, slot, *(repr(float(s)) for s in stats)])


def render_report_text(report: EvalReport) -> str:
    """Aligned-text table: rows true class, columns predicted, then a Total
    Correct column and overall error/accuracy footer rows."""
    names = report.matrix.class_names
    counts = report.matrix.counts
    false_positives = [c.false_positives for c in report.per_class]
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
    lines.append(f"Overall error rate (%): {report.overall_error_rate:.2f}")
    lines.append(f"Overall accuracy (%):   {report.overall_accuracy:.2f}")
    lines.append(f"Hypothesis (>= {ACCURACY_THRESHOLD:.0f}% accuracy): "
                 f"{'PASS' if report.hypothesis_pass else 'FAIL'}")
    return "\n".join(lines)


def render_report_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    names = report.matrix.class_names
    writer.writerow(["true_class", *names, "total_correct"])
    for i, name in enumerate(names):
        writer.writerow([name, *report.matrix.counts[i].tolist(),
                         report.matrix.counts[i, i]])
    writer.writerow(["overall_error_rate", f"{report.overall_error_rate:.6f}"])
    writer.writerow(["overall_accuracy", f"{report.overall_accuracy:.6f}"])
    writer.writerow(["hypothesis_pass", int(report.hypothesis_pass)])
    return buf.getvalue()
