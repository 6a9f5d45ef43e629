"""End-to-end glue: train one network per fold and evaluate each on its
held-out eval set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledCorpus, SplitPlan
from .errors import LabelOutOfRange
from .evaluation import ConfusionMatrix, FoldSummary, confusion_matrix, cross_fold_report
from .mlp import (Network, NetworkSpec, TrainingConfig, TrainingState,
                  classify, init_network, input_statistics, one_hot, train)


@dataclass
class FoldResult:
    fold: int
    network: Network
    state: TrainingState
    report: ConfusionMatrix


@dataclass
class TrainingRun:
    results: list[FoldResult]
    summary: FoldSummary
    best: FoldResult  # highest eval accuracy; ties to the earlier fold


def evaluate(net: Network, corpus: LabeledCorpus, rows=None) -> ConfusionMatrix:
    """Score net on the given corpus rows (all by default): the confusion
    matrix over the model's classes, which a model always names. Each row is
    cut to the model's feature slots, and the corpus's classes are matched to
    the model's by name; a class the model lacks raises LabelOutOfRange."""
    model_index = {name: i for i, name in enumerate(net.label_map)}
    unknown = [name for name in corpus.class_names if name not in model_index]
    if unknown:
        raise LabelOutOfRange(f"classes not in the model: {', '.join(unknown)}")
    matrix, labels = corpus.samples, corpus.labels
    if rows is not None:
        matrix, labels = matrix[rows], labels[rows]
    if net.feature_slots is not None:
        matrix = matrix[:, net.feature_slots]
    truths = [model_index[corpus.class_names[label]] for label in labels]
    # one classify call over (N, 1, j) stacks a (1, j) @ (j, k) product per
    # row, the same BLAS call as classify on that row alone; a 2-D (N, j)
    # product takes another path and may round differently. Rows cut to the
    # slots are strided, and classify z-scores each into a contiguous vector,
    # so the stack is made contiguous too.
    predictions = classify(net, np.ascontiguousarray(matrix)[:, None, :])[0][:, 0]
    return confusion_matrix(truths, predictions, net.label_map)


def train_all_folds(corpus: LabeledCorpus, fold_plan: list[SplitPlan],
                    config: TrainingConfig, hidden_width: int | None = None,
                    hidden_layers: int = 1,
                    feature_slots: list[int] | None = None) -> TrainingRun:
    """Train every fold; default hidden width equals the class count. Input
    statistics that overflow in any fold's train rows raise before fold 0."""
    if hidden_width is None:
        hidden_width = corpus.n_classes
    matrix, labels, n = corpus.samples, corpus.labels, corpus.n_classes
    if feature_slots is not None:
        matrix = matrix[:, feature_slots]
    for split in fold_plan:
        input_statistics(matrix[split.train_ids], feature_slots)
    spec = NetworkSpec(j=matrix.shape[1], k=hidden_width, m=hidden_layers, n=n)
    results = []
    for fold, split in enumerate(fold_plan):
        net = init_network(spec, config.seed + fold)
        net.label_map = list(corpus.class_names)
        net.feature_slots = list(feature_slots) if feature_slots is not None else None
        trained, state = train(net,
                               matrix[split.train_ids], one_hot(labels[split.train_ids], n),
                               matrix[split.test_ids], one_hot(labels[split.test_ids], n),
                               config)
        results.append(FoldResult(fold=fold, network=trained, state=state,
                                  report=evaluate(trained, corpus, split.eval_ids)))
    summary = cross_fold_report([r.report for r in results])
    best = max(results, key=lambda r: (r.report.overall_accuracy, -r.fold))
    return TrainingRun(results=results, summary=summary, best=best)
