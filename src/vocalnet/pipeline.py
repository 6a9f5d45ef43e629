"""End-to-end glue: train one network per fold and evaluate each on its
held-out eval set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledCorpus, SplitPlan
from .errors import LabelOutOfRange
from .evaluation import EvalReport, FoldSummary, confusion_matrix, cross_fold_report, summarize
from .mlp import (Network, NetworkSpec, TrainingConfig, TrainingState,
                  forward, init_network, one_hot, train)
# evaluate no longer calls it, but perfbench's tracer test wraps this binding
from .mlp import classify  # noqa: F401


@dataclass
class FoldResult:
    fold: int
    network: Network
    state: TrainingState
    report: EvalReport


@dataclass
class TrainingRun:
    results: list[FoldResult]
    summary: FoldSummary
    best: FoldResult  # highest eval accuracy; ties to the earlier fold


def train_fold(corpus: LabeledCorpus, fold_plan: list[SplitPlan], fold: int,
               config: TrainingConfig, hidden_width: int, hidden_layers: int,
               feature_slots: list[int] | None = None) -> FoldResult:
    """Train on one fold's train/test split and score it on the eval set."""
    split = fold_plan[fold]
    matrix = corpus.samples
    if feature_slots is not None:
        matrix = matrix[:, feature_slots]
    labels = corpus.labels
    n = corpus.n_classes

    spec = NetworkSpec(j=matrix.shape[1], k=hidden_width, m=hidden_layers, n=n)
    net = init_network(spec, config.seed + fold)
    net.label_map = list(corpus.class_names)
    net.feature_slots = list(feature_slots) if feature_slots is not None else None

    trained, state = train(net,
                           matrix[split.train_ids], one_hot(labels[split.train_ids], n),
                           matrix[split.test_ids], one_hot(labels[split.test_ids], n),
                           config)
    return FoldResult(fold=fold, network=trained, state=state,
                      report=evaluate(trained, corpus, split.eval_ids))


def evaluate(net: Network, corpus: LabeledCorpus, rows=None) -> EvalReport:
    """Score net on the given corpus rows (all by default). Each row is cut
    to the model's feature slots, and the corpus's classes are matched to the
    model's by name; a class the model lacks raises LabelOutOfRange."""
    model_index = {name: i for i, name in
                   enumerate(net.label_map or corpus.class_names)}
    unknown = [name for name in corpus.class_names if name not in model_index]
    if unknown:
        raise LabelOutOfRange(f"classes not in the model: {', '.join(unknown)}")
    matrix, labels = corpus.samples, corpus.labels
    if rows is not None:
        matrix, labels = matrix[rows], labels[rows]
    if net.feature_slots is not None:
        matrix = matrix[:, net.feature_slots]
    truths = [model_index[corpus.class_names[label]] for label in labels]
    # one forward pass over (N, 1, j) stacks a (1, j) @ (j, k) product per
    # row, the same BLAS call as classify on that row alone; a 2-D (N, j)
    # product takes another path and may round differently. Rows cut to the
    # slots are strided, and classify z-scores each into a contiguous vector,
    # so the stack is made contiguous too. argmax takes the first of tied
    # outputs, as classify does.
    stack = np.ascontiguousarray(matrix)[:, None, :]
    predictions = np.argmax(forward(net, stack)[:, 0], axis=1)
    cm = confusion_matrix(truths, predictions, net.spec.n, net.label_map or None)
    return summarize(cm)


def train_all_folds(corpus: LabeledCorpus, fold_plan: list[SplitPlan],
                    config: TrainingConfig, hidden_width: int | None = None,
                    hidden_layers: int = 1,
                    feature_slots: list[int] | None = None) -> TrainingRun:
    """Train every fold; default hidden width equals the class count."""
    if hidden_width is None:
        hidden_width = corpus.n_classes
    results = [train_fold(corpus, fold_plan, f, config, hidden_width,
                          hidden_layers, feature_slots)
               for f in range(len(fold_plan))]
    summary = cross_fold_report([r.report for r in results])
    best = max(results, key=lambda r: (r.report.overall_accuracy, -r.fold))
    return TrainingRun(results=results, summary=summary, best=best)
