"""End-to-end glue: train one network per fold and evaluate each on its
held-out eval set."""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import FoldPlan, LabeledCorpus
from .evaluation import EvalReport, FoldSummary, confusion_matrix, cross_fold_report, summarize
from .mlp import (Network, NetworkSpec, TrainingConfig, TrainingState,
                  classify, init_network, one_hot, train)


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


def train_fold(corpus: LabeledCorpus, fold_plan: FoldPlan, fold: int,
               config: TrainingConfig, hidden_width: int, hidden_layers: int,
               feature_slots: list[int] | None = None) -> FoldResult:
    """Train on one fold's train/test split and score it on the eval set."""
    split = fold_plan.folds[fold]
    matrix = corpus.feature_matrix()
    if feature_slots is not None:
        matrix = matrix[:, feature_slots]
    labels = corpus.labels()
    n = corpus.n_classes

    spec = NetworkSpec(j=matrix.shape[1], k=hidden_width, m=hidden_layers, n=n)
    net = init_network(spec, config.seed + fold)
    net.label_map = list(corpus.class_names)
    net.feature_slots = list(feature_slots) if feature_slots is not None else None

    trained, state = train(net,
                           matrix[split.train_ids], one_hot(labels[split.train_ids], n),
                           matrix[split.test_ids], one_hot(labels[split.test_ids], n),
                           config)

    predictions = [classify(trained, matrix[i])[0] for i in split.eval_ids]
    cm = confusion_matrix(labels[split.eval_ids], predictions, n,
                          corpus.class_names)
    return FoldResult(fold=fold, network=trained, state=state,
                      report=summarize(cm))


def train_all_folds(corpus: LabeledCorpus, fold_plan: FoldPlan,
                    config: TrainingConfig, hidden_width: int | None = None,
                    hidden_layers: int = 1,
                    feature_slots: list[int] | None = None) -> TrainingRun:
    """Train every fold; default hidden width equals the class count."""
    if hidden_width is None:
        hidden_width = corpus.n_classes
    results = [train_fold(corpus, fold_plan, f, config, hidden_width,
                          hidden_layers, feature_slots)
               for f in range(len(fold_plan.folds))]
    summary = cross_fold_report([r.report for r in results])
    best = max(results, key=lambda r: (r.report.overall_accuracy, -r.fold))
    return TrainingRun(results=results, summary=summary, best=best)
