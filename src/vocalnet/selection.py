"""Stepwise forward feature selection under a minimum-description-length score.

Each round trains one candidate network per unselected slot on the first
fold's train/test sets and accepts the slot with the lowest score, stopping
as soon as no candidate improves the incumbent. The score is a two-part code:
fit cost N*ln(MSE) plus model cost (W/2)*ln(N) for W weights, so bigger
networks must earn their extra inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import FoldPlan, LabeledCorpus, read_csv_rows
from .errors import MalformedArtifact
from .features import FEATURE_NAMES
from .mlp import Network, NetworkSpec, TrainingConfig, init_network, mse, one_hot, train

MDL_MSE_FLOOR = 1e-12


@dataclass(frozen=True)
class SelectionStep:
    round: int
    slot: int
    slot_name: str
    mdl: float
    accepted: bool


@dataclass
class SelectionTrace:
    steps: list[SelectionStep]
    final_subset: list[int]
    final_mdl: float

    def subset_names(self) -> list[str]:
        return [FEATURE_NAMES[i] for i in self.final_subset]


def mdl_score(net: Network, inputs: np.ndarray, targets: np.ndarray) -> float:
    """N*ln(train MSE) + (W/2)*ln(N); lower is better."""
    n = len(inputs)
    w = net.spec.weight_count()
    return float(n * np.log(mse(net, inputs, targets) + MDL_MSE_FLOOR)
                 + (w / 2.0) * np.log(n))


def forward_select(corpus: LabeledCorpus, folds: FoldPlan, hidden_width: int,
                   hidden_layers: int, config: TrainingConfig) -> SelectionTrace:
    """Greedy forward substitution over the 28 slots, trained on fold 1 only.

    Every candidate evaluation is recorded in the trace; ties between equal
    scores go to the lower slot index.
    """
    split = folds.folds[0]
    all_features = corpus.feature_matrix()
    labels = corpus.labels()
    n_out = corpus.n_classes
    n_slots = all_features.shape[1]

    train_x_full = all_features[split.train_ids]
    train_t = one_hot(labels[split.train_ids], n_out)
    test_x_full = all_features[split.test_ids]
    test_t = one_hot(labels[split.test_ids], n_out)

    selected: list[int] = []
    incumbent = np.inf
    steps: list[SelectionStep] = []

    for round_idx in range(n_slots):
        candidates = [s for s in range(n_slots) if s not in selected]
        best_slot = None
        best_mdl = np.inf
        round_scores: dict[int, float] = {}
        for slot in candidates:
            cols = selected + [slot]
            spec = NetworkSpec(j=len(cols), k=hidden_width,
                               m=hidden_layers, n=n_out)
            net = init_network(spec, config.seed)
            trained, _ = train(net, train_x_full[:, cols], train_t,
                               test_x_full[:, cols], test_t, config)
            score = mdl_score(trained, train_x_full[:, cols], train_t)
            round_scores[slot] = score
            if score < best_mdl:  # strict: equal scores keep the lower slot
                best_mdl = score
                best_slot = slot

        accepted = best_mdl < incumbent
        for slot in candidates:
            steps.append(SelectionStep(round=round_idx, slot=slot,
                                       slot_name=FEATURE_NAMES[slot],
                                       mdl=round_scores[slot],
                                       accepted=accepted and slot == best_slot))
        if not accepted:
            break
        selected.append(best_slot)
        incumbent = best_mdl

    return SelectionTrace(steps=steps, final_subset=selected,
                          final_mdl=float(incumbent))


def export_trace(trace: SelectionTrace, path) -> None:
    """Audit CSV: round,slot,slot_name,mdl,accepted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "slot", "slot_name", "mdl", "accepted"])
        for step in trace.steps:
            writer.writerow([step.round, step.slot, step.slot_name,
                             repr(float(step.mdl)), int(step.accepted)])


def write_subset(trace: SelectionTrace, path) -> None:
    """Selected slot indices and names, one per line, for the training command."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "slot_name"])
        for slot in trace.final_subset:
            writer.writerow([slot, FEATURE_NAMES[slot]])


def read_subset(path) -> list[int]:
    """Slot indices from a write_subset file; a slot that is not an integer
    in 0..27, a repeated slot or no slot at all raises MalformedArtifact."""
    rows = read_csv_rows(path)[1:]  # after the header
    try:
        slots = [int(row[0]) for _, row in rows]
    except ValueError as exc:
        raise MalformedArtifact(f"{path}: {exc}") from None
    if not 0 < len(slots) == len(set(slots) & set(range(len(FEATURE_NAMES)))):
        raise MalformedArtifact(f"{path}: {slots} are not distinct slots in 0..27")
    return slots
