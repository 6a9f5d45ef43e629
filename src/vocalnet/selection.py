"""Stepwise forward feature selection under a minimum-description-length score.

Each round trains one candidate network per unselected slot on the first
fold's train/test sets and accepts the slot with the lowest score, stopping
as soon as no candidate improves the incumbent. The score is a two-part code:
fit cost N*ln(MSE) plus model cost (W/2)*ln(N) for W weights, so bigger
networks must earn their extra inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledCorpus, SplitPlan, read_csv_rows, write_csv_rows
from .errors import MalformedArtifact
from .features import FEATURE_NAMES
from .mlp import (Network, NetworkSpec, TrainingConfig, init_network, input_statistics,
                  mse, one_hot, train)

MDL_MSE_FLOOR = 1e-12


@dataclass(frozen=True)
class SelectionStep:
    round: int
    slot: int
    mdl: float
    accepted: bool
    epoch: int  # the candidate's TrainingState: how long it trained
    stop_reason: str  # and which stopping rule ended its training


@dataclass
class SelectionTrace:
    steps: list[SelectionStep]
    final_subset: list[int]

    def subset_names(self) -> list[str]:
        return [FEATURE_NAMES[i] for i in self.final_subset]


def mdl_score(net: Network, inputs: np.ndarray, targets: np.ndarray) -> float:
    """N*ln(train MSE) + (W/2)*ln(N); lower is better."""
    n = len(inputs)
    w = net.spec.weight_count()
    return float(n * np.log(mse(net, inputs, targets) + MDL_MSE_FLOOR)
                 + (w / 2.0) * np.log(n))


def forward_select(corpus: LabeledCorpus, folds: list[SplitPlan], hidden_width: int,
                   hidden_layers: int, config: TrainingConfig) -> SelectionTrace:
    """Greedy forward substitution over the 28 slots, trained on fold 1 only.

    Every candidate is recorded in the trace with its score and how its
    training stopped. A round's best is its first lowest score, so equal
    scores go to the lower slot and a NaN score never wins; it is accepted
    only strictly below the incumbent, the last accepted score.
    """
    split = folds[0]
    all_features = corpus.samples
    labels = corpus.labels
    n_out = corpus.n_classes
    n_slots = all_features.shape[1]

    train_x_full = all_features[split.train_ids]
    train_t = one_hot(labels[split.train_ids], n_out)
    test_x_full = all_features[split.test_ids]
    test_t = one_hot(labels[split.test_ids], n_out)
    # train rejects a slot whose statistics overflow; round 0 trains each slot
    # alone, so check each on its round-0 candidate's rows before any training
    for slot in range(n_slots):
        input_statistics(train_x_full[:, [slot]], [slot])

    selected: list[int] = []
    incumbent = np.inf
    steps: list[SelectionStep] = []

    for round_idx in range(n_slots):
        candidates = [s for s in range(n_slots) if s not in selected]
        scores, states = [], []
        # every candidate of a round has the same spec and seed, so one
        # network serves them all: train leaves its argument unchanged
        net = init_network(NetworkSpec(j=len(selected) + 1, k=hidden_width,
                                       m=hidden_layers, n=n_out), config.seed)
        for slot in candidates:
            cols = selected + [slot]
            net.feature_slots = cols
            train_x = train_x_full[:, cols]
            trained, state = train(net, train_x, train_t,
                                   test_x_full[:, cols], test_t, config)
            scores.append(mdl_score(trained, train_x, train_t))
            states.append(state)
        # NaN read as inf, so a round of NaNs accepts nothing
        best = int(np.argmin(np.where(np.isnan(scores), np.inf, scores)))
        accepted = scores[best] < incumbent
        steps += [SelectionStep(round_idx, slot, score, accepted and i == best,
                                state.epoch, state.stop_reason)
                  for i, (slot, score, state) in enumerate(zip(candidates, scores, states))]
        if not accepted:
            break
        selected.append(candidates[best])
        incumbent = scores[best]

    return SelectionTrace(steps=steps, final_subset=selected)


def export_trace(trace: SelectionTrace, path) -> None:
    """Audit CSV, one row per candidate in the order tried:
    round,slot,slot_name,mdl,accepted,epoch,stop_reason. epoch is the number
    of epochs the candidate's training ran, and stop_reason the rule that
    ended it: TestWorsening (the weights scored are then the best-test
    snapshot of an earlier epoch), TrainStalled, TargetReached or EpochCap,
    as mlp.train reports them in its TrainingState."""
    write_csv_rows(path, ["round", "slot", "slot_name", "mdl", "accepted", "epoch",
                          "stop_reason"],
                   ([step.round, step.slot, FEATURE_NAMES[step.slot], repr(float(step.mdl)),
                     int(step.accepted), step.epoch, step.stop_reason]
                    for step in trace.steps))


def write_subset(trace: SelectionTrace, path) -> None:
    """Selected slot indices and names, one per line, for the training command."""
    write_csv_rows(path, ["slot", "slot_name"],
                   ([slot, FEATURE_NAMES[slot]] for slot in trace.final_subset))


def read_subset(path) -> list[int]:
    """Slot indices from a write_subset file: the header `slot,slot_name`,
    then one `slot,FEATURE_NAMES[slot]` row per slot. Any other header or
    row, a repeated slot or no slot at all raises MalformedArtifact."""
    rows = read_csv_rows(path)
    if not rows or rows[0][1] != ["slot", "slot_name"]:
        raise MalformedArtifact(f"{path}: the header is not slot,slot_name")
    named = [[str(slot), name] for slot, name in enumerate(FEATURE_NAMES)]
    slots = []
    for number, row in rows[1:]:
        if row not in named:
            raise MalformedArtifact(f"{path}: row {number} is not a slot in 0..27 "
                                    f"and its name: {','.join(row)}")
        slots.append(named.index(row))
    if not 0 < len(slots) == len(set(slots)):
        raise MalformedArtifact(f"{path}: {slots} are not distinct slots")
    return slots
