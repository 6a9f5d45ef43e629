"""Reference forward selection: a plain loop over rounds and candidates.

It trains every candidate with tests/mlp_oracle.py's trainer, on a network
built afresh for that candidate, and scores it with the MDL formula that
vocalnet.selection documents: N*ln(train MSE + 1e-12) + (W/2)*ln(N) for the
N training rows and W weights. A round's best candidate is its first lowest
score, so equal scores go to the lower slot; it is accepted only if it
scores strictly below the incumbent, the last accepted score (infinite
before round 0), and the first round that accepts nothing ends selection.
tests/test_selection.py requires vocalnet.selection.forward_select to give
the same trace, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

import mlp_oracle
from vocalnet.mlp import NetworkSpec, init_network

MSE_FLOOR = 1e-12


def mdl(net, inputs: np.ndarray, targets: np.ndarray) -> float:
    n = len(inputs)
    weights = sum(w.size for w in net.weights)
    return float(n * np.log(mlp_oracle.mse(net, inputs, targets) + MSE_FLOOR)
                 + (weights / 2.0) * np.log(n))


def forward_select(corpus, folds, hidden_width, hidden_layers, config,
                   coarsen=None) -> tuple[list[tuple[int, int, float, bool]], list[int]]:
    """(round, slot, mdl, accepted) per candidate, in the order tried, and
    the selected slots. `coarsen`, if given, maps each score before it is
    compared or recorded."""
    split = folds[0]
    targets = np.eye(corpus.n_classes)[corpus.labels]
    train_x, test_x = corpus.samples[split.train_ids], corpus.samples[split.test_ids]
    train_t, test_t = targets[split.train_ids], targets[split.test_ids]
    n_slots = corpus.samples.shape[1]

    steps, selected, incumbent = [], [], math.inf
    for round_idx in range(n_slots):
        scores = []
        for slot in range(n_slots):
            if slot in selected:
                continue
            cols = selected + [slot]
            net = init_network(NetworkSpec(j=len(cols), k=hidden_width,
                                           m=hidden_layers, n=corpus.n_classes),
                               config.seed)
            net.feature_slots = cols
            trained, _ = mlp_oracle.train(net, train_x[:, cols], train_t,
                                          test_x[:, cols], test_t, config)
            score = mdl(trained, train_x[:, cols], train_t)
            scores.append((slot, coarsen(score) if coarsen else score))
        best_slot, best = min(scores, key=lambda pair: pair[1])  # first lowest
        accepted = best < incumbent
        steps += [(round_idx, slot, score, accepted and slot == best_slot)
                  for slot, score in scores]
        if not accepted:
            break
        selected.append(best_slot)
        incumbent = best
    return steps, selected
