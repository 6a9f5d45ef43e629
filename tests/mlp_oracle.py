"""Reference trainer: the per-layer back-propagation that the flat-buffer
kernel in vocalnet.mlp replaced.

Each update z-scores its row, allocates one gradient matrix per layer and
applies momentum layer by layer. `_forward_layers`, `_sample_gradients`,
`train_epoch` and `train` are kept as the oracle that
tests/test_train_equivalence.py requires vocalnet.mlp.train to match bit for
bit. Their logic is unchanged; the stall window (100 epochs) and the train MSE
target (0.01) are the paper's, written here as literals. They score with a
copy of the allocating `mse`, which tests/test_mlp.py checks vocalnet.mlp's
against bit for bit.

`mse_gradients` runs the other way: it drives vocalnet.mlp's own kernel, so
the gradchecks test the gradient that vocalnet.mlp.train applies.
"""

from __future__ import annotations

import numpy as np

from vocalnet.errors import EmptySet
from vocalnet.mlp import (STALL_THRESHOLD, Network, TrainingConfig,
                          TrainingState, _Backprop, _check_input, _layer_views,
                          _outputs, _zscore, fit_input_norm, sigmoid)


# `_zscored_mse` and `mse` as vocalnet.mlp had them before its MSE ran the
# sigmoid in place, so the MSEs that train reports are checked against code
# that does not share them.
def _zscored_mse(net: Network, z: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((_outputs(net, z) - targets) ** 2))


def mse(net: Network, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over samples and outputs of the squared output error."""
    return _zscored_mse(net, _zscore(net, _check_input(net, inputs)), targets)


def _forward_layers(net: Network, x: np.ndarray) -> list[np.ndarray]:
    """Activations of every layer including the z-scored input."""
    a = (x - net.input_mean) / net.input_std
    activations = [a]
    for w in net.weights:
        a = sigmoid(w[0] + a @ w[1:])
        activations.append(a)
    return activations


def _sample_gradients(net: Network, x: np.ndarray,
                      t: np.ndarray) -> list[np.ndarray]:
    """Gradients of the per-sample loss mean_outputs((o - t)^2) by back-propagation."""
    activations = _forward_layers(net, x)
    out = activations[-1]
    delta = (2.0 / net.spec.n) * (out - t) * out * (1.0 - out)
    grads: list[np.ndarray] = [None] * len(net.weights)
    for layer in reversed(range(len(net.weights))):
        prev = activations[layer]
        grad = np.empty_like(net.weights[layer])
        grad[0] = delta
        grad[1:] = np.outer(prev, delta)
        grads[layer] = grad
        if layer > 0:
            delta = (net.weights[layer][1:] @ delta) * prev * (1.0 - prev)
    return grads


def train_epoch(net: Network, inputs: np.ndarray, targets: np.ndarray,
                config: TrainingConfig, rng: np.random.Generator,
                velocity: list[np.ndarray]) -> float:
    """One shuffled pass of per-sample updates with momentum; returns train MSE
    after the pass. Mutates net and velocity in place."""
    inputs = _check_input(net, inputs)
    order = rng.permutation(len(inputs))
    for idx in order:
        grads = _sample_gradients(net, inputs[idx], targets[idx])
        for w, v, g in zip(net.weights, velocity, grads):
            v *= config.momentum
            v -= config.learning_rate * g
            w += v
    return mse(net, inputs, targets)


def train(net: Network, train_inputs: np.ndarray, train_targets: np.ndarray,
          test_inputs: np.ndarray, test_targets: np.ndarray,
          config: TrainingConfig) -> tuple[Network, TrainingState]:
    """Back-propagation training with the three stopping rules plus an epoch cap.

    When stopping on test-set worsening, the snapshot taken at the best test
    MSE is returned instead of the final weights.
    """
    if len(train_inputs) == 0 or len(test_inputs) == 0:
        raise EmptySet("train and test sets must be non-empty")

    net = net.copy()
    fit_input_norm(net, np.asarray(train_inputs, dtype=np.float64))
    rng = np.random.default_rng(config.seed)
    velocity = [np.zeros_like(w) for w in net.weights]

    best_test = np.inf
    best_snapshot = net.copy()
    worsening = 0
    train_history: list[float] = []
    train_mse = mse(net, train_inputs, train_targets)
    test_mse = mse(net, test_inputs, test_targets)

    epoch = 0
    stop_reason = "EpochCap"
    for epoch in range(1, config.max_epochs + 1):
        train_mse = train_epoch(net, train_inputs, train_targets, config,
                                rng, velocity)
        test_mse = mse(net, test_inputs, test_targets)
        train_history.append(train_mse)

        if test_mse < best_test:
            best_test = test_mse
            best_snapshot = net.copy()
            worsening = 0
        else:
            worsening += 1

        if train_mse < 0.01:
            stop_reason = "TargetReached"
            break
        if (len(train_history) >= 100 + 1
                and train_history[-100 - 1]
                - train_mse < STALL_THRESHOLD):
            stop_reason = "TrainStalled"
            break
        if worsening >= config.test_patience:
            stop_reason = "TestWorsening"
            net = best_snapshot
            test_mse = best_test
            train_mse = mse(net, train_inputs, train_targets)
            break

    return net, TrainingState(epoch=epoch, train_mse=train_mse,
                              test_mse=test_mse, stop_reason=stop_reason)


def mse_gradients(net: Network, inputs: np.ndarray,
                  targets: np.ndarray) -> list[np.ndarray]:
    """Analytic gradient of the full-batch MSE with respect to every weight:
    the mean of the per-sample gradients of the kernel that train runs."""
    kernel = _Backprop(net, _check_input(net, inputs), targets)
    total = np.zeros_like(kernel.grad)
    with np.errstate(over="ignore"):
        for idx in range(len(kernel.rows)):
            kernel.backprop(idx)
            total += kernel.grad
    total /= len(kernel.rows)
    return _layer_views(total, [w.shape for w in net.weights])
