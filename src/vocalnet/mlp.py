"""Sigmoid feed-forward networks trained by per-sample back-propagation.

Topology is written as (j, [k, m], n): j inputs, m hidden layers of k sigmoid
units each, n sigmoid outputs (one per class, one-hot targets, argmax
decoding). Training minimizes mean-square error and stops on the first of:
held-out (test) MSE worsening for a patience window, train MSE stalling over
100 epochs, train MSE dropping below 0.01, or the epoch cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .errors import DimensionMismatch, EmptySet, InvalidSetting, MalformedArtifact
from .features import FEATURE_NAMES

MODEL_FORMAT_VERSION = 1
STD_FLOOR = 1e-8
TRAIN_MSE_TARGET = 0.01
STALL_WINDOW = 100
STALL_THRESHOLD = 1e-6


@dataclass(frozen=True)
class NetworkSpec:
    j: int  # inputs
    k: int  # hidden width
    m: int  # hidden layer count
    n: int  # outputs

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) and v >= 1
                   for v in (self.j, self.k, self.m, self.n)):
            raise InvalidSetting(
                f"invalid topology ({self.j}, [{self.k}, {self.m}], {self.n})")

    def layer_sizes(self) -> list[int]:
        return [self.j] + [self.k] * self.m + [self.n]

    def weight_count(self) -> int:
        sizes = self.layer_sizes()
        return sum((s + 1) * t for s, t in zip(sizes, sizes[1:]))


@dataclass
class Network:
    spec: NetworkSpec
    weights: list[np.ndarray]  # per layer-pair, (source+1, target); bias row first
    input_mean: np.ndarray
    input_std: np.ndarray
    label_map: list[str] = field(default_factory=list)
    feature_slots: list[int] | None = None  # selection result, if any

    def copy(self) -> "Network":
        return Network(spec=self.spec, weights=[w.copy() for w in self.weights],
                       input_mean=self.input_mean.copy(),
                       input_std=self.input_std.copy(),
                       label_map=list(self.label_map),
                       feature_slots=(list(self.feature_slots)
                                      if self.feature_slots is not None else None))


@dataclass
class TrainingConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    max_epochs: int = 10000
    test_patience: int = 20
    train_stall_window: int = STALL_WINDOW
    train_mse_target: float = TRAIN_MSE_TARGET
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidSetting(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise InvalidSetting(f"momentum must be in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise InvalidSetting(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainingState:
    epoch: int
    train_mse: float
    test_mse: float
    stop_reason: str  # TestWorsening | TrainStalled | TargetReached | EpochCap


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Weights uniform in [-0.5, 0.5]; normalization starts as identity."""
    rng = np.random.default_rng(seed)
    sizes = spec.layer_sizes()
    weights = [rng.uniform(-0.5, 0.5, size=(s + 1, t))
               for s, t in zip(sizes, sizes[1:])]
    return Network(spec=spec, weights=weights,
                   input_mean=np.zeros(spec.j), input_std=np.ones(spec.j))


def fit_input_norm(net: Network, inputs: np.ndarray) -> None:
    """Z-scoring statistics from the training inputs; stds floored to stay positive."""
    net.input_mean = inputs.mean(axis=0)
    net.input_std = np.maximum(inputs.std(axis=0), STD_FLOOR)


def _check_input(net: Network, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.spec.j:
        raise DimensionMismatch(f"expected {net.spec.j} inputs, got {x.shape[-1]}")
    return x


def _forward_layers(net: Network, x: np.ndarray) -> list[np.ndarray]:
    """Activations of every layer including the z-scored input."""
    a = (x - net.input_mean) / net.input_std
    activations = [a]
    for w in net.weights:
        a = sigmoid(w[0] + a @ w[1:])
        activations.append(a)
    return activations


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Output activations for one input vector, all in (0, 1)."""
    return _forward_layers(net, _check_input(net, x))[-1]


def classify(net: Network, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Predicted class index (argmax, ties to the lowest index) and activations."""
    activations = forward(net, x)
    return int(np.argmax(activations)), activations


def mse(net: Network, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over samples and outputs of the squared output error."""
    outputs = _forward_layers(net, _check_input(net, inputs))[-1]
    return float(np.mean((outputs - targets) ** 2))


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


def mse_gradients(net: Network, inputs: np.ndarray,
                  targets: np.ndarray) -> list[np.ndarray]:
    """Analytic gradient of the full-batch MSE with respect to every weight."""
    inputs = _check_input(net, inputs)
    total = [np.zeros_like(w) for w in net.weights]
    for x, t in zip(inputs, targets):
        for acc, g in zip(total, _sample_gradients(net, x, t)):
            acc += g
    return [g / len(inputs) for g in total]


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


def one_hot(labels: np.ndarray, n: int) -> np.ndarray:
    targets = np.zeros((len(labels), n))
    targets[np.arange(len(labels)), labels] = 1.0
    return targets


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

        if train_mse < config.train_mse_target:
            stop_reason = "TargetReached"
            break
        if (len(train_history) >= config.train_stall_window + 1
                and train_history[-config.train_stall_window - 1]
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


def save_model(net: Network, path, seed: int | None = None,
               stop_reason: str | None = None,
               extraction: dict | None = None) -> None:
    """Persist a trained network as a versioned JSON document."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": {"j": net.spec.j, "k": net.spec.k,
                 "m": net.spec.m, "n": net.spec.n},
        "feature_slots": net.feature_slots,
        "input_mean": net.input_mean.tolist(),
        "input_std": net.input_std.tolist(),
        "label_map": net.label_map,
        "weights": [w.tolist() for w in net.weights],
        "seed": seed,
        "stop_reason": stop_reason,
        "extraction": extraction or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> tuple[Network, dict]:
    """Load a model JSON; returns (network, full document). Bad JSON, another
    format version, missing keys, or arrays, labels, slots or extraction
    settings that do not fit the spec raise MalformedArtifact."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc["format_version"] != MODEL_FORMAT_VERSION:
            raise ValueError(f"format version {doc['format_version']!r}")
        spec = NetworkSpec(**doc["spec"])
        net = Network(spec=spec,
                      weights=[np.array(w, dtype=np.float64) for w in doc["weights"]],
                      input_mean=np.array(doc["input_mean"], dtype=np.float64),
                      input_std=np.array(doc["input_std"], dtype=np.float64),
                      label_map=[str(name) for name in doc["label_map"]],
                      feature_slots=doc.get("feature_slots"))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise MalformedArtifact(f"{path}: {type(exc).__name__}: {exc}") from exc
    slots, extraction = net.feature_slots, doc.get("extraction") or {}
    misfits = [name for name, fits in {
        # the layer count goes first, as layer_sizes() builds m + 2 entries
        "weights": len(net.weights) == spec.m + 1 and [w.shape for w in net.weights]
        == [(s + 1, t) for s, t in pairwise(spec.layer_sizes())],
        "input statistics": net.input_mean.shape == net.input_std.shape == (spec.j,),
        "label_map": len(net.label_map) in (0, spec.n),
        "feature_slots": slots is None or isinstance(slots, list) and len(slots) == spec.j
        and all(type(i) is int and 0 <= i < len(FEATURE_NAMES) for i in slots),
        "extraction": isinstance(extraction, dict)
        and all(type(v) is int for v in extraction.values()),
    }.items() if not fits]
    if misfits:
        raise MalformedArtifact(f"{path}: {', '.join(misfits)} do not fit "
                                f"({spec.j}, [{spec.k}, {spec.m}], {spec.n})")
    return net, doc
