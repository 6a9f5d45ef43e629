"""Sigmoid feed-forward networks trained by per-sample back-propagation.

Topology is written as (j, [k, m], n): j inputs, m hidden layers of k sigmoid
units each, n sigmoid outputs (one per class, one-hot targets, argmax
decoding). Training minimizes mean-square error and stops on the first of:
held-out (test) MSE worsening for a patience window, train MSE stalling over
100 epochs, train MSE dropping below 0.01, or the epoch cap.

Each layer's weights are a (source + 1, target) matrix, bias row first. While
training, all of them lie in layer order and row-major in one flat `theta`
array, each starting at an even index; the network's weight matrices are
views into it, and the momentum `velocity` and the per-sample `grad` have the
same layout. One momentum step is thus four in-place operations over whole
buffers. Every numpy call of a per-sample update is bound to its buffers once
per training, the BLAS products as bound `ndarray.dot` methods, which skip
`np.dot`'s `__array_function__` dispatcher, and the sigmoid's negation is
folded into the signs the kernel stores (see `_Backprop`). So an update is
one loop over one list of calls; it allocates no array and makes no call but
its float operations. `train` holds one `np.errstate` for the whole training.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import pairwise

import numpy as np

from .audio_io import DEFAULT_HOP, DEFAULT_RATE, DEFAULT_WINDOW
from .dataset import open_artifact
from .errors import DimensionMismatch, EmptySet, InvalidSetting, MalformedArtifact
from .features import FEATURE_NAMES

MODEL_FORMAT_VERSION = 1
# the one setting every feature vector is extracted at, recorded in each model
EXTRACTION = {"window": DEFAULT_WINDOW, "hop": DEFAULT_HOP, "rate": DEFAULT_RATE}
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
        # bool is an int subclass, and a JSON `true` would pass as 1
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   and v >= 1 for v in (self.j, self.k, self.m, self.n)):
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


@dataclass
class TrainingConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    max_epochs: int = 10000
    test_patience: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < float("inf"):
            raise InvalidSetting(f"learning_rate must be positive and finite, "
                                 f"got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise InvalidSetting(f"momentum must be in [0, 1), got {self.momentum}")
        if self.max_epochs < 0:
            raise InvalidSetting(f"max_epochs must be non-negative, got {self.max_epochs}")
        if self.test_patience < 1:
            raise InvalidSetting(f"test_patience must be positive, got {self.test_patience}")
        if self.seed < 0:
            raise InvalidSetting(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainingState:
    epoch: int
    train_mse: float
    test_mse: float
    stop_reason: str  # TestWorsening | TrainStalled | TargetReached | EpochCap


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function. exp(-x) overflows to inf for x below about -709,
    and 1 / (1 + inf) is then the exact limit 0.0, so the warning is muted."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def init_network(spec: NetworkSpec, seed: int) -> Network:
    """Weights uniform in [-0.5, 0.5]; normalization starts as identity."""
    rng = np.random.default_rng(seed)
    sizes = spec.layer_sizes()
    weights = [rng.uniform(-0.5, 0.5, size=(s + 1, t))
               for s, t in zip(sizes, sizes[1:])]
    return Network(spec=spec, weights=weights,
                   input_mean=np.zeros(spec.j), input_std=np.ones(spec.j))


def input_statistics(inputs: np.ndarray, slots: list[int] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Z-scoring statistics of the training inputs: each column's mean and
    its std floored to stay positive. Finite inputs can still overflow them
    (a column holding 1e308 and -1e308 has an infinite std); that raises
    MalformedArtifact naming the columns by their feature slots (column
    indices by default), as no model with such statistics loads."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = inputs.mean(axis=0), inputs.std(axis=0)
    overflowed = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if overflowed.size:
        slots = slots or range(inputs.shape[1])
        raise MalformedArtifact(f"feature slots {[slots[i] for i in overflowed]} of "
                                f"the training inputs have a mean or std that is not finite")
    return mean, np.maximum(std, STD_FLOOR)


def _check_input(net: Network, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != net.spec.j:
        raise DimensionMismatch(f"expected {net.spec.j} inputs, got {x.shape[-1]}")
    return x


def _zscore(net: Network, x: np.ndarray) -> np.ndarray:
    return (x - net.input_mean) / net.input_std


def _outputs(net: Network, a: np.ndarray) -> np.ndarray:
    """Output activations for z-scored inputs a: per layer, the bits of
    sigmoid(w[0] + a @ w[1:]), its steps run in place on the layer's fresh
    product. exp may overflow (see sigmoid); the caller holds the errstate
    that mutes it."""
    for w in net.weights:
        a = a @ w[1:]
        a += w[0]
        np.negative(a, a)
        np.exp(a, a)
        a += 1.0
        np.divide(1.0, a, a)
    return a


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Output activations for one input vector, all in (0, 1). A stack of
    vectors, each alone on its second-to-last axis as (N, 1, j), gets each
    vector's own activations bit for bit."""
    with np.errstate(over="ignore"):  # see sigmoid
        return _outputs(net, _zscore(net, _check_input(net, x)))


def classify(net: Network, x: np.ndarray) -> tuple[np.intp | np.ndarray, np.ndarray]:
    """Predicted class index (argmax, ties to the lowest index) and activations
    of one vector, or (N, 1) indices for an (N, 1, j) stack as `forward` takes."""
    activations = forward(net, x)
    return np.argmax(activations, axis=-1), activations


def _zscored_mse(net: Network, z: np.ndarray, targets: np.ndarray) -> float:
    """`_outputs`, then np.mean's own steps in place: the bits of
    float(np.mean((_outputs(net, z) - targets) ** 2)). exp may overflow (see
    sigmoid); the caller holds the errstate that mutes it, `train` one for
    the whole training and `mse` its own."""
    a = _outputs(net, z)
    a -= targets
    np.square(a, a)
    return float(np.add.reduce(a, axis=None) / a.size)


def mse(net: Network, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over samples and outputs of the squared output error."""
    with np.errstate(over="ignore"):  # see sigmoid
        return _zscored_mse(net, _zscore(net, _check_input(net, inputs)), targets)


class _Backprop:
    """Per-sample back-propagation over one flat parameter buffer.

    Built once per training run from a network and its z-scored inputs; every
    buffer an update touches is allocated here, and every numpy call of an
    update is bound to its buffers here as (function, args), so a step allocates
    nothing and looks nothing up. `rows` holds, per sample, the whole update
    as one list of calls: the three that read the sample (layer 0's dot, the
    target subtraction and layer 0's outer product) in their places among
    the forward and backward calls every sample shares, then the four
    momentum operations, whose 0-d operands `learning_rate` and `momentum`
    the caller fills. The lists share the (function, args) tuples; they do
    not copy them. Each BLAS product is bound as (left.dot, (right, out)):
    ndarray.dot runs the C routine np.dot runs, without np.dot's Python-level
    `__array_function__` dispatcher, so it has np.dot's bits at about half
    the cost of a call on these small operands.

    Each step applies the float operations of the per-layer textbook update
    in the same order, with one change of sign: every activation vector,
    its leading bias 1 included, and every delta is stored negated, so the
    sigmoid's negation 1 / (1 + exp(-(a.W + b))) needs no call of its own.
    Layer 0 reads the negated z-scored rows; each layer computes
    dot(-a, W) - b = -(a.W + b), exponentiates it and stores
    -1 / (1 + exp(...)); the output delta is (-t - (-o)) * scale * (-o) *
    (1 + (-o)), and each hidden delta (W.-d) * (-h) * (-1 - (-h)). Each
    gradient is the outer product of two negated vectors, so it carries the
    textbook sign; it is taken as a (s + 1, 1) @ (1, t) BLAS product, whose
    entries are single correctly rounded products as np.outer's are, at
    about half the cost of a broadcast multiply.

    Negating an operand negates a correctly rounded result exactly, as
    round-to-nearest is symmetric about zero, so every nonzero value is the
    textbook value or its exact negation. Only a zero can differ, in sign: a
    sum that cancels exactly is +0 whatever the signs of its terms, and BLAS
    may add a product of -0 to +0. In the forward pass such a zero reaches
    only exp, and exp(-0) = exp(+0) = 1. In the backward pass it can flip
    the sign of a zero gradient entry and, through `velocity -= grad`, of a
    zero velocity entry. Adding a zero of either sign leaves theta as it is
    unless theta is -0 (-0 + +0 = +0). The first step's velocity,
    +0 - lr * grad as velocity starts at +0, has the textbook bits and no
    -0, and x + v is -0 only where x is -0; so from then on theta holds no
    -0. Thus theta, and every MSE, keeps the textbook bits, and `grad`
    equals the textbook gradient in value.
    """

    def __init__(self, net: Network, inputs: np.ndarray, targets: np.ndarray):
        shapes = [w.shape for w in net.weights]
        self.theta = np.zeros(sum(r * c + 1 for r, c in shapes))  # room to align
        self.velocity = np.zeros_like(self.theta)
        self.grad = np.zeros_like(self.theta)
        self.weights = _layer_views(self.theta, shapes)
        for view, w in zip(self.weights, net.weights):
            view[...] = w
        grads = _layer_views(self.grad, shapes)
        self.z = _zscore(net, inputs)  # for the batch MSE after each epoch
        # each activation vector, negated, starts with a -1, so one outer
        # product with a layer's negated delta fills its gradient's bias row
        # (-1.0 * -d == d) and body
        rows = np.full((len(inputs), net.spec.j + 1), -1.0)
        np.negative(self.z, rows[:, 1:])
        outs = [np.full(t + 1, -1.0) for _, t in shapes]
        deltas = [np.empty(t) for _, t in shapes]
        scratch = [np.empty(t) for _, t in shapes]  # for +-(1 - activation)
        # 0-d arrays: numpy converts a Python float operand on every call
        one, minus_one = np.array(1.0), np.array(-1.0)
        self.learning_rate, self.momentum = np.zeros(()), np.zeros(())
        out, d = outs[-1][1:], deltas[-1]
        negated_targets = -np.asarray(targets, dtype=np.float64)
        forward = []
        for i, (w, a) in enumerate(zip(self.weights, outs)):
            a = a[1:]
            if i:
                forward.append((outs[i - 1][1:].dot, (w[1:], a)))
            forward += [(np.subtract, (a, w[0], a)), (np.exp, (a, a)),
                        (np.add, (a, one, a)), (np.divide, (minus_one, a, a))]
        # the output delta's factors past the target subtraction; then, for
        # each layer above the first, last first, its gradient and the delta
        # it carries to the layer below
        backward = [(np.multiply, (d, np.array(2.0 / net.spec.n), d)),
                    (np.multiply, (d, out, d)),
                    (np.add, (one, out, scratch[-1])),
                    (np.multiply, (d, scratch[-1], d))]
        for i in range(len(shapes) - 1, 0, -1):
            below, h, s = deltas[i - 1], outs[i - 1][1:], scratch[i - 1]
            backward += [(outs[i - 1][:, None].dot, (deltas[i][None], grads[i])),
                         (self.weights[i][1:].dot, (deltas[i], below)),
                         (np.multiply, (below, h, below)),
                         (np.subtract, (minus_one, h, s)),
                         (np.multiply, (below, s, below))]
        v, g, theta = self.velocity, self.grad, self.theta
        self.momentum_step = [(np.multiply, (v, self.momentum, v)),
                              (np.multiply, (g, self.learning_rate, g)),
                              (np.subtract, (v, g, v)), (np.add, (theta, v, theta))]
        self.rows = [[(row[1:].dot, (self.weights[0][1:], outs[0][1:])), *forward,
                      (np.subtract, (target, out, d)), *backward,
                      (row[:, None].dot, (deltas[0][None], grads[0])),
                      *self.momentum_step]
                     for row, target in zip(rows, negated_targets)]


def _layer_views(flat: np.ndarray, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Views of flat as matrices of the given shapes, in order. Each starts at
    an even index, so on a 16-byte boundary as a matrix of its own would be:
    OpenBLAS's Prescott dgemv rounds x @ W differently where W is not."""
    views, start = [], 0
    for r, c in shapes:
        start += start % 2
        views.append(flat[start:start + r * c].reshape(r, c))
        start += r * c
    return views


def train_epoch(net: Network, inputs: np.ndarray, targets: np.ndarray,
                config: TrainingConfig, rng: np.random.Generator,
                kernel: _Backprop) -> float:
    """One shuffled pass of per-sample updates with momentum; returns train MSE
    after the pass. kernel holds these inputs z-scored and the buffers net's
    weights view; the pass updates them in place. exp may overflow (see
    sigmoid); the caller holds the errstate that mutes it, as `train` does."""
    kernel.learning_rate[()], kernel.momentum[()] = config.learning_rate, config.momentum
    rows = kernel.rows
    for idx in rng.permutation(len(inputs)).tolist():
        for call, args in rows[idx]:
            call(*args)
    return _zscored_mse(net, kernel.z, targets)


def one_hot(labels: np.ndarray, n: int) -> np.ndarray:
    targets = np.zeros((len(labels), n))
    targets[np.arange(len(labels)), labels] = 1.0
    return targets


def train(net: Network, train_inputs: np.ndarray, train_targets: np.ndarray,
          test_inputs: np.ndarray, test_targets: np.ndarray,
          config: TrainingConfig) -> tuple[Network, TrainingState]:
    """Back-propagation training with the three stopping rules plus an epoch cap.

    When stopping on test-set worsening, the snapshot taken at the best test
    MSE is returned instead of the final weights. The result is a new
    Network with its own weights and input statistics; it shares net's
    label_map and feature_slots, and net itself is left as it was. One
    errstate, held around the whole training, mutes exp's overflow (see
    sigmoid) in every update and every MSE.
    """
    if len(train_inputs) == 0 or len(test_inputs) == 0:
        raise EmptySet("train and test sets must be non-empty")

    inputs = _check_input(net, train_inputs)
    mean, std = input_statistics(inputs, net.feature_slots)
    net = replace(net, input_mean=mean, input_std=std)
    rng = np.random.default_rng(config.seed)
    kernel = _Backprop(net, inputs, train_targets)
    net.weights = kernel.weights  # training updates kernel.theta in place

    best_test = np.inf
    best_theta = kernel.theta.copy()
    worsening = 0
    train_history: list[float] = []
    # every exp of the training (see sigmoid), and a test row far outside
    # the train statistics, whose z-score overflows
    with np.errstate(over="ignore"):
        test_z = _zscore(net, _check_input(net, test_inputs))
        train_mse = _zscored_mse(net, kernel.z, train_targets)
        test_mse = _zscored_mse(net, test_z, test_targets)

        epoch = 0
        stop_reason = "EpochCap"
        for epoch in range(1, config.max_epochs + 1):
            train_mse = train_epoch(net, train_inputs, train_targets, config,
                                    rng, kernel)
            test_mse = _zscored_mse(net, test_z, test_targets)
            train_history.append(train_mse)

            if test_mse < best_test:
                best_test = test_mse
                np.copyto(best_theta, kernel.theta)
                worsening = 0
            else:
                worsening += 1

            if train_mse < TRAIN_MSE_TARGET:
                stop_reason = "TargetReached"
                break
            if (len(train_history) >= STALL_WINDOW + 1
                    and train_history[-STALL_WINDOW - 1] - train_mse < STALL_THRESHOLD):
                stop_reason = "TrainStalled"
                break
            if worsening >= config.test_patience:
                stop_reason = "TestWorsening"
                np.copyto(kernel.theta, best_theta)
                test_mse = best_test
                train_mse = _zscored_mse(net, kernel.z, train_targets)
                break

    return net, TrainingState(epoch=epoch, train_mse=train_mse,
                              test_mse=test_mse, stop_reason=stop_reason)


def _label_map_fault(labels, n: int) -> str | None:
    """None if labels name a model's n classes: a list of n distinct strings.
    Otherwise "do not fit", or "repeats a name" for n strings with a repeat."""
    if not (isinstance(labels, list) and len(labels) == n
            and all(isinstance(name, str) for name in labels)):
        return "do not fit"
    return "repeats a name" if len(set(labels)) < n else None


def save_model(net: Network, path, seed: int | None = None,
               stop_reason: str | None = None) -> None:
    """Persist a trained network as a versioned JSON document. A label_map
    that load_model would refuse raises InvalidSetting before the file is
    opened."""
    if _label_map_fault(net.label_map, net.spec.n):
        raise InvalidSetting(f"label_map must name the {net.spec.n} classes with "
                             f"distinct strings, got {net.label_map!r}")
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
        "extraction": EXTRACTION,
    }
    with open_artifact(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> tuple[Network, dict]:
    """Load a model JSON; returns (network, full document). A model always
    names its classes: its label_map is a list of exactly spec.n strings, as
    every model train writes carries the corpus's class names. Bad JSON,
    another format version, missing keys, arrays, labels or slots that do not
    fit the spec, non-finite arrays, an input_std below STD_FLOOR, a repeated
    label or feature slot, or extraction settings other than (a part of)
    EXTRACTION raise MalformedArtifact."""
    try:
        with open_artifact(path) as fh:
            doc = json.load(fh)
        if doc["format_version"] != MODEL_FORMAT_VERSION:
            raise ValueError(f"format version {doc['format_version']!r}")
        spec = NetworkSpec(**doc["spec"])
        net = Network(spec=spec,
                      weights=[np.array(w, dtype=np.float64) for w in doc["weights"]],
                      input_mean=np.array(doc["input_mean"], dtype=np.float64),
                      input_std=np.array(doc["input_std"], dtype=np.float64),
                      label_map=doc["label_map"],
                      feature_slots=doc.get("feature_slots"))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise MalformedArtifact(f"{path}: {type(exc).__name__}: {exc}") from exc
    slots, extraction = net.feature_slots, doc.get("extraction", {})
    label_fault = _label_map_fault(net.label_map, spec.n)
    misfits = [name for name, fits in {
        # the layer count goes first, as layer_sizes() builds m + 2 entries
        "weights": len(net.weights) == spec.m + 1 and [w.shape for w in net.weights]
        == [(s + 1, t) for s, t in pairwise(spec.layer_sizes())],
        "input statistics": net.input_mean.shape == net.input_std.shape == (spec.j,),
        "label_map": label_fault != "do not fit",
        "feature_slots": slots is None or isinstance(slots, list) and len(slots) == spec.j
        and all(type(i) is int and 0 <= i < len(FEATURE_NAMES) for i in slots),
    }.items() if not fits]
    arrays = (*net.weights, net.input_mean, net.input_std)
    for problem, found in (
            (f"{', '.join(misfits)} do not fit "
             f"({spec.j}, [{spec.k}, {spec.m}], {spec.n})", misfits),
            ("weights, input_mean or input_std are not all finite",
             not all(np.isfinite(a).all() for a in arrays)),
            (f"input_std below {STD_FLOOR}", (net.input_std < STD_FLOOR).any()),
            ("label_map repeats a name", label_fault == "repeats a name"),
            # misfitting slots may be unhashable, and raise above in any case
            ("feature_slots repeats a slot", not misfits and slots is not None
             and len(set(slots)) < len(slots)),
            (f"extraction {extraction!r} is not the fixed settings {EXTRACTION}",
             not (isinstance(extraction, dict)
                  and extraction.items() <= EXTRACTION.items()))):
        if found:
            raise MalformedArtifact(f"{path}: {problem}")
    return net, doc
