"""The flat-buffer trainer against the per-layer trainer it replaced.

mlp_oracle.py holds the earlier trainer unchanged. The flat-buffer kernel
applies the same float operations in the same order, so the weights, the
epoch, the stop reason and both MSEs must be equal, not merely close.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlp_oracle
from vocalnet.mlp import (NetworkSpec, TrainingConfig, _Backprop, _layer_views,
                          init_network, input_statistics, one_hot, train)

WIDE = 28  # columns of the full matrix the inputs are cut from, as in selection


def make_split(seed, rows, test_rows, j, n, cols=None):
    """Inputs with feature-like scales (1e-3..1e3) and one-hot targets. With
    cols, the inputs are a column subset of a wider matrix, laid out as the
    `matrix[:, cols]` selection makes them (not C-contiguous)."""
    rng = np.random.default_rng(seed)
    full = (rng.standard_normal((rows + test_rows, WIDE))
            * 10.0 ** rng.uniform(-3, 3, WIDE))
    x = full[:, cols] if cols is not None else np.ascontiguousarray(full[:, :j])
    labels = rng.integers(0, n, rows + test_rows)
    x[:, 0] += 3.0 * x[:, 0].std() * labels  # in place keeps the layout
    t = one_hot(labels, n)
    return x[:rows], t[:rows], x[rows:], t[rows:]


def assert_trains_identically(spec, split, config, init_seed=0):
    net = init_network(spec, init_seed)
    want_net, want = mlp_oracle.train(net, *split, config)
    got_net, got = train(net, *split, config)
    assert got == want  # epoch, stop reason, train and test MSE, all exact
    assert len(got_net.weights) == len(want_net.weights)
    for g, w in zip(got_net.weights, want_net.weights):
        assert np.array_equal(g, w)
    assert np.array_equal(got_net.input_mean, want_net.input_mean)
    assert np.array_equal(got_net.input_std, want_net.input_std)
    return got


# every rule at the paper's constants: train MSE below 0.01, and a train MSE
# that falls by less than 1e-6 over 100 epochs
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("reason, config", [
    ("TargetReached", TrainingConfig(learning_rate=0.5, max_epochs=2000, seed=1)),
    ("TrainStalled", TrainingConfig(learning_rate=1e-12, momentum=0.0,
                                    max_epochs=150, test_patience=10**6, seed=2)),
    ("TestWorsening", TrainingConfig(test_patience=3, seed=3)),
    ("EpochCap", TrainingConfig(max_epochs=7, seed=4)),
])
def test_every_stop_reason(m, reason, config):
    split = make_split(5, rows=24, test_rows=6, j=4, n=3)
    if reason == "TestWorsening":  # test labels that carry no signal
        split = split[:3] + (split[3][::-1].copy(),)
    state = assert_trains_identically(NetworkSpec(4, 5, m, 3), split, config)
    assert state.stop_reason == reason


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_column_subset_inputs(m, momentum):
    cols = [12, 3, 27, 0, 9]
    split = make_split(6, rows=28, test_rows=4, j=len(cols), n=5, cols=cols)
    assert not split[0].flags.c_contiguous
    config = TrainingConfig(momentum=momentum, max_epochs=150, seed=0)
    assert_trains_identically(NetworkSpec(len(cols), 5, m, 5), split, config)


@pytest.mark.parametrize("m", [1, 2])
def test_mse_gradients_match_per_sample_sum(m):
    inputs, targets, _, _ = make_split(7, rows=9, test_rows=1, j=3, n=2)
    net = init_network(NetworkSpec(3, 4, m, 2), seed=7)
    total = [np.zeros_like(w) for w in net.weights]
    for x, t in zip(inputs, targets):
        for acc, g in zip(total, mlp_oracle._sample_gradients(net, x, t)):
            acc += g
    for got, acc in zip(mlp_oracle.mse_gradients(net, inputs, targets), total):
        assert np.array_equal(got, acc / len(inputs))


@settings(max_examples=40, deadline=None)
@given(j=st.integers(1, 6), k=st.integers(1, 5), m=st.integers(1, 2),
       n=st.integers(1, 4), rows=st.integers(2, 12), test_rows=st.integers(1, 4),
       subset=st.booleans(), learning_rate=st.sampled_from([0.05, 0.3, 1.0]),
       momentum=st.sampled_from([0.0, 0.5, 0.9]), max_epochs=st.integers(0, 25),
       patience=st.integers(1, 8), seed=st.integers(0, 2**16))
# a rate too small to move the train MSE stalls at epoch 101
@example(j=3, k=2, m=1, n=2, rows=8, test_rows=2, subset=True, learning_rate=1e-12,
         momentum=0.0, max_epochs=150, patience=200, seed=9)
def test_matches_reference_on_small_topologies(j, k, m, n, rows, test_rows, subset,
                                               learning_rate, momentum, max_epochs,
                                               patience, seed):
    cols = list(np.random.default_rng(seed).permutation(WIDE)[:j]) if subset else None
    split = make_split(seed, rows, test_rows, j, n, cols)
    config = TrainingConfig(learning_rate=learning_rate, momentum=momentum,
                            max_epochs=max_epochs, test_patience=patience, seed=seed)
    assert_trains_identically(NetworkSpec(j, k, m, n), split, config, init_seed=seed)


@settings(max_examples=60, deadline=None)
@given(j=st.integers(1, 6), k=st.integers(1, 5), m=st.integers(1, 3),
       n=st.integers(1, 4), rows=st.integers(2, 14), test_rows=st.integers(1, 4),
       zero_columns=st.integers(0, 2), zero_first_layer=st.booleans(),
       rounded=st.booleans(), saturated=st.booleans(),
       learning_rate=st.sampled_from([1e-3, 0.05, 1.0, 10.0]),
       momentum=st.sampled_from([0.0, 0.5, 0.9]), max_epochs=st.integers(0, 12),
       seed=st.integers(0, 2**16))
def test_matches_reference_where_zeros_and_saturation_meet(
        j, k, m, n, rows, test_rows, zero_columns, zero_first_layer, rounded,
        saturated, learning_rate, momentum, max_epochs, seed):
    # The kernel stores activations and deltas negated, where a zero can take
    # the other sign. So the draws make zeros: all-zero input columns (z = 0
    # exactly), zero first-layer weights, rounded inputs, and weights x1000
    # that saturate the outputs to exactly the targets
    x, t, test_x, test_t = make_split(seed, rows, test_rows, j, n)
    x[:, :zero_columns] = 0.0
    if rounded:
        x, test_x = np.round(x), np.round(test_x)
    net = init_network(NetworkSpec(j, k, m, n), seed)
    if zero_first_layer:
        net.weights[0][1:] = 0.0
    if saturated:
        net.weights = [w * 1000.0 for w in net.weights]
    config = TrainingConfig(learning_rate=learning_rate, momentum=momentum,
                            max_epochs=max_epochs, test_patience=4, seed=seed)
    want_net, want = mlp_oracle.train(net, x, t, test_x, test_t, config)
    got_net, got = train(net, x, t, test_x, test_t, config)
    assert got == want
    assert [w.tobytes() for w in got_net.weights] == [w.tobytes() for w in want_net.weights]

    # a per-sample gradient equals the reference's in value; where both are
    # zero its sign may differ (see the _Backprop docstring)
    net.input_mean, net.input_std = input_statistics(x)
    kernel = _Backprop(net, x, t)
    for idx in range(rows):
        with np.errstate(over="ignore"):  # the sample's update, less its momentum step
            for call, args in kernel.rows[idx][:-len(kernel.momentum_step)]:
                call(*args)
        got_grad = _layer_views(kernel.grad, [w.shape for w in net.weights])
        want_grad = mlp_oracle._sample_gradients(net, x[idx], t[idx])
        assert all(np.array_equal(g, w) for g, w in zip(got_grad, want_grad))
