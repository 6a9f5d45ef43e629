import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vocalnet import mlp
from vocalnet.dataset import make_corpus
from vocalnet.errors import DimensionMismatch, EmptySet, InvalidSetting, MalformedArtifact
from vocalnet.features import FEATURE_NAMES
from vocalnet.mlp import (Network, NetworkSpec, TrainingConfig, classify,
                          forward, init_network, load_model, mse, one_hot,
                          save_model, train)
from vocalnet.pipeline import evaluate

import mlp_oracle
from mlp_oracle import mse_gradients

XOR_INPUTS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
XOR_TARGETS = np.array([[0], [1], [1], [0]], dtype=float)


def finite_difference_gradients(net, inputs, targets, eps=1e-4):
    grads = []
    for w in net.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            up = mse(net, inputs, targets)
            w[idx] = orig - eps
            down = mse(net, inputs, targets)
            w[idx] = orig
            g[idx] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


class TestTopology:
    def test_weight_count_arithmetic(self):
        spec = NetworkSpec(28, 14, 1, 14)
        assert spec.weight_count() == (28 + 1) * 14 + (14 + 1) * 14  # 616

    def test_published_dog_shape_builds(self):
        net = init_network(NetworkSpec(4, 9, 1, 9), seed=0)
        assert [w.shape for w in net.weights] == [(5, 9), (10, 9)]

    def test_same_seed_identical_weights(self):
        a = init_network(NetworkSpec(5, 3, 2, 4), seed=9)
        b = init_network(NetworkSpec(5, 3, 2, 4), seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_weights_in_init_range(self):
        net = init_network(NetworkSpec(10, 8, 2, 5), seed=1)
        for w in net.weights:
            assert np.all(w >= -0.5)
            assert np.all(w <= 0.5)


class TestForward:
    def test_zero_weights_give_half(self):
        net = init_network(NetworkSpec(3, 4, 1, 2), seed=0)
        for w in net.weights:
            w[:] = 0.0
        np.testing.assert_allclose(forward(net, np.array([1.0, -2.0, 3.0])),
                                   [0.5, 0.5])

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            net = init_network(NetworkSpec(6, 5, 2, 3), seed=seed)
            out = forward(net, rng.standard_normal(6))
            assert np.all(out > 0)
            assert np.all(out < 1)

    def test_hand_computed_2_2_2(self):
        net = init_network(NetworkSpec(2, 2, 1, 2), seed=0)
        net.weights[0][:] = [[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]]
        net.weights[1][:] = [[0.0, 0.1], [0.2, -0.3], [0.4, 0.5]]
        x = np.array([1.0, 2.0])
        h = 1 / (1 + np.exp(-(np.array([0.1, -0.2])
                              + np.array([[0.3, 0.4], [-0.5, 0.6]]).T @ x)))
        o = 1 / (1 + np.exp(-(np.array([0.0, 0.1])
                              + np.array([[0.2, -0.3], [0.4, 0.5]]).T @ h)))
        np.testing.assert_allclose(forward(net, x), o, atol=1e-12)

    def test_sigmoid_saturates_exactly_without_warning(self):
        net = init_network(NetworkSpec(2, 3, 1, 2), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mlp.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
            classify(net, np.array([1e6, -1e6]))  # far from the training statistics
        np.testing.assert_array_equal(out.view(np.uint64),
                                      np.array([0.0, 0.5, 1.0]).view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(j=st.integers(1, 28), k=st.integers(1, 14), m=st.integers(1, 3),
           n=st.integers(2, 13), rows=st.integers(1, 20),
           scale=st.sampled_from([1.0, 8.0, 1e3, 1e5]), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_allocating_copy_bit_for_bit(self, j, k, m, n, rows, scale, seed):
        # forward runs its sigmoid in place; the oracle keeps the allocating
        # form. Large weights saturate the sigmoids to exactly 0 and 1
        rng = np.random.default_rng(seed)
        inputs = rng.standard_normal((rows, j)) * 10.0 ** rng.uniform(-3, 3)
        net = init_network(NetworkSpec(j, k, m, n), seed=seed)
        net.weights = [w * scale for w in net.weights]
        net.input_mean, net.input_std = mlp.input_statistics(inputs)
        for x in (inputs, inputs[0]):  # a batch and one vector
            want = mlp_oracle._outputs(net, mlp._zscore(net, x))
            assert forward(net, x).tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        net = init_network(NetworkSpec(3, 2, 1, 2), seed=0)
        with pytest.raises(DimensionMismatch):
            forward(net, np.zeros(5))


class TestGradients:
    def test_gradcheck_3_4_2(self):
        rng = np.random.default_rng(1)
        net = init_network(NetworkSpec(3, 4, 1, 2), seed=1)
        inputs = rng.standard_normal((6, 3))
        targets = one_hot(rng.integers(0, 2, 6), 2)
        analytic = mse_gradients(net, inputs, targets)
        numeric = finite_difference_gradients(net, inputs, targets)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_single_sample_small_step_descends(self):
        net = init_network(NetworkSpec(4, 3, 1, 2), seed=2)
        x = np.array([[0.5, -1.0, 2.0, 0.1]])
        t = np.array([[1.0, 0.0]])
        config = TrainingConfig(learning_rate=1e-3, momentum=0.0, seed=0)
        net.input_mean, net.input_std = mlp.input_statistics(x)
        before = mse(net, x, t)
        rng = np.random.default_rng(0)
        kernel = mlp._Backprop(net, x, t)
        net.weights = kernel.weights
        after = mlp.train_epoch(net, x, t, config, rng, kernel)
        assert after < before

    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)


class TestMse:
    @settings(max_examples=150, deadline=None)
    @given(j=st.integers(1, 28), k=st.integers(1, 14), m=st.integers(1, 3),
           n=st.integers(2, 13), rows=st.integers(1, 40),
           scale=st.sampled_from([1.0, 8.0, 1e3, 1e5]), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_allocating_copy_bit_for_bit(self, j, k, m, n, rows, scale, seed):
        # mse runs its sigmoid in place; the oracle keeps the allocating form.
        # Large weights saturate the sigmoids to exactly 0 and 1
        rng = np.random.default_rng(seed)
        full = rng.standard_normal((rows, len(FEATURE_NAMES))) * 10.0 ** rng.uniform(-3, 3)
        inputs = full[:, rng.permutation(len(FEATURE_NAMES))[:j]]  # strided columns
        targets = one_hot(rng.integers(0, n, rows), n)
        net = init_network(NetworkSpec(j, k, m, n), seed=seed)
        net.weights = [w * scale for w in net.weights]
        net.input_mean, net.input_std = mlp.input_statistics(inputs)
        got, want = mse(net, inputs, targets), mlp_oracle.mse(net, inputs, targets)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestTrain:
    def test_xor_reaches_target(self):
        net = init_network(NetworkSpec(2, 2, 1, 1), seed=1)
        config = TrainingConfig(learning_rate=0.5, momentum=0.9,
                                max_epochs=5000, seed=1)
        trained, state = train(net, XOR_INPUTS, XOR_TARGETS,
                               XOR_INPUTS, XOR_TARGETS, config)
        assert state.stop_reason == "TargetReached"
        assert state.train_mse < 0.01

    def test_shuffled_test_labels_trigger_test_worsening(self):
        rng = np.random.default_rng(3)
        inputs = rng.standard_normal((40, 4))
        labels = (inputs[:, 0] > 0).astype(int)
        targets = one_hot(labels, 2)
        test_inputs = rng.standard_normal((20, 4))
        shuffled = one_hot(rng.integers(0, 2, 20), 2)  # labels carry no signal
        net = init_network(NetworkSpec(4, 4, 1, 2), seed=3)
        config = TrainingConfig(max_epochs=5000, test_patience=20, seed=3)
        trained, state = train(net, inputs, targets, test_inputs, shuffled, config)
        assert state.stop_reason == "TestWorsening"

    def test_snapshot_on_best_test(self):
        rng = np.random.default_rng(4)
        inputs = rng.standard_normal((40, 4))
        targets = one_hot((inputs[:, 0] > 0).astype(int), 2)
        test_inputs = rng.standard_normal((20, 4))
        shuffled = one_hot(rng.integers(0, 2, 20), 2)
        net = init_network(NetworkSpec(4, 4, 1, 2), seed=4)
        config = TrainingConfig(max_epochs=5000, test_patience=10, seed=4)
        trained, state = train(net, inputs, targets, test_inputs, shuffled, config)
        if state.stop_reason == "TestWorsening":
            assert state.test_mse == pytest.approx(
                mse(trained, test_inputs, shuffled))

    def test_train_stalled_looks_back_exactly_100_epochs(self, monkeypatch):
        # every input carries both labels, so the train MSE creeps down to
        # 0.25 and its fall slows; by epoch 1557 it fell less than 1e-6 over
        # 98 epochs, but over 100 only by epoch 1564
        history = []

        def recorded(*args, train_epoch=mlp.train_epoch):
            history.append(train_epoch(*args))
            return history[-1]
        monkeypatch.setattr(mlp, "train_epoch", recorded)
        x = np.random.default_rng(3).standard_normal((6, 2))
        targets = one_hot(np.repeat([0, 1], 6), 2)
        inputs = np.vstack([x, x])
        config = TrainingConfig(learning_rate=0.003, momentum=0.0, max_epochs=5000,
                                test_patience=10**6, seed=3)
        _, state = train(init_network(NetworkSpec(2, 2, 1, 2), seed=3),
                         inputs, targets, inputs, targets, config)
        assert (state.stop_reason, state.epoch) == ("TrainStalled", 1564)

        def fall(epoch, over):
            return history[epoch - 1 - over] - history[epoch - 1]
        assert fall(1557, 98) < mlp.STALL_THRESHOLD <= fall(1563, 100)

    @staticmethod
    def _training(stop_reason):
        """The inputs and config of a training that stops on stop_reason;
        "none" is a training of zero epochs."""
        rng = np.random.default_rng(3)
        if stop_reason == "TargetReached":
            return (NetworkSpec(2, 2, 1, 1), 1, XOR_INPUTS, XOR_TARGETS, XOR_INPUTS,
                    XOR_TARGETS, TrainingConfig(learning_rate=0.5, momentum=0.9,
                                                max_epochs=5000, seed=1))
        if stop_reason == "TrainStalled":
            # as in test_train_stalled_looks_back_exactly_100_epochs
            x = rng.standard_normal((6, 2))
            inputs, targets = np.vstack([x, x]), one_hot(np.repeat([0, 1], 6), 2)
            return (NetworkSpec(2, 2, 1, 2), 3, inputs, targets, inputs, targets,
                    TrainingConfig(learning_rate=0.003, momentum=0.0, max_epochs=5000,
                                   test_patience=10**6, seed=3))
        inputs = rng.standard_normal((40, 4))
        targets = one_hot((inputs[:, 0] > 0).astype(int), 2)
        test_inputs = rng.standard_normal((20, 4))
        shuffled = one_hot(rng.integers(0, 2, 20), 2)  # labels carry no signal
        max_epochs = {"TestWorsening": 5000, "EpochCap": 15, "none": 0}[stop_reason]
        return (NetworkSpec(4, 4, 1, 2), 3, inputs, targets, test_inputs, shuffled,
                TrainingConfig(max_epochs=max_epochs, test_patience=20, seed=3))

    @pytest.mark.parametrize("stop_reason", ["TargetReached", "TrainStalled",
                                             "TestWorsening", "EpochCap", "none"])
    def test_returned_train_mse_is_the_returned_networks(self, stop_reason):
        # bit for bit, so a caller may take the train MSE from the state in
        # place of an mse() call on the trained network
        spec, seed, inputs, targets, test_inputs, test_targets, config = (
            self._training(stop_reason))
        trained, state = train(init_network(spec, seed), inputs, targets,
                               test_inputs, test_targets, config)
        assert state.stop_reason == ("EpochCap" if stop_reason == "none" else stop_reason)
        assert (state.epoch == 0) == (stop_reason == "none")
        assert state.train_mse == mse(trained, inputs, targets)
        assert state.test_mse == mse(trained, test_inputs, test_targets)

    def test_one_errstate_mutes_every_exp_of_the_training(self):
        # weights x1000 saturate every sigmoid, so exp overflows in the
        # updates, in each epoch's MSEs and in the train MSE after the
        # TestWorsening restore; train's own errstate must cover them all,
        # and hand the caller's setting back
        rng = np.random.default_rng(8)
        inputs, test_inputs = rng.standard_normal((12, 4)), rng.standard_normal((6, 4))
        targets = one_hot(rng.integers(0, 3, 12), 3)
        test_targets = one_hot(rng.integers(0, 3, 6), 3)
        net = init_network(NetworkSpec(4, 5, 2, 3), seed=8)
        net.weights = [w * 1000.0 for w in net.weights]
        mean, std = mlp.input_statistics(inputs)
        first = net.weights[0][0] + (inputs - mean) / std @ net.weights[0][1:]
        assert (-first > np.log(np.finfo(np.float64).max)).any()  # exp(-first) overflows
        config = TrainingConfig(max_epochs=50, test_patience=2, seed=8)
        with np.errstate(over="raise"):
            _, state = train(net, inputs, targets, test_inputs, test_targets, config)
            assert np.geterr()["over"] == "raise"
        assert state.stop_reason == "TestWorsening"

    def test_leaves_the_callers_network_unchanged(self):
        rng = np.random.default_rng(9)
        inputs = rng.standard_normal((12, 3)) * [1.0, 1e3, 1e-3] + 5.0
        targets = one_hot(rng.integers(0, 2, 12), 2)
        net = init_network(NetworkSpec(3, 4, 2, 2), seed=9)
        net.label_map, net.feature_slots = ["a", "b"], [4, 0, 17]
        before = ([w.tobytes() for w in net.weights], net.input_mean.tobytes(),
                  net.input_std.tobytes())
        trained, _ = train(net, inputs[:9], targets[:9], inputs[9:], targets[9:],
                           TrainingConfig(max_epochs=20, seed=9))
        assert ([w.tobytes() for w in net.weights], net.input_mean.tobytes(),
                net.input_std.tobytes()) == before
        assert net.label_map == ["a", "b"] and net.feature_slots == [4, 0, 17]
        assert not np.array_equal(trained.input_mean, net.input_mean)
        assert not np.array_equal(trained.weights[0], net.weights[0])

    def test_zero_epochs_returns_initial(self):
        net = init_network(NetworkSpec(2, 2, 1, 2), seed=0)
        config = TrainingConfig(max_epochs=0, seed=0)
        x = np.zeros((2, 2))
        t = one_hot(np.array([0, 1]), 2)
        trained, state = train(net, x, t, x, t, config)
        assert state.stop_reason == "EpochCap"
        assert state.epoch == 0

    def test_empty_set_raises(self):
        net = init_network(NetworkSpec(2, 2, 1, 2), seed=0)
        with pytest.raises(EmptySet):
            train(net, np.zeros((0, 2)), np.zeros((0, 2)),
                  np.zeros((1, 2)), np.zeros((1, 2)), TrainingConfig())

    def test_determinism(self):
        rng = np.random.default_rng(5)
        inputs = rng.standard_normal((20, 3))
        targets = one_hot((inputs[:, 0] > 0).astype(int), 2)
        config = TrainingConfig(max_epochs=50, seed=6)
        runs = []
        for _ in range(2):
            net = init_network(NetworkSpec(3, 3, 1, 2), seed=6)
            trained, _ = train(net, inputs[:15], targets[:15],
                               inputs[15:], targets[15:], config)
            runs.append(trained)
        for wa, wb in zip(runs[0].weights, runs[1].weights):
            np.testing.assert_array_equal(wa, wb)

    def test_normalization_invariance_of_decisions(self):
        rng = np.random.default_rng(6)
        inputs = rng.standard_normal((30, 4)) + 5.0
        targets = one_hot((inputs[:, 1] > 5).astype(int), 2)
        scaled = inputs.copy()
        scaled[:, 2] *= 1000.0
        config = TrainingConfig(max_epochs=100, seed=7)

        net_a = init_network(NetworkSpec(4, 3, 1, 2), seed=7)
        trained_a, _ = train(net_a, inputs[:20], targets[:20],
                             inputs[20:], targets[20:], config)
        net_b = init_network(NetworkSpec(4, 3, 1, 2), seed=7)
        trained_b, _ = train(net_b, scaled[:20], targets[:20],
                             scaled[20:], targets[20:], config)
        for x_a, x_b in zip(inputs, scaled):
            np.testing.assert_allclose(forward(trained_a, x_a),
                                       forward(trained_b, x_b), atol=1e-9)


class TestClassify:
    def test_argmax(self):
        net = init_network(NetworkSpec(2, 2, 1, 3), seed=0)

        class Fake:
            spec = net.spec
            input_mean = net.input_mean
            input_std = net.input_std
            weights = net.weights

        idx, acts = classify(net, np.zeros(2))
        assert idx == int(np.argmax(acts))

    def test_tie_breaks_to_lowest_index(self):
        assert int(np.argmax(np.array([0.5, 0.5]))) == 0

    def test_consistency_with_forward(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            net = init_network(NetworkSpec(4, 3, 1, 4), seed=seed)
            x = rng.standard_normal(4)
            idx, acts = classify(net, x)
            np.testing.assert_array_equal(acts, forward(net, x))
            assert idx == int(np.argmax(acts))

    @settings(max_examples=100, deadline=None)
    @given(j=st.integers(1, 28), k=st.integers(1, 14), m=st.integers(1, 2),
           n=st.integers(2, 13), rows=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    def test_evaluate_matches_a_classify_loop(self, j, k, m, n, rows, seed):
        # evaluate scores every row in one stacked forward pass
        rng = np.random.default_rng(seed)
        net = init_network(NetworkSpec(j, k, m, n), seed=seed)
        net.input_mean = rng.normal(0, 2, j)
        net.input_std = rng.uniform(0.1, 3, j)
        net.weights = [w * rng.uniform(1, 8) for w in net.weights]
        net.label_map = [f"class{i}" for i in range(n)]
        net.feature_slots = sorted(rng.choice(len(FEATURE_NAMES), j, replace=False).tolist())
        labels = rng.integers(0, n, rows)
        corpus = make_corpus([f"{i}.wav" for i in range(rows)],
                             [net.label_map[i] for i in labels],
                             rng.normal(0, 3, (rows, len(FEATURE_NAMES))))
        inputs = corpus.samples[:, net.feature_slots]  # strided rows
        # the stacked pass evaluate makes gives each row's activations
        stacked = forward(net, np.ascontiguousarray(inputs)[:, None, :])[:, 0]
        for x, acts in zip(inputs, stacked):
            assert acts.tobytes() == forward(net, x).tobytes()
        counts = np.zeros((n, n), dtype=int)
        for label, x in zip(corpus.labels, inputs):
            truth = net.label_map.index(corpus.class_names[label])
            counts[truth, classify(net, x)[0]] += 1
        report = evaluate(net, corpus)
        np.testing.assert_array_equal(report.counts, counts)


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        net = init_network(NetworkSpec(4, 3, 1, 2), seed=1)
        net.label_map = ["a", "b"]
        net.feature_slots = [0, 5, 9, 27]
        path = tmp_path / "model.json"
        save_model(net, path, seed=1, stop_reason="TargetReached")
        back, doc = load_model(path)
        assert back.spec == net.spec
        assert back.label_map == ["a", "b"]
        assert back.feature_slots == [0, 5, 9, 27]
        assert doc["format_version"] == 1
        assert doc["stop_reason"] == "TargetReached"
        # the one setting every feature vector is extracted at, in this order
        assert list(doc["extraction"].items()) == [
            ("window", 512), ("hop", 256), ("rate", 22050)]
        for wa, wb in zip(net.weights, back.weights):
            np.testing.assert_array_equal(wa, wb)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        spec = NetworkSpec(*(data.draw(st.integers(1, top)) for top in (6, 5, 2, 4)))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        net = Network(
            spec=spec,
            weights=[data.draw(arrays(np.float64, (s + 1, t), elements=finite))
                     for s, t in zip(spec.layer_sizes(), spec.layer_sizes()[1:])],
            input_mean=data.draw(arrays(np.float64, spec.j, elements=finite)),
            input_std=data.draw(arrays(np.float64, spec.j, elements=st.floats(
                mlp.STD_FLOOR, allow_infinity=False))),
            label_map=data.draw(st.lists(st.text(max_size=8), min_size=spec.n,
                                         max_size=spec.n, unique=True)),
            feature_slots=data.draw(st.one_of(
                st.none(), st.lists(st.integers(0, len(FEATURE_NAMES) - 1),
                                    min_size=spec.j, max_size=spec.j, unique=True))))
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(net, path)
        back, doc = load_model(path)

        assert back.spec == spec
        for wa, wb in zip(net.weights, back.weights, strict=True):
            assert np.array_equal(wa, wb)
        assert np.array_equal(back.input_mean, net.input_mean)
        assert np.array_equal(back.input_std, net.input_std)
        assert back.label_map == net.label_map
        assert back.feature_slots == net.feature_slots
        assert doc["extraction"] == mlp.EXTRACTION

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError):
            load_model(path)

    def test_every_model_train_writes_loads(self, tmp_path):
        # a constant input column gets the floor as its std
        inputs = np.column_stack([np.linspace(0, 1, 8), np.full(8, 3.0)])
        targets = one_hot(np.arange(8) % 2, 2)
        net, _ = train(init_network(NetworkSpec(2, 2, 1, 2), seed=0), inputs,
                       targets, inputs, targets, TrainingConfig(max_epochs=3))
        assert net.input_std[1] == mlp.STD_FLOOR
        net.label_map = ["a", "b"]
        save_model(net, tmp_path / "model.json")
        back, _ = load_model(tmp_path / "model.json")
        assert np.array_equal(back.input_std, net.input_std)

    @pytest.mark.parametrize("labels", [None, ["a"], ["a", "a"], ["a", 1], "ab"],
                             ids=["as-initialised", "too-few", "repeated", "not-strings",
                                  "string"])
    def test_save_refuses_a_label_map_load_would_refuse(self, tmp_path, labels):
        net = init_network(NetworkSpec(2, 3, 1, 2), seed=0)
        if labels is not None:  # init_network leaves the label_map empty
            net.label_map = labels
        path = tmp_path / "model.json"
        with pytest.raises(InvalidSetting, match="label_map"):
            save_model(net, path)
        assert not path.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["weights"][0][0].__setitem__(0, float("nan")), "not all finite"),
        (lambda doc: doc["weights"][-1][-1].__setitem__(-1, float("inf")), "not all finite"),
        (lambda doc: doc["input_mean"].__setitem__(1, float("-inf")), "not all finite"),
        (lambda doc: doc["input_std"].__setitem__(0, float("nan")), "not all finite"),
        (lambda doc: doc.update(input_std=[0.0, 0.0]), "input_std below"),
        (lambda doc: doc["input_std"].__setitem__(1, mlp.STD_FLOOR / 2), "input_std below"),
        (lambda doc: doc.update(label_map=["a", "a"]), "label_map repeats"),
        (lambda doc: doc.update(label_map=[]), "label_map do not fit"),
        (lambda doc: doc.update(label_map="ab"), "label_map do not fit"),
        (lambda doc: doc.update(label_map={"x": 1, "y": 2}), "label_map do not fit"),
        (lambda doc: doc.update(label_map=[1, 2]), "label_map do not fit"),
        (lambda doc: doc.update(label_map=[["a"], ["a"]]), "label_map do not fit"),
        (lambda doc: doc.update(feature_slots=[4, 4]), "feature_slots repeats"),
        (lambda doc: doc.update(extraction={"window": 1024, "hop": 512, "rate": 22050}),
         re.escape("{'window': 1024, 'hop': 512, 'rate': 22050} is not the fixed "
                   "settings {'window': 512, 'hop': 256, 'rate': 22050}")),
        (lambda doc: doc.update(extraction={"rate": 44100}), "fixed settings"),
        (lambda doc: doc["extraction"].update(order=12), "fixed settings"),
        (lambda doc: doc.update(extraction=None), "fixed settings"),
        # JSON true equals 1: cut to one input, every array fits the spec
        (lambda doc: doc.update(spec={**doc["spec"], "j": True, "m": True},
                                input_mean=doc["input_mean"][:1],
                                input_std=doc["input_std"][:1],
                                weights=[doc["weights"][0][:2], *doc["weights"][1:]]),
         "invalid topology"),
    ], ids=["nan-weight", "inf-weight", "inf-mean", "nan-std", "zero-std",
            "std-below-floor", "repeated-label", "no-labels", "label-string",
            "label-object", "label-numbers", "label-lists", "repeated-slot",
            "other-window", "other-rate", "extra-setting", "null-extraction", "bool-spec"])
    def test_rejects_what_train_never_writes(self, tmp_path, edit, message):
        net = init_network(NetworkSpec(2, 3, 1, 2), seed=0)
        net.label_map = ["a", "b"]
        path = tmp_path / "model.json"
        save_model(net, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedArtifact, match=message):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("extraction"),
        lambda doc: doc.update(extraction={}),
        lambda doc: doc.update(extraction={"rate": 22050}),
        lambda doc: doc.update(extraction={"hop": 256, "window": 512}),
    ], ids=["absent", "empty", "rate-only", "window-and-hop"])
    def test_accepts_the_fixed_extraction_or_part_of_it(self, tmp_path, edit):
        net = init_network(NetworkSpec(2, 3, 1, 2), seed=0)
        net.label_map = ["a", "b"]
        path = tmp_path / "model.json"
        save_model(net, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        load_model(path)
