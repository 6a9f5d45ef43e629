import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vocalnet import dataset, pipeline, selection
from vocalnet.features import FEATURE_NAMES
from vocalnet.mlp import NetworkSpec, TrainingConfig, init_network, one_hot
from vocalnet.selection import (SelectionTrace, forward_select, mdl_score,
                                read_subset, export_trace, write_subset)

from conftest import synthetic_feature_corpus

FAST = TrainingConfig(max_epochs=200, seed=0)


@pytest.fixture(scope="module")
def informative_corpus():
    return synthetic_feature_corpus([(0, 0), (4, 0), (0, 4)], seed=3)


@pytest.fixture(scope="module")
def informative_trace(informative_corpus):
    folds = dataset.plan_folds(informative_corpus, seed=0)
    return forward_select(informative_corpus, folds, hidden_width=3,
                          hidden_layers=1, config=FAST)


class TestMdlScore:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.inputs = rng.standard_normal((100, 4))
        self.targets = one_hot(rng.integers(0, 2, 100), 2)

    def test_fewer_weights_scores_lower_at_equal_mse(self):
        # same j so the two nets see identical data; only hidden width differs
        small = init_network(NetworkSpec(4, 2, 1, 2), seed=0)
        big = init_network(NetworkSpec(4, 8, 1, 2), seed=0)
        for w in small.weights:
            w[:] = 0.0
        for w in big.weights:
            w[:] = 0.0  # both output 0.5 everywhere: identical MSE
        assert mdl_score(small, self.inputs, self.targets) \
            < mdl_score(big, self.inputs, self.targets)

    def test_lower_mse_scores_lower_at_equal_weights(self):
        near = init_network(NetworkSpec(4, 2, 1, 2), seed=1)
        far = init_network(NetworkSpec(4, 2, 1, 2), seed=1)
        for w in far.weights:
            w[:] = 0.0
        targets = np.full((100, 2), 0.5)
        # "near" has random outputs, "far" outputs exactly the target 0.5
        assert mdl_score(far, self.inputs, targets) \
            < mdl_score(near, self.inputs, targets)

    def test_hand_arithmetic(self):
        # zero weights -> every output 0.5; targets at 0.4 give MSE exactly 0.01
        net = init_network(NetworkSpec(4, 2, 1, 2), seed=0)
        for w in net.weights:
            w[:] = 0.0
        targets = np.full((100, 2), 0.4)
        w_count = net.spec.weight_count()
        expected = 100 * np.log(0.01 + 1e-12) + (w_count / 2) * np.log(100)
        assert mdl_score(net, self.inputs, targets) == pytest.approx(expected)
        # calculator check of the formula's shape at W=20
        assert 100 * np.log(0.01) + 10 * np.log(100) == pytest.approx(-414.465,
                                                                      abs=0.01)


class TestForwardSelect:
    def test_informative_slots_accepted_first(self, informative_trace):
        assert informative_trace.final_subset[:2] in ([0, 1], [1, 0])

    def test_noise_slot_rejected_after_separation(self, informative_trace):
        # selection stopped without dragging in noise slots
        assert set(informative_trace.final_subset) <= {0, 1}

    def test_trace_is_exhaustive(self, informative_trace):
        rounds = {}
        for step in informative_trace.steps:
            rounds.setdefault(step.round, []).append(step)
        for r, steps in rounds.items():
            assert len(steps) == 28 - r

    def test_mdl_non_increasing_over_accepted_steps(self, informative_trace):
        accepted = [s.mdl for s in informative_trace.steps if s.accepted]
        assert all(b <= a for a, b in zip(accepted, accepted[1:]))

    def test_a_tie_with_the_incumbent_is_rejected(self, informative_corpus,
                                                  monkeypatch):
        # every candidate scores the same, so round 1's best only ties round
        # 0's accepted score: selection stops with the one slot of round 0
        monkeypatch.setattr(selection, "mdl_score", lambda *args: 0.0)
        folds = dataset.plan_folds(informative_corpus, seed=0)
        trace = forward_select(informative_corpus, folds, hidden_width=3,
                               hidden_layers=1,
                               config=TrainingConfig(max_epochs=1, seed=0))
        assert trace.final_subset == [0]
        assert [s.mdl for s in trace.steps if s.accepted] == [0.0]
        assert [(s.round, s.slot) for s in trace.steps if s.accepted] == [(0, 0)]
        assert len(trace.steps) == 28 + 27

    def test_rerun_reproduces_trace(self, informative_corpus, informative_trace):
        folds = dataset.plan_folds(informative_corpus, seed=0)
        again = forward_select(informative_corpus, folds, hidden_width=3,
                               hidden_layers=1, config=FAST)
        assert again.final_subset == informative_trace.final_subset
        assert [s.mdl for s in again.steps] \
            == [s.mdl for s in informative_trace.steps]

    def test_selected_subset_classifies_well(self, informative_corpus,
                                             informative_trace):
        folds = dataset.plan_folds(informative_corpus, seed=0)
        run = pipeline.train_all_folds(informative_corpus, folds, FAST,
                                       feature_slots=informative_trace.final_subset)
        assert run.summary.mean_accuracy >= 90.0


class TestTraceFiles:
    def test_export_and_read_back(self, informative_trace, tmp_path):
        trace_path = tmp_path / "trace.csv"
        subset_path = tmp_path / "subset.csv"
        export_trace(informative_trace, trace_path)
        write_subset(informative_trace, subset_path)

        with open(trace_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "slot", "slot_name", "mdl", "accepted"]
        assert len(rows) == 1 + len(informative_trace.steps)
        assert read_subset(subset_path) == informative_trace.final_subset

    @settings(max_examples=50, deadline=None)
    @given(slots=st.lists(st.integers(0, len(FEATURE_NAMES) - 1), min_size=1,
                          max_size=len(FEATURE_NAMES), unique=True))
    def test_subset_round_trip_property(self, tmp_path_factory, slots):
        path = tmp_path_factory.mktemp("subset") / "subset.csv"
        write_subset(SelectionTrace(steps=[], final_subset=slots), path)
        assert read_subset(path) == slots
