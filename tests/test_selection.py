import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import selection_oracle
from vocalnet import dataset, pipeline, selection
from vocalnet.features import FEATURE_NAMES
from vocalnet.mlp import NetworkSpec, TrainingConfig, init_network, one_hot, train
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

    @pytest.mark.filterwarnings("ignore:classes smaller than")
    def test_each_step_keeps_how_its_candidate_stopped(self):
        # each candidate trained alone, on a network of its own, stops at the
        # epoch and by the rule its step records; this cache's trace meets
        # all four rules
        corpus = TestAgainstOracle.cache([6, 6], seed=1)
        split = dataset.plan_folds(corpus, seed=1)[0]
        config = TrainingConfig(max_epochs=300, seed=1)
        trace = forward_select(corpus, [split], hidden_width=2, hidden_layers=1,
                               config=config)
        targets = one_hot(corpus.labels, corpus.n_classes)
        for step in trace.steps:
            cols = trace.final_subset[:step.round] + [step.slot]
            net = init_network(NetworkSpec(len(cols), 2, 1, corpus.n_classes), config.seed)
            net.feature_slots = cols
            x = corpus.samples[:, cols]
            _, state = train(net, x[split.train_ids], targets[split.train_ids],
                             x[split.test_ids], targets[split.test_ids], config)
            assert (step.epoch, step.stop_reason) == (state.epoch, state.stop_reason)
        assert {step.stop_reason for step in trace.steps} \
            == {"TestWorsening", "TrainStalled", "TargetReached", "EpochCap"}

    @pytest.mark.parametrize("score, subset, n_steps", [
        # NaN in slots 0 and 27 of every round; slot 1 wins round 0 and
        # round 1 improves on nothing
        (lambda rnd, slot: math.nan if slot in (0, 27) else -float(rnd == 0 and slot == 1),
         [1], 28 + 27),
        # slots 3 and 5 tie lowest: round 0 takes slot 3, and slot 5 only
        # ties the incumbent in round 1
        (lambda rnd, slot: -float(slot in (3, 5)), [3], 28 + 27),
        # a round of NaNs accepts nothing, the first round or a later one
        (lambda rnd, slot: math.nan, [], 28),
        (lambda rnd, slot: -float(slot == 2) if rnd == 0 else math.nan, [2], 28 + 27),
    ], ids=["nan-never-wins", "tie-to-lower-slot", "all-nan-first", "all-nan-later"])
    def test_round_rule_edges(self, informative_corpus, monkeypatch, score, subset,
                              n_steps):
        # the score of a candidate is score(round, slot), read off its slots
        monkeypatch.setattr(selection, "mdl_score", lambda net, *args: score(
            len(net.feature_slots) - 1, net.feature_slots[-1]))
        folds = dataset.plan_folds(informative_corpus, seed=0)
        trace = forward_select(informative_corpus, folds, hidden_width=3,
                               hidden_layers=1,
                               config=TrainingConfig(max_epochs=1, seed=0))
        assert trace.final_subset == subset
        assert [(s.round, s.slot) for s in trace.steps if s.accepted] \
            == list(enumerate(subset))
        assert len(trace.steps) == n_steps

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


class TestAgainstOracle:
    """forward_select's whole trace against tests/selection_oracle.py."""

    @staticmethod
    def cache(sizes, seed):
        """sizes[c] rows of class c; slot c carries class c's offset of 3, the
        other slots are standard normal noise."""
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        rows = rng.standard_normal((len(labels), len(FEATURE_NAMES)))
        rows[np.arange(len(labels)), labels] += 3.0
        return dataset.make_corpus([f"row{i}" for i in range(len(labels))],
                                   [f"class{c}" for c in labels], rows)

    @pytest.mark.filterwarnings("ignore:classes smaller than")
    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(3, 8), min_size=2, max_size=5),
           seed=st.integers(0, 2**16), width=st.integers(1, 3),
           layers=st.integers(1, 2), epochs=st.integers(1, 3),
           grid=st.sampled_from([None, 1.0, 10.0, 1e9]))
    # every score rounds to -1e9 or 0, so round 1's best ties the incumbent
    @example(sizes=[6, 6], seed=0, width=1, layers=1, epochs=1, grid=1e9)
    # real scores: round 1 improves on nothing, so one slot is selected
    @example(sizes=[3, 8, 5], seed=4, width=1, layers=1, epochs=2, grid=None)
    def test_trace_matches_the_oracle(self, sizes, seed, width, layers, epochs, grid):
        assume(any(n >= 6 for n in sizes))  # one class needs a test row
        corpus = self.cache(sizes, seed)
        folds = dataset.plan_folds(corpus, seed)
        config = TrainingConfig(max_epochs=epochs, seed=seed)
        # a coarse grid makes scores tie, within a round and with the incumbent
        coarsen = (lambda score: math.floor(score / grid) * grid) if grid else float
        score = selection.mdl_score
        with mock.patch.object(selection, "mdl_score",
                               lambda *args: coarsen(score(*args))):
            trace = forward_select(corpus, folds, width, layers, config)
        want, want_subset = selection_oracle.forward_select(
            corpus, folds, width, layers, config, coarsen)
        got = [(s.round, s.slot, s.mdl, s.accepted) for s in trace.steps]
        assert [(r, slot, np.float64(m).tobytes(), a) for r, slot, m, a in got] \
            == [(r, slot, np.float64(m).tobytes(), a) for r, slot, m, a in want]
        assert trace.final_subset == want_subset


class TestTraceFiles:
    def test_export_and_read_back(self, informative_trace, tmp_path):
        trace_path = tmp_path / "trace.csv"
        subset_path = tmp_path / "subset.csv"
        export_trace(informative_trace, trace_path)
        write_subset(informative_trace, subset_path)

        with open(trace_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "slot", "slot_name", "mdl", "accepted", "epoch",
                           "stop_reason"]
        assert [(int(row[5]), row[6]) for row in rows[1:]] \
            == [(s.epoch, s.stop_reason) for s in informative_trace.steps]
        assert len(rows) == 1 + len(informative_trace.steps)
        assert read_subset(subset_path) == informative_trace.final_subset

    @settings(max_examples=50, deadline=None)
    @given(slots=st.lists(st.integers(0, len(FEATURE_NAMES) - 1), min_size=1,
                          max_size=len(FEATURE_NAMES), unique=True))
    def test_subset_round_trip_property(self, tmp_path_factory, slots):
        path = tmp_path_factory.mktemp("subset") / "subset.csv"
        write_subset(SelectionTrace(steps=[], final_subset=slots), path)
        assert read_subset(path) == slots
