"""Top-level acceptance gate: one test per criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np
import pytest

from vocalnet import dataset, pipeline, selection
from vocalnet import features as F
from vocalnet import mlp
from vocalnet.audio_io import AudioClip, parse_wav
from vocalnet.dataset import plan_folds
from vocalnet.evaluation import ConfusionMatrix
from vocalnet.features import FEATURE_FAMILIES, FEATURE_NAMES, extract_features
from vocalnet.mlp import NetworkSpec, TrainingConfig, init_network, one_hot

from conftest import synthetic_feature_corpus, tone_clip, write_wav
from mlp_oracle import mse_gradients
from test_features import direct_dft_magnitudes
from test_mlp import finite_difference_gradients, max_relative_error


def report(name, elapsed, limit):
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit


def test_criterion_1_table_arithmetic():
    start = time.time()
    # bird table: 50 correct of 70
    bird = np.zeros((14, 14), dtype=int)
    bird[0, 0] = 50
    bird[0, 1] = 20
    r = ConfusionMatrix(bird, [f"b{i}" for i in range(14)])
    assert round(r.overall_accuracy, 2) == 71.43
    assert round(r.overall_error_rate, 2) == 28.57
    # dog table: 17 correct of 18
    dog = np.zeros((9, 9), dtype=int)
    for i in range(8):
        dog[i, i] = 2
    dog[8, 2] = 1
    dog[8, 8] = 1
    r = ConfusionMatrix(dog, [f"d{i}" for i in range(9)])
    assert round(r.overall_accuracy, 2) == 94.44
    assert round(r.overall_error_rate, 2) == 5.56
    # frog-style counts: 20 correct of 22
    frog = np.zeros((12, 12), dtype=int)
    frog[0, 0] = 20
    frog[0, 1] = 2
    r = ConfusionMatrix(frog, [f"f{i}" for i in range(12)])
    assert round(r.overall_accuracy, 2) == 90.91
    assert round(r.overall_error_rate, 2) == 9.09
    report("1 (table arithmetic)", time.time() - start, 1)


def test_criterion_2_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        spec = NetworkSpec(j=int(rng.integers(2, 9)), k=int(rng.integers(2, 7)),
                           m=int(rng.integers(1, 3)), n=int(rng.integers(2, 6)))
        net = init_network(spec, seed=int(rng.integers(0, 10000)))
        inputs = rng.standard_normal((5, spec.j))
        targets = one_hot(rng.integers(0, spec.n, 5), spec.n)
        analytic = mse_gradients(net, inputs, targets)
        numeric = finite_difference_gradients(net, inputs, targets, eps=1e-4)
        worst = max(worst, max_relative_error(analytic, numeric))
    assert worst < 1e-4, f"max relative gradient error {worst}"
    report("2 (gradient correctness)", time.time() - start, 10)


def test_criterion_3_xor_convergence():
    start = time.time()
    inputs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    targets = np.array([[0], [1], [1], [0]], dtype=float)
    config = TrainingConfig(learning_rate=0.5, momentum=0.9,
                            max_epochs=5000, seed=1)
    states = []
    for _ in range(2):
        net = init_network(NetworkSpec(2, 2, 1, 1), seed=1)
        _, state = mlp.train(net, inputs, targets, inputs, targets, config)
        states.append(state)
    for state in states:
        assert state.stop_reason == "TargetReached"
        assert state.train_mse < 0.01
        assert state.epoch <= 5000
    assert states[0].epoch == states[1].epoch  # deterministic
    assert states[0].train_mse == states[1].train_mse
    report("3 (XOR convergence)", time.time() - start, 5)


def test_criterion_4_end_to_end_synthetic_corpus(tone_corpus_dir):
    start = time.time()
    corpus = dataset.load_corpus(tone_corpus_dir)
    assert corpus.class_names[-1] == "_pseudo"
    folds = plan_folds(corpus, seed=0)
    run = pipeline.train_all_folds(corpus, folds, TrainingConfig(seed=0))
    # the README's library example: one hidden layer as wide as the class count
    assert {(r.network.spec.m, r.network.spec.k) for r in run.results} \
        == {(1, corpus.n_classes)}
    assert run.summary.mean_accuracy >= 95.0, run.summary.mean_accuracy
    aggregate = run.summary.summed_matrix
    assert aggregate.hypothesis_pass
    report("4 (end-to-end synthetic corpus)", time.time() - start, 120)


def test_criterion_5_split_fold_invariants():
    start = time.time()
    rng = np.random.default_rng(0)
    for seed in range(50):
        n_classes = int(rng.integers(3, 16))
        sizes = [int(rng.integers(10, 41)) for _ in range(n_classes)]
        from test_dataset import label_corpus
        corpus = label_corpus(sizes)
        labels = corpus.labels
        plan = plan_folds(corpus, seed=seed)
        n = len(corpus.samples)
        eval_appearances = np.zeros(n, dtype=int)
        for split in plan:
            train = set(split.train_ids.tolist())
            test = set(split.test_ids.tolist())
            evaluation = set(split.eval_ids.tolist())
            # sizes sum to N; all pairwise intersections empty
            assert len(train) + len(test) + len(evaluation) == n
            assert not train & test
            assert not train & evaluation
            assert not test & evaluation
            assert train | test | evaluation == set(range(n))
            for cls, size in enumerate(sizes):
                got = int(np.sum(labels[split.eval_ids] == cls))
                assert abs(got - 0.2 * size) <= 1
            eval_appearances[split.eval_ids] += 1
        for cls, size in enumerate(sizes):
            if size % 10 == 0:
                assert np.all(eval_appearances[labels == cls] == 2)
    report("5 (split/fold invariants)", time.time() - start, 10)


def test_criterion_6_feature_slot_count_and_order():
    start = time.time()
    rng = np.random.default_rng(1)
    clip = tone_clip(440, rng)
    vector = extract_features(clip)
    assert vector.values.shape == (28,)
    assert len(FEATURE_NAMES) == 28
    assert len(FEATURE_FAMILIES) == 14
    # every family contributes exactly one mean and one std slot, in order
    for i, family in enumerate(FEATURE_FAMILIES):
        assert FEATURE_NAMES[2 * i] == f"{family}_mean"
        assert FEATURE_NAMES[2 * i + 1] == f"{family}_std"
    report("6 (feature-slot count and order)", time.time() - start, 1)


def test_criterion_7_selection_sanity():
    start = time.time()
    corpus = synthetic_feature_corpus([(0, 0), (4, 0), (0, 4)], seed=3)
    folds = plan_folds(corpus, seed=0)
    config = TrainingConfig(max_epochs=200, seed=0)
    trace = selection.forward_select(corpus, folds, hidden_width=3,
                                     hidden_layers=1, config=config)
    assert set(trace.final_subset[:4]) >= {0, 1}, trace.final_subset
    run = pipeline.train_all_folds(corpus, folds, config,
                                   feature_slots=trace.final_subset)
    assert run.summary.mean_accuracy >= 90.0, run.summary.mean_accuracy
    report("7 (selection sanity)", time.time() - start, 180)


def test_criterion_8_dsp_oracles():
    start = time.time()
    rng = np.random.default_rng(2)
    # FFT vs direct O(W^2) DFT of the Hann-tapered frame
    for _ in range(100):
        x = rng.standard_normal(64)
        mags = F.magnitude_spectrum(x[None, :])[0]
        oracle = direct_dft_magnitudes(x * np.hanning(64))
        assert np.max(np.abs(mags - oracle)) < 1e-9
    # mfcc vs naive DCT-of-log-mel
    bank = F.mel_filter_bank(22050, 512)
    for _ in range(10):
        mags = np.abs(rng.standard_normal(257))
        got = F.mfcc(mags[None, :], bank)[0]
        energies = np.maximum(bank @ (mags ** 2), 1e-10)
        log_e = np.log(energies)
        n = len(log_e)
        oracle = np.array([
            sum(log_e[i] * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
                for i in range(n))
            * (np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n))
            for k in range(13)])
        assert np.max(np.abs(got - oracle)) < 1e-9
    # lpc on the AR(1) fixture
    x = np.zeros(8192)
    for i in range(1, len(x)):
        x[i] = 0.9 * x[i - 1] + 0.01 * rng.standard_normal()
    (a,), (degenerate,) = F.lpc(x[None, :])
    assert not degenerate
    assert abs(a[0] - 0.9) <= 0.05
    report("8 (DSP oracles)", time.time() - start, 10)


def test_criterion_9_wav_round_trip():
    start = time.time()
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(10, 3000))
        clip = AudioClip(rng.uniform(-1, 1, n), int(rng.integers(8000, 48000)))
        back = parse_wav(write_wav(clip))
        assert back.sample_rate == clip.sample_rate
        assert np.max(np.abs(back.samples - clip.samples)) <= 1 / 32768
    report("9 (WAV round trip)", time.time() - start, 5)
