import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import feature_oracle
import lpc_oracle
import spectral_shape_oracle
from vocalnet.audio_io import (AudioClip, DEFAULT_HOP, DEFAULT_WINDOW,
                               frame_clip, resample)
from vocalnet import _helper, features as F
from vocalnet.errors import InvalidSetting

from conftest import RATE, noise_clip, tone_clip


def one_frame(samples):
    """A single frame (or spectrum) as the (1, W) array the extractor takes."""
    return np.asarray(samples, dtype=float)[None, :]


def direct_dft_magnitudes(x):
    """O(W^2) DFT oracle, bins 0..W/2."""
    w = len(x)
    n = np.arange(w)
    mags = []
    for k in range(w // 2 + 1):
        re = np.sum(x * np.cos(-2 * np.pi * k * n / w))
        im = np.sum(x * np.sin(-2 * np.pi * k * n / w))
        mags.append(np.hypot(re, im))
    return np.array(mags)


class TestMagnitudeSpectrum:
    def test_zero_frame(self):
        mags = F.magnitude_spectrum(one_frame(np.zeros(64)))
        assert mags.shape == (1, 33)
        assert np.all(mags == 0)

    def test_pure_sine_peaks_at_its_bin(self):
        n = np.arange(64)
        x = np.sin(2 * np.pi * 4 * n / 64)
        assert int(np.argmax(F.magnitude_spectrum(one_frame(x)))) == 4

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(64)
            mags = F.magnitude_spectrum(one_frame(x))[0]
            np.testing.assert_allclose(
                mags, direct_dft_magnitudes(x * np.hanning(64)), atol=1e-9)

    def test_parseval_on_windowed_signal(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(128)
            windowed = x * np.hanning(128)
            # full symmetric spectrum energy: interior bins count twice
            m = F.magnitude_spectrum(one_frame(x))[0]
            full = m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)
            np.testing.assert_allclose(np.sum(windowed ** 2), full / 128,
                                       rtol=1e-10)

    @pytest.mark.parametrize("n_frames", [1, F.FFT_ROWS - 1, F.FFT_ROWS,
                                          F.FFT_ROWS + 1, 300])
    def test_chunks_match_one_transform_of_every_frame(self, n_frames):
        frames = frame_clip(TestBlocks.clip_of(n_frames, "noise",
                                               np.random.default_rng(n_frames)))
        assert len(frames) == n_frames
        want = np.abs(np.fft.rfft(frames * np.hanning(DEFAULT_WINDOW), axis=1))
        assert F.magnitude_spectrum(frames).tobytes() == want.tobytes()


class TestTimeDomain:
    def test_alternating_signs(self):
        zc, rms = F.time_domain_features(one_frame([1, -1, 1, -1, 1, -1, 1, -1]))
        assert zc[0] == 7
        assert rms[0] == 1.0

    def test_constant(self):
        zc, rms = F.time_domain_features(one_frame(np.full(50, 0.5)))
        assert zc[0] == 0
        assert rms[0] == 0.5

    def test_sine_rms_analytic(self):
        t = np.arange(8000) / 8000
        _, rms = F.time_domain_features(one_frame(np.sin(2 * np.pi * 100 * t)))
        assert abs(rms[0] - 1 / np.sqrt(2)) < 1e-3

    def test_zero_adopts_previous_sign(self):
        zc, _ = F.time_domain_features(np.array([[1.0, 0.0, 1.0],
                                                 [1.0, 0.0, -1.0],
                                                 [0.0, 0.0, -1.0]]))
        assert zc.tolist() == [0, 1, 0]

    @staticmethod
    def forward_fill_crossings(row):
        """Sign changes along one row, each zero taking the previous sign."""
        count, last = 0, 0
        for x in row.tolist():
            sign = (x > 0) - (x < 0)
            if sign:
                count += last != 0 and sign != last
                last = sign
        return count

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   max_side=40),
                      elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5])))
    def test_crossings_match_per_row_forward_fill(self, frames):
        zc, _ = F.time_domain_features(frames)
        assert zc.tolist() == [self.forward_fill_crossings(row) for row in frames]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                                   st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5]),
                                            max_size=12)),
                         min_size=1, max_size=10),
           cuts=st.lists(st.integers(0, 10), max_size=4))
    def test_rows_are_independent(self, rows, cuts):
        # zero runs at both ends of a row, and rows of nothing but zeros; the
        # extractor calls the function once per block of frames
        w = 25
        stack = np.zeros((len(rows), w))
        for row, (lead, trail, core) in zip(stack, rows):
            core = core[:max(0, w - lead - trail)]
            row[lead:lead + len(core)] = core
        bounds = [0, *sorted(c % (len(stack) + 1) for c in cuts), len(stack)]
        pieces = [F.time_domain_features(stack[a:b])
                  for a, b in zip(bounds[:-1], bounds[1:])]
        zc, rms = F.time_domain_features(stack)
        assert np.concatenate([p[0] for p in pieces]).tobytes() == zc.tobytes()
        assert np.concatenate([p[1] for p in pieces]).tobytes() == rms.tobytes()


class TestSpectralShape:
    def test_point_mass_spectrum(self):
        m = np.zeros(33)
        m[7] = 2.0
        flux, rolloff, _, moments, centroid, var = \
            F.spectral_shape_features(one_frame(m), bin_hz=10.0)
        assert centroid[0] == 70.0
        assert rolloff[0] == 70.0
        assert var[0] > 0
        assert moments[0, 3] == 0.0  # degenerate skew
        assert moments[0, 4] == 0.0  # degenerate kurtosis

    def test_flux_zero_when_unchanged(self):
        rng = np.random.default_rng(2)
        m = np.abs(rng.standard_normal(33))
        flux, *_ = F.spectral_shape_features(np.stack([m, m]), 10.0)
        assert flux.tolist() == [0.0, 0.0]

    def test_flux_is_squared_change_from_previous_row(self):
        rng = np.random.default_rng(12)
        m = np.abs(rng.standard_normal((3, 33)))
        flux, *_ = F.spectral_shape_features(m, 10.0)
        assert flux[0] == 0.0  # the first frame has no predecessor
        np.testing.assert_allclose(flux[1:], np.sum(np.diff(m, axis=0) ** 2, axis=1))

    def test_flat_spectrum_hand_cumulative(self):
        _, rolloff, _, _, centroid, _ = F.spectral_shape_features(
            one_frame(np.ones(33)), bin_hz=10.0)
        assert centroid[0] == 160.0  # mean bin index 16
        assert rolloff[0] == 280.0   # ceil(0.85 * 33) = 29th bin -> index 28

    def test_all_zero_spectrum_is_finite(self):
        out = F.spectral_shape_features(one_frame(np.zeros(33)), 10.0)
        flat = np.concatenate([np.ravel(v) for v in out])
        assert np.all(np.isfinite(flat))
        assert out[4][0] == 0.0  # centroid convention

    def test_mirrored_spectrum_flips_skew_and_keeps_kurtosis(self):
        bins = np.arange(65)
        right_tailed = bins ** 2 * np.exp(-bins / 6.0)  # a peak, then a long tail
        moments = F.spectral_shape_features(
            np.stack([right_tailed, right_tailed[::-1]]), 10.0)[3]
        assert moments[0, 3] > 0.5
        np.testing.assert_allclose(moments[1, 3], -moments[0, 3], rtol=1e-12)
        np.testing.assert_allclose(moments[1, 4], moments[0, 4], rtol=1e-12)

    def test_centroid_invariant_under_scaling(self):
        rng = np.random.default_rng(3)
        m = np.abs(rng.standard_normal(33))
        one = F.spectral_shape_features(one_frame(m), 10.0)
        two = F.spectral_shape_features(one_frame(2 * m), 10.0)
        assert one[4][0] == pytest.approx(two[4][0])

    ROW_KINDS = ("noise", "zero", "dc", "single-bin", "repeat")

    @staticmethod
    def block_of(rows, seed):
        """A (len(rows), 257) magnitude block, one (kind, scale) per row."""
        rng = np.random.default_rng(seed)
        m = np.zeros((len(rows), 257))
        for i, (kind, scale) in enumerate(rows):
            if kind == "noise":
                m[i] = np.abs(rng.standard_normal(257))
            elif kind == "dc":
                m[i, 0] = rng.uniform(0.1, 5.0)
            elif kind == "single-bin":
                m[i, rng.integers(257)] = rng.uniform(0.1, 5.0)
            elif kind == "repeat" and i:
                m[i] = m[i - 1]  # flux 0 against the row before
                continue
            m[i] *= scale
        return m

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(ROW_KINDS),
                                   st.sampled_from([1e-8, 1.0, 1e4])),
                         min_size=1, max_size=300),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_allocating_reference_bit_for_bit(self, rows, seed):
        m = self.block_of(rows, seed)
        got = F.spectral_shape_features(m, RATE / DEFAULT_WINDOW)
        want = spectral_shape_oracle.spectral_shape_features(m, RATE / DEFAULT_WINDOW)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    def test_working_memory_is_a_few_blocks(self):
        # numpy reports its buffers to tracemalloc; a fresh (F, W) temporary
        # per step peaked at 6.2 blocks
        m = np.abs(np.random.default_rng(5).standard_normal((256, 257)))
        tracemalloc.start()
        try:
            F.spectral_shape_features(m, RATE / DEFAULT_WINDOW)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * m.nbytes

    def test_results_share_no_memory(self):
        rng = np.random.default_rng(6)
        m = np.abs(rng.standard_normal((256, 257)))
        first = F.spectral_shape_features(m, RATE / DEFAULT_WINDOW)
        kept = [a.copy() for a in first]
        for i, a in enumerate(first):
            assert not np.shares_memory(a, m)
            for b in first[i + 1:]:
                assert not np.shares_memory(a, b)
        F.spectral_shape_features(np.abs(rng.standard_normal((256, 257))),
                                  RATE / DEFAULT_WINDOW)
        for a, b in zip(first, kept):
            assert a.tobytes() == b.tobytes()


class TestMfcc:
    def mfcc_oracle(self, magnitudes, bank):
        """Naive double-loop DCT of the log mel energies."""
        energies = np.maximum(bank @ (magnitudes ** 2), 1e-10)
        log_e = np.log(energies)
        n = len(log_e)
        out = np.zeros(13)
        for k in range(13):
            s = sum(log_e[i] * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
                    for i in range(n))
            out[k] = s * (np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n))
        return out

    def test_zero_spectrum_constant_log(self):
        bank = F.mel_filter_bank(22050, 512)
        coeffs = F.mfcc(one_frame(np.zeros(257)), bank)[0]
        # DCT-II (ortho) of a constant c over 26 points: c * sqrt(26) at k=0
        assert coeffs[0] == pytest.approx(np.log(1e-10) * np.sqrt(26))
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        bank = F.mel_filter_bank(22050, 512)
        for _ in range(20):
            mags = np.abs(rng.standard_normal(257))
            np.testing.assert_allclose(F.mfcc(one_frame(mags), bank)[0],
                                       self.mfcc_oracle(mags, bank), atol=1e-9)

    def test_bank_geometry(self):
        bank = F.mel_filter_bank(22050, 512)
        assert bank.shape == (26, 257)
        assert np.all(bank >= 0)

    @staticmethod
    def mel_bank_oracle(sample_rate, window_size):
        """The bank built one filter at a time, as vocalnet built it before
        its one broadcast over all filters."""
        n_bins = window_size // 2 + 1
        mel_points = np.linspace(0.0, float(F.mel_scale(sample_rate / 2.0)),
                                 F.N_MEL_FILTERS + 2)
        hz_points = F.mel_to_hz(mel_points)
        bin_freqs = np.arange(n_bins) * (sample_rate / window_size)
        bank = np.zeros((F.N_MEL_FILTERS, n_bins))
        for i in range(F.N_MEL_FILTERS):
            lo, mid, hi = hz_points[i], hz_points[i + 1], hz_points[i + 2]
            rising = (bin_freqs - lo) / max(mid - lo, 1e-12)
            falling = (hi - bin_freqs) / max(hi - mid, 1e-12)
            bank[i] = np.maximum(0.0, np.minimum(rising, falling))
        return bank

    @pytest.mark.parametrize("window", [64, 512, 2048])
    @pytest.mark.parametrize("rate", [8000, 11025, 16000, 22050, 44100, 48000])
    def test_bank_matches_the_per_filter_loop_bit_for_bit(self, rate, window):
        bank = F.mel_filter_bank(rate, window)
        want = self.mel_bank_oracle(rate, window)
        assert (bank.dtype, bank.shape) == (want.dtype, want.shape)
        assert bank.flags.c_contiguous
        assert bank.tobytes() == want.tobytes()


class TestCachedArrays:
    """Every later extraction in the process reads the cached arrays, so
    none of them may be written through."""

    @pytest.mark.parametrize("cached", [
        lambda: F.mel_filter_bank(22050, 512),
        lambda: F._hann(512),
        lambda: F._dct_basis(F.N_MEL_FILTERS),
    ], ids=["mel_filter_bank", "hann", "dct_basis"])
    def test_write_raises(self, cached):
        array = cached()
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
        np.testing.assert_array_equal(cached(), before)


def levinson_oracle(r, order):
    """Textbook Levinson-Durbin on a given autocorrelation sequence."""
    a = np.zeros(order)
    err = r[0]
    for i in range(order):
        acc = r[i + 1] - sum(a[j] * r[i - j] for j in range(i))
        k = acc / err
        new = a.copy()
        new[i] = k
        for j in range(i):
            new[j] = a[j] - k * a[i - 1 - j]
        a = new
        err *= 1 - k * k
    return a


class TestLpc:
    def test_ar1_recovery(self):
        rng = np.random.default_rng(5)
        x = np.zeros(8192)
        for n in range(1, len(x)):
            x[n] = 0.9 * x[n - 1] + 0.01 * rng.standard_normal()
        (a,), (degenerate,) = F.lpc(one_frame(x))
        assert not degenerate
        assert abs(a[0] - 0.9) < 0.05
        assert np.max(np.abs(a[1:])) < 0.05

    def test_matches_analytic_autocorrelation_oracle(self):
        # AR(1) with rho=0.9 has r[k] = 0.9^k; the oracle predictor is (0.9, 0...)
        r = 0.9 ** np.arange(11)
        a = levinson_oracle(r, 10)
        assert a[0] == pytest.approx(0.9)
        np.testing.assert_allclose(a[1:], 0.0, atol=1e-12)

    def test_all_zero_frame_flagged(self):
        a, degenerate = F.lpc(np.stack([np.zeros(100), np.ones(100)]))
        assert degenerate.tolist() == [True, False]
        assert np.all(a[0] == 0)

    def test_white_noise_near_zero(self):
        rng = np.random.default_rng(6)
        a, _ = F.lpc(one_frame(rng.standard_normal(8192)))
        assert np.max(np.abs(a)) < 0.1

    @staticmethod
    def mixed_row(kind, level, rng, w):
        """An all-zero, DC, tone or noise frame. An all-zero row has no
        prediction error to spend, so it is finished from the first step
        while the others recurse."""
        if kind == "zero":
            return np.zeros(w)
        if kind == "dc":
            return np.full(w, level)
        if kind == "tone":
            return level * np.sin(2 * np.pi * rng.uniform(0.01, 0.45) * np.arange(w))
        return level * rng.standard_normal(w)

    @settings(max_examples=100, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["zero", "dc", "tone", "noise"]),
                          min_size=1, max_size=12),
           level=st.sampled_from([1e-4, 0.5, -1.0]),
           w=st.sampled_from([16, 64, 512]), seed=st.integers(0, 2**16))
    def test_rows_are_independent(self, kinds, level, w, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([self.mixed_row(kind, level, rng, w) for kind in kinds])
        a, degenerate = F.lpc(stack)
        for row, coeffs, flag in zip(stack, a, degenerate):
            (alone,), (alone_flag,) = F.lpc(row[None])
            assert coeffs.tobytes() == alone.tobytes()
            assert flag == alone_flag

    PARITY_KINDS = ("noise", "zero", "dc", "tone", "spent")
    SPENT_SCALE = 3e-161

    @classmethod
    def parity_row(cls, kind, scale, rng):
        """A 512-sample frame of the given kind. A "spent" tone ignores the
        scale: at SPENT_SCALE its autocorrelation is subnormal, and rounding
        spends its prediction error at a middle step of the recursion."""
        if kind == "zero":
            return np.zeros(DEFAULT_WINDOW)
        if kind == "dc":
            return np.full(DEFAULT_WINDOW, scale * rng.uniform(-1.0, 1.0))
        if kind == "noise":
            return scale * rng.standard_normal(DEFAULT_WINDOW)
        phase = 2 * np.pi * rng.uniform(0.001, 0.5) * np.arange(DEFAULT_WINDOW)
        tone = np.sin(phase + rng.uniform(0.0, 2 * np.pi))
        return tone * (cls.SPENT_SCALE if kind == "spent" else scale)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(PARITY_KINDS),
                                   st.sampled_from([1e-8, 1.0, 1e4])),
                         min_size=1, max_size=300),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_allocating_reference_bit_for_bit(self, rows, seed):
        rng = np.random.default_rng(seed)
        frames = np.stack([self.parity_row(kind, scale, rng) for kind, scale in rows])
        a, degenerate = F.lpc(frames)
        want, want_degenerate = lpc_oracle.lpc(frames)
        assert (a.dtype, a.shape) == (want.dtype, want.shape)
        assert a.tobytes() == want.tobytes()
        assert degenerate.tolist() == want_degenerate.tolist()

    def test_spent_tones_stop_mid_recursion(self):
        # what the parity test's "spent" rows are for: a frame that stops
        # with a nonzero first coefficient keeps 0 in its last one
        rng = np.random.default_rng(0)
        frames = np.stack([self.parity_row("spent", 1.0, rng) for _ in range(50)])
        a, degenerate = lpc_oracle.lpc(frames)
        assert not degenerate.any()
        assert np.count_nonzero((a[:, 0] != 0) & (a[:, -1] == 0)) >= 25


class TestEnvelopeFeatures:
    def test_flewf_all_equal(self):
        assert F.fraction_low_energy(np.ones(10)) == 0.0

    def test_flewf_half_below(self):
        assert F.fraction_low_energy(np.array([0, 0, 1, 1.0])) == 0.5

    def test_flewf_hand_count(self):
        assert F.fraction_low_energy(np.array([0, 1, 1, 1.0])) == 0.25

    def test_beat_constant_envelope(self):
        bs, bpm, strength = F.beat_features(np.ones(200), 0.01)
        assert (bs, bpm, strength) == (0.0, 0.0, 0.0)

    def test_beat_periodic_envelope(self):
        hop_s = 256 / 22050
        period = 40  # 60/(40*hop_s) ~ 129 BPM, inside [40, 200]
        pulse = np.concatenate([np.ones(5), np.zeros(period - 5)])
        env = np.tile(pulse, 10)
        _, bpm, _ = F.beat_features(env, hop_s)
        expected = 60 / (period * hop_s)
        bin_width = abs(60 / (period * hop_s) - 60 / ((period + 1) * hop_s))
        assert abs(bpm - expected) <= bin_width + 1e-9

    def test_beat_impulse_weak(self):
        env = np.full(300, 0.5)
        env[150] = 1.0
        _, _, strength = F.beat_features(env, 256 / 22050)
        assert strength < 0.5

    def test_series_too_short(self):
        # fewer than 4 values carry no beat, even where a lag fits them: at a
        # 0.3 s hop lag_min is 1, and lag 2 of 1, 0, 1 would be a positive bin
        for hop_seconds in (0.3, 256 / 22050):
            for n in (1, 2, 3):
                envelope = np.array([1.0, 0.0, 1.0])[:n]
                assert F.beat_features(envelope, hop_seconds) == (0.0, 0.0, 0.0)

    @staticmethod
    def per_lag_beats(series, hop_seconds):
        """beat_features with one np.dot per lag, the reference for the histogram."""
        e = series - series.mean()
        lag_min = max(1, int(np.ceil(60.0 / (F.BPM_MAX * hop_seconds))))
        lag_max = min(len(e) - 1, int(np.floor(60.0 / (F.BPM_MIN * hop_seconds))))
        lags = np.arange(lag_min, lag_max + 1)
        hist = np.array([max(0.0, float(np.dot(e[:-lag], e[lag:]))) for lag in lags])
        if len(hist) == 0 or hist.sum() == 0.0:
            return 0.0, 0.0, 0.0
        best = int(np.argmax(hist))
        beat_sum = float(hist.sum())
        return beat_sum, 60.0 / (lags[best] * hop_seconds), float(hist[best] / beat_sum)

    @pytest.mark.parametrize("n", [4, 5, 100, 101])
    @pytest.mark.parametrize("hop_seconds", [
        256 / 22050,  # lags 26..129, cut to n - 1
        0.3,          # lags 1..5: lag_max == n - 1 for n = 4, 5
        0.0001,       # lag_min 3000 > n - 1: no lag fits
    ])
    def test_beat_histogram_matches_per_lag_dot(self, n, hop_seconds):
        rng = np.random.default_rng(n)
        for envelope in (rng.uniform(0, 1, n), rng.uniform(0, 1, n) ** 4,
                         np.tile([1.0, 0.0, 0.0, 0.5], n)[:n]):
            # each bin is the same BLAS dot over the same overlap, so all
            # three values are exact, the strongest beat included
            assert (F.beat_features(envelope, hop_seconds)
                    == self.per_lag_beats(envelope, hop_seconds))


class TestAggregate:
    @staticmethod
    def tables(*values):
        """Both tables, every family's row holding the given values."""
        row = np.array(values, dtype=float)
        return (np.tile(row, (len(F.FRAME_FAMILIES), 1)),
                np.tile(row, (len(F.CLIP_LEVEL_FAMILIES), 1)))

    def test_two_frames_mean_and_population_std(self):
        fv = F.aggregate_clip(*self.tables(0.0, 2.0))
        np.testing.assert_allclose(fv.values[::2], 1.0)  # every mean slot
        np.testing.assert_allclose(fv.values[1::2], 1.0)  # population std

    def test_single_frame_zero_stds(self):
        fv = F.aggregate_clip(*self.tables(3.0))
        np.testing.assert_allclose(fv.values[1::2], 0.0)

    def test_mixed_lengths_match_per_family_reductions(self):
        # per-frame families have F values, clip-level ones M macro-windows
        rng = np.random.default_rng(3)
        for frames, windows in ((1, 1), (7, 1), (250, 3), (100, 100)):
            series = {family: rng.normal(0, 10.0 ** (i % 7 - 3),
                                         windows if family in F.CLIP_LEVEL_FAMILIES
                                         else frames)
                      for i, family in enumerate(F.FEATURE_FAMILIES)}
            series["zero_crossings"] = rng.integers(0, 300, frames)
            want = [stat(np.asarray(series[family], dtype=float))
                    for family in F.FEATURE_FAMILIES for stat in (np.mean, np.std)]
            frame_table = np.array([series[family] for family in F.FRAME_FAMILIES],
                                   dtype=float)
            clip_table = np.array([series[family] for family in F.CLIP_LEVEL_FAMILIES])
            np.testing.assert_array_equal(
                F.aggregate_clip(frame_table, clip_table).values, want)

    @pytest.mark.parametrize("n_frames", [1, 3, 100, 101, 1032])
    def test_clip_level_table_has_a_row_per_family(self, n_frames):
        rms = np.random.default_rng(n_frames).uniform(0, 1, n_frames)
        hop_seconds = DEFAULT_HOP / RATE
        table = F.clip_level_features(rms, hop_seconds)
        assert table.shape == (4, -(-n_frames // F.MACRO_WINDOW_FRAMES))
        assert table.flags.c_contiguous
        for column, start in enumerate(range(0, n_frames, F.MACRO_WINDOW_FRAMES)):
            chunk = rms[start:start + F.MACRO_WINDOW_FRAMES]
            assert tuple(table[:, column]) == (F.fraction_low_energy(chunk),
                                               *F.beat_features(chunk, hop_seconds))

    def test_slot_count_and_canonical_order(self):
        assert len(F.FEATURE_NAMES) == 28
        families = [name.rsplit("_", 1)[0] for name in F.FEATURE_NAMES]
        stats = [name.rsplit("_", 1)[1] for name in F.FEATURE_NAMES]
        assert stats == ["mean", "std"] * 14
        assert families[::2] == list(F.FEATURE_FAMILIES)
        assert families[1::2] == list(F.FEATURE_FAMILIES)
        assert len(F.FRAME_FAMILIES) == 10
        assert sorted(F.FRAME_FAMILIES + F.CLIP_LEVEL_FAMILIES) == sorted(F.FEATURE_FAMILIES)


class TestExtractProperties:
    def test_determinism(self):
        rng = np.random.default_rng(7)
        clip = tone_clip(440, rng)
        one = F.extract_features(clip)
        two = F.extract_features(clip)
        np.testing.assert_array_equal(one.values, two.values)

    def test_all_slots_finite_for_random_audio(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(100, 30000))
            clip = AudioClip(rng.uniform(-1, 1, n), 22050)
            fv = F.extract_features(clip)
            assert np.all(np.isfinite(fv.values))

    def test_silence_is_finite(self):
        fv = F.extract_features(AudioClip(np.zeros(5000), 22050))
        assert np.all(np.isfinite(fv.values))

    def test_scale_covariance(self):
        rng = np.random.default_rng(9)
        clip = tone_clip(440, rng, noise=0.02)
        half = AudioClip(clip.samples * 0.5, clip.sample_rate)
        fv_full = F.extract_features(clip)
        fv_half = F.extract_features(half)
        names = list(F.FEATURE_NAMES)
        rms_i = names.index("rms_mean")
        zc_i = names.index("zero_crossings_mean")
        sc_i = names.index("spectral_centroid_mean")
        assert fv_full.values[rms_i] == pytest.approx(2 * fv_half.values[rms_i])
        assert fv_full.values[zc_i] == fv_half.values[zc_i]
        assert fv_full.values[sc_i] == pytest.approx(fv_half.values[sc_i])

    def test_frame_locality(self):
        # recomputing one frame with just its predecessor reproduces the
        # pipeline's per-frame values
        rng = np.random.default_rng(10)
        clip = tone_clip(880, rng)
        from vocalnet.audio_io import frame_clip
        frames = frame_clip(clip, 512, 256)
        bin_hz = clip.sample_rate / 512
        isolated = F.spectral_shape_features(F.magnitude_spectrum(frames[4:6]),
                                             bin_hz)
        pipeline_vals = F.spectral_shape_features(F.magnitude_spectrum(frames),
                                                  bin_hz)
        assert isolated[0][1] == pipeline_vals[0][5]
        np.testing.assert_array_equal(isolated[3][1], pipeline_vals[3][5])

    @settings(max_examples=100, deadline=None)
    @given(level=st.floats(-1, 1), n=st.integers(1, 3 * RATE),
           window=st.sampled_from([256, 512, 1024]))
    def test_constant_dc_matches_per_frame_reference(self, level, n, window):
        # a constant's frames have near-identical moments, so moments_std
        # sits near 1e-12, the gate itself, and rounding alone can break it
        clip = AudioClip(np.full(n, level), RATE)
        got = F.extract_features(clip, window, window // 2).values
        want = feature_oracle.extract_features(clip, window, window // 2).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def whole_stack_series(clip):
    """Each family's series, with each per-frame stage run once over every
    frame and each clip-level value taken from its macro-window alone."""
    frames = frame_clip(clip)
    magnitudes = F.magnitude_spectrum(frames)
    zero_crossings, rms = F.time_domain_features(frames)
    flux, rolloff, compactness, moments, centroid, variability = \
        F.spectral_shape_features(magnitudes, clip.sample_rate / DEFAULT_WINDOW)
    coeffs = F.mfcc(magnitudes, F.mel_filter_bank(clip.sample_rate, DEFAULT_WINDOW))
    predictor, _ = F.lpc(frames)
    hop_seconds = DEFAULT_HOP / clip.sample_rate
    chunks = [rms[start:start + F.MACRO_WINDOW_FRAMES]
              for start in range(0, len(rms), F.MACRO_WINDOW_FRAMES)]
    beats = np.array([F.beat_features(chunk, hop_seconds) for chunk in chunks])
    return {
        "mfcc": coeffs.mean(axis=1),
        "zero_crossings": zero_crossings.astype(float),
        "rms": rms,
        "low_energy_fraction": np.array([F.fraction_low_energy(chunk)
                                         for chunk in chunks]),
        "spectral_flux": flux,
        "spectral_rolloff": rolloff,
        "compactness": compactness,
        "moments": moments.mean(axis=1),
        "lpc": predictor.mean(axis=1),
        "spectral_centroid": centroid,
        "beat_sum": beats[:, 0].copy(),
        "strongest_beat": beats[:, 1].copy(),
        "strongest_beat_strength": beats[:, 2].copy(),
        "spectral_variability": variability,
    }


def whole_stack_vector(clip):
    """The 28 values with each per-frame stage run once over every frame."""
    series = whole_stack_series(clip)
    return F.aggregate_clip(np.array([series[f] for f in F.FRAME_FAMILIES]),
                            np.array([series[f] for f in F.CLIP_LEVEL_FAMILIES]))


class TestBlocks:
    @staticmethod
    def block_edges(n_frames):
        """The near-equal block edges extract_features cuts n_frames at."""
        n_blocks = max(-(-n_frames // F.BLOCK_FRAMES), 1 + (n_frames >= F.SPLIT_FRAMES))
        return [n_frames * b // n_blocks for b in range(n_blocks + 1)]

    @classmethod
    def clip_of(cls, n_frames, kind, rng):
        """A clip cut into exactly n_frames default frames."""
        n = DEFAULT_WINDOW + (n_frames - 1) * DEFAULT_HOP + int(rng.integers(DEFAULT_HOP))
        if kind == "tone":
            x = 0.6 * np.sin(2 * np.pi * 440 * np.arange(n) / RATE)
        elif kind == "noise":
            x = 0.3 * rng.standard_normal(n)
        else:
            # silence, and bursts over the first frame and every block edge:
            # frames on both sides of an edge see the burst
            x = np.zeros(n)
            for edge in cls.block_edges(n_frames):
                burst = x[max(0, edge * DEFAULT_HOP - 700):edge * DEFAULT_HOP + 700]
                burst[:] = 0.5 * rng.standard_normal(len(burst))
        return AudioClip(np.clip(x, -1, 1), RATE)

    @staticmethod
    def handed_blocks(handoffs):
        """The sizes, in default frames, of the blocks extract_features
        handed the helper, from the lengths of their sample spans."""
        assert all(function is F._analyze_block for function, _ in handoffs)
        return [(n_samples - DEFAULT_WINDOW) // DEFAULT_HOP + 1
                for _, (n_samples,) in handoffs]

    @pytest.mark.parametrize("n_frames, sizes", [
        (256, [128, 128]), (257, [128, 129]), (300, [150, 150]), (700, [233, 233, 234]),
        (127, [127]), (128, [64, 64]), (129, [64, 65])])
    def test_blocks_are_near_equal(self, n_frames, sizes, monkeypatch, fresh_helper,
                                   handoffs):
        # the plan itself, then the blocks each side analyzed, each after the
        # first from one overlap frame before its own: the caller's through a
        # stage patched here, the helper's as they are handed to it, so
        # nothing is observed inside the helper process
        plan = np.diff(F._block_edges(n_frames)).tolist()
        assert F._block_edges(n_frames) == self.block_edges(n_frames)
        assert sorted(plan) == sizes
        seen = []
        stage = F.time_domain_features

        def recording(block):
            seen.append(len(block))
            return stage(block)

        monkeypatch.setattr(F, "time_domain_features", recording)
        F.extract_features(self.clip_of(n_frames, "noise", np.random.default_rng(0)))
        analyzed = [size + (b > 0) for b, size in enumerate(plan)]
        assert seen == analyzed[0::2]
        assert self.handed_blocks(handoffs) == analyzed[1::2]

    # 300 and 700 frames split at 150 and at 233 and 466, not at multiples
    # of BLOCK_FRAMES; 127 frames are one block and 128 the first two
    @pytest.mark.parametrize("n_frames", [1, 255, 256, 257, 300, 513, 700, 851,
                                          127, 128, 129])
    @pytest.mark.parametrize("kind", ["tone", "noise", "bursts"])
    def test_blocks_match_one_pass_over_every_frame(self, n_frames, kind,
                                                    monkeypatch):
        # row by row, before aggregation, whose sums can absorb a last-bit
        # change in one frame's value
        clip = self.clip_of(n_frames, kind, np.random.default_rng(n_frames))
        assert len(frame_clip(clip)) == n_frames
        series = whole_stack_series(clip)
        want = whole_stack_vector(clip).values.tobytes()
        tables = []
        aggregate = F.aggregate_clip

        def capture(frame_table, clip_table):
            tables.append(frame_table.copy())
            return aggregate(frame_table, clip_table)

        monkeypatch.setattr(F, "aggregate_clip", capture)
        got = F.extract_features(clip).values.tobytes()
        (table,) = tables
        assert table.shape == (len(F.FRAME_FAMILIES), n_frames)
        for family, row in zip(F.FRAME_FAMILIES, table):
            assert row.tobytes() == series[family].tobytes(), family
        assert got == want

    @settings(max_examples=25, deadline=None)
    @given(n_frames=st.integers(1, 1100), kind=st.sampled_from(["tone", "noise", "bursts"]),
           offset=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
    def test_the_join_is_one_pass_with_and_without_the_helper(self, n_frames, kind,
                                                              offset, seed):
        # up to 5 blocks, the clip's samples at any 8-byte offset of a cache
        # line; the second extraction runs inside held() in this thread,
        # which puts every block on the caller
        samples = self.clip_of(n_frames, kind, np.random.default_rng(seed)).samples
        room = np.empty(len(samples) + 8)
        start = (8 * offset - room.ctypes.data) % 64 // 8
        room[start:start + len(samples)] = samples
        clip = AudioClip(room[start:start + len(samples)], RATE)
        assert clip.samples.ctypes.data % 64 == 8 * offset
        series = whole_stack_series(clip)
        tables = []
        aggregate = F.aggregate_clip

        def capture(frame_table, clip_table):
            tables.append(frame_table.copy())
            return aggregate(frame_table, clip_table)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(F, "aggregate_clip", capture)
            F.extract_features(clip)
            with _helper.held():
                F.extract_features(clip)
        assert len(tables) == 2
        for table in tables:
            assert table.shape == (len(F.FRAME_FAMILIES), n_frames)
            for family, row in zip(F.FRAME_FAMILIES, table):
                assert row.tobytes() == series[family].tobytes(), family

    def test_the_helper_writes_the_callers_rows_at_every_alignment(self, handoffs):
        # the helper gets a copy of its block's samples at their address
        # modulo 64, so for a clip whose samples start at any 8-byte offset of
        # a cache line its rows are those the caller writes from the clip's
        # own memory, bit for bit, under kernels that round by alignment too
        # (OpenBLAS's Prescott ddot); the rows are compared before
        # aggregation, whose sums can absorb a last-bit change
        base = self.clip_of(300, "noise", np.random.default_rng(10)).samples
        settings = DEFAULT_WINDOW, DEFAULT_HOP, RATE
        for offset in range(8):
            clip = AudioClip(base[offset:], RATE)
            samples = clip.samples[150 * DEFAULT_HOP:299 * DEFAULT_HOP + DEFAULT_WINDOW]
            handed = len(handoffs)
            want, got = _helper.run_jobs(F._analyze_block, [samples, samples],
                                         *settings)
            assert len(handoffs) == handed + 1, offset
            assert got.shape == (len(F.FRAME_FAMILIES), 150)
            assert got.tobytes() == want.tobytes(), offset
            got = F.extract_features(clip).values.tobytes()
            assert got == whole_stack_vector(clip).values.tobytes(), offset

    def test_every_span_fits_the_helper_at_the_commands_setting(self, monkeypatch):
        # each sample span extract_features hands run_jobs, for clips of
        # 1-2000 frames and one shorter than a window, is an input the helper
        # takes at any address residue; were BLOCK_FRAMES, the overlap frame
        # and BUFFER_BYTES to drift apart, every block it should take would
        # run on the caller without a word. The largest span is a later
        # block of BLOCK_FRAMES frames and its overlap frame, 66,048 samples
        class Handed(Exception):
            pass

        spans = []

        def recording(function, sources, *args):
            spans.extend(sources)
            raise Handed

        monkeypatch.setattr(_helper, "run_jobs", recording)
        for n_samples in [300, *(DEFAULT_WINDOW + (n_frames - 1) * DEFAULT_HOP
                                 for n_frames in range(1, 2001))]:
            with pytest.raises(Handed):
                F.extract_features(AudioClip(np.zeros(n_samples), RATE))
        for span in spans:
            assert span.dtype == np.float64 and span.flags.c_contiguous
            assert _helper._place(span) is not None
            # 56: the largest residue of a float64 address modulo 64
            assert span.nbytes + 56 <= _helper.BUFFER_BYTES, len(span)
        assert max(map(len, spans)) == F.BLOCK_FRAMES * DEFAULT_HOP + DEFAULT_WINDOW

    def test_a_caller_that_finds_the_helper_held_runs_every_block_itself(
            self, handoffs):
        # while one caller holds the helper, another analyzes all of its
        # blocks itself at once rather than wait for it
        clip = self.clip_of(300, "noise", np.random.default_rng(11))
        want = whole_stack_vector(clip).values.tobytes()
        got = []
        with _helper.held():
            other = threading.Thread(
                target=lambda: got.append(F.extract_features(clip).values.tobytes()))
            other.start()
            other.join(timeout=20)
            assert not other.is_alive(), "the caller waited for the held helper"
        assert got == [want] and handoffs == []

    @pytest.mark.parametrize("side", ["caller", "helper"])
    def test_a_failing_block_raises_its_exception_after_the_join(self, side,
                                                                  monkeypatch,
                                                                  fresh_helper):
        # a clip of two blocks, one on each side; the helper is forked with
        # the stage patched here, which raises on the given side's block only
        clip = self.clip_of(300, "noise", np.random.default_rng(0))
        caller = os.getpid()
        stage = F.time_domain_features

        def failing(block):
            if (os.getpid() == caller) == (side == "caller"):
                raise RuntimeError(f"a block failed on the {side}")
            return stage(block)

        monkeypatch.setattr(F, "time_domain_features", failing)
        threads = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=f"^a block failed on the {side}$"):
            F.extract_features(clip)
        # the helper's answer was taken before the raise, and no thread started
        assert _helper._running is not None and not _helper._running.pending
        assert set(threading.enumerate()) == threads

    def test_concurrent_calls_keep_every_bit(self):
        # four callers on two cores, one at a time holding the helper and the
        # others analyzing every block themselves, with the interpreter
        # switching threads every 10 us: state shared between calls, such as
        # the helper's buffer, or a block skipped, shows as a changed bit
        clips = [self.clip_of(n_frames, "noise", np.random.default_rng(n_frames))
                 for n_frames in (300, 513, 700, 851)]
        want = [whole_stack_vector(clip).values.tobytes() for clip in clips]
        got = {i: [] for i in range(len(clips))}

        def run(i):
            for _ in range(5):
                got[i].append(F.extract_features(clips[i]).values.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in got]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert [got[i] for i in got] == [[w] * 5 for w in want]

    def test_a_clip_of_one_block_starts_no_thread(self, fresh_helper, handoffs):
        # nor a helper: one-block clips never reach it, and the first clip of
        # two blocks or more forks the one helper, which every later one uses
        threads = threading.active_count()
        rng = np.random.default_rng(4)
        for n_frames in (1, 86, 127):
            F.extract_features(self.clip_of(n_frames, "noise", rng))
        assert handoffs == [] and _helper._running is None
        pids = set()
        for count, n_frames in enumerate((128, 256, 257), 1):
            F.extract_features(self.clip_of(n_frames, "noise", rng))
            assert len(self.handed_blocks(handoffs)) == count
            pids.add(_helper._running.pid)
        assert len(pids) == 1
        assert threading.active_count() == threads

    def test_a_forked_child_starts_its_own_helper(self):
        # a child that handed its blocks to the parent's helper would read
        # the parent's answers; it forgets that helper and forks its own, and
        # the parent's serves on
        clip = self.clip_of(300, "noise", np.random.default_rng(5))
        want = whole_stack_vector(clip).values.tobytes()
        F.extract_features(clip)  # the helper now runs
        parent_helper = _helper._running.pid
        with warnings.catch_warnings():
            # Python 3.12 warns on a fork of a process that runs threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                got = F.extract_features(clip).values.tobytes()
                status = (2 if got != want else
                          3 if _helper._running.pid == parent_helper else 0)
                _helper.stop()
            finally:
                os._exit(status)
        deadline = time.monotonic() + 30
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done, "the child did not finish its extraction"
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert F.extract_features(clip).values.tobytes() == want
        assert _helper._running.pid == parent_helper

    def test_a_block_that_raised_on_the_helper_leaves_it_serving(self, monkeypatch,
                                                                  fresh_helper):
        clip = self.clip_of(300, "noise", np.random.default_rng(6))
        want = whole_stack_vector(clip).values.tobytes()
        threads = threading.active_count()
        # the helper is forked with this stage, which raises on its first
        # block there and runs the real stage after that
        caller = os.getpid()
        stage = F.time_domain_features
        raised = []

        def failing(block):
            if os.getpid() != caller and not raised:
                raised.append(True)
                raise RuntimeError("a block failed")
            return stage(block)

        monkeypatch.setattr(F, "time_domain_features", failing)
        with pytest.raises(RuntimeError, match="^a block failed$"):
            F.extract_features(clip)
        monkeypatch.undo()
        pid = _helper._running.pid
        for _ in range(3):
            assert F.extract_features(clip).values.tobytes() == want
        assert _helper._running.pid == pid
        assert threading.active_count() == threads

    def test_a_killed_helper_costs_time_not_bits(self):
        # the call that finds the helper dead analyzes its blocks itself and
        # the next one forks a new helper
        clip = self.clip_of(700, "noise", np.random.default_rng(8))
        want = whole_stack_vector(clip).values.tobytes()
        F.extract_features(clip)  # the helper now runs
        killed = _helper._running.pid
        os.kill(killed, signal.SIGKILL)
        assert F.extract_features(clip).values.tobytes() == want
        with pytest.raises(ProcessLookupError):
            os.kill(killed, 0)  # reaped
        assert F.extract_features(clip).values.tobytes() == want
        assert _helper._running.pid != killed

    def test_an_interrupted_wait_drops_the_helper(self, monkeypatch):
        # a Ctrl-C while the caller waits leaves the helper's answer unread;
        # a later call that took it for its own would read a block the helper
        # is still writing, so the helper goes and the next call forks anew
        clip = self.clip_of(300, "noise", np.random.default_rng(9))
        want = whole_stack_vector(clip).values.tobytes()
        F.extract_features(clip)  # the helper now runs
        interrupted = _helper._running.pid

        def wait(helper):
            raise KeyboardInterrupt

        monkeypatch.setattr(_helper.Helper, "wait", wait)
        with pytest.raises(KeyboardInterrupt):
            F.extract_features(clip)
        monkeypatch.undo()
        assert _helper._running is None
        with pytest.raises(ProcessLookupError):
            os.kill(interrupted, 0)  # reaped
        for _ in range(3):
            assert F.extract_features(clip).values.tobytes() == want

    def test_the_helper_keeps_nothing_of_a_clip(self):
        # the caller copies a block's samples into the helper's buffer and
        # keeps no reference to them, so the clip's samples go with the
        # caller's last reference
        clip = self.clip_of(300, "noise", np.random.default_rng(7))
        samples = weakref.ref(clip.samples)
        F.extract_features(clip)
        del clip
        assert samples() is None

    def test_a_process_that_exits_leaves_no_helper(self, tmp_path):
        # the process stops its helper at exit and waits for it, so by the
        # time the process is gone its helper is too
        script = (
            "import numpy as np\n"
            "from vocalnet import _helper, features\n"
            "from vocalnet.audio_io import AudioClip\n"
            "x = np.random.default_rng(0).uniform(-0.5, 0.5, 512 + 299 * 256)\n"
            "features.extract_features(AudioClip(x, 22050))\n"
            "print(_helper._running.pid)\n")
        package_root = os.path.dirname(os.path.dirname(F.__file__))
        env = {**os.environ, "PYTHONPATH": package_root}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        with pytest.raises(ProcessLookupError):
            os.kill(int(done.stdout), 0)

    def test_a_process_that_ignores_sigchld_loses_no_helper_quietly(self):
        # where SIGCHLD is ignored, as a parent's SIG_IGN survives exec, the
        # kernel reaps the helper itself and waitpid fails once it has
        # exited: a killed helper still costs time only, and the helper the
        # process forks next is still gone by the time the process is
        script = (
            "import os, signal\n"
            "signal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"
            "import numpy as np\n"
            "from vocalnet import _helper, features\n"
            "from vocalnet.audio_io import AudioClip\n"
            "x = np.random.default_rng(0).uniform(-0.5, 0.5, 512 + 299 * 256)\n"
            "clip = AudioClip(x, 22050)\n"
            "want = features.extract_features(clip).values.tobytes()\n"
            "killed = _helper._running.pid\n"
            "os.kill(killed, signal.SIGKILL)\n"
            "assert features.extract_features(clip).values.tobytes() == want\n"
            "assert features.extract_features(clip).values.tobytes() == want\n"
            "print(killed, _helper._running.pid)\n")
        package_root = os.path.dirname(os.path.dirname(F.__file__))
        env = {**os.environ, "PYTHONPATH": package_root}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        killed, later = map(int, done.stdout.split())
        assert later != killed
        for pid in (killed, later):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_long_clip_matches_each_series_reduced_alone(self):
        # 12 s is 1032 frames: 5 blocks and 11 macro-windows, enough values
        # per row that a table reduced through a strided view sums in another
        # order than the series alone does
        clip = noise_clip(np.random.default_rng(12), duration=12.0)
        series = whole_stack_series(clip)
        assert len(series["rms"]) > 4 * F.BLOCK_FRAMES
        assert len(series["beat_sum"]) >= 9
        want = np.array([stat(series[family]) for family in F.FEATURE_FAMILIES
                         for stat in (np.mean, np.std)])
        assert F.extract_features(clip).values.tobytes() == want.tobytes()

    def test_working_memory_is_below_the_samples(self):
        # numpy reports its buffers to tracemalloc; a whole-clip pass holds
        # several arrays of the frames' size, each larger than the samples
        clip = noise_clip(np.random.default_rng(3), duration=60.0)
        tracemalloc.start()
        try:
            F.extract_features(clip)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < clip.samples.nbytes


class TestExtractionSettings:
    # the commands extract at the DEFAULT_* settings only; the library takes
    # a power-of-two window above LPC_ORDER (10) and a hop in (0, window], and
    # any other setting raises InvalidSetting before extraction
    @pytest.mark.parametrize("window, hop, rate", [
        (500, 250, RATE), (8, 4, RATE), (8, 256, RATE), (0, 256, RATE),
        (512, 4096, RATE), (512, 0, RATE), (512, 256, -7), (512, 256, 0),
    ])
    def test_clip_path_rejects(self, window, hop, rate):
        clip = tone_clip(440, np.random.default_rng(0))
        with pytest.raises(InvalidSetting):
            F.extract_features(resample(clip, rate), window, hop)

    @pytest.mark.parametrize("window, hop", [(8, 4), (500, 250)])
    def test_window_rejected_before_any_stage(self, window, hop, monkeypatch):
        def stage(*args):
            raise AssertionError("a stage ran")
        monkeypatch.setattr(F, "magnitude_spectrum", stage)
        monkeypatch.setattr(F, "lpc", stage)
        with pytest.raises(InvalidSetting):
            F.extract_features(tone_clip(440, np.random.default_rng(0)), window, hop)

    @pytest.mark.parametrize("window, hop, rate", [
        (512, 256, RATE), (16, 16, 8000), (1024, 1024, 44100)])
    def test_clip_path_accepts(self, window, hop, rate):
        vector = F.extract_features(
            resample(tone_clip(440, np.random.default_rng(0)), rate), window, hop)
        assert np.isfinite(vector.values).all()
