"""Reference extractor: the per-frame implementation the columnar one replaced.

It builds a Frame, a Spectrum and a FrameFeatures object for every analysis
window and aggregates them family by family. It is kept unchanged, apart
from raising ValueError for mismatched spectra and in place of the error
classes vocalnet no longer has, as the oracle that
tests/test_feature_equivalence.py compares vocalnet.features against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from vocalnet.audio_io import DEFAULT_HOP, DEFAULT_WINDOW, AudioClip
from vocalnet.errors import EmptyClip
from vocalnet.features import (FEATURE_FAMILIES, LPC_ORDER, MACRO_WINDOW_FRAMES,
                               MAG_FLOOR, N_MFCC, ROLLOFF_FRACTION,
                               FeatureVector, beat_features,
                               fraction_low_energy, mel_filter_bank)


@dataclass(frozen=True)
class Frame:
    """One fixed-length analysis window cut from a clip."""

    samples: np.ndarray
    index: int
    start_sample: int


def frame_clip(clip: AudioClip, window_size: int = DEFAULT_WINDOW,
               hop_size: int = DEFAULT_HOP) -> list[Frame]:
    """Cut a clip into overlapping frames of window_size every hop_size samples.

    A clip shorter than one window yields a single zero-padded frame so that
    no labeled sample is ever dropped.
    """
    if window_size <= 0:
        raise ValueError("window_size must be positive")
    if not 0 < hop_size <= window_size:
        raise ValueError("hop_size must be in (0, window_size]")
    x = clip.samples
    if len(x) == 0:
        raise EmptyClip(clip.source_path or "<clip>")

    if len(x) < window_size:
        padded = np.zeros(window_size)
        padded[:len(x)] = x
        return [Frame(samples=padded, index=0, start_sample=0)]

    count = (len(x) - window_size) // hop_size + 1
    return [Frame(samples=x[i * hop_size:i * hop_size + window_size],
                  index=i, start_sample=i * hop_size)
            for i in range(count)]


@dataclass(frozen=True)
class Spectrum:
    """Magnitude spectrum of one frame (bins 0..W/2)."""

    magnitudes: np.ndarray
    bin_hz: float


@dataclass(frozen=True)
class FrameFeatures:
    """Per-window measurements for one frame."""

    zero_crossings: int
    rms: float
    flux: float
    rolloff_hz: float
    compactness: float
    moments: np.ndarray  # area, mean, power-spectrum-density, skew, kurtosis
    centroid_hz: float
    variability: float
    mfcc: np.ndarray
    lpc: np.ndarray


@dataclass(frozen=True)
class ClipLevelFeatures:
    """Envelope-level measurements for one macro-window of frames."""

    low_energy_fraction: float
    beat_sum: float
    strongest_beat_bpm: float
    strongest_beat_strength: float


def magnitude_spectrum(frame: Frame, sample_rate: int,
                       window: str = "hann") -> Spectrum:
    """Magnitude of the real FFT of the windowed frame.

    window="rect" disables the Hann taper; used by oracle tests that compare
    against a direct DFT.
    """
    w = len(frame.samples)
    if w <= 0 or (w & (w - 1)) != 0:
        raise ValueError(f"frame length {w}")
    if window == "hann":
        tapered = frame.samples * np.hanning(w)
    elif window == "rect":
        tapered = frame.samples
    else:
        raise ValueError(f"unknown window {window!r}")
    return Spectrum(magnitudes=np.abs(np.fft.rfft(tapered)),
                    bin_hz=sample_rate / w)


def time_domain_features(samples: np.ndarray) -> tuple[int, float]:
    """Zero-crossing count and rms of one frame.

    A zero sample adopts the previous sign, so 0 never counts as a crossing
    by itself.
    """
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        raise ValueError("empty frame")
    signs = np.sign(x)
    # forward-fill zeros with the previous sign
    idx = np.where(signs != 0, np.arange(len(signs)), -1)
    np.maximum.accumulate(idx, out=idx)
    filled = np.where(idx >= 0, signs[np.maximum(idx, 0)], 0.0)
    crossings = int(np.sum(np.abs(np.diff(filled)) > 1.5))
    rms = float(np.sqrt(np.mean(x ** 2)))
    return crossings, rms


def spectral_shape_features(current: Spectrum, previous: Spectrum | None = None):
    """Flux, rolloff, compactness, five moments, centroid, and variability."""
    m = current.magnitudes
    if previous is not None:
        if len(previous.magnitudes) != len(m):
            raise ValueError(
                f"{len(previous.magnitudes)} vs {len(m)} bins")
        flux = float(np.sum((m - previous.magnitudes) ** 2))
    else:
        flux = 0.0

    total = float(np.sum(m))
    bins = np.arange(len(m))
    if total > 0:
        centroid_bins = float(np.sum(bins * m) / total)
    else:
        centroid_bins = 0.0
    centroid_hz = centroid_bins * current.bin_hz

    energy = m ** 2
    cum = np.cumsum(energy)
    target = ROLLOFF_FRACTION * cum[-1]
    rolloff_hz = float(np.searchsorted(cum, target) * current.bin_hz)

    logm = np.log(np.maximum(m, MAG_FLOOR))
    if len(m) >= 3:
        neighborhood = (logm[:-2] + logm[1:-1] + logm[2:]) / 3.0
        compactness = float(np.sum(np.abs(logm[1:-1] - neighborhood)))
    else:
        compactness = 0.0

    # first five moments of the magnitude distribution over bin index
    if total > 0:
        mu = centroid_bins
        var = float(np.sum((bins - mu) ** 2 * m) / total)
        if var > 0:
            sigma = np.sqrt(var)
            skew = float(np.sum((bins - mu) ** 3 * m) / total / sigma ** 3)
            kurt = float(np.sum((bins - mu) ** 4 * m) / total / sigma ** 4)
        else:
            skew = 0.0  # point-mass convention
            kurt = 0.0
        moments = np.array([total, mu, var, skew, kurt])
    else:
        moments = np.zeros(5)

    variability = float(np.std(m))
    return flux, rolloff_hz, compactness, moments, centroid_hz, variability


def mfcc(spectrum: Spectrum, mel_bank: np.ndarray,
         n_coefficients: int = N_MFCC) -> np.ndarray:
    """Type-II DCT (orthonormal) of the log mel filter energies."""
    if mel_bank.shape[1] != len(spectrum.magnitudes):
        raise ValueError(f"bank has {mel_bank.shape[1]} bins, "
                         f"spectrum has {len(spectrum.magnitudes)}")
    energies = mel_bank @ (spectrum.magnitudes ** 2)
    log_energies = np.log(np.maximum(energies, MAG_FLOOR))
    return dct(log_energies, type=2, norm="ortho")[:n_coefficients]


def lpc(samples: np.ndarray, order: int = LPC_ORDER) -> tuple[np.ndarray, bool]:
    """Forward linear predictor coefficients via Levinson-Durbin.

    Returns (a, degenerate) with the convention x_hat[n] = sum_i a[i-1]*x[n-i].
    An all-zero frame yields all-zero coefficients with degenerate=True.
    """
    x = np.asarray(samples, dtype=np.float64)
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(x) <= order:
        raise ValueError("frame shorter than LPC order")

    # biased autocorrelation
    r = np.array([np.dot(x[:len(x) - k], x[k:]) for k in range(order + 1)]) / len(x)
    if r[0] == 0.0:
        return np.zeros(order), True

    a = np.zeros(order)  # predictor coefficients, positive convention
    err = r[0]
    for i in range(order):
        acc = r[i + 1] - np.dot(a[:i], r[i:0:-1])
        if err <= 0:
            break
        k = acc / err
        a_new = a.copy()
        a_new[i] = k
        a_new[:i] = a[:i] - k * a[:i][::-1]
        a = a_new
        err *= (1.0 - k * k)
    return a, False


def clip_level_features(frame_rms_series: np.ndarray, hop_seconds: float,
                        macro_window: int = MACRO_WINDOW_FRAMES
                        ) -> list[ClipLevelFeatures]:
    """Envelope features per macro-window of the rms series."""
    series = np.asarray(frame_rms_series, dtype=np.float64)
    out = []
    for start in range(0, len(series), macro_window):
        chunk = series[start:start + macro_window]
        flewf = fraction_low_energy(chunk)
        if len(chunk) >= 4:
            bs, sb, ssb = beat_features(chunk, hop_seconds)
        else:
            bs, sb, ssb = 0.0, 0.0, 0.0  # too short to carry a beat
        out.append(ClipLevelFeatures(flewf, bs, sb, ssb))
    return out


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values))


def aggregate_clip(frames: list[FrameFeatures],
                   clip_level: list[ClipLevelFeatures]) -> FeatureVector:
    """Pack per-frame and macro-window measurements into the 28-slot vector.

    Vector families (mfcc, moments, lpc) are first collapsed to the mean of
    their coefficients per frame; stds are population stds throughout, so a
    single frame or macro-window gives 0 in every std slot.
    """
    if not frames:
        raise ValueError("no frames to aggregate")
    if not clip_level:
        raise ValueError("no macro-windows to aggregate")

    per_family = {
        "mfcc": np.array([f.mfcc.mean() for f in frames]),
        "zero_crossings": np.array([f.zero_crossings for f in frames], dtype=float),
        "rms": np.array([f.rms for f in frames]),
        "low_energy_fraction": np.array([c.low_energy_fraction for c in clip_level]),
        "spectral_flux": np.array([f.flux for f in frames]),
        "spectral_rolloff": np.array([f.rolloff_hz for f in frames]),
        "compactness": np.array([f.compactness for f in frames]),
        "moments": np.array([f.moments.mean() for f in frames]),
        "lpc": np.array([f.lpc.mean() for f in frames]),
        "spectral_centroid": np.array([f.centroid_hz for f in frames]),
        "beat_sum": np.array([c.beat_sum for c in clip_level]),
        "strongest_beat": np.array([c.strongest_beat_bpm for c in clip_level]),
        "strongest_beat_strength": np.array([c.strongest_beat_strength
                                             for c in clip_level]),
        "spectral_variability": np.array([f.variability for f in frames]),
    }
    values = []
    for family in FEATURE_FAMILIES:
        mean, std = _mean_std(per_family[family])
        values.extend((mean, std))
    return FeatureVector(values=np.array(values))


def extract_features(clip: AudioClip, window_size: int = DEFAULT_WINDOW,
                     hop_size: int = DEFAULT_HOP,
                     fft_window: str = "hann") -> FeatureVector:
    """Full per-clip extraction: frame, analyze each window, aggregate."""
    frames = frame_clip(clip, window_size, hop_size)
    bank = mel_filter_bank(clip.sample_rate, window_size)

    frame_features = []
    previous = None
    for frame in frames:
        spectrum = magnitude_spectrum(frame, clip.sample_rate, window=fft_window)
        zc, rms = time_domain_features(frame.samples)
        flux, rolloff, compact, moments, centroid, variability = \
            spectral_shape_features(spectrum, previous)
        coeffs = mfcc(spectrum, bank)
        predictor, _ = lpc(frame.samples)
        frame_features.append(FrameFeatures(
            zero_crossings=zc, rms=rms, flux=flux, rolloff_hz=rolloff,
            compactness=compact, moments=moments, centroid_hz=centroid,
            variability=variability, mfcc=coeffs, lpc=predictor))
        previous = spectrum

    rms_series = np.array([f.rms for f in frame_features])
    hop_seconds = hop_size / clip.sample_rate
    clip_level = clip_level_features(rms_series, hop_seconds)
    return aggregate_clip(frame_features, clip_level)
