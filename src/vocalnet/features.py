"""The 28 quantified spectral properties of a vocalization clip.

Fourteen feature families are measured (most per analysis window, a few per
macro-window of the rms envelope) and each contributes its overall mean and
population standard deviation, giving a fixed 28-slot vector per clip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import AudioClip, DEFAULT_HOP, DEFAULT_WINDOW, frame_clip
from .errors import (BankMismatch, InvalidSetting, NoFrames, NonPowerOfTwoWindow,
                     SeriesTooShort)

N_MFCC = 13
N_MEL_FILTERS = 26
LPC_ORDER = 10
ROLLOFF_FRACTION = 0.85
MAG_FLOOR = 1e-10
MACRO_WINDOW_FRAMES = 100
BPM_MIN = 40.0
BPM_MAX = 200.0

# the 14 families in canonical listing order; each yields a mean and a std slot
FEATURE_FAMILIES = (
    "mfcc",
    "zero_crossings",
    "rms",
    "low_energy_fraction",
    "spectral_flux",
    "spectral_rolloff",
    "compactness",
    "moments",
    "lpc",
    "spectral_centroid",
    "beat_sum",
    "strongest_beat",
    "strongest_beat_strength",
    "spectral_variability",
)

# the columns of clip_level_features, one row per macro-window of the envelope
CLIP_LEVEL_FAMILIES = ("low_energy_fraction", "beat_sum", "strongest_beat",
                       "strongest_beat_strength")

FEATURE_NAMES = tuple(f"{family}_{stat}"
                      for family in FEATURE_FAMILIES
                      for stat in ("mean", "std"))


@dataclass(frozen=True)
class FeatureVector:
    """The 28 per-clip values in canonical family order (mean then std each)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"expected {len(FEATURE_NAMES)} values, "
                             f"got {self.values.shape}")


def magnitude_spectrum(frames: np.ndarray) -> np.ndarray:
    """Magnitude of the real FFT of each Hann-tapered frame: (F, W/2 + 1)."""
    w = frames.shape[1]
    if w <= 0 or (w & (w - 1)) != 0:
        raise NonPowerOfTwoWindow(f"frame length {w}")
    return np.abs(np.fft.rfft(frames * np.hanning(w), axis=1))


def time_domain_features(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-crossing count and rms of each frame.

    A zero sample adopts the previous sign in its frame, so 0 never counts as
    a crossing by itself.
    """
    if frames.shape[1] == 0:
        raise ValueError("empty frame")
    # forward-fill zeros with the previous sign: a signed sample in column c
    # keys 2c + 1 if positive and 2c if negative, a zero keys -1 ("no sign
    # yet"), and the running maximum carries the last sign in its parity
    cols = np.arange(frames.shape[1], dtype=np.int32)
    key = np.where(frames == 0, -1, 2 * cols + (frames > 0))
    np.maximum.accumulate(key, axis=1, out=key)
    earlier = key[:, :-1]
    flipped = ((earlier ^ key[:, 1:]) & 1).astype(bool)
    crossings = np.count_nonzero(flipped & (earlier >= 0), axis=1)
    rms = np.sqrt(np.mean(frames ** 2, axis=1))
    return crossings, rms


def spectral_shape_features(magnitudes: np.ndarray, bin_hz: float):
    """Flux, rolloff, compactness, five moments, centroid, and variability.

    One value per frame (row of magnitudes); moments is (F, 5). Flux is the
    squared change from the previous row, 0 for the first.
    """
    m = magnitudes
    flux = np.zeros(len(m))
    flux[1:] = np.sum((m[1:] - m[:-1]) ** 2, axis=1)

    total = np.sum(m, axis=1)
    nonzero = total > 0
    bins = np.arange(m.shape[1])
    centroid_bins = np.divide(np.sum(bins * m, axis=1), total,
                              out=np.zeros_like(total), where=nonzero)
    centroid_hz = centroid_bins * bin_hz

    cum = np.cumsum(m ** 2, axis=1)
    target = ROLLOFF_FRACTION * cum[:, -1]
    rolloff_hz = np.sum(cum < target[:, None], axis=1) * bin_hz

    logm = np.log(np.maximum(m, MAG_FLOOR))
    neighborhood = (logm[:, :-2] + logm[:, 1:-1] + logm[:, 2:]) / 3.0
    compactness = np.sum(np.abs(logm[:, 1:-1] - neighborhood), axis=1)

    # first five moments of the magnitude distribution over bin index; an
    # all-zero row gets all-zero moments, a point mass zero skew and kurtosis
    d = bins - centroid_bins[:, None]
    var = np.divide(np.sum(d ** 2 * m, axis=1), total,
                    out=np.zeros_like(total), where=nonzero)
    spread = var > 0
    sigma = np.sqrt(var)

    # `**` on an array may take a SIMD pow that is fast only for a positive
    # base: a negative one falls back to a per-lane path ~40x slower, and d
    # is negative below the centroid. So each power takes |d| ** p, and odd
    # ones get their sign back from d. Products, or float_power(d, p), miss
    # the 1e-12 reference gate on some constant (DC) clips.
    abs_d = np.abs(d)

    def standardized(p):
        # float_power is libm pow, like `**` on a scalar sigma; `**` on an
        # array may use a SIMD pow that rounds the last bit differently
        power = abs_d ** p
        if p % 2:
            np.copysign(power, d, out=power)
        power *= m
        mean_power = np.sum(power, axis=1) / np.where(spread, total, 1.0)
        return np.divide(mean_power, np.float_power(sigma, p),
                         out=np.zeros_like(total), where=spread)

    moments = np.stack([total, centroid_bins, var, standardized(3),
                        standardized(4)], axis=1)

    variability = np.std(m, axis=1)
    return flux, rolloff_hz, compactness, moments, centroid_hz, variability


def mel_scale(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=32)
def mel_filter_bank(sample_rate: int, window_size: int) -> np.ndarray:
    """N_MEL_FILTERS triangular mel filters, 0 Hz to Nyquist, sampled at the FFT bins."""
    n_bins = window_size // 2 + 1
    nyquist = sample_rate / 2.0
    mel_points = np.linspace(0.0, float(mel_scale(nyquist)), N_MEL_FILTERS + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * (sample_rate / window_size)

    bank = np.zeros((N_MEL_FILTERS, n_bins))
    for i in range(N_MEL_FILTERS):
        lo, mid, hi = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        rising = (bin_freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - mid, 1e-12)
        bank[i] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


@lru_cache(maxsize=8)
def _dct_basis(n_points: int) -> np.ndarray:
    """The first N_MFCC rows of the orthonormal type-II DCT matrix of
    length N = n_points, read-only. Row k is c_k cos(pi k (2n + 1) / 2N) with
    c_0 = sqrt(1/N) and c_k = sqrt(2/N) otherwise."""
    k = np.arange(min(N_MFCC, n_points))[:, None]
    n = np.arange(n_points)
    basis = np.sqrt(2.0 / n_points) * np.cos(np.pi * k * (2 * n + 1) / (2 * n_points))
    basis[0] /= np.sqrt(2.0)
    basis.flags.writeable = False
    return basis


def mfcc(magnitudes: np.ndarray, mel_bank: np.ndarray) -> np.ndarray:
    """Type-II DCT (orthonormal) of each frame's log mel filter energies.

    The DCT is a product with the cached orthonormal basis of _dct_basis (its
    first N_MFCC rows), applied frame by frame like the mel bank.
    """
    if mel_bank.shape[1] != magnitudes.shape[1]:
        raise BankMismatch(f"bank has {mel_bank.shape[1]} bins, "
                           f"spectrum has {magnitudes.shape[1]}")
    # a stacked matrix @ vector runs one gemv per frame, which sums each frame
    # as the single-spectrum product does and, unlike one gemm over all
    # frames, never wakes BLAS worker threads for so small a product
    energies = np.matmul(mel_bank, (magnitudes ** 2)[:, :, None])[:, :, 0]
    log_energies = np.log(np.maximum(energies, MAG_FLOOR))
    basis = _dct_basis(mel_bank.shape[0])
    return np.matmul(basis, log_energies[:, :, None])[:, :, 0]


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of u with the same row of v.

    A stacked (1, n) @ (n, 1) matmul runs one BLAS dot per row, so every row
    sums in the same order as np.dot on that row alone. Rows must have a
    positive stride; a reversed view takes another path and must be copied.
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def lpc(frames: np.ndarray, order: int = LPC_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Forward linear predictor coefficients of each frame via Levinson-Durbin.

    Returns (a, degenerate): a is (F, order) with the convention
    x_hat[n] = sum_i a[:, i-1]*x[n-i]; an all-zero frame yields all-zero
    coefficients and degenerate True. The recursion runs across all frames
    at once and stops per frame once its prediction error is no longer
    positive.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    w = frames.shape[1]
    if w <= order:
        raise InvalidSetting(f"a {w}-sample frame is not longer than LPC order {order}")

    # biased autocorrelation, (F, order + 1)
    r = np.stack([_row_dot(frames[:, :w - k], frames[:, k:])
                  for k in range(order + 1)], axis=1) / w

    a = np.zeros((len(frames), order))  # predictor coefficients, positive convention
    err = r[:, 0].copy()
    live = np.ones(len(frames), dtype=bool)
    for i in range(order):
        live &= err > 0  # a frame whose error is spent keeps its coefficients
        acc = r[:, i + 1] - _row_dot(a[:, :i], r[:, i:0:-1].copy())
        k = np.divide(acc, err, out=np.zeros_like(acc), where=live)
        reflected = a[:, :i] - k[:, None] * a[:, :i][:, ::-1]
        a[:, :i] = np.where(live[:, None], reflected, a[:, :i])
        a[:, i] = k
        err *= 1.0 - k * k
    return a, r[:, 0] == 0.0


def fraction_low_energy(frame_rms_series: np.ndarray) -> float:
    """Fraction of frames whose rms is strictly below the series mean."""
    series = np.asarray(frame_rms_series, dtype=np.float64)
    if len(series) == 0:
        raise ValueError("empty rms series")
    return float(np.mean(series < series.mean()))


def beat_features(frame_rms_series: np.ndarray,
                  hop_seconds: float) -> tuple[float, float, float]:
    """Beat histogram over 40-200 BPM from the rms envelope autocorrelation.

    Returns (beat_sum, strongest_beat_bpm, strongest_beat_strength); when the
    envelope is flat all three are 0 by convention.
    """
    series = np.asarray(frame_rms_series, dtype=np.float64)
    if len(series) < 4:
        raise SeriesTooShort(f"{len(series)} frames")
    e = series - series.mean()

    lag_min = max(1, int(np.ceil(60.0 / (BPM_MAX * hop_seconds))))
    lag_max = min(len(e) - 1, int(np.floor(60.0 / (BPM_MIN * hop_seconds))))
    if lag_max < lag_min:
        return 0.0, 0.0, 0.0

    lags = np.arange(lag_min, lag_max + 1)
    # the full autocorrelation runs one BLAS dot over the overlap e[:-lag],
    # e[lag:] per lag, so each bin sums as np.dot on that pair alone does
    autocorrelation = np.correlate(e, e, "full")[len(e) - 1 + lags]
    hist = np.maximum(autocorrelation, 0.0)
    beat_sum = float(np.sum(hist))
    if beat_sum == 0.0:
        return 0.0, 0.0, 0.0
    best = int(np.argmax(hist))
    bpm = 60.0 / (lags[best] * hop_seconds)
    strength = float(hist[best] / beat_sum)
    return beat_sum, bpm, strength


def clip_level_features(frame_rms_series: np.ndarray, hop_seconds: float) -> np.ndarray:
    """Envelope features per MACRO_WINDOW_FRAMES-frame window of the rms series.

    One row per macro-window, one column per CLIP_LEVEL_FAMILIES entry.
    """
    series = np.asarray(frame_rms_series, dtype=np.float64)
    rows = []
    for start in range(0, len(series), MACRO_WINDOW_FRAMES):
        chunk = series[start:start + MACRO_WINDOW_FRAMES]
        if len(chunk) >= 4:
            beats = beat_features(chunk, hop_seconds)
        else:
            beats = (0.0, 0.0, 0.0)  # too short to carry a beat
        rows.append((fraction_low_energy(chunk), *beats))
    return np.array(rows).reshape(-1, len(CLIP_LEVEL_FAMILIES))


def aggregate_clip(series: dict[str, np.ndarray]) -> FeatureVector:
    """Pack each family's series into the 28-slot vector.

    `series` maps every name in FEATURE_FAMILIES to one value per frame (or
    per macro-window for the clip-level families). Stds are population stds,
    so a single frame or macro-window gives 0 in every std slot. Series of
    one length are stacked and reduced together, a row at a time in the order
    np.mean and np.std take one series alone.
    """
    by_length: dict[int, list[int]] = {}  # series length -> family indices
    for i, family in enumerate(FEATURE_FAMILIES):
        n = len(series[family])
        if n == 0:
            raise NoFrames(f"no values to aggregate for {family}")
        by_length.setdefault(n, []).append(i)
    values = np.empty((len(FEATURE_FAMILIES), 2))  # (mean, std) per family
    for rows in by_length.values():
        stacked = np.array([series[FEATURE_FAMILIES[i]] for i in rows],
                           dtype=np.float64)
        values[rows, 0] = stacked.mean(axis=1)
        values[rows, 1] = stacked.std(axis=1)
    return FeatureVector(values=values.ravel())


def check_extraction(window: int, hop: int, rate: int) -> None:
    """Raise what extracting any clip at these settings would raise, in the
    order the clip path (resample, frame_clip, magnitude_spectrum, lpc) meets
    them."""
    if rate <= 0:
        raise InvalidSetting(f"target_rate must be positive, got {rate}")
    if window <= 0:
        raise InvalidSetting(f"window_size must be positive, got {window}")
    if not 0 < hop <= window:
        raise InvalidSetting(f"hop_size must be in (0, {window}], got {hop}")
    if window & (window - 1):
        raise NonPowerOfTwoWindow(f"frame length {window}")
    if window <= LPC_ORDER:
        raise InvalidSetting(f"a {window}-sample frame is not longer than "
                             f"LPC order {LPC_ORDER}")


def extract_features(clip: AudioClip, window_size: int = DEFAULT_WINDOW,
                     hop_size: int = DEFAULT_HOP) -> FeatureVector:
    """Full per-clip extraction: frame, analyze all windows at once, aggregate.

    Vector families (mfcc, moments, lpc) are first collapsed to the mean of
    their coefficients per frame.
    """
    frames = frame_clip(clip, window_size, hop_size)
    magnitudes = magnitude_spectrum(frames)
    zero_crossings, rms = time_domain_features(frames)
    flux, rolloff, compactness, moments, centroid, variability = \
        spectral_shape_features(magnitudes, clip.sample_rate / window_size)
    coeffs = mfcc(magnitudes, mel_filter_bank(clip.sample_rate, window_size))
    predictor, _ = lpc(frames)
    clip_level = clip_level_features(rms, hop_size / clip.sample_rate)

    series = {
        "mfcc": coeffs.mean(axis=1),
        "zero_crossings": zero_crossings,
        "rms": rms,
        "spectral_flux": flux,
        "spectral_rolloff": rolloff,
        "compactness": compactness,
        "moments": moments.mean(axis=1),
        "lpc": predictor.mean(axis=1),
        "spectral_centroid": centroid,
        "spectral_variability": variability,
        **dict(zip(CLIP_LEVEL_FAMILIES, clip_level.T)),
    }
    return aggregate_clip(series)
