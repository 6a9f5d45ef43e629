"""The 28 quantified spectral properties of a vocalization clip.

Fourteen feature families are measured and each contributes its overall
mean and population standard deviation, giving a fixed 28-slot vector per
clip. The ten FRAME_FAMILIES take one value per analysis window, as the rows
of one (10, F) table; the four CLIP_LEVEL_FAMILIES take one per macro-window
of the rms envelope, as the rows of a (4, M) table. aggregate_clip reduces
both tables row by row into the slots.

extract_features cuts a clip's frames into near-equal blocks of at most
BLOCK_FRAMES = 256 frames, and a clip of SPLIT_FRAMES = 128 frames or more
into two blocks at least, and runs every per-frame stage, LPC included, on
one block at a time. Every block after the first starts one frame early, so
its first flux value comes from spectral_shape_features like any other, and
the blocks' columns less that overlap frame are joined into the table. A
clip of two blocks or more runs every other block on the package's one
helper process: vocalnet._helper.run_jobs takes the list of blocks' sample
spans and hands it a copy of every other one. A thread could not stand in
for it: numpy holds the GIL inside a gufunc or an accumulate over at most 500
rows, so lpc's np.vecdot and the rolloff's np.cumsum(axis=1) serialize two
threads over a block's at most 256 rows, and two threads extracted
512-2048-frame clips at only 1.30-1.44x one thread's speed. With the helper
process, two blocks against one ran noise clips at 0.97x one block's speed
at 24 frames, 1.08x at 32, 1.27x at 64, 1.30x at 86, 1.44x at 128 and 1.53x
at 256 (2-core x86-64, numpy 2.4.6, medians of 11 rounds). Two blocks still
start at 128 frames: a clip below that gains at most about 0.2 ms, and the
first one in a process would pay the fork and, at exit, the helper's end,
0.5-0.8 ms and about 1 ms in a fresh `vocalnet classify`, whose clips are
mostly that short. However long a clip runs, its working memory is its
decoded samples, the stage arrays of one block on each side and a few dozen
values per frame. At 512-sample windows a 256-frame block holds at most
about 1.7 MB at once, in spectral shape: its magnitudes and that stage's two
per-call buffers, 0.5 MB each. The spectrum tapers and transforms
FFT_ROWS = 64 frames at a time, so the block's 1 MB of tapered frames and
1 MB of complex spectrum are never held whole. Block size was measured on a
512-frame noise clip (2-core x86-64, numpy 2.4.6, six rounds): the stages
run one block after another took 12.5-13.9 us/frame in 128-frame blocks and
11.7-17.8 in 256-frame ones. In a later sitting the whole extraction with
the helper process took 5.99 us/frame in 128-frame blocks against 5.61 in
256-frame ones (medians of 11 interleaved rounds).

extract_features takes a power-of-two window above LPC_ORDER (10) samples and
a hop in (0, window]; any other setting raises InvalidSetting before any
stage runs. The stages take their inputs from it and do not check them again.

A short clip's cost is mostly per call, so the stages skip numpy's Python
wrappers (np.mean, np.std, np.sum, np.count_nonzero) for the reductions they
run, and LPC's recursion reuses a few buffers; every float operation and its
order stay those of the reference stages in the tests, bit for bit. LPC's
dots stay one BLAS ddot per frame, for the reason lpc gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _helper
from .audio_io import AudioClip, DEFAULT_HOP, DEFAULT_WINDOW, frame_clip
from .errors import InvalidSetting

N_MFCC = 13
N_MEL_FILTERS = 26
LPC_ORDER = 10
ROLLOFF_FRACTION = 0.85
MAG_FLOOR = 1e-10
MACRO_WINDOW_FRAMES = 100
BPM_MIN = 40.0
BPM_MAX = 200.0
BLOCK_FRAMES = 256
SPLIT_FRAMES = 128
FFT_ROWS = 64

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

# the rows of clip_level_features' table, one value per macro-window of the
# envelope; the other families are the rows of extract_features' per-frame table
CLIP_LEVEL_FAMILIES = ("low_energy_fraction", "beat_sum", "strongest_beat",
                       "strongest_beat_strength")
FRAME_FAMILIES = tuple(f for f in FEATURE_FAMILIES if f not in CLIP_LEVEL_FAMILIES)
# each table row's family index in FEATURE_FAMILIES, its pair of slots
_FRAME_SLOTS = [FEATURE_FAMILIES.index(f) for f in FRAME_FAMILIES]
_CLIP_SLOTS = [FEATURE_FAMILIES.index(f) for f in CLIP_LEVEL_FAMILIES]

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


@lru_cache(maxsize=8)
def _hann(window_size: int) -> np.ndarray:
    """np.hanning(window_size), read-only."""
    window = np.hanning(window_size)
    window.flags.writeable = False
    return window


def magnitude_spectrum(frames: np.ndarray) -> np.ndarray:
    """Magnitude of the real FFT of each Hann-tapered frame: (F, W/2 + 1).

    The frames are tapered and transformed FFT_ROWS at a time, so beside the
    magnitudes only that many rows of tapered frames and complex spectrum
    are held at once; each row's FFT is that of the row alone.
    """
    magnitudes = np.empty((len(frames), frames.shape[1] // 2 + 1))
    window = _hann(frames.shape[1])
    for start in range(0, len(frames), FFT_ROWS):
        rows = slice(start, start + FFT_ROWS)
        np.abs(np.fft.rfft(frames[rows] * window, axis=1), out=magnitudes[rows])
    return magnitudes


def time_domain_features(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-crossing count and rms of each frame.

    A zero sample adopts the previous sign in its frame, so 0 never counts as
    a crossing by itself.
    """
    # with zeros taking the previous sign, a crossing is two signed samples
    # of opposite sign with only zeros between them: neighbours, or the two
    # sides of a zero run inside a row. Anything but 0 is signed (NaN too)
    # and only > 0 is positive. `positive` changes between neighbours at each
    # adjacent crossing, and also at each edge of a zero run whose signed
    # side is positive, so those edges are subtracted and the runs added.
    # np.count_nonzero(axis=1) and np.flatnonzero, without their Python
    # wrappers, are the integer sum and nonzero() below
    signed = frames != 0
    positive = frames > 0
    crossings = np.add.reduce(positive[:, 1:] != positive[:, :-1], axis=1,
                              dtype=np.intp)
    edges = (signed[:, 1:] != signed[:, :-1]).ravel().nonzero()[0]  # on (F, W - 1)
    if len(edges):
        row, col = np.divmod(edges, frames.shape[1] - 1)
        side_positive = positive[row, col] | positive[row, col + 1]
        crossings -= np.bincount(row[side_positive], minlength=len(frames))
        # a run that opens at one edge closes at the next one in its row
        opens = (signed[row[:-1], col[:-1]] & (row[1:] == row[:-1])).nonzero()[0]
        across = opens[side_positive[opens] != side_positive[opens + 1]]
        crossings += np.bincount(row[across], minlength=len(frames))
    rms = np.sqrt(np.add.reduce(frames ** 2, axis=1) / frames.shape[1])
    return crossings, rms


def spectral_shape_features(magnitudes: np.ndarray, bin_hz: float):
    """Flux, rolloff, compactness, five moments, centroid, and variability.

    One value per frame (row of magnitudes); moments is (F, 5). Flux is the
    squared change from the previous row, 0 for the first.

    Every (F, W) step writes into one of two buffers made per call, so a
    call's working memory is about twice the magnitudes whatever the step
    count. `scratch` takes each step's temporary in turn, viewed C-contiguous
    at the step's shape as a fresh array would be, so each sum adds the same
    values in the same order; the other holds `logm`, then `d`, the bin
    offsets from the centroid. No returned array is a view of either.
    """
    m = magnitudes
    n_frames, n_bins = m.shape
    flat = np.empty(m.size)

    def scratch(rows, cols):
        return flat[:rows * cols].reshape(rows, cols)

    flux = np.zeros(n_frames)
    step = np.subtract(m[1:], m[:-1], out=scratch(n_frames - 1, n_bins))
    np.add.reduce(np.square(step, out=step), axis=1, out=flux[1:])

    # first five moments of the magnitude distribution over bin index, one
    # column each, filled as they come; an all-zero row gets all-zero moments,
    # a point mass zero skew and kurtosis
    moments = np.zeros((n_frames, 5))
    total = np.add.reduce(m, axis=1)
    moments[:, 0] = total
    nonzero = total > 0
    bins = np.arange(n_bins)
    step = np.multiply(bins, m, out=scratch(n_frames, n_bins))
    centroid_bins = np.divide(np.add.reduce(step, axis=1), total,
                              out=moments[:, 1], where=nonzero)
    centroid_hz = centroid_bins * bin_hz

    cum = np.square(m, out=scratch(n_frames, n_bins))
    np.cumsum(cum, axis=1, out=cum)
    target = ROLLOFF_FRACTION * cum[:, -1]
    rolloff_hz = np.add.reduce(cum < target[:, None], axis=1, dtype=np.intp) * bin_hz

    logm = np.maximum(m, MAG_FLOOR)
    np.log(logm, out=logm)
    neighborhood = np.add(logm[:, :-2], logm[:, 1:-1],
                          out=scratch(n_frames, max(n_bins - 2, 0)))
    neighborhood += logm[:, 2:]
    neighborhood /= 3.0
    np.subtract(logm[:, 1:-1], neighborhood, out=neighborhood)
    compactness = np.add.reduce(np.abs(neighborhood, out=neighborhood), axis=1)

    d = np.subtract(bins, centroid_bins[:, None], out=logm)
    step = np.square(d, out=scratch(n_frames, n_bins))
    step *= m
    var = np.divide(np.add.reduce(step, axis=1), total,
                    out=moments[:, 2], where=nonzero)
    spread = var > 0
    sigma = np.sqrt(var)
    spread_total = np.where(spread, total, 1.0)

    # `**` on an array may take a SIMD pow that is fast only for a positive
    # base: a negative one falls back to a per-lane path ~40x slower, and d
    # is negative below the centroid. So each power takes |d| ** p, and odd
    # ones get their sign back from d. Products, or float_power(d, p), miss
    # the 1e-12 reference gate on some constant (DC) clips. Skew and kurtosis
    # are the moments of order p = 3 and 4, in the columns of those numbers.
    for p in (3, 4):
        power = np.abs(d, out=scratch(n_frames, n_bins))
        np.power(power, p, out=power)
        if p % 2:
            np.copysign(power, d, out=power)
        power *= m
        mean_power = np.add.reduce(power, axis=1) / spread_total
        # float_power is libm pow, like `**` on a scalar sigma; np.power on
        # an array may use a SIMD pow that rounds the last bit differently
        np.divide(mean_power, np.float_power(sigma, p), out=moments[:, p],
                  where=spread)

    # np.std(m, axis=1) as numpy's _var takes it, with the row sums reused
    deviation = np.subtract(m, (total / n_bins)[:, None],
                            out=scratch(n_frames, n_bins))
    np.square(deviation, out=deviation)
    variability = np.sqrt(np.add.reduce(deviation, axis=1) / n_bins)
    return flux, rolloff_hz, compactness, moments, centroid_hz, variability


def mel_scale(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=32)
def mel_filter_bank(sample_rate: int, window_size: int) -> np.ndarray:
    """N_MEL_FILTERS triangular mel filters, 0 Hz to Nyquist, sampled at the
    FFT bins, read-only."""
    n_bins = window_size // 2 + 1
    nyquist = sample_rate / 2.0
    mel_points = np.linspace(0.0, float(mel_scale(nyquist)), N_MEL_FILTERS + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * (sample_rate / window_size)

    # one row per filter: its lower edge, peak and upper edge
    lo, mid, hi = hz_points[:-2, None], hz_points[1:-1, None], hz_points[2:, None]
    rising = (bin_freqs - lo) / np.maximum(mid - lo, 1e-12)
    falling = (hi - bin_freqs) / np.maximum(hi - mid, 1e-12)
    bank = np.maximum(0.0, np.minimum(rising, falling))
    bank.flags.writeable = False  # shared by every caller of the cache
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
    # a stacked matrix @ vector runs one gemv per frame, which sums each frame
    # as the single-spectrum product does and, unlike one gemm over all
    # frames, never wakes BLAS worker threads for so small a product
    energies = np.matmul(mel_bank, (magnitudes ** 2)[:, :, None])[:, :, 0]
    log_energies = np.log(np.maximum(energies, MAG_FLOOR))
    basis = _dct_basis(mel_bank.shape[0])
    return np.matmul(basis, log_energies[:, :, None])[:, :, 0]


def lpc(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward linear predictor coefficients of each frame via Levinson-Durbin.

    Returns (a, degenerate): a is (F, LPC_ORDER) with the convention
    x_hat[n] = sum_i a[:, i-1]*x[n-i]; an all-zero frame yields all-zero
    coefficients and degenerate True. The recursion runs across all frames
    at once and stops per frame once its prediction error is no longer
    positive.

    The steps share buffers made once per call. Every dot stays one BLAS
    ddot per frame (np.vecdot runs ddot on each row, as np.dot on that row
    alone does, where the rows have a positive stride), since no elementwise
    numpy form rounds as it does: on the at most 9 values of a step's dot,
    OpenBLAS's ddot is one sequential fused multiply-add chain (on x86-64 it
    matched an exact FMA emulation in 300 of 300 random trials for each
    length 1-9, where a numpy multiply then add matched in 146-231), and
    Python before 3.13 has no math.fma.
    """
    order = LPC_ORDER
    n_frames, w = frames.shape

    # biased autocorrelation, (F, order + 1)
    r = np.empty((n_frames, order + 1))
    for lag in range(order + 1):
        np.vecdot(frames[:, :w - lag], frames[:, lag:], out=r[:, lag])
    r /= w

    # np.vecdot needs forward strides. Step i dots a[:, :i] with r[i], ...,
    # r[1], which is the forward slice reversed_r[:, order - i:order] of the
    # autocorrelation reversed once. Its rows lie order + 2 values (96
    # bytes) apart, so each row's slice sits on the same 16-byte alignment:
    # OpenBLAS's Prescott ddot rounds by the alignment of its second operand.
    reversed_r = np.empty((n_frames, order + 2))[:, :order + 1]
    np.copyto(reversed_r, r[:, ::-1])
    a = np.zeros((n_frames, order))  # predictor coefficients, positive convention
    err = r[:, 0].copy()
    acc = np.empty(n_frames)
    shrink = np.empty(n_frames)  # 1 - k * k
    reflected = np.empty((n_frames, order))  # k * a reversed
    live = np.empty(n_frames, dtype=bool)  # error not yet spent
    for i in range(order):
        # a spent frame gets k = 0, so its err never changes again and
        # `err > 0` stays false for it (NaN included): this is live &= err > 0
        np.greater(err, 0.0, out=live)
        # column i is still all zero, so a spent frame's k is 0
        k = a[:, i]
        # step 0's dot is empty and writes 0.0, and r - 0.0 is r, -0.0 too
        np.vecdot(a[:, :i], reversed_r[:, order - i:order], out=acc)
        np.subtract(r[:, i + 1], acc, out=acc)
        np.divide(acc, err, out=k, where=live)
        # the reflection updates live rows in place and leaves the others be
        np.multiply(k[:, None], a[:, :i][:, ::-1], out=reflected[:, :i])
        np.subtract(a[:, :i], reflected[:, :i], out=a[:, :i], where=live[:, None])
        np.multiply(k, k, out=shrink)
        np.subtract(1.0, shrink, out=shrink)
        err *= shrink
    return a, r[:, 0] == 0.0


def fraction_low_energy(series: np.ndarray) -> float:
    """Fraction of frames whose rms is strictly below the series mean."""
    # np.mean twice without its wrapper: a sum over the length, and a count
    # of bools, which np.mean sums exactly as floats
    mean = np.add.reduce(series) / len(series)
    return np.count_nonzero(series < mean) / len(series)


def beat_features(series: np.ndarray, hop_seconds: float) -> tuple[float, float, float]:
    """Beat histogram over 40-200 BPM from the rms envelope autocorrelation.

    Returns (beat_sum, strongest_beat_bpm, strongest_beat_strength); when the
    envelope is flat, or has fewer than 4 values and so is too short to carry
    a beat, all three are 0 by convention.
    """
    if len(series) < 4:
        return 0.0, 0.0, 0.0
    e = series - np.add.reduce(series) / len(series)  # series.mean()

    lag_min = max(1, int(np.ceil(60.0 / (BPM_MAX * hop_seconds))))
    lag_max = min(len(e) - 1, int(np.floor(60.0 / (BPM_MIN * hop_seconds))))
    if lag_max < lag_min:
        return 0.0, 0.0, 0.0

    lags = np.arange(lag_min, lag_max + 1)
    # the full autocorrelation runs one BLAS dot over the overlap e[:-lag],
    # e[lag:] per lag, so each bin sums as np.dot on that pair alone does
    autocorrelation = np.correlate(e, e, "full")[len(e) - 1 + lags]
    hist = np.maximum(autocorrelation, 0.0)
    beat_sum = float(np.add.reduce(hist))
    if beat_sum == 0.0:
        return 0.0, 0.0, 0.0
    best = int(np.argmax(hist))
    bpm = 60.0 / (lags[best] * hop_seconds)
    strength = float(hist[best] / beat_sum)
    return beat_sum, bpm, strength


def clip_level_features(rms: np.ndarray, hop_seconds: float) -> np.ndarray:
    """Envelope features per MACRO_WINDOW_FRAMES-frame window of the rms series.

    A C-contiguous (4, M) table: one row per CLIP_LEVEL_FAMILIES entry, one
    column per macro-window.
    """
    table = np.empty((len(CLIP_LEVEL_FAMILIES), -(-len(rms) // MACRO_WINDOW_FRAMES)))
    for column, start in enumerate(range(0, len(rms), MACRO_WINDOW_FRAMES)):
        chunk = rms[start:start + MACRO_WINDOW_FRAMES]
        table[:, column] = (fraction_low_energy(chunk), *beat_features(chunk, hop_seconds))
    return table


def aggregate_clip(frame_table: np.ndarray, clip_table: np.ndarray) -> FeatureVector:
    """Reduce both tables to the 28-slot vector.

    frame_table is (10, F), one row per FRAME_FAMILIES entry, and clip_table
    (4, M), one row per CLIP_LEVEL_FAMILIES entry; frame_clip yields at least
    one frame, so both have a column. Stds are population stds, so a single
    frame or macro-window gives 0 in every std slot. Each row is reduced as
    np.mean and np.std take it alone, which holds bit for bit only where the
    table is C-contiguous (rows reduced through a strided view, such as an
    (M, 4) array's transpose, sum in another order).
    """
    values = np.empty((len(FEATURE_FAMILIES), 2))  # (mean, std) per family
    for slots, table in ((_FRAME_SLOTS, frame_table), (_CLIP_SLOTS, clip_table)):
        # np.mean and np.std's own steps, without their Python wrappers
        n = table.shape[1]
        mean = np.add.reduce(table, axis=1) / n
        values[slots, 0] = mean
        deviation = np.subtract(table, mean[:, None])
        np.square(deviation, out=deviation)
        values[slots, 1] = np.sqrt(np.add.reduce(deviation, axis=1) / n)
    return FeatureVector(values=values.ravel())


def _analyze_block(samples: np.ndarray, window_size: int, hop_size: int,
                   sample_rate: int) -> np.ndarray:
    """Run every per-frame stage on the frames of `samples`, a run of a
    clip's samples that frame_clip cuts into a block of frames.

    Returns the block's (10, len(block)) columns of the frame table. The
    first flux is 0 here, as for a clip's first frame; extract_features
    starts each later block one frame early and drops that frame's column.
    """
    block = frame_clip(AudioClip(samples, sample_rate), window_size, hop_size)
    columns = np.empty((len(FRAME_FAMILIES), len(block)))
    (coeffs_mean, zero_crossings, rms, flux, rolloff, compactness, moments_mean,
     lpc_mean, centroid, variability) = columns
    # before the spectrum, so its squared frames are not held beside it
    zero_crossings[:], rms[:] = time_domain_features(block)
    magnitudes = magnitude_spectrum(block)
    (flux[:], rolloff[:], compactness[:], moments, centroid[:],
     variability[:]) = spectral_shape_features(magnitudes, sample_rate / window_size)
    # np.mean(axis=1, out=...) as numpy's _mean takes it: sum, then divide
    for coefficients, means in ((moments, moments_mean),
                                (mfcc(magnitudes, mel_filter_bank(sample_rate, window_size)),
                                 coeffs_mean),
                                (lpc(block)[0], lpc_mean)):
        np.add.reduce(coefficients, axis=1, out=means)
        means /= coefficients.shape[1]
    return columns


def _block_edges(n_frames: int) -> list[int]:
    """The edges of the near-equal blocks extract_features cuts n_frames at."""
    n_blocks = max(-(-n_frames // BLOCK_FRAMES), 1 + (n_frames >= SPLIT_FRAMES))
    return [n_frames * b // n_blocks for b in range(n_blocks + 1)]


def extract_features(clip: AudioClip, window_size: int = DEFAULT_WINDOW,
                     hop_size: int = DEFAULT_HOP) -> FeatureVector:
    """Full per-clip extraction: frame, analyze block by block, aggregate.

    The F frames of the copy-free frame view are cut into
    n = ceil(F / BLOCK_FRAMES) blocks of near-equal size, two at least from
    SPLIT_FRAMES = 128 frames on, with edges at F * b // n, so no block has
    more than 256 frames of its own (127 frames are one block, 128 are
    64 + 64 and 300 are 150 + 150). Each block runs every per-frame stage, LPC included, on
    the run of samples its frames cover, each block after the first from
    one frame before its own, and the blocks' columns, less each overlap
    frame's, are joined into one (10, F) table. The spans go to
    vocalnet._helper.run_jobs in one call, which analyzes a clip of one
    block inline. Otherwise the caller takes blocks 0, 2, 4, ... and hands
    blocks 1, 3, 5, ... one at a time to the package's one helper process,
    whose columns come back pickled; run_jobs runs a block on the caller
    where the helper cannot take it and raises the helper's exception once
    the caller's block is done.

    Every stage is row-independent, the helper reads its samples at the
    caller's alignment, and a later block takes its first flux value from
    the overlap frame's magnitudes and its own, so the rows are those of one
    pass over every frame, bit for bit, whichever process ran which block.
    The overlap costs each later block one frame's work. Working memory is
    at most one block's stage arrays on each side however long the clip.

    Vector families (mfcc, moments, lpc) are first collapsed to the mean of
    their coefficients per frame.
    """
    # the FFT needs a power of two, the predictor more than LPC_ORDER samples;
    # frame_clip checks the hop
    if window_size <= LPC_ORDER or window_size & (window_size - 1):
        raise InvalidSetting(f"window_size must be a power of two above {LPC_ORDER}, "
                             f"got {window_size}")
    n_frames = len(frame_clip(clip, window_size, hop_size))
    edges = _block_edges(n_frames)
    spans = [clip.samples[max(start - 1, 0) * hop_size:(end - 1) * hop_size + window_size]
             for start, end in zip(edges, edges[1:])]
    first, *rest = _helper.run_jobs(_analyze_block, spans, window_size, hop_size,
                                    clip.sample_rate)
    # rows in FRAME_FAMILIES order
    frame_table = np.concatenate([first, *(block[:, 1:] for block in rest)], axis=1)
    rms = frame_table[FRAME_FAMILIES.index("rms")]
    return aggregate_clip(frame_table,
                          clip_level_features(rms, hop_size / clip.sample_rate))
