"""RIFF/WAVE PCM parsing, framing, and resampling.

Only uncompressed PCM at 8 or 16 bits, mono or stereo, at MIN_SAMPLE_RATE Hz
or more, is accepted; everything the corpus needs is stored that way precisely
because it is raw. Samples are normalized to [-1, 1] floats and stereo is
downmixed to mono on load.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import _helper
from .errors import EmptyClip, InvalidSetting, MalformedRiff, UnsupportedFormat

DEFAULT_WINDOW = 512
DEFAULT_HOP = 256
DEFAULT_RATE = 22050
# Below the rate of any real recording. The floor bounds what resampling to
# the common rate can add: at most DEFAULT_RATE / MIN_SAMPLE_RATE (~22) output
# samples per input sample, where a header declaring 1 Hz asked for 22050.
MIN_SAMPLE_RATE = 1000
SPLIT_OUTPUTS = 2 ** 15


@dataclass(frozen=True)
class AudioClip:
    """Normalized mono PCM audio."""

    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int
    source_path: str = ""

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


def parse_wav(data: bytes, source_path: str = "") -> AudioClip:
    """Decode a RIFF/WAVE PCM byte stream into a normalized mono clip.

    16-bit samples are divided by 32768, unsigned 8-bit mapped via (v-128)/128,
    and stereo pairs averaged per sample. Chunks other than fmt/data are
    skipped by their declared size.
    """
    if len(data) < 12:
        raise MalformedRiff("stream shorter than a RIFF header")
    if data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedRiff("missing RIFF/WAVE signature")

    fmt = None
    pcm_bytes = None
    view = memoryview(data)  # chunk bodies are views, not copies
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedRiff("fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise MalformedRiff("data chunk truncated")
            pcm_bytes = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedRiff("no fmt chunk")
    if pcm_bytes is None:
        raise MalformedRiff("no data chunk")

    format_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if format_tag != 1:
        raise UnsupportedFormat(f"compressed format tag {format_tag}")
    if bits not in (8, 16):
        raise UnsupportedFormat(f"{bits}-bit PCM not supported")
    if channels not in (1, 2):
        raise UnsupportedFormat(f"{channels} channels not supported")
    if sample_rate <= 0:
        raise MalformedRiff("non-positive sample rate")
    if sample_rate < MIN_SAMPLE_RATE:
        raise UnsupportedFormat(f"sample rate {sample_rate} Hz is below "
                                f"{MIN_SAMPLE_RATE} Hz")

    # the scales are powers of two, so multiplying by their reciprocals gives
    # the bits of dividing; each decode is one ufunc pass over the raw view
    if bits == 16:
        samples = np.multiply(np.frombuffer(pcm_bytes, dtype="<i2",
                                            count=len(pcm_bytes) // 2), 1 / 32768)
    else:
        samples = np.subtract(np.frombuffer(pcm_bytes, dtype=np.uint8), 128.0)
        samples *= 1 / 128

    if channels == 2:
        usable = len(samples) - (len(samples) % 2)
        samples = samples[0:usable:2] + samples[1:usable:2]
        samples *= 0.5  # the bits of the pair's mean

    if len(samples) == 0:
        raise MalformedRiff("empty data chunk")

    return AudioClip(samples=samples, sample_rate=int(sample_rate),
                     source_path=source_path)


def read_wav(path) -> AudioClip:
    """Parse a WAV file from disk."""
    with open(path, "rb") as fh:
        return parse_wav(fh.read(), source_path=str(path))


def frame_clip(clip: AudioClip, window_size: int = DEFAULT_WINDOW,
               hop_size: int = DEFAULT_HOP) -> np.ndarray:
    """Cut a clip into overlapping frames of window_size every hop_size samples.

    Returns an (F, window_size) array whose row i is
    samples[i*hop_size : i*hop_size + window_size], as a read-only view of the
    clip. A clip shorter than one window yields a single zero-padded row so
    that no labeled sample is ever dropped.
    """
    if not 0 < hop_size <= window_size:
        raise InvalidSetting(f"hop_size must be in (0, {window_size}], got {hop_size}")
    x = clip.samples
    if len(x) == 0:
        raise EmptyClip(clip.source_path or "<clip>")

    if len(x) < window_size:
        padded = np.zeros((1, window_size))
        padded[0, :len(x)] = x
        return padded
    # sliding_window_view(x, window_size)[::hop_size], without its checks
    step = x.strides[0]
    return np.lib.stride_tricks.as_strided(
        x, shape=((len(x) - window_size) // hop_size + 1, window_size),
        strides=(hop_size * step, step), writeable=False)


def _interp_shared(buffer, n_out: int, half: int, ratio: float, lo: int,
                   n_source: int) -> None:
    """The helper's side of resample: outputs half:n_out from the source
    samples lo:lo + n_source at the buffer's start, written over them."""
    source = np.frombuffer(buffer, count=n_source)
    positions = np.arange(half, n_out, dtype=np.float64) * ratio
    out = np.interp(positions, np.arange(lo, lo + n_source, dtype=np.float64), source)
    np.frombuffer(buffer, count=len(out))[:] = out


def _hand_interp(helper, samples: np.ndarray, n_out: int, half: int,
                 ratio: float) -> bool:
    """Copy the source samples that outputs half:n_out read into the helper's
    buffer and hand it _interp_shared; False where there is no helper, the
    samples or the outputs do not fit, or the helper died."""
    if helper is None or not helper.alive:
        return False
    lo = int(half * ratio)  # the source sample at or below position `half`
    source = samples[lo:]
    if 8 * max(len(source), n_out - half) > len(helper.buffer):
        return False
    np.frombuffer(helper.buffer, count=len(source))[:] = source
    return helper.call(_interp_shared, n_out, half, ratio, lo, len(source))


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resampling to target_rate; identity when rates match.

    At a whole-multiple rate, resample keeps every k-th sample, which gives
    np.interp's bits there. At any other rate, a grid of SPLIT_OUTPUTS = 2**15
    outputs or more is interpolated in two halves, the first on the caller
    and the second on the package's one helper process (vocalnet._helper),
    which reads the source samples from the first one it needs on, copied to
    its buffer; the halves are joined into one fresh array. np.interp gives
    each position the same value whichever call takes it, on the whole source
    or the run of it from the sample at or below the position's, so the bits
    are those of one call. Where the helper is held by another thread, is
    missing or has died, or its source samples or outputs do not fit its
    1 MiB buffer (from about 5.4 s at 48 kHz), one call on the caller takes
    every output. Against one call, the split took 258 against 321 us at
    1.5 s from 16 kHz, 585 against 691 at 3 s, and 238 against 287 at 3 s
    from 11.025 kHz (2-core x86-64, numpy 2.4.6).
    """
    if target_rate <= 0:
        raise InvalidSetting(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return clip
    n_out = int(round(len(clip.samples) * target_rate / clip.sample_rate))
    k, rest = divmod(clip.sample_rate, target_rate)
    if rest == 0:
        # every position i*k is a source sample, which np.interp returns as it
        # is; a fresh contiguous copy, as interp's output is, so frames stride
        # over it alike and the decoded clip is not kept alive
        resampled = clip.samples[::k][:n_out].copy()
    else:
        # float grids hold the same whole numbers as integer ones, but are not
        # cast to float64 element by element in the product and again in interp
        ratio = clip.sample_rate / target_rate
        positions = np.arange(n_out, dtype=np.float64) * ratio
        grid = np.arange(len(clip.samples), dtype=np.float64)
        if n_out < SPLIT_OUTPUTS:
            resampled = np.interp(positions, grid, clip.samples)
        else:
            half = n_out // 2
            with _helper.held() as helper:
                handed = _hand_interp(helper, clip.samples, n_out, half, ratio)
                try:
                    resampled = np.interp(positions[:half] if handed else positions,
                                          grid, clip.samples)
                finally:
                    done = handed and helper.wait()
                if handed:
                    second = (np.frombuffer(helper.buffer, count=n_out - half) if done
                              else np.interp(positions[half:], grid, clip.samples))
                    resampled = np.concatenate((resampled, second))
    return AudioClip(samples=resampled, sample_rate=target_rate,
                     source_path=clip.source_path)
