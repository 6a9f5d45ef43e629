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

from .errors import EmptyClip, InvalidSetting, MalformedRiff, UnsupportedFormat

DEFAULT_WINDOW = 512
DEFAULT_HOP = 256
DEFAULT_RATE = 22050
# Below the rate of any real recording. The floor bounds what resampling to
# the common rate can add: at most DEFAULT_RATE / MIN_SAMPLE_RATE (~22) output
# samples per input sample, where a header declaring 1 Hz asked for 22050.
MIN_SAMPLE_RATE = 1000


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


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resampling to target_rate; identity when rates match.

    At a whole-multiple rate, resample keeps every k-th sample, which gives
    np.interp's bits there. At any other rate, one np.interp call on the
    caller interpolates the whole grid.
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
        positions = np.arange(n_out, dtype=np.float64) * (clip.sample_rate / target_rate)
        grid = np.arange(len(clip.samples), dtype=np.float64)
        resampled = np.interp(positions, grid, clip.samples)
    return AudioClip(samples=resampled, sample_rate=target_rate,
                     source_path=clip.source_path)
