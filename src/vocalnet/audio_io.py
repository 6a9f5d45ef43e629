"""RIFF/WAVE PCM parsing, framing, and resampling.

Only uncompressed PCM at 8 or 16 bits, mono or stereo, is accepted; everything
the corpus needs is stored that way precisely because it is raw. Samples are
normalized to [-1, 1] floats and stereo is downmixed to mono on load.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import EmptyClip, InvalidSetting, MalformedRiff, UnsupportedFormat

DEFAULT_WINDOW = 512
DEFAULT_HOP = 256
DEFAULT_RATE = 22050


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

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


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
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
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

    if bits == 16:
        usable = len(pcm_bytes) - (len(pcm_bytes) % 2)
        raw = np.frombuffer(pcm_bytes[:usable], dtype="<i2").astype(np.float64)
        samples = raw / 32768.0
    else:
        raw = np.frombuffer(pcm_bytes, dtype=np.uint8).astype(np.float64)
        samples = (raw - 128.0) / 128.0

    if channels == 2:
        usable = len(samples) - (len(samples) % 2)
        samples = samples[:usable].reshape(-1, 2).mean(axis=1)

    if len(samples) == 0:
        raise MalformedRiff("empty data chunk")

    return AudioClip(samples=samples, sample_rate=int(sample_rate),
                     source_path=source_path)


def read_wav(path) -> AudioClip:
    """Parse a WAV file from disk."""
    with open(path, "rb") as fh:
        return parse_wav(fh.read(), source_path=str(path))


def write_wav(clip: AudioClip) -> bytes:
    """Encode a clip as canonical 44-byte-header mono 16-bit PCM."""
    ints = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    pcm = ints.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, clip.sample_rate,
                                    clip.sample_rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    return header + pcm


def save_wav(clip: AudioClip, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_wav(clip))


def frame_clip(clip: AudioClip, window_size: int = DEFAULT_WINDOW,
               hop_size: int = DEFAULT_HOP) -> np.ndarray:
    """Cut a clip into overlapping frames of window_size every hop_size samples.

    Returns an (F, window_size) array whose row i is
    samples[i*hop_size : i*hop_size + window_size], as a read-only view of the
    clip. A clip shorter than one window yields a single zero-padded row so
    that no labeled sample is ever dropped.
    """
    if window_size <= 0:
        raise InvalidSetting(f"window_size must be positive, got {window_size}")
    if not 0 < hop_size <= window_size:
        raise InvalidSetting(f"hop_size must be in (0, {window_size}], got {hop_size}")
    x = clip.samples
    if len(x) == 0:
        raise EmptyClip(clip.source_path or "<clip>")

    if len(x) < window_size:
        padded = np.zeros((1, window_size))
        padded[0, :len(x)] = x
        return padded
    return np.lib.stride_tricks.sliding_window_view(x, window_size)[::hop_size]


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resampling to target_rate; identity when rates match."""
    if target_rate <= 0:
        raise InvalidSetting(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return clip
    n_out = int(round(len(clip.samples) * target_rate / clip.sample_rate))
    positions = np.arange(n_out) * (clip.sample_rate / target_rate)
    resampled = np.interp(positions, np.arange(len(clip.samples)), clip.samples)
    return AudioClip(samples=resampled, sample_rate=target_rate,
                     source_path=clip.source_path)
