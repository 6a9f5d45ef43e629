"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed (an int or a list of ints,
as numpy's `default_rng` takes). In the audio corpora the amount of work
does not depend on the seed: clip durations come from a fixed grid and each
duration is paired with a fixed encoding, so the bytes parsed, samples
resampled and frames analysed are the same on every seed. The seed chooses
which species each clip belongs to and the signal details (pitch, sweep,
pulse rate, noise), which is what moves the features and the trained
networks.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PSEUDO = "_pseudo"
SPECIES = ("chirp", "pulsed", "tone_high", "tone_low")
CLASSES = SPECIES + (PSEUDO,)

# (sample rate, channels, bits): the mixed encodings a field corpus arrives in
ENCODINGS = ((22050, 1, 16), (16000, 2, 16), (44100, 1, 16), (11025, 1, 8))

# broken files, each rejected by the parser for a different reason
MALFORMED = ("truncated", "pcm24", "float_tag", "empty_data")

N_SLOTS = 28


@dataclass(frozen=True)
class Clip:
    path: Path
    label: str
    duration: float
    malformed: str | None  # one of MALFORMED, or None for a well-formed clip
    n_bytes: int


def _riff(fmt_fields: tuple, pcm: bytes, declared: int | None = None) -> bytes:
    """RIFF/WAVE bytes with a 16-byte fmt chunk; `declared` overrides the
    data chunk's size field (a truncated file claims more than it holds)."""
    size = len(pcm) if declared is None else declared
    body = (b"WAVE" + b"fmt " + struct.pack("<IHHIIHH", 16, *fmt_fields)
            + b"data" + struct.pack("<I", size) + pcm)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def encode_pcm(x: np.ndarray, rate: int, channels: int, bits: int,
               rng: np.random.Generator) -> bytes:
    """Integer PCM for a float signal in [-1, 1]; the second stereo channel
    is an attenuated, slightly noisy copy of the first."""
    x = np.clip(x, -1.0, 1.0)
    if channels == 2:
        right = np.clip(0.8 * x + 0.01 * rng.standard_normal(len(x)), -1, 1)
        x = np.column_stack([x, right]).ravel()
    if bits == 16:
        pcm = np.clip(np.rint(x * 32767), -32768, 32767).astype("<i2").tobytes()
    else:
        pcm = (np.rint(x * 127) + 128).astype(np.uint8).tobytes()
    block = channels * bits // 8
    return _riff((1, channels, rate, rate * block, block, bits), pcm)


def malformed_bytes(kind: str, rng: np.random.Generator) -> bytes:
    """A file the parser must reject, each for a different reason."""
    pcm = np.rint(3000 * rng.standard_normal(2000)).astype("<i2").tobytes()
    if kind == "truncated":
        return _riff((1, 1, 22050, 44100, 2, 16), pcm, declared=len(pcm) * 4)
    if kind == "pcm24":
        return _riff((1, 1, 22050, 66150, 3, 24), pcm[:3 * 600])
    if kind == "float_tag":
        return _riff((3, 1, 22050, 88200, 4, 32), pcm)
    if kind == "empty_data":
        return _riff((1, 1, 22050, 44100, 2, 16), b"")
    raise ValueError(kind)


def species_signal(label: str, duration: float, rate: int,
                   rng: np.random.Generator) -> np.ndarray:
    """One synthetic call. Tones and the sweep differ in pitch and spectral
    shape; the pulsed call gates a tone at 1.5-3 pulses per second, which
    puts its envelope period inside the beat features' 40-200 BPM band."""
    t = np.arange(int(round(duration * rate))) / rate
    noise = rng.uniform(0.02, 0.08) * rng.standard_normal(len(t))
    if label == "tone_low":
        f = rng.uniform(350, 650)
        x = 0.5 * np.sin(2 * np.pi * f * t) + 0.2 * np.sin(4 * np.pi * f * t)
    elif label == "tone_high":
        f = rng.uniform(1800, 2600)
        x = 0.6 * np.sin(2 * np.pi * f * t)
    elif label == "chirp":
        f0, f1 = rng.uniform(600, 1000), rng.uniform(3000, 5000)
        period = rng.uniform(0.25, 0.5)  # the sweep repeats
        phase = (t % period) / period
        inst = f0 + (f1 - f0) * phase
        x = 0.5 * np.sin(2 * np.pi * np.cumsum(inst) / rate)
    elif label == "pulsed":
        f = rng.uniform(900, 1500)
        rate_hz = rng.uniform(1.5, 3.0)
        gate = (np.sin(2 * np.pi * rate_hz * t + rng.uniform(0, 6.28)) > 0.3)
        x = 0.7 * gate * np.sin(2 * np.pi * f * t)
    elif label == PSEUDO:
        x = rng.uniform(0.1, 0.4) * rng.standard_normal(len(t))
        noise = 0.0
    else:
        raise ValueError(label)
    return x + noise


def write_corpus(root: Path, seed, n_clips: int, n_malformed: int,
                 dur_lo: float, dur_hi: float) -> list[Clip]:
    """A class-per-directory corpus of `n_clips` files, `n_malformed` of them
    broken. Durations are an even grid over [dur_lo, dur_hi]; the k-th
    shortest well-formed clip always has encoding k mod 4. Labels are dealt
    round-robin over a seeded permutation so classes stay balanced."""
    rng = np.random.default_rng(seed)
    n_good = n_clips - n_malformed
    durations = np.linspace(dur_lo, dur_hi, n_good)
    labels = [CLASSES[i % len(CLASSES)] for i in rng.permutation(n_good)]
    clips: list[Clip] = []
    for k, (duration, label) in enumerate(zip(durations, labels)):
        rate, channels, bits = ENCODINGS[k % len(ENCODINGS)]
        data = encode_pcm(species_signal(label, duration, rate, rng),
                          rate, channels, bits, rng)
        clips.append(_save(root, label, k, data, duration, None))
    for m in range(n_malformed):
        kind = MALFORMED[m % len(MALFORMED)]
        label = SPECIES[m % len(SPECIES)]
        clips.append(_save(root, label, n_good + m, malformed_bytes(kind, rng),
                           0.0, kind))
    return clips


def _save(root: Path, label: str, k: int, data: bytes, duration: float,
          malformed: str | None) -> Clip:
    path = root / label / f"clip{k:04d}.wav"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return Clip(path, label, float(duration), malformed, len(data))


def slot_scales() -> np.ndarray:
    """Per-slot magnitudes from 1e-3 to 1e3, as the real feature slots span
    (beat sums and rolloff in the thousands, low-energy fractions below 1)."""
    return np.logspace(-3, 3, N_SLOTS)


def write_feature_cache(path: Path, seed, rows_per_class: int,
                        header: list[str]) -> None:
    """A synthetic feature cache in the program's CSV format.

    Three slots carry class information with overlapping class clouds (means
    one noise standard deviation apart), so no single slot separates the
    classes and training stops on held-out worsening rather than reaching
    the train-MSE target after a few epochs. The informative slots and the
    class means are drawn from the seed; every other slot is scaled noise.
    """
    rng = np.random.default_rng(seed)
    informative = rng.choice(N_SLOTS, size=3, replace=False)
    means = np.column_stack([rng.permutation(len(CLASSES)) for _ in informative])
    scales = slot_scales()
    labels, rows = [], []
    for cls, name in enumerate(CLASSES):
        for _ in range(rows_per_class):
            v = rng.standard_normal(N_SLOTS)
            v[informative] += means[cls]
            labels.append(name)
            rows.append(v * scales + 2 * scales)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, (name, row) in enumerate(zip(labels, rows)):
            writer.writerow([f"synthetic/{name}/{i:04d}.wav", name,
                             *(repr(float(v)) for v in row)])
