import struct

import numpy as np
import pytest

from vocalnet import _helper
from vocalnet.audio_io import AudioClip
from vocalnet.dataset import make_corpus

RATE = 22050


def wav_bytes(samples_i16, sample_rate=8000, channels=1, bits=16, format_tag=1):
    """Hand-build a RIFF/WAVE byte stream for parser tests. The byte rate,
    which the parser ignores, is written modulo 2**32, so every 32-bit sample
    rate can be written at every sample width and channel count."""
    if bits == 16:
        pcm = np.asarray(samples_i16, dtype="<i2").tobytes()
    else:
        pcm = np.asarray(samples_i16, dtype=np.uint8).tobytes()
    block_align = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, format_tag, channels,
                                    sample_rate, sample_rate * block_align % 2**32,
                                    block_align, bits)
    header += b"data" + struct.pack("<I", len(pcm))
    return header + pcm


# one clip file per kind of ClipError, as its file name and bytes: ten zero
# bytes, a declared rate of 1 Hz, and 100 samples at 2 GHz, none at 22050 Hz
UNUSABLE_CLIPS = {
    "MalformedRiff": ("broken.wav", b"\x00" * 10),
    "UnsupportedFormat": ("one_hz.wav", wav_bytes(np.zeros(100), sample_rate=1)),
    "EmptyClip": ("fast.wav", wav_bytes(np.zeros(100), sample_rate=2_000_000_000)),
}


def write_wav(clip: AudioClip) -> bytes:
    """Encode a clip as canonical 44-byte-header mono 16-bit PCM."""
    ints = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    return wav_bytes(ints, sample_rate=clip.sample_rate)


def save_wav(clip: AudioClip, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_wav(clip))


def tone_clip(freq, rng, rate=RATE, duration=0.6, noise=0.05):
    t = np.arange(int(rate * duration)) / rate
    x = 0.6 * np.sin(2 * np.pi * freq * t) + noise * rng.standard_normal(len(t))
    return AudioClip(np.clip(x, -1, 1), rate)


def noise_clip(rng, rate=RATE, duration=0.6, level=0.3):
    x = level * rng.standard_normal(int(rate * duration))
    return AudioClip(np.clip(x, -1, 1), rate)


def build_tone_corpus_dir(root, clips_per_class=20, seed=7):
    """3 tone classes at 440/880/1760 Hz plus a white-noise _pseudo class."""
    rng = np.random.default_rng(seed)
    for name, freq in (("tone440", 440), ("tone880", 880), ("tone1760", 1760)):
        d = root / name
        d.mkdir(parents=True)
        for i in range(clips_per_class):
            save_wav(tone_clip(freq, rng), d / f"clip{i:02d}.wav")
    d = root / "_pseudo"
    d.mkdir()
    for i in range(clips_per_class):
        save_wav(noise_clip(rng), d / f"clip{i:02d}.wav")
    return root


def synthetic_feature_corpus(class_centers, samples_per_class=20, seed=3,
                             informative=(0, 1), noise=0.3):
    """Corpus of raw 28-slot vectors: the informative slots carry class
    centers, everything else is standard normal noise."""
    rng = np.random.default_rng(seed)
    paths, labels, rows = [], [], []
    for cls, center in enumerate(class_centers):
        for i in range(samples_per_class):
            v = rng.standard_normal(28)
            for slot, value in zip(informative, center):
                v[slot] = value + noise * rng.standard_normal()
            paths.append(f"s{cls}_{i}")
            labels.append(f"class_{cls}")
            rows.append(v)
    return make_corpus(paths, labels, rows)


@pytest.fixture(scope="session")
def tone_corpus_dir(tmp_path_factory):
    return build_tone_corpus_dir(tmp_path_factory.mktemp("tones"))


@pytest.fixture
def fresh_helper():
    """No helper runs before or after the test: a helper forked during a
    test that patches a stage keeps the patch, so it is forked in the test
    and stopped with it."""
    _helper.stop()
    yield
    _helper.stop()


@pytest.fixture
def handoffs(monkeypatch):
    """Each call handed to the helper process, in order, as its function and
    the shape of its input, recorded on the caller's side once sent."""
    handed = []
    call = _helper.Helper.call

    def spy(helper, function, place, args):
        sent = call(helper, function, place, args)
        if sent:
            handed.append((function, place[1]))
        return sent

    monkeypatch.setattr(_helper.Helper, "call", spy)
    return handed
