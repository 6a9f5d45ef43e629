"""The columnar extractor against the per-frame reference it replaced.

feature_oracle.py holds the earlier per-frame implementation unchanged; every
slot of the 28-slot vector must agree with it to 1e-12, and the two
zero-crossing slots exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feature_oracle
from vocalnet.audio_io import AudioClip
from vocalnet.features import FEATURE_NAMES, extract_features

from conftest import RATE, noise_clip, tone_clip

ZERO_CROSSING_SLOTS = [i for i, name in enumerate(FEATURE_NAMES)
                       if name.startswith("zero_crossings")]


def assert_matches_reference(clip, window=512, hop=256):
    got = extract_features(clip, window, hop).values
    want = feature_oracle.extract_features(clip, window, hop).values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(got[ZERO_CROSSING_SLOTS],
                                  want[ZERO_CROSSING_SLOTS])


@st.composite
def clips(draw):
    """(clip, window, hop): edge-case lengths and degenerate signals."""
    # at 8192 a hop of 4096 or 8192 lets a lag fit an envelope of 2 or 3
    # values, which the fewer-than-4 rule gives no beat
    window = draw(st.sampled_from([256, 512, 1024, 8192]))
    hop = draw(st.sampled_from([window // 4, window // 2, window]))
    n = draw(st.one_of(
        st.sampled_from([1, window - 1, window, window + hop - 1,
                         window + hop]),
        st.integers(1, RATE)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["noise", "silence", "dc", "quantized"]))
    if kind == "noise":
        x = rng.uniform(-1, 1, n)
    elif kind == "silence":
        x = np.zeros(n)
    elif kind == "dc":
        x = np.full(n, draw(st.floats(-1, 1)))
    else:  # 8-bit steps of quiet noise: many samples are exactly zero
        x = np.round(np.clip(rng.normal(0, 0.02, n), -1, 1) * 128) / 128
    return AudioClip(x, RATE), window, hop


@settings(max_examples=60, deadline=None)
@given(clips())
def test_matches_per_frame_reference(case):
    clip, window, hop = case
    assert_matches_reference(clip, window, hop)


@pytest.mark.parametrize("make", [
    lambda rng: tone_clip(440, rng),
    lambda rng: tone_clip(1760, rng, noise=0.0),
    lambda rng: noise_clip(rng),
    lambda rng: noise_clip(rng, duration=0.01),
    # a constant whose spectral moments are near-degenerate: moments_std is
    # 1.36e-12 here, and it reads 0.0 when d ** 3 and d ** 4 become products
    lambda rng: AudioClip(np.full(63462, 0.2913600460146013), RATE),
], ids=["tone440", "clean_tone1760", "noise", "short_noise", "constant_dc"])
def test_matches_reference_on_fixture_clips(make):
    assert_matches_reference(make(np.random.default_rng(0)))


def test_three_frame_envelope_carries_no_beat():
    # at window 8192 and hop 4096 (0.19 s) lag 2 fits a 3-frame envelope, and
    # a quiet, loud, quiet one would give it a positive bin; like the
    # reference, the extractor gives fewer than 4 values no beat
    x = np.random.default_rng(0).uniform(-1, 1, 16384)
    x *= np.repeat([0.1, 1.0, 1.0, 0.1], 4096)
    assert_matches_reference(AudioClip(x, RATE), 8192, 4096)
