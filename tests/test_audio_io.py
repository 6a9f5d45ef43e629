import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vocalnet import _helper
from vocalnet.audio_io import (MIN_SAMPLE_RATE, AudioClip, frame_clip, parse_wav,
                               resample)
from vocalnet.errors import (EmptyClip, InvalidSetting, MalformedRiff,
                             UnsupportedFormat, VocalnetError)

from conftest import wav_bytes, write_wav


class TestParseWav:
    def test_hand_built_mono_16bit(self):
        clip = parse_wav(wav_bytes([0, 16384, -16384, 32767], sample_rate=8000))
        assert clip.sample_rate == 8000
        np.testing.assert_allclose(
            clip.samples, [0.0, 0.5, -0.5, 32767 / 32768], atol=1e-12)

    def test_absurd_sample_rate_rejected(self):
        # 244 bytes declaring 1 Hz would resample to 2,205,000 samples
        data = wav_bytes(np.zeros(100), sample_rate=1)
        assert len(data) == 244
        with pytest.raises(UnsupportedFormat, match="sample rate"):
            parse_wav(data)

    def test_sample_rate_floor(self):
        assert parse_wav(wav_bytes([1, 2], sample_rate=MIN_SAMPLE_RATE)
                         ).sample_rate == MIN_SAMPLE_RATE
        with pytest.raises(UnsupportedFormat):
            parse_wav(wav_bytes([1, 2], sample_rate=MIN_SAMPLE_RATE - 1))
        assert MIN_SAMPLE_RATE <= 8000  # the lowest rate the tests use

    def test_truncated_header_rejected(self):
        with pytest.raises(MalformedRiff):
            parse_wav(b"\x00" * 10)

    def test_stereo_symmetric_downmix(self):
        clip = parse_wav(wav_bytes([32767, -32767], channels=2))
        assert clip.samples.shape == (1,)
        assert clip.samples[0] == 0.0

    def test_8bit_unsigned_mapping(self):
        clip = parse_wav(wav_bytes([128, 255, 0], bits=8))
        np.testing.assert_allclose(clip.samples, [0.0, 127 / 128, -1.0])

    def test_compressed_format_rejected(self):
        with pytest.raises(UnsupportedFormat):
            parse_wav(wav_bytes([0, 0], format_tag=3))

    def test_unsupported_bit_depth_rejected(self):
        with pytest.raises(UnsupportedFormat):
            parse_wav(wav_bytes([0, 0, 0], bits=24))

    def test_missing_data_chunk(self):
        data = wav_bytes([0, 0])
        with pytest.raises(MalformedRiff):
            parse_wav(data[:36])  # header + fmt only

    def test_extra_chunk_skipped(self):
        import struct
        data = wav_bytes([1000, -1000])
        head, tail = data[:36], data[36:]
        # an odd-sized chunk is followed by one pad byte
        for junk in (b"LIST" + struct.pack("<I", 6) + b"junk!?",
                     b"LIST" + struct.pack("<I", 5) + b"junk!" + b"\x00"):
            clip = parse_wav(head + junk + tail)
            assert len(clip.samples) == 2

    def test_samples_always_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.integers(-32768, 32768, size=64)
            clip = parse_wav(wav_bytes(raw))
            assert np.all(clip.samples >= -1.0)
            assert np.all(clip.samples <= 1.0)


def riff_fmt_header(format_tag, channels, sample_rate, bits) -> bytes:
    """A RIFF/WAVE header and a 16-byte fmt chunk, with no data chunk."""
    align = channels * bits // 8
    return (b"RIFF" + struct.pack("<I", 36) + b"WAVE" + b"fmt "
            + struct.pack("<IHHIIHH", 16, format_tag, channels, sample_rate,
                          sample_rate * align, align, bits))


# junk, a data chunk, or a data chunk whose declared size is arbitrary
CHUNKS = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda body: b"data" + struct.pack("<I", len(body)) + body),
    st.builds(lambda size, body: b"data" + struct.pack("<I", size) + body,
              st.integers(0, 2**32 - 1), st.binary(max_size=64)))


class TestParseWavProperty:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=200),
        st.builds(lambda head, chunks: head + b"".join(chunks),
                  st.builds(riff_fmt_header, st.sampled_from((1, 1, 3)),
                            st.integers(1, 2), st.integers(1, 96000),
                            st.sampled_from((8, 16, 16, 24))),
                  st.lists(CHUNKS, max_size=3))))
    def test_arbitrary_bytes_raise_only_vocalnet_errors(self, data):
        try:
            clip = parse_wav(data)
        except VocalnetError:
            return
        assert clip.samples.ndim == 1 and len(clip.samples) > 0
        assert np.all(np.abs(clip.samples) <= 1.0)


def decode_reference(body: bytes, channels: int, bits: int) -> np.ndarray:
    """The samples of a PCM body by the textbook formulas: a float copy of
    the raw integers, scaled, and stereo pairs averaged."""
    if bits == 16:
        raw = np.frombuffer(body[:len(body) - len(body) % 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    else:
        raw = np.frombuffer(body, dtype=np.uint8)
        samples = (raw.astype(np.float64) - 128.0) / 128.0
    if channels == 2:
        samples = samples[:len(samples) - len(samples) % 2]
        samples = samples.reshape(-1, 2).mean(axis=1)
    return samples


SPECIAL_FLOATS = (np.nan, np.inf, -np.inf, 0.0, -0.0)


@st.composite
def rate_pairs(draw):
    """(rate, target): a free rate, or a whole multiple 2-8 of the target."""
    rates = st.integers(MIN_SAMPLE_RATE, 96000)
    target = draw(rates)
    return draw(rates | st.integers(2, 8).map(lambda k: k * target)), target


class TestDecodeParity:
    """parse_wav and resample give the reference formulas' bits exactly."""

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=301), channels=st.integers(1, 2),
           bits=st.sampled_from((8, 16)), rate=st.integers(MIN_SAMPLE_RATE, 96000))
    def test_parse_wav_bits(self, body, channels, bits, rate):
        data = (riff_fmt_header(1, channels, rate, bits)
                + b"data" + struct.pack("<I", len(body)) + body)
        expected = decode_reference(body, channels, bits)
        if len(expected) == 0:
            with pytest.raises(MalformedRiff):
                parse_wav(data)
            return
        clip = parse_wav(data)
        assert clip.samples.dtype == np.float64
        assert clip.samples.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(samples=st.lists(st.floats(-1, 1) | st.sampled_from(SPECIAL_FLOATS),
                            min_size=1, max_size=300),
           rates=rate_pairs())
    @example(samples=[0.5, -0.0, 0.25, -0.0], rates=(8000, 8000))
    # an odd length at 2x: round(5 / 2) is 2, where every other sample is 3
    @example(samples=[np.nan, -0.0, np.inf, -np.inf, 0.5], rates=(44100, 22050))
    # round(1 / 3) is 0: no sample at all
    @example(samples=[0.5], rates=(3 * 22050, 22050))
    def test_resample_bits(self, samples, rates):
        rate, target = rates
        x = np.array(samples)
        n_out = int(round(len(x) * target / rate))
        expected = np.interp(np.arange(n_out) * (rate / target),
                             np.arange(len(x)), x)
        out = resample(AudioClip(x, rate), target).samples
        assert out.tobytes() == expected.tobytes()
        # a fresh array, as np.interp's output is: frames stride over it, and
        # it keeps no reference to the source clip
        assert out.dtype == np.float64 and out.flags.c_contiguous
        if rate != target:
            assert not np.shares_memory(out, x)

    # one np.interp call on the caller takes every grid, whatever its length:
    # about 2**15 outputs, 100,003, and 275,625 (12.5 s at 22050 Hz), more
    # than the helper process's 1 MiB buffer holds, each with NaN, infinities
    # and -0.0 mid-grid; nothing goes to the helper, and no helper is forked
    @pytest.mark.parametrize("wanted", [2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 100_003,
                                        275_625])
    @pytest.mark.parametrize("rate", [16000, 11025, 48000])
    @pytest.mark.parametrize("specials", [
        (np.nan, np.inf, -0.0, -np.inf), (-0.0, -0.0, np.inf, np.nan),
        (-np.inf, -0.0, -0.0, np.inf)])
    def test_resample_bits_at_the_split(self, wanted, rate, specials, handoffs,
                                        fresh_helper):
        target = 22050
        n_in = wanted * rate // target
        n_out = int(round(n_in * target / rate))
        assert abs(n_out - wanted) <= 2
        x = np.random.default_rng(wanted + rate).uniform(-1, 1, n_in)
        x[n_in // 2 - 1:n_in // 2 + 3] = specials
        out = resample(AudioClip(x, rate), target).samples
        assert handoffs == [] and _helper._running is None
        expected = np.interp(np.arange(n_out) * (rate / target), np.arange(n_in), x)
        assert out.tobytes() == expected.tobytes()
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert not np.shares_memory(out, x)


class TestRoundTrip:
    def test_write_then_parse_within_half_lsb(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            clip = AudioClip(rng.uniform(-1, 1, 500), 22050)
            back = parse_wav(write_wav(clip))
            assert back.sample_rate == clip.sample_rate
            assert np.max(np.abs(back.samples - clip.samples)) <= 1 / 32768


class TestFrameClip:
    def test_frame_count_and_starts(self):
        clip = AudioClip(np.arange(1024.0), 8000)
        frames = frame_clip(clip, 512, 256)
        assert frames.shape == (3, 512)
        assert frames[:, 0].tolist() == [0, 256, 512]

    def test_short_clip_zero_padded(self):
        clip = AudioClip(np.ones(100), 8000)
        frames = frame_clip(clip, 512, 256)
        assert frames.shape == (1, 512)
        assert np.all(frames[0, :100] == 1)
        assert np.all(frames[0, 100:] == 0)

    def test_no_overlap(self):
        clip = AudioClip(np.zeros(1024), 8000)
        assert len(frame_clip(clip, 512, 512)) == 2

    @pytest.mark.parametrize("window, hop", [(0, 0), (-512, 256), (512, 0), (512, 513)])
    def test_invalid_window_or_hop_raises(self, window, hop):
        with pytest.raises(InvalidSetting):
            frame_clip(AudioClip(np.ones(1024), 8000), window, hop)

    def test_empty_clip_raises(self):
        clip = AudioClip(np.ones(1), 8000)
        object.__setattr__(clip, "samples", np.array([]))
        with pytest.raises(EmptyClip):
            frame_clip(clip, 512, 256)

    @given(n=st.integers(1, 5000),
           window=st.sampled_from([64, 128, 256, 512, 1024]),
           data=st.data())
    def test_frames_tile_the_clip(self, n, window, data):
        hop = data.draw(st.integers(1, window), label="hop")
        # samples may be a strided view, as a slice of a longer array is
        step = data.draw(st.sampled_from([1, 3]), label="step")
        x = np.random.default_rng(n).uniform(-1, 1, n * step)[::step]
        clip = AudioClip(x, 8000)
        frames = frame_clip(clip, window, hop)
        rows = 1 if n < window else (n - window) // hop + 1
        assert frames.shape == (rows, window)
        if n < window:
            np.testing.assert_array_equal(frames[0, :n], x)
            assert np.all(frames[0, n:] == 0)
        else:
            starts = np.arange(rows)[:, None] * hop
            np.testing.assert_array_equal(frames, x[starts + np.arange(window)])
            # the docstring's read-only view of the clip, not a copy
            assert not frames.flags.writeable
            assert np.shares_memory(frames, clip.samples)


class TestResample:
    def test_identity_when_rates_match(self):
        clip = AudioClip(np.linspace(-1, 1, 100), 8000)
        out = resample(clip, 8000)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_hand_linear_interpolation(self):
        out = resample(AudioClip([0.0, 1.0], 2), 4)
        np.testing.assert_allclose(out.samples, [0.0, 0.5, 1.0, 1.0])
        assert out.sample_rate == 4

    def test_downsample_length_ratio(self):
        clip = AudioClip(np.zeros(8000), 16000)
        assert len(resample(clip, 8000).samples) == 4000
