"""Mono 16-bit PCM WAV reading and writing."""

import wave

import numpy as np
import pytest

from casep.codec import Waveform
from casep.wavio import WavFormatError, read_wav, write_wav


class TestRoundTrip:
    def test_read_write_read_bit_exact(self, tmp_path):
        path = tmp_path / "a.wav"
        rng = np.random.default_rng(0)
        write_wav(path, Waveform(rng.uniform(-0.9, 0.9, 400), 8000))
        first = read_wav(path)
        path2 = tmp_path / "b.wav"
        write_wav(path2, first)
        second = read_wav(path2)
        assert np.array_equal(first.samples, second.samples)
        assert first.sample_rate == second.sample_rate == 8000

    def test_quantization_step(self, tmp_path):
        path = tmp_path / "q.wav"
        write_wav(path, Waveform(np.array([0.5, -0.5, 0.0]), 8000))
        back = read_wav(path)
        assert np.array_equal(back.samples, [0.5, -0.5, 0.0])

    def test_clipping_at_full_scale(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(path, Waveform(np.array([2.0, -2.0]), 8000))
        back = read_wav(path)
        assert back.samples[0] == pytest.approx(32767 / 32768.0)
        assert back.samples[1] == -1.0

    def test_sample_rate_preserved(self, tmp_path):
        path = tmp_path / "r.wav"
        write_wav(path, Waveform(np.zeros(10), 16000))
        assert read_wav(path).sample_rate == 16000


class TestFormatErrors:
    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_stereo_rejected_names_channels(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(np.zeros(20, dtype="<i2").tobytes())
        with pytest.raises(WavFormatError, match="channels"):
            read_wav(path)

    def test_wrong_width_rejected_names_width(self, tmp_path):
        path = tmp_path / "wide.wav"
        with wave.open(str(path), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(4)
            f.setframerate(8000)
            f.writeframes(np.zeros(10, dtype="<i4").tobytes())
        with pytest.raises(WavFormatError, match="width"):
            read_wav(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(np.zeros(10), 8000))
        path.write_bytes(path.read_bytes()[:20])     # inside the fmt chunk
        with pytest.raises(WavFormatError, match="truncated header"):
            read_wav(path)

    def test_odd_data_byte_count_rejected(self, tmp_path):
        path = tmp_path / "odd.wav"
        write_wav(path, Waveform(np.zeros(10), 8000))
        path.write_bytes(path.read_bytes()[:-1])     # half of the last sample
        with pytest.raises(WavFormatError, match="inside a sample"):
            read_wav(path)
