"""Waveform codec: strided conv encoder and transposed-conv decoder."""

import numpy as np
import pytest

from casep.codec import Decoder, Encoder, EncoderConfig, Waveform
from casep.tensor import ConfigError, ShapeError, Tensor


class TestWaveform:
    def test_length(self):
        assert len(Waveform(np.zeros(100))) == 100

    def test_rank_enforced(self):
        with pytest.raises(ShapeError):
            Waveform(np.zeros((2, 100)))

    def test_finite_enforced(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.inf]))


class TestEncoderConfig:
    def test_latent_frames_formula(self):
        cfg = EncoderConfig(filters=4, kernel=16, stride=8)
        assert cfg.latent_frames(16) == 1
        assert cfg.latent_frames(24) == 2
        assert cfg.latent_frames(8000) == (8000 - 16) // 8 + 1

    def test_too_short_names_requirement(self):
        cfg = EncoderConfig(filters=4, kernel=16, stride=8)
        with pytest.raises(ShapeError, match="at least 16"):
            cfg.latent_frames(15)

    def test_stride_bounded_by_kernel(self):
        with pytest.raises(ConfigError):
            EncoderConfig(filters=4, kernel=8, stride=9)

    def test_positive_fields(self):
        with pytest.raises(ConfigError):
            EncoderConfig(filters=0, kernel=8, stride=4)


class TestEncoder:
    def test_output_shape(self, rng):
        cfg = EncoderConfig(filters=6, kernel=4, stride=2)
        enc = Encoder(cfg, rng)
        out = enc(Tensor(np.zeros(20, dtype=np.float32)))
        assert out.shape == (9, 6)
        assert enc(Tensor(np.zeros((3, 20), dtype=np.float32))).shape == (3, 9, 6)

    def test_zero_input_gives_zero_latent(self, rng):
        # no bias anywhere, so this holds exactly
        enc = Encoder(EncoderConfig(filters=8, kernel=4, stride=2), rng)
        out = enc(Tensor(np.zeros(32, dtype=np.float32)))
        assert np.all(out.data == 0.0)

    def test_latent_non_negative(self, rng):
        enc = Encoder(EncoderConfig(filters=8, kernel=4, stride=2), rng)
        x = rng.standard_normal(64).astype(np.float32)
        assert np.all(enc(Tensor(x)).data >= 0.0)

    def test_short_input_rejected(self, rng):
        enc = Encoder(EncoderConfig(filters=8, kernel=16, stride=8), rng)
        with pytest.raises(ShapeError):
            enc(Tensor(np.zeros(10, dtype=np.float32)))

    def test_param_count(self, rng):
        enc = Encoder(EncoderConfig(filters=8, kernel=4, stride=2), rng)
        assert enc.param_count() == 8 * 4


class TestDecoder:
    def test_output_length_formula(self, rng):
        cfg = EncoderConfig(filters=4, kernel=16, stride=8)
        dec = Decoder(cfg, rng)
        assert dec.output_length(1) == 16
        assert dec.output_length(10) == 9 * 8 + 16

    def test_length_round_trip(self, rng):
        # (T - kernel) divisible by stride: decode(encode) length == T
        cfg = EncoderConfig(filters=8, kernel=16, stride=8)
        enc, dec = Encoder(cfg, rng), Decoder(cfg, rng)
        for t in (16, 24, 160, 8000):
            latent = enc(Tensor(np.random.default_rng(t)
                                .standard_normal(t).astype(np.float32)))
            mask = Tensor(np.ones(latent.shape, dtype=np.float32))
            assert dec(mask, latent).shape == (t,)

    def test_mask_shape_enforced(self, rng):
        cfg = EncoderConfig(filters=4, kernel=4, stride=2)
        dec = Decoder(cfg, rng)
        with pytest.raises(ShapeError):
            dec(Tensor(np.ones((3, 4), dtype=np.float32)),
                Tensor(np.ones((5, 4), dtype=np.float32)))

    def test_linear_in_mask(self, rng):
        cfg = EncoderConfig(filters=8, kernel=4, stride=2)
        enc = Encoder(cfg, rng, dtype=np.float64)
        dec = Decoder(cfg, rng, dtype=np.float64)
        latent = enc(Tensor(rng.standard_normal(40)))
        mask = Tensor(rng.uniform(0, 1, latent.shape))
        one = dec(mask, latent).data
        three = dec(Tensor(3.0 * mask.data), latent).data
        denom = np.maximum(np.abs(3.0 * one), 1e-6)
        assert np.max(np.abs(three - 3.0 * one) / denom) < 1e-6

    def test_zero_mask_silences(self, rng):
        cfg = EncoderConfig(filters=8, kernel=4, stride=2)
        enc, dec = Encoder(cfg, rng), Decoder(cfg, rng)
        latent = enc(Tensor(rng.standard_normal(40).astype(np.float32)))
        out = dec(Tensor(np.zeros(latent.shape, dtype=np.float32)), latent)
        assert np.all(out.data == 0.0)
