"""Synthetic band-limited mixture generation."""

import numpy as np
import pytest
from conftest import two_sine_spec

from casep.config import SyntheticSpec
from casep.synth import gen_mixture
from casep.tensor import ConfigError


def noise_spec(seed=0):
    return SyntheticSpec(
        n_sources=2,
        length=1024,
        sample_rate=8000,
        kind="noise_band",
        bands=[(200.0, 400.0), (1000.0, 2000.0)],
        seed=seed,
    )


class TestDeterminism:
    def test_same_seed_and_index_reproduce(self):
        a_mix, a_srcs = gen_mixture(two_sine_spec(seed=5), index=3)
        b_mix, b_srcs = gen_mixture(two_sine_spec(seed=5), index=3)
        assert np.array_equal(a_mix.samples, b_mix.samples)
        for u, v in zip(a_srcs, b_srcs):
            assert np.array_equal(u.samples, v.samples)

    def test_indices_are_independent_draws(self):
        mix0, _ = gen_mixture(two_sine_spec(seed=5), index=0)
        mix1, _ = gen_mixture(two_sine_spec(seed=5), index=1)
        assert not np.array_equal(mix0.samples, mix1.samples)

    def test_seeds_differ(self):
        mix_a, _ = gen_mixture(two_sine_spec(seed=1), index=0)
        mix_b, _ = gen_mixture(two_sine_spec(seed=2), index=0)
        assert not np.array_equal(mix_a.samples, mix_b.samples)


class TestMixtureStructure:
    def test_mixture_is_source_sum(self):
        mix, srcs = gen_mixture(two_sine_spec(), index=0)
        assert np.allclose(mix.samples, srcs[0].samples + srcs[1].samples,
                           atol=1e-12)

    def test_source_count_and_length(self):
        spec = two_sine_spec(length=800)
        mix, srcs = gen_mixture(spec)
        assert len(srcs) == 2
        assert len(mix) == 800
        for s in srcs:
            assert len(s) == 800 and s.sample_rate == spec.sample_rate

    def test_default_levels_are_unit_rms(self):
        # level range defaults to 0 dB, so each source keeps RMS 1
        _, srcs = gen_mixture(two_sine_spec(length=4000))
        for s in srcs:
            rms = np.sqrt(np.mean(s.samples ** 2))
            assert rms == pytest.approx(1.0, abs=1e-6)

    def test_sources_occupy_their_bands(self):
        spec = noise_spec()
        _, srcs = gen_mixture(spec)
        freqs = np.fft.rfftfreq(spec.length, d=1.0 / spec.sample_rate)
        for band, src in zip(spec.bands, srcs):
            power = np.abs(np.fft.rfft(src.samples)) ** 2
            inside = power[(freqs >= band[0]) & (freqs <= band[1])].sum()
            outside = power[(freqs < band[0]) | (freqs > band[1])].sum()
            assert inside > 1e6 * max(outside, 1e-30)

    def test_sinusoid_is_narrowband(self):
        spec = two_sine_spec(length=2048)
        _, srcs = gen_mixture(spec)
        freqs = np.fft.rfftfreq(spec.length, d=1.0 / spec.sample_rate)
        power = np.abs(np.fft.rfft(srcs[0].samples)) ** 2
        peak = freqs[np.argmax(power)]
        lo, hi = spec.bands[0]
        # spectral leakage of a finite window blurs the line a little
        assert lo - 20 <= peak <= hi + 20


class TestSpecValidation:
    def test_overlapping_bands_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(
                n_sources=2, length=512, sample_rate=8000, kind="sinusoid",
                bands=[(200.0, 900.0), (800.0, 2000.0)], seed=0,
            )

    def test_band_count_must_match_sources(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(
                n_sources=3, length=512, sample_rate=8000, kind="sinusoid",
                bands=[(200.0, 400.0), (1000.0, 2000.0)], seed=0,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(
                n_sources=2, length=512, sample_rate=8000, kind="chirp",
                bands=[(200.0, 400.0), (1000.0, 2000.0)], seed=0,
            )
