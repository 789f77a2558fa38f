"""Deterministic synthetic mixtures of band-limited sources.

Each source lives in its own frequency band (bands are disjoint by
config validation), is normalized to unit RMS, then scaled by a level
drawn from the configured dB range. The mixture is the plain sample-wise
sum of the scaled sources. Everything derives from (seed, index), so any
mixture in the stream can be regenerated independently.
"""

from __future__ import annotations

import numpy as np

from .codec import Waveform
from .config import SyntheticSpec


def _unit_rms(x: np.ndarray) -> np.ndarray:
    rms = np.sqrt(np.mean(x * x))
    if rms == 0.0:
        raise ValueError("degenerate all-zero source")
    return x / rms


def _sinusoid(rng, band, n, rate) -> np.ndarray:
    freq = rng.uniform(band[0], band[1])
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n) / rate
    return _unit_rms(np.sin(2.0 * np.pi * freq * t + phase))


def _noise_band(rng, band, n, rate) -> np.ndarray:
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    spectrum[(freqs < band[0]) | (freqs > band[1])] = 0.0
    return _unit_rms(np.fft.irfft(spectrum, n=n))


def gen_mixture(spec: SyntheticSpec, index: int = 0):
    """One mixture of the stream: (mixture, [sources]), all Waveforms."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
    make = _sinusoid if spec.kind == "sinusoid" else _noise_band
    sources = []
    for band in spec.bands:
        base = make(rng, band, spec.length, spec.sample_rate)
        level_db = rng.uniform(spec.level_db_lo, spec.level_db_hi)
        sources.append(base * 10.0 ** (level_db / 20.0))
    mixture = np.sum(sources, axis=0)
    return (
        Waveform(mixture, spec.sample_rate),
        [Waveform(s, spec.sample_rate) for s in sources],
    )
