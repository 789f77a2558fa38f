"""Waveform-to-latent encoder and mask-applying decoder.

The encoder is a bias-free strided 1-D convolution followed by ReLU, so a
zero waveform maps to an exactly zero latent. The decoder multiplies each
speaker's non-negative mask into the latent and runs the matching transposed
convolution (same kernel length and stride), also bias-free, for all
speakers in one pass. Both run on ``frames`` and its adjoint ``overlap_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import Module, uniform_param
from .tensor import ConfigError, ShapeError, Tensor


@dataclass
class Waveform:
    """A mono time-domain signal."""

    samples: np.ndarray
    sample_rate: int = 8000

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1:
            raise ShapeError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    def __len__(self):
        return self.samples.shape[0]


@dataclass(frozen=True)
class EncoderConfig:
    filters: int
    kernel: int
    stride: int

    def __post_init__(self):
        if self.filters < 1 or self.kernel < 1 or self.stride < 1:
            raise ConfigError("encoder filters/kernel/stride must be positive")
        if self.stride > self.kernel:
            raise ConfigError(
                f"encoder stride {self.stride} must not exceed kernel {self.kernel}"
            )

    def latent_frames(self, n_samples: int) -> int:
        if n_samples < self.kernel:
            raise ShapeError(
                f"input of {n_samples} samples is too short; "
                f"the encoder needs at least {self.kernel}"
            )
        return (n_samples - self.kernel) // self.stride + 1


class Encoder(Module):
    """Strided windows x filter bank + ReLU: (..., n) -> (..., frames, filters)."""

    def __init__(self, cfg: EncoderConfig, rng, dtype=np.float32):
        self.cfg = cfg
        self.kernels = uniform_param(rng, (cfg.filters, 1, cfg.kernel), cfg.kernel,
                                     dtype)

    def __call__(self, samples: Tensor) -> Tensor:
        cfg = self.cfg
        count = cfg.latent_frames(samples.shape[-1])  # raises if too short
        windows = T.frames(samples.reshape(samples.shape + (1,)), cfg.kernel,
                           cfg.stride, count)
        kernels = self.kernels.reshape((cfg.filters, cfg.kernel))
        return T.relu(windows.reshape(windows.shape[:-1]) @ kernels.transpose((1, 0)))


class Decoder(Module):
    """Masks applied to one latent, then windows overlap-added back to
    ``length`` samples, as ``overlap_add`` is given its frame count:
    (..., K, frames, filters) masks and a (..., frames, filters) latent give
    (..., K, length), all K in one pass, zero past the last window."""

    def __init__(self, cfg: EncoderConfig, rng, dtype=np.float32):
        self.cfg = cfg
        self.kernels = uniform_param(rng, (cfg.filters, 1, cfg.kernel),
                                     cfg.filters * cfg.kernel, dtype)

    def __call__(self, masks: Tensor, latent: Tensor, length: int) -> Tensor:
        if len(masks.shape) < 3 or masks.shape[:-3] + masks.shape[-2:] != latent.shape:
            raise ShapeError(
                f"masks shape {masks.shape} must be latent {latent.shape} "
                "with a speaker axis before the frame axis"
            )
        cfg = self.cfg
        kernels = self.kernels.reshape((cfg.filters, cfg.kernel))
        latent = latent.reshape(latent.shape[:-2] + (1,) + latent.shape[-2:])
        pieces = T.mul(masks, latent) @ kernels      # (..., K, latent_frames, kernel)
        out = T.overlap_sum(pieces.reshape(pieces.shape + (1,)), cfg.stride, length)
        return out.reshape(out.shape[:-1])
