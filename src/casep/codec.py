"""Waveform-to-latent encoder and mask-applying decoder.

The encoder is a bias-free strided 1-D convolution followed by ReLU, so a
zero waveform maps to an exactly zero latent. The decoder multiplies a
non-negative mask into the latent and runs the matching transposed
convolution (same kernel length and stride), also bias-free. Both run on
``frames`` and its adjoint ``overlap_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import Module, conv_weight
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


@dataclass
class EncoderConfig:
    filters: int = 256
    kernel: int = 16
    stride: int = 8

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
    """Strided windows x filter bank + ReLU producing (latent_frames, filters)."""

    def __init__(self, cfg: EncoderConfig, rng, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        self.kernels = conv_weight(
            rng, (cfg.filters, 1, cfg.kernel), fan_in=1, length=cfg.kernel,
            dtype=dtype,
        )

    def __call__(self, samples: Tensor) -> Tensor:
        if samples.data.ndim != 1:
            raise ShapeError("encoder input must be a 1-D sample vector")
        cfg = self.cfg
        count = cfg.latent_frames(samples.shape[0])  # raises if too short
        windows = T.frames(samples, cfg.kernel, cfg.stride, count)
        kernels = self.kernels.reshape((cfg.filters, cfg.kernel))
        return T.relu(windows @ kernels.transpose((1, 0)))


class Decoder(Module):
    """Mask application, then windows overlap-added back to samples."""

    def __init__(self, cfg: EncoderConfig, rng, dtype=np.float32):
        super().__init__()
        self.cfg = cfg
        self.kernels = conv_weight(
            rng, (cfg.filters, 1, cfg.kernel), fan_in=cfg.filters,
            length=cfg.kernel, dtype=dtype,
        )

    def __call__(self, mask: Tensor, latent: Tensor) -> Tensor:
        if mask.shape != latent.shape:
            raise ShapeError(
                f"mask shape {mask.shape} must match latent {latent.shape}"
            )
        cfg = self.cfg
        kernels = self.kernels.reshape((cfg.filters, cfg.kernel))
        pieces = T.mul(mask, latent) @ kernels           # (latent_frames, kernel)
        return T.overlap_sum(pieces, cfg.stride, self.output_length(mask.shape[0]))

    def output_length(self, latent_frames: int) -> int:
        return (latent_frames - 1) * self.cfg.stride + self.cfg.kernel
