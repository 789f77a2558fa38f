"""End-to-end separator: encoder, mask-estimation network, decoder.

The mask network runs on chunked latent features: normalize + project,
segment into half-overlapping chunks, a stack of dual-path blocks, a
projection to one channel group per speaker, overlap-add back to flat
frames, and a per-speaker head that emits non-negative masks. Each mask
gates the shared latent before its own decode pass. Every stage carries
optional leading axes, so a (B, n) batch runs the same code as one (n,)
waveform.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .blocks import AttentionRecorder, DualPathBlock
from .chunking import overlap_add, segment
from .codec import Decoder, Encoder, Waveform
from .config import ModelConfig
from .nn import Linear, LayerNorm, Module, ModuleList, PReLU
from .tensor import ConfigError, Tensor, no_grad


class Separator(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        d = cfg.width
        dtype = cfg.dtype
        self.encoder = Encoder(cfg.encoder, rng, dtype)
        self.pre_norm = LayerNorm(d, dtype=dtype)
        self.pre_linear = Linear(d, d, rng, dtype=dtype)
        self.blocks = ModuleList(
            [
                DualPathBlock(cfg.intra, cfg.inter, cfg.n_intra, cfg.n_inter,
                              cfg.shared, rng, dtype)
                for _ in range(cfg.n_blocks)
            ]
        )
        self.post_linear = Linear(d, d * cfg.speakers, rng, dtype=dtype)
        self.post_act = PReLU(dtype=dtype)
        self.mask_in = ModuleList(
            [Linear(d, d, rng, dtype=dtype) for _ in range(cfg.speakers)]
        )
        self.mask_out = ModuleList(
            [Linear(d, d, rng, dtype=dtype) for _ in range(cfg.speakers)]
        )
        self.decoder = Decoder(cfg.encoder, rng, dtype)

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int = 0) -> "Separator":
        return cls(cfg, np.random.default_rng(np.random.SeedSequence((seed, 0))))

    # -- forward ----------------------------------------------------------

    def masks_for(self, samples: Tensor,
                  recorder: AttentionRecorder | None = None):
        """Latent features plus one non-negative mask per speaker, each
        (..., latent_frames, filters) for (..., n) samples."""
        d, k = self.cfg.width, self.cfg.speakers
        latent = self.encoder(samples)
        pre = self.pre_linear(self.pre_norm(latent))
        h = segment(pre, self.cfg.chunk_size)
        for b, block in enumerate(self.blocks):
            h = block(h, recorder, b)
        post = self.post_act(self.post_linear(h))
        flat = overlap_add(post, latent.shape[-2])     # (..., T_lat, D*K)
        masks = []
        for s in range(k):
            group = flat[..., s * d : (s + 1) * d]
            hidden = T.relu(self.mask_in[s](group))
            masks.append(T.relu(self.mask_out[s](hidden)))
        return latent, masks

    def forward(self, samples: Tensor,
                recorder: AttentionRecorder | None = None):
        """Per-speaker waveform estimates (..., decoder length) and masks."""
        latent, masks = self.masks_for(samples, recorder)
        estimates = [self.decoder(m, latent) for m in masks]
        return estimates, masks

    # -- inference --------------------------------------------------------

    def separate(self, wave: Waveform,
                 recorder: AttentionRecorder | None = None) -> list[Waveform]:
        """Run the frozen model; outputs are length-matched to the input."""
        if wave.sample_rate != self.cfg.sample_rate:
            raise ConfigError(
                f"waveform rate {wave.sample_rate} != model rate "
                f"{self.cfg.sample_rate}"
            )
        with no_grad():
            x = Tensor(np.asarray(wave.samples, dtype=self.cfg.dtype))
            estimates, _ = self.forward(x, recorder)
        out = []
        for est in estimates:
            samples = fit_length(est.data, len(wave))
            out.append(Waveform(samples, wave.sample_rate))
        return out


def fit_length(samples: np.ndarray, target: int) -> np.ndarray:
    """Trim or zero-pad a 1-D signal to exactly ``target`` samples."""
    if samples.shape[0] >= target:
        return samples[:target].copy()
    out = np.zeros(target, dtype=samples.dtype)
    out[: samples.shape[0]] = samples
    return out
