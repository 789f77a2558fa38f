"""End-to-end separator: encoder, mask-estimation network, decoder.

The mask network runs on chunked latent features: normalize + project,
segment into half-overlapping chunks, a stack of dual-path blocks, a
projection to one channel group per speaker, overlap-add back to flat
frames, and a per-speaker head that emits non-negative masks. The K masks
share one speaker axis: they gate the shared latent and decode in one
pass. Every stage carries optional leading axes, so a (B, n) batch runs
the same code as one (n,) waveform.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import tensor as T
from . import blocks
from .blocks import DualPathBlock
from .chunking import overlap_add_slabs, segment
from .codec import Decoder, Encoder, Waveform
from .config import ModelConfig
from .nn import Linear, LayerNorm, Module, ModuleList, PReLU
from .tensor import ConfigError, Tensor, no_grad


class Separator(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
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
    def build(cls, cfg: ModelConfig, seed: int | None = 0) -> "Separator":
        """The model with weights drawn from ``seed``; with ``seed=None`` the
        random weights are zeros, for a caller that loads every weight."""
        rng = None if seed is None else np.random.default_rng(
            np.random.SeedSequence((seed, 0)))
        return cls(cfg, rng)

    # -- forward ----------------------------------------------------------

    def masks_for(self, samples: Tensor, record=None):
        """Latent features (..., latent_frames, filters) and the speakers'
        non-negative masks (..., K, latent_frames, filters) for (..., n)
        samples.

        ``record``, if given, is called as ``record(block, net, iteration,
        weights)`` with each (k, heads, T, T) slab of every attention map."""
        d = self.cfg.width
        latent = self.encoder(samples)
        h = segment(self.pre_linear(self.pre_norm(latent)), self.cfg.chunk_size)
        for b, block in enumerate(self.blocks):
            h = block(h, None if record is None else partial(record, b))
        # without a graph, the (post_linear, prelu) pair of a slab of chunks
        # takes the whole slab budget on this thread
        per_chunk = (2 * math.prod(h.shape[:-3]) * h.shape[-2]
                     * self.post_linear.out_features * h.dtype.itemsize)
        flat = overlap_add_slabs(h, latent.shape[-2],          # (..., T_lat, D*K)
                                 lambda c: self.post_act(self.post_linear(c)),
                                 blocks.slab_size(h.shape[-3], per_chunk))
        masks = []
        for s in range(self.cfg.speakers):
            group = flat[..., s * d : (s + 1) * d]
            hidden = T.relu(self.mask_in[s](group))
            mask = T.relu(self.mask_out[s](hidden))
            masks.append(mask.reshape(mask.shape[:-2] + (1,) + mask.shape[-2:]))
        return latent, T.concat(masks, -3)

    def forward(self, samples: Tensor) -> Tensor:
        """Waveform estimates (..., K, n) for (..., n) samples. Samples past
        the decoder's last window, fewer than one encoder stride, are zero."""
        latent, masks = self.masks_for(samples)
        return self.decoder(masks, latent, samples.shape[-1])

    # -- inference --------------------------------------------------------

    def separate(self, wave: Waveform) -> list[Waveform]:
        """Run the frozen model: one waveform per speaker, as long as the input."""
        if wave.sample_rate != self.cfg.sample_rate:
            raise ConfigError(
                f"waveform rate {wave.sample_rate} != model rate "
                f"{self.cfg.sample_rate}"
            )
        with no_grad():
            x = Tensor(np.asarray(wave.samples, dtype=self.cfg.dtype))
            estimates = self.forward(x).data
        return [Waveform(est, wave.sample_rate) for est in estimates]
