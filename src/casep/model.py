"""End-to-end separator: encoder, mask-estimation network, decoder.

The mask network runs on chunked latent features: normalize + project,
segment into half-overlapping chunks, a stack of dual-path blocks, a
projection to one channel group per speaker, overlap-add back to flat
frames, and a per-speaker head that emits non-negative masks. The K masks
share one speaker axis: with or without a graph they are joined by one
``concat`` once the head's input is released, then gate the shared latent
and decode in one pass. Every stage carries optional leading axes, so a
(B, n) batch runs the same code as one (n,) waveform.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from . import blocks
from .blocks import DualPathBlock
from .chunking import overlap_add_slabs, segment
from .codec import Decoder, Encoder, Waveform
from .config import ModelConfig
from .nn import Linear, LayerNorm, Module, PReLU
from .tensor import ConfigError, ShapeError, Tensor, no_grad


class Separator(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.width
        dtype = cfg.dtype
        self.encoder = Encoder(cfg.encoder, rng, dtype)
        self.pre_norm = LayerNorm(d, dtype=dtype)
        self.pre_linear = Linear(d, d, rng, dtype=dtype)
        self.blocks = [DualPathBlock(cfg, rng) for _ in range(cfg.n_blocks)]
        self.post_linear = Linear(d, d * cfg.speakers, rng, dtype=dtype)
        self.post_act = PReLU(dtype=dtype)
        self.mask_in = [Linear(d, d, rng, dtype=dtype) for _ in range(cfg.speakers)]
        self.mask_out = [Linear(d, d, rng, dtype=dtype) for _ in range(cfg.speakers)]
        self.decoder = Decoder(cfg.encoder, rng, dtype)

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int | None = 0) -> "Separator":
        """The model with weights drawn from ``seed``. With ``seed=None`` the
        random weights are read-only zeros that hold no memory, for a caller
        that replaces every weight (``load_model_state``) or only counts them."""
        rng = None if seed is None else np.random.default_rng(
            np.random.SeedSequence((seed, 0)))
        return cls(cfg, rng)

    # -- forward ----------------------------------------------------------

    def _chunks(self, samples: Tensor):
        """The latent features and the chunks the first block reads."""
        if 0 in samples.shape[:-1]:
            raise ShapeError(f"cannot separate an empty batch of shape {samples.shape}")
        latent = self.encoder(samples)
        return latent, segment(self.pre_linear(self.pre_norm(latent)),
                               self.cfg.chunk_size)

    def layer_input(self, samples: Tensor, block: int, name: str):
        """Step ``name`` of block ``block`` (a ``DualPathBlock.steps()`` key)
        and its input for (..., n) samples. No later step runs."""
        if not 0 <= block < len(self.blocks) or name not in self.blocks[block].steps():
            raise ConfigError(f"the model has no step {name!r} in block {block}")
        h = self._chunks(samples)[1]
        for b, blk in enumerate(self.blocks):
            for key, step in blk.steps().items():
                if (b, key) == (block, name):
                    return step, h
                h = step(h)

    def masks_for(self, samples: Tensor):
        """Latent features (..., latent_frames, filters) and the speakers' non-negative
        masks (..., K, latent_frames, filters) for (..., n) samples."""
        latent, h = self._chunks(samples)
        for block in self.blocks:
            # one step at a time, so the block's input is not held through it
            for step in block.steps().values():
                h = step(h)
        # without a graph, the (post_linear, prelu) pair of a slab of chunks
        # takes the whole slab budget on this thread
        per_chunk = (2 * math.prod(h.shape[:-3]) * h.shape[-2]
                     * self.post_linear.out_features * h.dtype.itemsize)
        flat = overlap_add_slabs(h, latent.shape[-2],          # (..., T_lat, D*K)
                                 lambda c: self.post_act(self.post_linear(c)),
                                 blocks.slab_size(h.shape[-3], per_chunk))
        del h                     # not read again; only ``flat`` is
        d = self.cfg.width
        masks = []
        for s in range(self.cfg.speakers):
            # speaker s's (..., T_lat, D) mask from its channel group, in one
            # expression: each intermediate dies as the next op returns
            m = T.relu(self.mask_out[s](
                T.relu(self.mask_in[s](flat[..., s * d : (s + 1) * d]))))
            masks.append(m.reshape(m.shape[:-2] + (1,) + m.shape[-2:]))
        del flat                  # as large as the masks; freed before their join
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
