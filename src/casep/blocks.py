"""The hybrid layer (parallel attention + separable-conv paths) and the
dual-path block that alternates within-chunk and across-chunk passes.

Channel layout: a width-D feature splits into conv channels [0, D_c) and
attention channels [D_c, D). After both paths run, outputs are rejoined in
that same order, fed through a two-layer feed-forward, and normalized.
Either path may be empty (D_c = 0 or D_a = 0); the layer then degenerates
to a plain attention or conv layer of full width.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import PathConfig
from .nn import (
    Linear,
    LayerNorm,
    Module,
    ModuleList,
    MultiHeadAttention,
    Parameter,
    uniform_init,
)
from .tensor import ConfigError, Tensor


def channel_split(h: Tensor, conv_channels: int, attn_channels: int):
    """Split (..., D) into conv [0, D_c) and attention [D_c, D) slices."""
    width = h.shape[-1]
    if conv_channels + attn_channels != width:
        raise ConfigError(
            f"split {conv_channels}+{attn_channels} != width {width}"
        )
    hc = h[..., :conv_channels]
    ha = h[..., conv_channels:]
    return hc, ha


class AttentionRecorder:
    """Collects attention weights keyed by (block, net, iteration).

    Stored arrays keep the full (batch, heads, T, T) layout so callers can
    pick a head and reduce over the batch axis themselves.
    """

    def __init__(self):
        self.maps: dict[tuple[int, str, int], np.ndarray] = {}

    def add(self, block: int, net: str, iteration: int, attn: np.ndarray) -> None:
        self.maps[(block, net, iteration)] = attn


class HybridLayer(Module):
    """One attention-plus-conv layer; input and output are (..., T, D)."""

    def __init__(self, cfg: PathConfig, rng, dtype=np.float32):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        if cfg.attn_channels > 0:
            self.attn = MultiHeadAttention(cfg.attn_channels, cfg.heads, rng, dtype)
            self.attn_norm = LayerNorm(cfg.attn_channels, dtype=dtype)
        else:
            self.attn = None
            self.attn_norm = None
        if cfg.conv_channels > 0:
            # depthwise taps: each channel owns one length-L kernel row
            bound = np.sqrt(1.0 / cfg.kernel)
            self.depthwise = Parameter(
                uniform_init(rng, (cfg.conv_channels, cfg.kernel), bound, dtype)
            )
            self.pointwise = Linear(cfg.conv_channels, cfg.conv_channels, rng,
                                    dtype=dtype)
            self.conv_norm = LayerNorm(cfg.conv_channels, dtype=dtype)
        else:
            self.depthwise = None
            self.pointwise = None
            self.conv_norm = None
        self.ffn_in = Linear(cfg.width, cfg.ffn_dim, rng, dtype=dtype)
        self.ffn_out = Linear(cfg.ffn_dim, cfg.width, rng, dtype=dtype)
        self.out_norm = LayerNorm(cfg.width, dtype=dtype)

    def attention_path(self, ha: Tensor):
        out, weights = self.attn(ha)
        return self.attn_norm(T.add(out, ha)), weights

    def conv_path(self, hc: Tensor) -> Tensor:
        frames_last = T.swapaxes(hc, -2, -1)          # (..., C, T)
        dw = T.depthwise_conv1d(frames_last, self.depthwise)
        mixed = self.pointwise(T.swapaxes(dw, -2, -1))  # back to (..., T, C)
        return self.conv_norm(T.add(mixed, hc))

    def __call__(self, h: Tensor, record=None) -> Tensor:
        cfg = self.cfg
        hc, ha = channel_split(h, cfg.conv_channels, cfg.attn_channels)
        if self.attn is not None:
            attn_out, weights = self.attention_path(ha)
            if record is not None:
                record(weights)
            del weights  # frees the (..., T, T) map before the feed-forward
        else:
            attn_out = None
        conv_out = self.conv_path(hc) if self.depthwise is not None else None
        if attn_out is None:
            fused = conv_out
        elif conv_out is None:
            fused = attn_out
        else:
            fused = T.concat([conv_out, attn_out], axis=-1)
        ff = self.ffn_out(T.relu(self.ffn_in(fused)))
        return self.out_norm(T.add(ff, fused))


class DualPathBlock(Module):
    """Within-chunk passes, a chunk/frame permutation, across-chunk passes.

    With ``shared`` set, one layer instance per direction is applied on
    every repetition, so its parameters receive the summed gradient.
    """

    def __init__(self, intra_cfg: PathConfig, inter_cfg: PathConfig,
                 n_intra: int, n_inter: int, shared: bool, rng,
                 dtype=np.float32):
        super().__init__()
        if n_intra < 1 or n_inter < 1:
            raise ConfigError("repetition counts must be >= 1")
        self.n_intra = n_intra
        self.n_inter = n_inter
        self.shared = shared
        if shared:
            self.intra = HybridLayer(intra_cfg, rng, dtype)
            self.inter = HybridLayer(inter_cfg, rng, dtype)
        else:
            self.intra = ModuleList(
                [HybridLayer(intra_cfg, rng, dtype) for _ in range(n_intra)]
            )
            self.inter = ModuleList(
                [HybridLayer(inter_cfg, rng, dtype) for _ in range(n_inter)]
            )

    def _layer(self, net, i):
        return net if self.shared else net[i]

    def __call__(self, h: Tensor, recorder: AttentionRecorder | None = None,
                 block_index: int = 0) -> Tensor:
        """(..., n_chunks, size, D) -> the same shape."""
        for i in range(self.n_intra):
            record = None
            if recorder is not None:
                record = lambda w, i=i: recorder.add(block_index, "intra", i, w)
            h = self._layer(self.intra, i)(h, record)
        h = T.swapaxes(h, -3, -2)            # (..., size, n_chunks, D)
        for i in range(self.n_inter):
            record = None
            if recorder is not None:
                record = lambda w, i=i: recorder.add(block_index, "inter", i, w)
            h = self._layer(self.inter, i)(h, record)
        return T.swapaxes(h, -3, -2)
