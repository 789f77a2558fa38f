"""Segmenting a frame sequence into half-overlapping chunks, and its inverse.

A (frames, channels) sequence is right-padded with zeros and cut into
chunks of an even size with hop = size/2, giving (n_chunks, size, channels).
``overlap_add`` averages the per-frame contributions (each frame lands in
one or two chunks) and trims the padding, so it inverts ``segment``
exactly, not just approximately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError, ContractError, ShapeError, Tensor, _accum, \
    _frames, _from_op, _overlap_sum


@dataclass
class ChunkTensor:
    """Chunked features plus the bookkeeping needed to invert the chunking."""

    data: Tensor          # (n_chunks, size, channels)
    hop: int
    original_length: int | None = None  # frame count before padding

    @property
    def size(self) -> int:
        return self.data.shape[1]

    @property
    def n_chunks(self) -> int:
        return self.data.shape[0]

    def with_data(self, data: Tensor) -> "ChunkTensor":
        """Same chunk geometry, new payload (channel extent may differ)."""
        if data.shape[:2] != self.data.shape[:2]:
            raise ShapeError(
                f"chunk geometry {data.shape[:2]} != {self.data.shape[:2]}"
            )
        return ChunkTensor(data, self.hop, self.original_length)


def padded_length(n_frames: int, size: int) -> int:
    """Smallest length >= max(n_frames, size) cut cleanly by hop-sized steps."""
    hop = size // 2
    base = max(n_frames, size)
    rem = (base - size) % hop
    return base if rem == 0 else base + (hop - rem)


def segment(x: Tensor, size: int) -> ChunkTensor:
    """Cut (frames, channels) into half-overlapping chunks of ``size``."""
    if size < 2 or size % 2 != 0:
        raise ConfigError(f"chunk size must be even and >= 2, got {size}")
    if x.data.ndim != 2:
        raise ShapeError(f"segment expects (frames, channels), got {x.shape}")
    hop = size // 2
    n_frames = x.shape[0]
    n_chunks = (padded_length(n_frames, size) - size) // hop + 1

    def bwd(g):
        _accum(x, _overlap_sum(g, hop, n_frames))

    out = _from_op(_frames(x.data, size, hop, n_chunks), (x,), bwd)
    return ChunkTensor(out, hop, n_frames)


def overlap_add(chunks: ChunkTensor) -> Tensor:
    """Average overlapping chunk contributions and trim to the pre-pad length."""
    if chunks.original_length is None:
        raise ContractError("overlap_add needs the original frame count")
    x = chunks.data
    if x.data.ndim != 3:
        raise ShapeError(f"overlap_add expects (chunks, size, channels), got {x.shape}")
    n_chunks, size, _ = x.shape
    hop = chunks.hop
    n_frames = chunks.original_length
    t_pad = (n_chunks - 1) * hop + size
    if n_frames > t_pad:
        raise ContractError(
            f"original length {n_frames} exceeds chunk span {t_pad}"
        )
    ones = np.ones((n_chunks, size, 1), dtype=x.data.dtype)
    counts = _overlap_sum(ones, hop, n_frames)        # (n_frames, 1): 1 or 2

    def bwd(g):
        _accum(x, _frames(g / counts, size, hop, n_chunks))

    return _from_op(_overlap_sum(x.data, hop, n_frames) / counts, (x,), bwd)
