"""Segmenting a frame sequence into half-overlapping chunks, and its inverse.

A (..., frames, channels) sequence is right-padded with zeros and cut into
chunks of an even size with hop = size/2, giving (..., n_chunks, size,
channels). ``overlap_add`` averages the per-frame contributions (each frame
lands in one or two chunks) and trims the padding, so it inverts ``segment``
exactly, not just approximately.
"""

from __future__ import annotations

import numpy as np

from .tensor import ConfigError, ContractError, ShapeError, Tensor, _accum, \
    _frames, _from_op, _overlap_sum, frames, grad_enabled


def chunk_hop(size: int) -> int:
    """The hop of chunks of ``size``, which must be even and >= 2."""
    if size < 2 or size % 2 != 0:
        raise ConfigError(f"chunk size must be even and >= 2, got {size}")
    return size // 2


def padded_length(n_frames: int, size: int) -> int:
    """Smallest length >= max(n_frames, size) cut cleanly by hop-sized steps."""
    hop = size // 2
    base = max(n_frames, size)
    rem = (base - size) % hop
    return base if rem == 0 else base + (hop - rem)


def segment(x: Tensor, size: int) -> Tensor:
    """Cut (..., frames, channels) into half-overlapping chunks of ``size``:
    (..., n_chunks, size, channels)."""
    hop = chunk_hop(size)
    if x.data.ndim < 2:
        raise ShapeError(f"segment expects (..., frames, channels), got {x.shape}")
    n_chunks = (padded_length(x.shape[-2], size) - size) // hop + 1
    return frames(x, size, hop, n_chunks)


def _cover_counts(shape: tuple, n_frames: int, dtype) -> np.ndarray:
    """How many of the chunks of a (..., n_chunks, size, channels) array
    cover each of the first ``n_frames`` frames: (n_frames, 1), 1 or 2."""
    if len(shape) < 3:
        raise ShapeError(
            f"overlap_add expects (..., chunks, size, channels), got {shape}"
        )
    n_chunks, size = shape[-3:-1]
    hop = chunk_hop(size)
    t_pad = (n_chunks - 1) * hop + size
    if n_frames > t_pad:
        raise ContractError(
            f"original length {n_frames} exceeds chunk span {t_pad}"
        )
    return _overlap_sum(np.ones((n_chunks, size, 1), dtype=dtype), hop, n_frames)


def overlap_add(x: Tensor, n_frames: int) -> Tensor:
    """Average overlapping chunk contributions of (..., n_chunks, size,
    channels) and trim to the pre-pad length: (..., n_frames, channels)."""
    counts = _cover_counts(x.shape, n_frames, x.data.dtype)
    n_chunks, size = x.shape[-3:-1]
    hop = size // 2

    def bwd(g):
        _accum(x, _frames(g / counts, size, hop, n_chunks))

    return _from_op(_overlap_sum(x.data, hop, n_frames) / counts, (x,), bwd)


def overlap_add_slabs(x: Tensor, n_frames: int, fn, step: int) -> Tensor:
    """``overlap_add(fn(x), n_frames)``. Without graph recording, ``fn``
    runs on ``step`` chunks at a time and each slab's sum is added into one
    accumulator, so one slab of ``fn``'s output is alive, not all of it.
    ``fn`` must act on each chunk alone. A frame's sum has the same one or
    two terms either way, so the result is bit-identical."""
    n_chunks, size = x.shape[-3:-1]
    if grad_enabled() or step >= n_chunks:
        return overlap_add(fn(x), n_frames)
    counts = _cover_counts(x.shape, n_frames, x.data.dtype)
    hop = size // 2
    acc = None
    for first in range(0, n_chunks, step):
        part = fn(x[..., first : first + step, :, :]).data
        if acc is None:
            acc = np.zeros(part.shape[:-3] + (n_frames, part.shape[-1]),
                           dtype=part.dtype)
        start = min(first * hop, n_frames)
        stop = min(start + (part.shape[-3] + 1) * hop, n_frames)
        acc[..., start:stop, :] += _overlap_sum(part, hop, stop - start)
        del part                  # before ``fn`` makes the next slab
    acc /= counts
    return Tensor(acc)
