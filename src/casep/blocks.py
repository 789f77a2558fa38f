"""The hybrid layer (parallel attention + separable-conv paths) and the
dual-path block that alternates within-chunk and across-chunk passes.

Channel layout: a width-D feature splits into conv channels [0, D_c) and
attention channels [D_c, D). After both paths run, outputs are rejoined in
that same order, fed through a two-layer feed-forward, and normalized.
Either path may be empty (D_c = 0 or D_a = 0); the layer then degenerates
to a plain attention or conv layer of full width.

Each chunk (within-chunk pass) and each frame position (across-chunk pass)
is an independent sequence. Without graph recording, a layer runs them in
slabs, so its (..., heads, T, T) scores and (..., T, ffn_dim) hidden stay
bounded however long the input is:

- ``slab_size`` cuts a count of items into the fewest slabs that fit
  ``SLAB_BYTES // workers``, evened out: 250 sequences with room for 73
  give 63 + 63 + 63 + 61, not 73 + 73 + 73 + 31. A layer's item is a
  sequence's score map or feed-forward pair, whichever is larger; the mask
  head's is a chunk's output pair, with the whole budget on the calling
  thread. A layer takes one pass on the calling thread while it records a
  graph or when its sequences fit one slab. A layer's ``attention_maps``
  come in its one-worker slabs, on the calling thread.
- The slabs run on ``worker_count()`` threads: the calling thread and a
  persistent pool, made once per thread count on first use. Each slab
  enters ``no_grad`` on its own thread. The count is the CPUs in the
  process's affinity mask over the BLAS thread count, read from the first
  of ``BLAS_THREAD_VARS`` that is set (all CPUs when none is): BLAS left
  unpinned keeps one thread, ``OPENBLAS_NUM_THREADS=1`` on two CPUs gives
  two, and ``taskset -c 0`` one.
- Each slab's output is written into its rows of one preallocated array.
  The arithmetic does not depend on the slab size or the thread that ran
  it, so outputs are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from functools import cache

import numpy as np

from . import tensor as T
from .config import ModelConfig, PathConfig
from .nn import Linear, LayerNorm, Module, MultiHeadAttention, uniform_param
from .tensor import ConfigError, Tensor


# Bytes the slabs in flight together may take without graph recording: a
# layer's scores or feed-forward pairs, or the mask head's output pairs.
# 8 MiB: full-scale forwards at 1 s and 4 s took within a few percent of
# their time at 16 MiB, and longer at 4 and 2 (README, "Inference in slabs").
SLAB_BYTES = 8 << 20

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_count() -> int:
    """Threads a layer run without graph recording spreads its slabs over:
    the CPUs this process may run on divided by the BLAS thread count."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    value = next((v for v in map(os.environ.get, BLAS_THREAD_VARS) if v), "")
    # isdecimal, not isdigit: int() rejects digits such as "²"
    blas = int(value) if value.isdecimal() and int(value) > 0 else cpus
    return max(1, cpus // blas)


def slab_size(count: int, item_bytes: int, workers: int = 1) -> int:
    """Items per slab when ``count`` items of ``item_bytes`` each are cut
    into the fewest slabs that fit ``SLAB_BYTES // workers`` (at least one
    item each), with the slabs evened out. No items take one slab of one."""
    count = max(count, 1)
    fit = max(1, SLAB_BYTES // workers // item_bytes)
    slabs = -(-count // fit)
    return -(-count // slabs)


@cache
def _helpers(threads: int):
    """The persistent pool of ``threads`` helper threads."""
    # imported here: runs that start no pool do not pay for the module's RSS
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(threads, thread_name_prefix="casep-slab")


def _run_slabs(run, starts, workers: int) -> None:
    """Call ``run(start)`` once for each of ``starts`` on the calling thread
    and up to ``workers - 1`` pool threads, each taking the next start when
    free; ``run`` sets its graph mode, which a pool thread does not inherit.
    Returns when every call has. The calling thread's error, else a
    helper's, is raised here, and no start is handed out after an error.

    The calling thread takes slabs too, rather than waiting on a pool of
    ``workers`` threads: that pool put the slab temporaries in a second
    malloc arena and raised a full-scale ``separate``'s peak RSS on a 2-CPU
    host by about 15 MB, at 1 s and at 4 s."""
    todo = iter(starts)

    def drain():
        for start in todo:              # a shared iterator: each start is taken once
            try:
                run(start)
            except BaseException:
                for _ in todo:          # hand out no start after an error
                    pass
                raise

    helpers = [_helpers(workers - 1).submit(drain)
               for _ in range(min(workers, len(starts)) - 1)]
    try:
        drain()
    finally:
        for f in helpers:
            f.exception()               # waits for the helper to finish
    for f in helpers:
        f.result()


def channel_split(h: Tensor, conv_channels: int, attn_channels: int):
    """Split (..., D) into conv [0, D_c) and attention [D_c, D) slices."""
    width = h.shape[-1]
    if conv_channels + attn_channels != width:
        raise ConfigError(f"split {conv_channels}+{attn_channels} != width {width}")
    hc = h[..., :conv_channels]
    ha = h[..., conv_channels:]
    return hc, ha


class HybridLayer(Module):
    """One attention-plus-conv layer; input and output are (..., T, D)."""

    def __init__(self, cfg: PathConfig, rng, dtype=np.float32):
        self.cfg = cfg
        if cfg.attn_channels > 0:
            self.attn = MultiHeadAttention(cfg.attn_channels, cfg.heads, rng, dtype)
            self.attn_norm = LayerNorm(cfg.attn_channels, dtype=dtype)
        else:
            self.attn = None
            self.attn_norm = None
        if cfg.conv_channels > 0:
            # depthwise taps: each channel owns one length-L kernel row
            self.depthwise = uniform_param(rng, (cfg.conv_channels, cfg.kernel),
                                           cfg.kernel, dtype)
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

    def attention_path(self, ha: Tensor) -> Tensor:
        return self.attn_norm(T.add(self.attn(ha)[0], ha))

    def conv_path(self, hc: Tensor) -> Tensor:
        mixed = self.pointwise(T.depthwise_conv1d(hc, self.depthwise))
        return self.conv_norm(T.add(mixed, hc))

    def _sequence_bytes(self, length: int, dtype) -> int:
        """One sequence's score map or feed-forward pair, whichever is larger."""
        scores = self.cfg.heads * length * length if self.attn is not None else 0
        return max(scores, 2 * length * self.cfg.ffn_dim) * dtype.itemsize

    def attention_maps(self, h: Tensor):
        """Yields the (k, heads, T, T) attention map of each one-worker slab
        of ``h``'s flattened (N, T, D) sequences, in sequence order, on the
        calling thread. Each is the attention's working buffer, not a copy."""
        if self.attn is None:
            raise ConfigError("the layer has no attention path (attn_channels = 0)")
        flat = h.reshape((-1,) + h.shape[-2:])
        _, ha = channel_split(flat, self.cfg.conv_channels, self.cfg.attn_channels)
        size = slab_size(flat.shape[0], self._sequence_bytes(h.shape[-2], h.dtype))
        for i in range(0, flat.shape[0], size):
            yield self.attn(ha[i : i + size])[1]

    def __call__(self, h: Tensor) -> Tensor:
        """Without graph recording, runs the flattened (N, T, D) sequences
        in slabs on ``worker_count()`` threads."""
        lead, (length, width) = h.shape[:-2], h.shape[-2:]
        count = math.prod(lead)
        workers = worker_count()
        size = slab_size(count, self._sequence_bytes(length, h.dtype), workers)
        if T.grad_enabled() or size >= count:
            return self._body(h)
        flat = h.reshape((count, length, width))
        out = np.empty((count, length, width), dtype=h.dtype)

        def run(i):
            with T.no_grad():           # a pool thread starts with the graph on
                out[i : i + size] = self._body(flat[i : i + size]).data

        _run_slabs(run, range(0, count, size), workers)
        return Tensor(out.reshape(h.shape))

    def _body(self, h: Tensor) -> Tensor:
        cfg = self.cfg
        hc, ha = channel_split(h, cfg.conv_channels, cfg.attn_channels)
        attn_out = self.attention_path(ha) if self.attn is not None else None
        conv_out = self.conv_path(hc) if self.depthwise is not None else None
        parts = [p for p in (conv_out, attn_out) if p is not None]
        fused = parts[0] if len(parts) == 1 else T.concat(parts, axis=-1)
        ff = self.ffn_out(T.relu(self.ffn_in(fused)))
        return self.out_norm(T.add(ff, fused))


class DualPathBlock(Module):
    """Within-chunk passes, a chunk/frame permutation, across-chunk passes.

    The ``ModelConfig`` gives the layers' shapes, repetition counts and
    dtype. With its ``shared`` set, one layer instance per direction is
    applied on every repetition, so its parameters receive the summed
    gradient.
    """

    def __init__(self, cfg: ModelConfig, rng):
        self.n_intra = cfg.n_intra
        self.n_inter = cfg.n_inter
        self.shared = cfg.shared
        if cfg.shared:
            self.intra = HybridLayer(cfg.intra, rng, cfg.dtype)
            self.inter = HybridLayer(cfg.inter, rng, cfg.dtype)
        else:
            self.intra = [HybridLayer(cfg.intra, rng, cfg.dtype) for _ in range(cfg.n_intra)]
            self.inter = [HybridLayer(cfg.inter, rng, cfg.dtype) for _ in range(cfg.n_inter)]

    def steps(self) -> dict:
        """The block's one-argument calls by name, in order: ``intra.<i>``
        per within-chunk layer, the chunk/frame ``swap``, ``inter.<i>`` per
        across-chunk layer, the ``unswap``. A caller that rebinds its activation
        to each call's result holds one activation, not the block's input too."""

        def layers(name, count):
            net = getattr(self, name)
            return {f"{name}.{i}": net if self.shared else net[i] for i in range(count)}

        return {**layers("intra", self.n_intra), "swap": _swap_chunks,
                **layers("inter", self.n_inter), "unswap": _swap_chunks}

    def __call__(self, h: Tensor) -> Tensor:
        """(..., n_chunks, size, D) -> the same shape: ``steps()`` in turn."""
        for step in self.steps().values():
            h = step(h)
        return h


def _swap_chunks(h: Tensor) -> Tensor:
    """(..., n_chunks, size, D) <-> (..., size, n_chunks, D)."""
    return T.swapaxes(h, -3, -2)
