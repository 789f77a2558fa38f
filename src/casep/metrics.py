"""Separation objectives and evaluation metrics.

``si_snr`` is differentiable (a graph tensor, scalar for 1-D signals), so
the permutation-invariant loss built on it can drive training directly.
The improvement metrics (``improvements``: SI-SNRi and SDRi) are plain
float64 arrays for reporting. SDRi does not measure separation yet: ``sdr``
moves with the estimate's gain (see ``sdr``), so only SI-SNRi compares runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import tensor as T
from .tensor import ContractError, Tensor

_EPS = 1e-8   # added to every power in a ratio: silent signals stay finite
MAX_SPEAKERS = 4   # the assignment search tries all K! permutations


def _as_signal(x, axes: int = 1) -> Tensor:
    """``x`` as a tensor of at least ``axes`` axes; the last one is time."""
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    if t.data.ndim < axes:
        raise ContractError(f"expected at least {axes} signal axes, got shape {t.shape}")
    return t


def _projection_db(est, target, scaled_numerator: bool) -> Tensor:
    """Project the zero-mean estimate onto the zero-mean target along the
    last axis and return, in dB, the signal power over the power of the
    residual, broadcast over the leading axes. The signal is the projected
    target when ``scaled_numerator`` is set, otherwise the plain target."""
    est = _as_signal(est)
    target = _as_signal(target)
    if est.shape[-1] != target.shape[-1]:
        raise ContractError(
            f"signal lengths differ: {est.shape[-1]} vs {target.shape[-1]}"
        )
    est = T.sub(est, est.mean(axis=-1, keepdims=True))
    target = T.sub(target, target.mean(axis=-1, keepdims=True))

    def inner(a, b):
        return T.tsum(T.mul(a, b), axis=-1, keepdims=True)

    energy = inner(target, target)
    scale = T.div(inner(est, target), T.add(energy, _EPS))
    projected = T.mul(scale, target)
    residual = T.sub(est, projected)
    signal = inner(projected, projected) if scaled_numerator else energy
    num = T.add(signal, _EPS)
    den = T.add(inner(residual, residual), _EPS)
    ratio = T.decibels(T.div(num, den))
    return ratio.reshape(ratio.shape[:-1])


def si_snr(est, target) -> Tensor:
    """Scale-invariant signal-to-noise ratio in dB over the last axis.

    The target is rescaled by the estimate's projection coefficient; the
    ratio of projected-signal power to residual power is reported in dB.
    Leading axes broadcast; a pair of 1-D signals gives a scalar tensor.
    """
    return _projection_db(est, target, scaled_numerator=True)


def sdr(est, target) -> Tensor:
    """Plain target power over the power of the scale-projected residual,
    in dB. The numerator is not rescaled by the projection coefficient, so
    a gain g on the estimate moves the value by -20·log10(g) dB: one
    estimate reads 11.2, 31.2 and 51.2 dB at gains 1, 0.1 and 0.01 while
    ``si_snr`` stays at 11.3 dB. Not a separation measure. Axes as in
    ``si_snr``.
    """
    return _projection_db(est, target, scaled_numerator=False)


@dataclass
class PitResult:
    loss: Tensor                  # scalar, -(best mean pairwise SI-SNR), batch mean
    permutation: np.ndarray       # (..., K) ints, estimate index -> target index
    per_pair: np.ndarray          # (..., K, K) floats, [est][target]


def upit_loss(ests, targets) -> PitResult:
    """Best-permutation negative SI-SNR over all speaker assignments.

    ``ests`` and ``targets`` are (..., K, n): K signals per example. Each
    example along the leading axes gets its own assignment; the loss is
    their mean. ``permutation`` holds each example's assignment, (..., K).
    """
    ests, targets = _as_signal(ests, 2), _as_signal(targets, 2)
    k = ests.shape[-2]
    if targets.shape[-2] != k:
        raise ContractError(
            f"estimate count {k} != target count {targets.shape[-2]}"
        )
    if k > MAX_SPEAKERS:
        raise ContractError(
            f"exhaustive assignment search supports at most {MAX_SPEAKERS} speakers")
    pair = si_snr(ests.reshape(ests.shape[:-1] + (1, ests.shape[-1])),   # (..., K, K)
                  targets.reshape(targets.shape[:-2] + (1,) + targets.shape[-2:]))
    per_pair = pair.data.astype(np.float64)
    # max keeps the first of equal means
    best = np.array([max(permutations(range(k)),
                         key=lambda perm: sum(row[i, perm[i]] for i in range(k)) / k)
                     for row in per_pair.reshape((-1, k, k))])
    chosen = pair.reshape((-1, k, k))[np.arange(len(best))[:, None], np.arange(k), best]
    loss = T.mul(T.tsum(chosen), -1.0 / chosen.size)
    return PitResult(loss, best.reshape(per_pair.shape[:-1]), per_pair)


def improvements(ests, targets, mixture):
    """SI-SNR and SDR improvements (dB) of (..., K, n) estimates over the
    (..., n) mixtures, both under each example's SI-SNR-optimal assignment
    and averaged over its K speakers: two float64 arrays shaped like the
    leading axes."""
    pit = upit_loss(ests, targets)
    perm = pit.permutation[..., None]
    assigned = np.take_along_axis(np.asarray(targets), perm, axis=-2)   # (..., K, n)
    chosen = np.take_along_axis(pit.per_pair, perm, axis=-1)[..., 0]
    mixture = np.asarray(mixture)[..., None, :]
    snri = chosen - si_snr(mixture, assigned).data
    sdri = np.subtract(sdr(ests, assigned).data,
                       sdr(mixture, assigned).data, dtype=np.float64)
    return snri.mean(axis=-1), sdri.mean(axis=-1)
