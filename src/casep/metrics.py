"""Separation objectives and evaluation metrics.

``si_snr`` is differentiable (a graph tensor, scalar for 1-D signals), so
the permutation-invariant loss built on it can drive training directly.
The improvement metrics (``improvements``: SI-SNRi and SDRi) are plain
floats for reporting; SDRi uses an SNR on the unscaled residual, a
documented approximation of full distortion-ratio evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import tensor as T
from .tensor import ContractError, Tensor


def _as_signal(x) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    if t.data.ndim < 1:
        raise ContractError(f"expected a signal with a time axis, got shape {t.shape}")
    return t


def _projection_db(est, target, eps: float, scaled_numerator: bool) -> Tensor:
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
    scale = T.div(inner(est, target), T.add(energy, eps))
    projected = T.mul(scale, target)
    residual = T.sub(est, projected)
    signal = inner(projected, projected) if scaled_numerator else energy
    num = T.add(signal, eps)
    den = T.add(inner(residual, residual), eps)
    ratio = T.decibels(T.div(num, den))
    return ratio.reshape(ratio.shape[:-1])


def si_snr(est, target, eps: float = 1e-8) -> Tensor:
    """Scale-invariant signal-to-noise ratio in dB over the last axis.

    The target is rescaled by the estimate's projection coefficient; the
    ratio of projected-signal power to residual power is reported in dB.
    Leading axes broadcast; a pair of 1-D signals gives a scalar tensor.
    """
    return _projection_db(est, target, eps, scaled_numerator=True)


def sdr(est, target, eps: float = 1e-8) -> Tensor:
    """Distortion ratio in dB, simplified: plain target power over the power
    of the scale-projected residual. Unlike ``si_snr`` the numerator is not
    rescaled by the projection coefficient, so estimate gain matters. This
    stands in for full distortion-ratio scoring with its allowed-filter
    projection, which is out of scope. Axes as in ``si_snr``.
    """
    return _projection_db(est, target, eps, scaled_numerator=False)


@dataclass
class PitResult:
    loss: Tensor                  # scalar, -(best mean pairwise SI-SNR), batch mean
    permutation: np.ndarray       # (..., K) ints, estimate index -> target index
    per_pair: np.ndarray          # (..., K, K) floats, [est][target]


def _stack(signals, axis: int) -> Tensor:
    """K signals (..., n) as one tensor (..., 1, 1, n) with K along ``axis``."""
    signals = [_as_signal(s) for s in signals]
    return T.concat([s.reshape(s.shape[:-1] + (1, 1, s.shape[-1])) for s in signals],
                    axis)


def upit_loss(ests, targets, eps: float = 1e-8) -> PitResult:
    """Best-permutation negative SI-SNR over all speaker assignments.

    ``ests`` and ``targets`` hold K signals each, shaped (..., n). Each
    example along the leading axes gets its own assignment; the loss is
    their mean. ``permutation`` holds each example's assignment, (..., K).
    """
    k = len(ests)
    if len(targets) != k:
        raise ContractError(
            f"estimate count {k} != target count {len(targets)}"
        )
    if k > 4:
        raise ContractError("exhaustive assignment search supports at most 4 speakers")
    pair = si_snr(_stack(ests, -3), _stack(targets, -2), eps)   # (..., K, K)
    per_pair = pair.data.astype(np.float64)
    # max keeps the first of equal means
    best = np.array([max(permutations(range(k)),
                         key=lambda perm: sum(row[i, perm[i]] for i in range(k)) / k)
                     for row in per_pair.reshape((-1, k, k))])
    chosen = pair.reshape((-1, k, k))[np.arange(len(best))[:, None], np.arange(k), best]
    loss = T.mul(T.tsum(chosen), -1.0 / chosen.size)
    return PitResult(loss, best.reshape(per_pair.shape[:-1]), per_pair)


def improvements(ests, targets, mixture, eps: float = 1e-8) -> tuple[float, float]:
    """Mean SI-SNR and SDR improvements of one mixture's 1-D estimates over
    the raw mixture (dB), both under the one SI-SNR-optimal assignment."""
    pit = upit_loss(ests, targets, eps)
    assigned = np.stack(targets)[pit.permutation]                  # (K, n)
    chosen = pit.per_pair[np.arange(len(ests)), pit.permutation]
    snri = chosen - si_snr(mixture, assigned, eps).data
    sdri = np.subtract(sdr(np.stack(ests), assigned, eps).data,
                       sdr(mixture, assigned, eps).data, dtype=np.float64)
    return float(np.mean(snri)), float(np.mean(sdri))
