"""Separation objectives and evaluation metrics.

``si_snr`` is differentiable (returns a scalar graph tensor), so the
permutation-invariant loss built on it can drive training directly.
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
    if t.data.ndim != 1:
        raise ContractError(f"expected a 1-D signal, got shape {t.shape}")
    return t


def _projection_db(est, target, eps: float, zero_mean: bool,
                   scaled_numerator: bool) -> Tensor:
    """Project the estimate onto the target and return, in dB, the signal
    power over the power of the residual. The signal is the projected
    target when ``scaled_numerator`` is set, otherwise the plain target."""
    est = _as_signal(est)
    target = _as_signal(target)
    if est.shape != target.shape:
        raise ContractError(
            f"signal lengths differ: {est.shape[0]} vs {target.shape[0]}"
        )
    if zero_mean:
        est = T.sub(est, est.mean())
        target = T.sub(target, target.mean())
    dot = T.tsum(T.mul(est, target))
    energy = T.tsum(T.mul(target, target))
    scale = T.div(dot, T.add(energy, eps))
    projected = T.mul(scale, target)
    residual = T.sub(est, projected)
    signal = T.tsum(T.mul(projected, projected)) if scaled_numerator else energy
    num = T.add(signal, eps)
    den = T.add(T.tsum(T.mul(residual, residual)), eps)
    return T.decibels(T.div(num, den))


def si_snr(est, target, eps: float = 1e-8, zero_mean: bool = True) -> Tensor:
    """Scale-invariant signal-to-noise ratio in dB (scalar tensor).

    The target is rescaled by the estimate's projection coefficient; the
    ratio of projected-signal power to residual power is reported in dB.
    """
    return _projection_db(est, target, eps, zero_mean, scaled_numerator=True)


def sdr(est, target, eps: float = 1e-8, zero_mean: bool = True) -> Tensor:
    """Distortion ratio in dB, simplified: plain target power over the power
    of the scale-projected residual. Unlike ``si_snr`` the numerator is not
    rescaled by the projection coefficient, so estimate gain matters. This
    stands in for full distortion-ratio scoring with its allowed-filter
    projection, which is out of scope.
    """
    return _projection_db(est, target, eps, zero_mean, scaled_numerator=False)


@dataclass
class PitResult:
    loss: Tensor                  # scalar, -(best mean pairwise SI-SNR)
    permutation: tuple[int, ...]  # estimate index -> target index
    per_pair: np.ndarray          # (K, K) floats, [est][target]


def upit_loss(ests, targets, eps: float = 1e-8) -> PitResult:
    """Best-permutation negative SI-SNR over all speaker assignments."""
    k = len(ests)
    if len(targets) != k:
        raise ContractError(
            f"estimate count {k} != target count {len(targets)}"
        )
    if k > 4:
        raise ContractError("exhaustive assignment search supports at most 4 speakers")
    pair = [[si_snr(ests[i], targets[j], eps) for j in range(k)] for i in range(k)]
    best_perm = None
    best_value = None
    for perm in permutations(range(k)):
        value = sum(pair[i][perm[i]].item() for i in range(k)) / k
        if best_value is None or value > best_value:
            best_value = value
            best_perm = perm
    chosen = pair[0][best_perm[0]]
    for i in range(1, k):
        chosen = T.add(chosen, pair[i][best_perm[i]])
    loss = T.mul(chosen, -1.0 / k)
    per_pair = np.array([[pair[i][j].item() for j in range(k)] for i in range(k)])
    return PitResult(loss, best_perm, per_pair)


def improvements(ests, targets, mixture, eps: float = 1e-8) -> tuple[float, float]:
    """Mean SI-SNR and distortion-ratio improvements of the estimates over
    the raw mixture (dB), both under the one SI-SNR-optimal assignment."""
    pit = upit_loss(ests, targets, eps)
    snri = sdri = 0.0
    for i, j in enumerate(pit.permutation):
        snri += pit.per_pair[i][j] - si_snr(mixture, targets[j], eps).item()
        improved = sdr(ests[i], targets[j], eps).item()
        sdri += improved - sdr(mixture, targets[j], eps).item()
    return snri / len(ests), sdri / len(ests)
