"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import math

import numpy as np

from .nn import unique_named
from .tensor import ConfigError


class Adam:
    """Keeps first/second moment per parameter, keyed by dotted path.

    The update is ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` with the epsilon
    added outside the square root. Each moment is one flat buffer over all
    parameters, and ``step`` runs the update once over it; ``_slices`` gives
    each parameter's share. State tensors share the parameters' one dtype so
    checkpointed state round-trips exactly.
    """

    def __init__(self, named_params, lr: float = 1.5e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError("learning rate must be positive")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ConfigError("betas must lie in [0, 1)")
        if not math.isfinite(eps) or eps <= 0:
            raise ConfigError(f"eps must be positive and finite, got {eps}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._entries = unique_named(named_params)
        dtypes = {p.data.dtype for _, p in self._entries}
        if len(dtypes) > 1:
            raise ConfigError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        self._slices, total = [], 0
        for _, p in self._entries:
            self._slices.append(slice(total, total + p.size))
            total += p.size
        self._m_flat = np.zeros(total, dtype=dtypes.pop() if dtypes else np.float32)
        self._v_flat = np.zeros_like(self._m_flat)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        dt = self._m_flat.dtype.type
        g = np.empty_like(self._m_flat)
        for (_, p), sl in zip(self._entries, self._slices):
            g[sl] = 0.0 if p.grad is None else p.grad.reshape(-1)
        m, v = self._m_flat, self._v_flat
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        m_hat = m / dt(bc1)
        v_hat = v / dt(bc2)
        update = dt(self.lr) * m_hat / (np.sqrt(v_hat) + dt(self.eps))
        for (_, p), sl in zip(self._entries, self._slices):
            p.data -= update[sl].reshape(p.data.shape)

    # -- checkpoint integration ------------------------------------------

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Flat view of optimizer state for serialization."""
        out = {"optim.step": np.array([float(self.step_count)], dtype=np.float32)}
        for (name, p), sl in zip(self._entries, self._slices):
            out[f"optim.m.{name}"] = self._m_flat[sl].reshape(p.data.shape)
            out[f"optim.v.{name}"] = self._v_flat[sl].reshape(p.data.shape)
        return out

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        missing = [k for k in self.state_tensors() if k not in tensors]
        if missing:
            raise ConfigError(f"checkpoint lacks optimizer state: {', '.join(missing[:3])}")
        for name, p in self._entries:
            m = tensors[f"optim.m.{name}"]
            v = tensors[f"optim.v.{name}"]
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise ConfigError(f"optimizer state shape mismatch for {name}")
        self.step_count = int(round(float(tensors["optim.step"][0])))
        for (name, _), sl in zip(self._entries, self._slices):
            self._m_flat[sl] = tensors[f"optim.m.{name}"].reshape(-1)
            self._v_flat[sl] = tensors[f"optim.v.{name}"].reshape(-1)
