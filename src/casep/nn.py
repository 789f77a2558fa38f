"""Parameter containers and the layers every network here is built from."""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import ConfigError, ShapeError, Tensor


class Parameter(Tensor):
    """A leaf tensor registered for training."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def uniform_init(rng: np.random.Generator, shape, bound: float, dtype) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def linear_weight(rng, fan_in: int, fan_out: int, dtype=np.float32) -> Parameter:
    bound = math.sqrt(1.0 / fan_in)
    return Parameter(uniform_init(rng, (fan_in, fan_out), bound, dtype))


def conv_weight(rng, shape, fan_in: int, length: int, dtype=np.float32) -> Parameter:
    bound = math.sqrt(1.0 / (fan_in * length))
    return Parameter(uniform_init(rng, shape, bound, dtype))


def zeros_param(shape, dtype=np.float32) -> Parameter:
    return Parameter(np.zeros(shape, dtype=dtype))


def ones_param(shape, dtype=np.float32) -> Parameter:
    return Parameter(np.ones(shape, dtype=dtype))


def unique_named(named_params) -> list[tuple[str, Parameter]]:
    """(name, parameter) pairs in order, keeping the first name of each
    parameter object; shared weights appear once."""
    first: dict[int, tuple[str, Parameter]] = {}
    for name, p in named_params:
        first.setdefault(id(p), (name, p))
    return list(first.values())


class Module:
    """Base class with automatic parameter/submodule registration.

    Attribute assignment of a Parameter, Module, or ModuleList registers it
    under the attribute name; ``named_parameters`` walks the tree producing
    dotted paths. A module instance reachable through several paths is
    reported once per path, so ``parameters()`` deduplicates by identity.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, (Module, ModuleList)):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (prefix + name if prefix else name), p
        for name, m in self._modules.items():
            sub = prefix + name + "." if prefix else name + "."
            yield from m.named_parameters(sub)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in unique_named(self.named_parameters())]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = np.zeros_like(p.data)

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


class ModuleList:
    """An ordered, indexable container of submodules."""

    def __init__(self, modules=()):
        self._items = list(modules)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def named_parameters(self, prefix: str = ""):
        for i, m in enumerate(self._items):
            yield from m.named_parameters(f"{prefix}{i}.")


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng,
                 bias: bool = True, dtype=np.float32):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = linear_weight(rng, in_features, out_features, dtype)
        self.bias = zeros_param((out_features,), dtype) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, width: int, eps: float = 1e-5, dtype=np.float32):
        super().__init__()
        self.width = width
        self.eps = eps
        self.gamma = ones_param((width,), dtype)
        self.beta = zeros_param((width,), dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, self.eps)


class PReLU(Module):
    """Single learnable negative slope, applied elementwise."""

    def __init__(self, init: float = 0.25, dtype=np.float32):
        super().__init__()
        self.slope = Parameter(np.asarray(init, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return T.prelu(x, self.slope)


class MultiHeadAttention(Module):
    """Self-attention over sequences laid out as (..., T, width).

    Four square projections without biases. Returns the output and the
    attention weights (..., heads, T, T); rows sum to one.
    """

    def __init__(self, width: int, heads: int, rng, dtype=np.float32):
        super().__init__()
        if width <= 0:
            raise ConfigError("attention width must be positive")
        if heads <= 0 or width % heads != 0:
            raise ConfigError(
                f"attention width {width} must be a positive multiple of heads {heads}"
            )
        self.width = width
        self.heads = heads
        self.head_dim = width // heads
        self.scale = 1.0 / math.sqrt(self.head_dim)
        self.wq = linear_weight(rng, width, width, dtype)
        self.wk = linear_weight(rng, width, width, dtype)
        self.wv = linear_weight(rng, width, width, dtype)
        self.wo = linear_weight(rng, width, width, dtype)

    def __call__(self, x: Tensor):
        if x.shape[-1] != self.width:
            raise ShapeError(
                f"attention input width {x.shape[-1]} != {self.width}"
            )
        lead = x.shape[:-2]
        t = x.shape[-2]

        def heads(w):   # (..., T, H, d) -> (..., H, T, d)
            z = T.linear(x, w).reshape(lead + (t, self.heads, self.head_dim))
            return T.swapaxes(z, -3, -2)

        ctx, weights = T.attention(heads(self.wq), heads(self.wk), heads(self.wv),
                                   self.scale)
        merged = T.swapaxes(ctx, -3, -2).reshape(lead + (t, self.width))
        return T.linear(merged, self.wo), weights
