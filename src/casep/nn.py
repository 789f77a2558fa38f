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


def uniform_param(rng: np.random.Generator | None, shape, fan_in: int,
                  dtype) -> Parameter:
    """Uniform in [-sqrt(1/fan_in), sqrt(1/fan_in)). When ``rng`` is None: no
    draw, and a read-only zero broadcast to ``shape`` that holds no memory."""
    if rng is None:
        return Parameter(np.broadcast_to(np.zeros((), dtype), shape))
    bound = math.sqrt(1.0 / fan_in)
    return Parameter(rng.uniform(-bound, bound, size=shape).astype(dtype))


class Module:
    """Base class whose parameters are found by walking its attributes.

    ``named_parameters`` lists the Parameter attributes, then the dotted
    paths into the Module attributes and the lists of Modules (``name.<i>.``),
    each group in assignment order. A parameter reachable through several
    paths is listed once, under the first of them.
    """

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        # a loop, not a closure that calls itself: such a closure is a
        # reference cycle, which keeps every parameter it met (and a loaded
        # checkpoint's mapping) alive until the cycle collector runs
        found: dict[int, tuple[str, Parameter]] = {}
        stack = [("", self)]
        while stack:
            prefix, module = stack.pop()
            subs = []
            for name, value in vars(module).items():
                if isinstance(value, Parameter):
                    found.setdefault(id(value), (prefix + name, value))
                elif isinstance(value, Module):
                    subs.append((f"{prefix}{name}.", value))
                elif isinstance(value, list):
                    subs += [(f"{prefix}{name}.{i}.", item) for i, item in enumerate(value)]
            stack += reversed(subs)     # depth first, in assignment order
        return list(found.values())

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        """Drop every gradient; the next backward makes fresh ones."""
        for p in self.parameters():
            p.grad = None

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng,
                 dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = uniform_param(rng, (in_features, out_features), in_features,
                                    dtype)
        self.bias = Parameter(np.zeros(out_features, dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, width: int, dtype=np.float32):
        self.gamma = Parameter(np.ones(width, dtype))
        self.beta = Parameter(np.zeros(width, dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class PReLU(Module):
    """Single learnable negative slope, applied elementwise."""

    def __init__(self, dtype=np.float32):
        self.slope = Parameter(np.asarray(0.25, dtype))

    def __call__(self, x: Tensor) -> Tensor:
        return T.prelu(x, self.slope)


class MultiHeadAttention(Module):
    """Self-attention over sequences laid out as (..., T, width).

    Four square projections without biases. Returns the output and the
    attention weights (..., heads, T, T); rows sum to one.
    """

    def __init__(self, width: int, heads: int, rng, dtype=np.float32):
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
        self.wq = uniform_param(rng, (width, width), width, dtype)
        self.wk = uniform_param(rng, (width, width), width, dtype)
        self.wv = uniform_param(rng, (width, width), width, dtype)
        self.wo = uniform_param(rng, (width, width), width, dtype)

    def __call__(self, x: Tensor):
        if x.shape[-1] != self.width:
            raise ShapeError(f"attention input width {x.shape[-1]} != {self.width}")
        ctx, weights = T.attention(T.linear(x, self.wq), T.linear(x, self.wk),
                                   T.linear(x, self.wv), self.heads, self.scale)
        return T.linear(ctx, self.wo), weights
