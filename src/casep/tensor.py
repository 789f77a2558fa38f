"""Dense tensors with reverse-mode automatic differentiation.

Everything is backed by numpy arrays in float32 or float64. Each
differentiable operation records a backward closure on its output; calling
``backward()`` on a scalar runs the closures in reverse topological order
and accumulates gradients on every tensor that requires them.

Finiteness is checked where values are made: on every ``Tensor(...)`` built
from data, and on the output of every op except those in ``_UNCHECKED_OPS``,
which only move, copy or clamp values they were given (``reshape``,
``transpose``, ``take``, ``concat``, ``frames``, ``relu``). Their inputs
were checked when made, so their outputs are finite too.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ConfigError(ValueError):
    """A structural hyperparameter is invalid."""


class ContractError(RuntimeError):
    """An operation was used outside its contract."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class _Mode(threading.local):
    """Whether ops record the graph, per thread: ``no_grad`` on one thread
    leaves every other thread recording. The default is a class attribute,
    so a thread that never set the mode reads it without the miss that
    ``getattr(local, name, default)`` pays on every call."""
    enabled = True


_mode = _Mode()


@contextmanager
def no_grad():
    """Suspend graph recording on this thread inside the block."""
    prev = _mode.enabled
    _mode.enabled = False
    try:
        yield
    finally:
        _mode.enabled = prev


def grad_enabled() -> bool:
    """Whether ops on this thread build the graph; False inside ``no_grad``."""
    return _mode.enabled


def _check_finite(arr: np.ndarray, op: str = "operation") -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced a non-finite value")


class Tensor:
    """A numpy-backed array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        _check_finite(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    # ``__getitem__`` alone would let ``a, b = t`` walk axis 0 silently
    __iter__ = None

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    # -- backward pass ----------------------------------------------------

    def backward(self) -> None:
        """Run reverse-mode differentiation from this scalar."""
        if self.data.shape != ():
            raise ContractError(f"backward requires a scalar, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ContractError("backward on a tensor with no graph")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        # reverse topological order: no later node adds to an interior
        # node's grad, so each is freed as soon as its backward has run
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = None
                node._parents = ()
                node._backward = None


def _wrap(value, dtype=None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


# ops whose outputs hold only values of their (finite) inputs, or zeros
_UNCHECKED_OPS = frozenset({"reshape", "transpose", "take", "concat", "frames", "relu"})


def _from_op(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Build an op output node. Package-internal extension point.

    ``backward`` is a closure named ``<op>.<locals>.bwd``; ``<op>`` names
    the op in a non-finite error, and outputs of ``_UNCHECKED_OPS`` are not
    checked."""
    op = backward.__qualname__.split(".", 1)[0]
    if op not in _UNCHECKED_OPS:
        _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to ``t`` (no-op unless it needs one)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy, never ``g`` itself: ``add`` hands one ``g`` to both
        # operands. ``empty_like`` takes ``t.data``'s memory order, so later
        # reductions over the grad sum in the same order whatever ``g``'s was
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g, casting="same_kind")
    else:
        t.grad += g.astype(t.grad.dtype, copy=False)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic -----------------------------------------------


def add(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _from_op(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _from_op(a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _from_op(a.data * b.data, (a, b), bwd)


def div(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)

    def bwd(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _from_op(a.data / b.data, (a, b), bwd)


def log(a) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _accum(a, g / a.data)

    return _from_op(np.log(a.data), (a,), bwd)


# -- reductions, shape ops ------------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    axes = _norm_axes(axis, a.data.ndim)

    def bwd(g):
        gg = g
        if axes is not None and not keepdims:
            for ax in sorted(axes):
                gg = np.expand_dims(gg, ax)
        _accum(a, np.broadcast_to(gg, a.data.shape).copy())

    return _from_op(a.data.sum(axis=axes, keepdims=keepdims), (a,), bwd)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    axes = _norm_axes(axis, a.data.ndim)
    if axes is None:
        count = a.data.size
    else:
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    inv = 1.0 / count

    def bwd(g):
        gg = g
        if axes is not None and not keepdims:
            for ax in sorted(axes):
                gg = np.expand_dims(gg, ax)
        _accum(a, np.broadcast_to(gg, a.data.shape) * inv)

    return _from_op(a.data.mean(axis=axes, keepdims=keepdims), (a,), bwd)


def _norm_axes(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    for ax in axis:
        if not -ndim <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for ndim {ndim}")
    return tuple(ax % ndim for ax in axis)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    orig = a.data.shape

    def bwd(g):
        _accum(a, g.reshape(orig))

    return _from_op(a.data.reshape(shape), (a,), bwd)


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    ndim = a.data.ndim
    axes = _norm_axes(tuple(axes), ndim)
    if sorted(axes) != list(range(ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation of {ndim} axes")
    inverse = tuple(int(i) for i in np.argsort(axes))

    def bwd(g):
        _accum(a, g.transpose(inverse))

    return _from_op(np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


def swapaxes(a, i: int, j: int) -> Tensor:
    """``transpose`` exchanging axes ``i`` and ``j``."""
    a = _wrap(a)
    i, j = _norm_axes((i, j), a.data.ndim)
    axes = list(range(a.data.ndim))
    axes[i], axes[j] = axes[j], axes[i]
    return transpose(a, axes)


def take(a, idx) -> Tensor:
    """Basic slicing/indexing (no duplicate fancy indices)."""
    a = _wrap(a)

    def bwd(g):
        gz = np.zeros_like(a.data)
        gz[idx] = g
        _accum(a, gz)

    return _from_op(np.ascontiguousarray(a.data[idx]), (a,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    ndim = tensors[0].data.ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"concat axis {axis} out of range for ndim {ndim}")
    ax = axis % ndim
    sizes = [t.data.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * ndim
            sl[ax] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _from_op(
        np.concatenate([t.data for t in tensors], axis=ax), tuple(tensors), bwd
    )


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )

    def bwd(g):
        _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _from_op(a.data @ b.data, (a, b), bwd)


# -- activations ----------------------------------------------------------


def relu(a) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _accum(a, g * (a.data > 0))

    # np.maximum returns its second operand on ties, so -0.0 maps to +0.0
    # exactly as np.where(a > 0, a, 0.0) does, at a fraction of the cost
    return _from_op(np.maximum(a.data, 0.0), (a,), bwd)


def prelu(a, slope) -> Tensor:
    """PReLU with one learnable scalar slope for the whole site."""
    a = _wrap(a)
    slope = _wrap(slope, a.dtype)
    if slope.data.shape != ():
        raise ShapeError("prelu slope must be a scalar")

    def bwd(g):
        pos = a.data > 0
        _accum(a, g * np.where(pos, 1.0, slope.data))
        _accum(slope, np.asarray(np.sum(g * np.where(pos, 0.0, a.data))))

    # max(a, s*a) picks a where a > 0 when s <= 1, min(a, s*a) when s > 1;
    # on ties both return s*a, the value np.where(a > 0, a, s*a) gives
    scaled = slope.data * a.data
    pick = np.maximum if slope.data <= 1 else np.minimum
    return _from_op(pick(a.data, scaled, out=scaled), (a, slope), bwd)


def attention(q, k, v, heads: int, scale: float):
    """Multi-head scaled dot-product attention as one node.

    q (..., Tq, H*d), k (..., Tk, H*d), v (..., Tk, H*dv) with equal
    leading axes; head h owns columns [h*d, (h+1)*d). Returns the context
    (..., Tq, H*dv), heads laid side by side again, and the attention
    weights (..., H, Tq, Tk) as a plain array outside the graph; the
    weights' rows sum to one. The softmax runs in place on the one score
    buffer the node owns. The context node's finiteness check covers the
    weights too: a NaN or Inf in the scores reaches the context through
    the max-shift.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if heads < 1:
        raise ConfigError(f"attention needs at least one head, got {heads}")
    if q.data.ndim < 2 or q.data.ndim != k.data.ndim or k.data.ndim != v.data.ndim:
        raise ShapeError("attention operands must share ndim >= 2")
    if (q.data.shape[:-2] != k.data.shape[:-2] or k.data.shape[:-1] != v.data.shape[:-1]
            or q.data.shape[-1] != k.data.shape[-1]
            or q.data.shape[-1] % heads or v.data.shape[-1] % heads):
        raise ShapeError(
            f"attention shapes do not match {heads} heads: q {q.data.shape}, "
            f"k {k.data.shape}, v {v.data.shape}"
        )

    def split(a):   # (..., T, H*d) -> C-contiguous (..., H, T, d)
        a = a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads))
        return np.ascontiguousarray(np.swapaxes(a, -3, -2))

    def merge(a):   # (..., H, T, d) -> (..., T, H*d)
        return np.swapaxes(a, -3, -2).reshape(a.shape[:-3] + (a.shape[-2], -1))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    if not _mode.enabled:
        q = k = v = None        # free the projections: only their split copies are read
    probs = qh @ np.swapaxes(kh, -1, -2)
    probs *= scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def bwd(g):
        g = split(g)
        if v.requires_grad:
            _accum(v, merge(np.swapaxes(probs, -1, -2) @ g))
        if q.requires_grad or k.requires_grad:
            # softmax backward on d(probs), in place
            gs = g @ np.swapaxes(vh, -1, -2)
            gs -= (gs * probs).sum(axis=-1, keepdims=True)
            gs *= probs
            gs *= scale
            if q.requires_grad:
                _accum(q, merge(gs @ kh))
            if k.requires_grad:
                _accum(k, merge(np.swapaxes(gs, -1, -2) @ qh))

    return _from_op(merge(probs @ vh), (q, k, v), bwd), probs


# -- linear map -----------------------------------------------------------


def linear(x, weight, bias=None) -> Tensor:
    """y[..., j] = sum_i x[..., i] * weight[i, j] (+ bias[j])."""
    x, weight = _wrap(x), _wrap(weight)
    if weight.data.ndim != 2:
        raise ShapeError("linear weight must be 2-D")
    n_in, n_out = weight.data.shape
    if x.data.shape[-1] != n_in:
        raise ShapeError(
            f"linear input width {x.data.shape[-1]} != weight rows {n_in}"
        )
    parents = (x, weight)
    if bias is not None:
        bias = _wrap(bias)
        if bias.data.shape != (n_out,):
            raise ShapeError("linear bias shape must be (out_features,)")
        parents += (bias,)
    flat = x.data.reshape((-1, n_in))
    out = flat @ weight.data
    if bias is not None:
        out += bias.data

    def bwd(g):
        g2 = g.reshape((-1, n_out))
        if x.requires_grad:
            _accum(x, (g2 @ weight.data.T).reshape(x.data.shape))
        if weight.requires_grad:
            _accum(weight, flat.T @ g2)
        if bias is not None:
            _accum(bias, _unbroadcast(g, bias.data.shape))

    return _from_op(out.reshape(x.data.shape[:-1] + (n_out,)), parents, bwd)


# -- framing --------------------------------------------------------------


def _frames(x: np.ndarray, size: int, hop: int, count: int) -> np.ndarray:
    """Windows ``x[..., i*hop : i*hop+size, :]`` along axis -2 for
    ``i < count`` as (..., count, size, C); rows past the end of ``x`` read
    as zero. The adjoint of ``_overlap_sum``."""
    span = (count - 1) * hop + size
    n = x.shape[-2]
    if n < span:
        pad = np.zeros(x.shape[:-2] + (span - n, x.shape[-1]), dtype=x.dtype)
        x = np.concatenate([x, pad], axis=-2)
    win = sliding_window_view(x[..., :span, :], size, axis=-2)[..., ::hop, :, :]
    return np.ascontiguousarray(np.swapaxes(win, -1, -2))


def _overlap_sum(f: np.ndarray, hop: int, length: int) -> np.ndarray:
    """Add frame ``i`` of f (..., count, size, C) at row ``i*hop`` of axis
    -2, then cut or zero-extend to ``length`` rows. The adjoint of
    ``_frames``; it loops over the ceil(size/hop) hop-long phases of a
    frame, not over frames."""
    lead, (count, size), tail = f.shape[:-3], f.shape[-3:-1], f.shape[-1:]
    phases = -(-size // hop)
    blocks = max(count - 1 + phases, -(-length // hop))
    out = np.zeros(lead + (blocks, hop) + tail, dtype=f.dtype)
    for j in range(phases):
        width = min(hop, size - j * hop)
        out[..., j : j + count, :width, :] += f[..., j * hop : j * hop + width, :]
    return out.reshape(lead + (blocks * hop,) + tail)[..., :length, :]


def frames(x, size: int, hop: int, count: int) -> Tensor:
    """(..., n, C) -> (..., count, size, C): ``size`` rows every ``hop``
    rows of axis -2, zero past the end of ``x``."""
    x = _wrap(x)
    if size < 1 or hop < 1 or count < 1:
        raise ConfigError(
            f"frames needs positive size, hop and count, got {size}, {hop}, {count}"
        )
    if x.data.ndim < 2:
        raise ShapeError(f"frames expects (..., n, C), got {x.data.shape}")
    n = x.data.shape[-2]

    def bwd(g):
        _accum(x, _overlap_sum(g, hop, n))

    return _from_op(_frames(x.data, size, hop, count), (x,), bwd)


def overlap_sum(f, hop: int, length: int) -> Tensor:
    """(..., count, size, C) -> (..., length, C): the adjoint of ``frames``."""
    f = _wrap(f)
    if hop < 1 or length < 0:
        raise ConfigError(
            f"overlap_sum needs hop >= 1 and length >= 0, got {hop}, {length}"
        )
    if f.data.ndim < 3:
        raise ShapeError(f"overlap_sum expects (..., count, size, C), got {f.data.shape}")
    count, size = f.data.shape[-3:-1]

    def bwd(g):
        _accum(f, _frames(g, size, hop, count))

    return _from_op(_overlap_sum(f.data, hop, length), (f,), bwd)


def depthwise_conv1d(x, kernels) -> Tensor:
    """Per-channel same-length convolution along axis -2: (..., T, C) ->
    (..., T, C).

    Kernel length must be odd; the input is zero-padded by (L-1)/2 per side.
    Channel c sees only kernel row c, with no cross-channel mixing.
    """
    x, kernels = _wrap(x), _wrap(kernels)
    if kernels.data.ndim != 2:
        raise ShapeError("depthwise kernels must be (C, L)")
    channels, length = kernels.data.shape
    if length % 2 == 0:
        raise ConfigError(f"depthwise kernel length must be odd, got {length}")
    if x.data.ndim < 2 or x.data.shape[-1] != channels:
        raise ShapeError(
            f"depthwise input channels {x.data.shape} incompatible with (C={channels}, L)"
        )
    t = x.data.shape[-2]
    pad = (length - 1) // 2

    def channels_first(a):   # (..., T, C) -> (B, C, T) view
        return np.swapaxes(a.reshape((-1, t, channels)), -1, -2)

    def channels_last(a):    # (B, C, T) -> C-contiguous (..., T, C)
        return np.ascontiguousarray(np.swapaxes(a, -1, -2)).reshape(x.data.shape)

    def windows(a):          # (B, C, T) -> (B, C, T, L) windows of zero-padded a
        # a fresh C-contiguous buffer, whatever a's memory order: the einsums'
        # summation order follows the window view's strides
        padded = np.zeros(a.shape[:-1] + (t + 2 * pad,), a.dtype)
        padded[..., pad : pad + t] = a
        return sliding_window_view(padded, length, axis=-1)

    win = windows(channels_first(x.data))
    out_data = channels_last(np.einsum("bctl,cl->bct", win, kernels.data))

    def bwd(g):
        # contiguous: the kernel gradient's einsum sums in an order set by its strides
        gf = np.ascontiguousarray(channels_first(g))
        if kernels.requires_grad:
            _accum(kernels, np.einsum("bctl,bct->cl", win, gf))
        if x.requires_grad:
            # the forward's correlation on windows read back to front: it
            # sums the taps in kernel order, as a per-tap loop would
            _accum(x, channels_last(np.einsum("bctl,cl->bct", windows(gf)[..., ::-1],
                                              kernels.data)))

    return _from_op(out_data, (x, kernels), bwd)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis with biased variance, then affine."""
    x, gamma, beta = _wrap(x), _wrap(gamma, x.dtype), _wrap(beta, x.dtype)
    if eps <= 0:
        raise ConfigError("layer_norm eps must be positive")
    width = x.data.shape[-1]
    if gamma.data.shape != (width,) or beta.data.shape != (width,):
        raise ShapeError("layer_norm gamma/beta must match the last axis")
    normed = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((normed * normed).mean(axis=-1, keepdims=True) + eps)
    normed /= std
    out = normed * gamma.data
    out += beta.data

    def bwd(g):
        _accum(gamma, _unbroadcast(g * normed, gamma.data.shape))
        _accum(beta, _unbroadcast(g, beta.data.shape))
        if x.requires_grad:
            # dx = (dn - mean(dn) - normed * mean(dn * normed)) / std
            dn = g * gamma.data
            along = (dn * normed).mean(axis=-1, keepdims=True)
            dn -= dn.mean(axis=-1, keepdims=True)
            dn -= normed * along
            dn /= std
            _accum(x, dn)

    return _from_op(out, (x, gamma, beta), bwd)


LOG10_SCALE = 10.0 / math.log(10.0)


def decibels(ratio) -> Tensor:
    """10 * log10(ratio) for a positive scalar/array tensor."""
    return mul(log(ratio), LOG10_SCALE)
