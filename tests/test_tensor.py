"""Autodiff engine: op semantics, hand oracles, finite-difference checks."""

import threading

import numpy as np
import pytest
from conftest import fd_check
from hypothesis import given, settings
from hypothesis import strategies as st

import casep.tensor as T
from casep.chunking import overlap_add
from casep.codec import Encoder, EncoderConfig
from casep.nn import Parameter
from casep.tensor import (
    ConfigError,
    ContractError,
    NonFiniteError,
    ShapeError,
    Tensor,
    _accum,
    _from_op,
    no_grad,
)


class TestTensorBasics:
    def test_shape_and_size(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2) and t.size == 4

    def test_non_finite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    def test_non_finite_op_output_rejected(self):
        t = Tensor([1.0, 0.0])
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
            T.log(t)

    def test_non_finite_error_names_the_op(self):
        with np.errstate(divide="ignore"), pytest.raises(
                NonFiniteError, match="^div produced a non-finite value"):
            T.div(Tensor([1.0]), Tensor([0.0]))

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (t + t).backward()

    def test_no_grad_suspends_recording(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_no_grad_is_per_thread(self):
        # while another thread sits inside no_grad, this one still records
        entered, leave = threading.Event(), threading.Event()

        def inference():
            with no_grad():
                entered.set()
                leave.wait(30)

        other = threading.Thread(target=inference)
        other.start()
        try:
            assert entered.wait(30)
            out = T.tsum(T.mul(Parameter(np.ones(3)), 2.0))
            assert out.requires_grad and T.grad_enabled()
        finally:
            leave.set()
            other.join(30)
        assert not other.is_alive()
        out.backward()
        assert T.grad_enabled()

    def test_walked_nodes_are_freed_during_backward(self):
        # the probe's backward runs after its consumer's; by then the
        # consumer must already have dropped its grad, parents and closure
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        seen = []

        def bwd(g):
            seen.append((loss.grad is None, loss._parents, loss._backward))
            _accum(x, g)

        probe = _from_op(x.data * 1.0, (x,), bwd)
        loss = T.tsum(probe)
        loss.backward()
        assert seen == [(True, (), None)]
        assert np.array_equal(x.grad, [1.0, 1.0])
        assert probe.grad is None and probe._backward is None

    def test_unused_parameter_keeps_zero_grad(self):
        # unreachable parameters simply receive no contribution
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        T.tsum(used).backward()
        assert np.array_equal(used.grad, np.ones(3))
        assert unused.grad is None


class TestArithmetic:
    def test_add_broadcast_gradients(self):
        fd_check(T.add, [np.random.default_rng(0).standard_normal((3, 4)),
                         np.random.default_rng(1).standard_normal((4,))])

    def test_mul_div(self):
        rng = np.random.default_rng(2)
        fd_check(T.mul, [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))])
        fd_check(T.div, [rng.standard_normal((2, 3)),
                         rng.standard_normal((2, 3)) + 3.0])

    def test_scalar_mixing_preserves_dtype(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert (t * 2.0).dtype == np.float32
        assert (t + 1.0).dtype == np.float32

    def test_sum_mean_axes(self):
        rng = np.random.default_rng(3)
        fd_check(lambda x: T.tsum(x, axis=0), [rng.standard_normal((3, 4))])
        fd_check(lambda x: T.tmean(x, axis=1, keepdims=True),
                 [rng.standard_normal((3, 4))])

    def test_log(self):
        a = np.random.default_rng(4).standard_normal((5,))
        fd_check(T.log, [np.abs(a) + 0.5])


class TestShapeOps:
    def test_reshape_transpose_roundtrip(self):
        t = Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        out = t.transpose((2, 0, 1)).reshape((4, 6))
        assert out.shape == (4, 6)
        fd_check(lambda x: x.transpose((2, 0, 1)).reshape((4, 6)),
                 [np.random.default_rng(5).standard_normal((2, 3, 4))])

    def test_getitem_slices(self):
        t = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
        out = t[1:, :2]
        assert out.shape == (2, 2)
        T.tsum(out).backward()
        expected = np.zeros((3, 4))
        expected[1:, :2] = 1.0
        assert np.array_equal(t.grad, expected)

    def test_concat_and_grad(self):
        rng = np.random.default_rng(6)
        fd_check(lambda a, b: T.concat([a, b], axis=1),
                 [rng.standard_normal((2, 3)), rng.standard_normal((2, 2))])

    def test_concat_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor([1.0]), Tensor([2.0])], axis=3)

    @pytest.mark.parametrize("axis", [2, 5, -3, -4, (0, 2)])
    def test_reduction_axis_out_of_range(self, axis):
        x = Tensor(np.ones((2, 3)))
        for reduce in (T.tsum, T.tmean):
            with pytest.raises(ShapeError):
                reduce(x, axis=axis)
        axes = axis if isinstance(axis, tuple) else (0, axis)
        with pytest.raises(ShapeError):
            T.swapaxes(x, *axes)
        with pytest.raises(ShapeError):
            T.transpose(x, axes)

    @pytest.mark.parametrize("axes", [(0, 0), (1, 1), (0, -2), (0,), (1, 0, 2)])
    def test_transpose_needs_a_permutation(self, axes):
        with pytest.raises(ShapeError):
            T.transpose(Tensor(np.ones((2, 3))), axes)

    def test_negative_axes_permute_like_numpy(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(T.transpose(Tensor(x), (-1, 0, -2)).data,
                              x.transpose(2, 0, 1))
        assert np.array_equal(T.swapaxes(Tensor(x), -1, 0).data,
                              np.swapaxes(x, -1, 0))

    def test_tensor_is_not_iterable(self):
        x = Tensor(np.ones((2, 3)))
        with pytest.raises(TypeError):
            a, b = x
        with pytest.raises(TypeError):
            list(x)

    def test_reduction_negative_axes_in_range(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(T.tsum(Tensor(x), axis=-1).data, x.sum(axis=1))
        assert np.array_equal(T.tmean(Tensor(x), axis=-2).data, x.mean(axis=0))


class TestMatmul:
    def test_shapes_enforced(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_value(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, a.data @ b.data)

    def test_batched_gradients(self):
        rng = np.random.default_rng(7)
        fd_check(T.matmul, [rng.standard_normal((2, 3, 4)),
                            rng.standard_normal((2, 4, 5))])

    def test_broadcast_batch_gradients(self):
        rng = np.random.default_rng(8)
        fd_check(T.matmul, [rng.standard_normal((2, 3, 4)),
                            rng.standard_normal((4, 5))])


class TestLinear:
    def test_identity(self):
        out = T.linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)))
        assert np.array_equal(out.data, [1.0, 2.0])

    def test_hand_product(self):
        # hand oracle: [1,2] @ [[1,1],[1,-1]] + [0,1] = [3,0]
        out = T.linear(Tensor([1.0, 2.0]),
                       Tensor([[1.0, 1.0], [1.0, -1.0]]),
                       Tensor([0.0, 1.0]))
        assert np.array_equal(out.data, [3.0, 0.0])

    def test_zero_input_broadcasts_bias(self):
        out = T.linear(Tensor(np.zeros((4, 3))), Tensor(np.ones((3, 2))),
                       Tensor([5.0, -1.0]))
        assert np.array_equal(out.data, np.tile([5.0, -1.0], (4, 1)))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_gradients_with_leading_dims(self):
        rng = np.random.default_rng(9)
        fd_check(T.linear, [rng.standard_normal((2, 3, 4)),
                            rng.standard_normal((4, 5)),
                            rng.standard_normal((5,))])


class TestConv1d:
    """The encoder's strided cross-correlation: frames(x) @ kernels.T."""

    def test_identity_kernel(self):
        x = Tensor([[1.0], [2.0], [3.0], [4.0]])
        out = T.frames(x, 1, 1, 4).reshape((4, 1)) @ Tensor([[1.0]])
        assert np.array_equal(out.data, [[1.0], [2.0], [3.0], [4.0]])

    def test_hand_convolution(self):
        # hand oracle: window sums of [1,2,3,4] with kernel [1,1]
        x = Tensor([[1.0], [2.0], [3.0], [4.0]])
        k = Tensor([[1.0], [1.0]])
        assert np.array_equal((T.frames(x, 2, 1, 3).reshape((3, 2)) @ k).data,
                              [[3.0], [5.0], [7.0]])
        assert np.array_equal((T.frames(x, 2, 2, 2).reshape((2, 2)) @ k).data,
                              [[3.0], [7.0]])

    def test_cross_correlation_no_flip(self, rng):
        enc = Encoder(EncoderConfig(filters=1, kernel=2, stride=1), rng)
        enc.kernels.data[:] = [[[1.0, 2.0]]]
        # y[0] = x[0]*k[0] + x[1]*k[1]: no kernel reversal
        out = enc(Tensor(np.array([1.0, 0.0, 0.0], dtype=np.float32)))
        assert np.array_equal(out.data, [[1.0], [0.0]])

    def test_too_short_input(self, rng):
        enc = Encoder(EncoderConfig(filters=1, kernel=2, stride=1), rng)
        with pytest.raises(ShapeError, match="at least"):
            enc(Tensor(np.array([1.0], dtype=np.float32)))

    def test_gradients(self):
        # the last two windows run past the end of x and read zeros there
        rng = np.random.default_rng(10)
        fd_check(lambda x, k: T.frames(x, 4, 2, 6).reshape((6, 4)) @ k,
                 [rng.standard_normal((11, 1)), rng.standard_normal((4, 3))])
        fd_check(lambda x: T.frames(x, 4, 2, 6), [rng.standard_normal((11, 3))])


class TestConv1dTransposed:
    """Its adjoint, the decoder's transposed conv: overlap_sum(y @ kernels)."""

    def test_single_frame_spread(self):
        out = T.overlap_sum(Tensor([[[1.0], [1.0]]]), 1, 2)
        assert np.array_equal(out.data, [[1.0], [1.0]])

    def test_hand_adjoint(self):
        out = T.overlap_sum(Tensor(np.ones((2, 2, 1))), 2, 4)
        assert np.array_equal(out.data, [[1.0], [1.0], [1.0], [1.0]])

    def test_nonpositive_stride(self):
        with pytest.raises(ConfigError):
            T.overlap_sum(Tensor([[[1.0]]]), 0, 1)
        with pytest.raises(ConfigError):
            T.frames(Tensor([[1.0]]), 1, 0, 1)

    def test_adjoint_identity(self):
        # <conv(x), y> == <x, conv_T(y)> with the one kernel bank
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 1))
        k = rng.standard_normal((3, 4))          # (filters, kernel)
        y = rng.standard_normal(((8 - 4) // 2 + 1, 3))
        fwd = (T.frames(Tensor(x), 4, 2, 3).reshape((3, 4)) @ Tensor(k.T)).data
        bwd = T.overlap_sum((Tensor(y) @ Tensor(k)).reshape((3, 4, 1)), 2, 8).data
        assert abs(np.sum(fwd * y) - np.sum(x * bwd)) < 1e-12

    def test_gradients(self):
        # cut below the span (7 rows of 2*2 + 4 = 8) and zero-extended past it
        rng = np.random.default_rng(12)
        for length in (7, 11):
            fd_check(lambda y, k: T.overlap_sum((y @ k).reshape((3, 4, 1)), 2, length),
                     [rng.standard_normal((3, 5)), rng.standard_normal((5, 4))])


class TestFramingProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 12), size=st.integers(1, 6), hop=st.integers(1, 8),
           count=st.integers(1, 8), length=st.integers(0, 40),
           lead=st.sampled_from([(), (3,), (2, 1)]),
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, n, size, hop, count, length, lead, seed):
        # <frames(x), y> == <x, overlap_sum(y)> for any geometry, including
        # hop > size, windows past the end of x, lengths on both sides of
        # the span and leading batch axes; overlap_sum to n rows is the
        # exact transpose
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lead + (n, 2))
        y = rng.standard_normal(lead + (count, size, 2))
        fwd = T._frames(x, size, hop, count)
        assert abs(np.sum(fwd * y) - np.sum(x * T._overlap_sum(y, hop, n))) < 1e-12
        # per-window loops as the reference
        span = (count - 1) * hop + size
        padded = np.concatenate([x, np.zeros(lead + (max(span - n, 0), 2))], axis=-2)
        ref_frames = np.stack([padded[..., i * hop : i * hop + size, :]
                               for i in range(count)], axis=-3)
        assert np.array_equal(fwd, ref_frames)
        ref_sum = np.zeros(lead + (max(span, n) + length, 2))
        for i in range(count):
            ref_sum[..., i * hop : i * hop + size, :] += y[..., i, :, :]
        # the sum cut below or zero-extended past the span
        for rows in (n, length, span + length):
            got = T._overlap_sum(y, hop, rows)
            assert got.shape == lead + (rows, 2)
            assert np.allclose(got, ref_sum[..., :rows, :], rtol=0, atol=1e-12)


class TestDepthwiseConv1d:
    def test_delta_kernel_is_identity(self):
        x = np.random.default_rng(13).standard_normal((7, 3))
        k = np.zeros((3, 5))
        k[:, 2] = 1.0
        out = T.depthwise_conv1d(Tensor(x), Tensor(k))
        assert np.allclose(out.data, x)

    def test_hand_padded_convolution(self):
        # hand oracle: [1,2,3] with ones kernel, one zero pad each side
        out = T.depthwise_conv1d(Tensor([[1.0], [2.0], [3.0]]),
                                 Tensor([[1.0, 1.0, 1.0]]))
        assert np.array_equal(out.data, [[3.0], [6.0], [5.0]])

    def test_channels_independent(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((9, 2))
        k = rng.standard_normal((2, 3))
        base = T.depthwise_conv1d(Tensor(x), Tensor(k)).data
        x2 = x.copy()
        x2[:, 1] = 0.0
        zeroed = T.depthwise_conv1d(Tensor(x2), Tensor(k)).data
        assert np.array_equal(base[:, 0], zeroed[:, 0])
        assert np.all(zeroed[:, 1] == 0.0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            T.depthwise_conv1d(Tensor(np.ones((6, 2))), Tensor(np.ones((2, 4))))

    def test_channel_axis_is_last(self):
        with pytest.raises(ShapeError):
            T.depthwise_conv1d(Tensor(np.ones((2, 6))), Tensor(np.ones((2, 3))))

    def test_one_sequence_equals_its_row_of_a_batch(self):
        # bit for bit, as slabbed inference needs; a single (1, T, C)
        # sequence swapped to channels-first is not C-contiguous, so its
        # memory order must not set the einsum's summation order
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        k = rng.standard_normal((8, 5)).astype(np.float32)
        seed = rng.standard_normal((3, 8, 8)).astype(np.float32)

        def run(rows):
            xt, kt = Tensor(x[rows], requires_grad=True), Tensor(k, requires_grad=True)
            out = T.depthwise_conv1d(xt, kt)
            T.tsum(T.mul(out, seed[rows])).backward()
            return out.data[0], xt.grad[0]

        for got, want in zip(run(slice(0, 1)), run(slice(None))):
            assert got.tobytes() == want.tobytes()

    def test_gradients_batched(self):
        rng = np.random.default_rng(15)
        fd_check(T.depthwise_conv1d,
                 [rng.standard_normal((2, 7, 3)), rng.standard_normal((3, 3))])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    @pytest.mark.parametrize("t", [1, 7, 250])
    @pytest.mark.parametrize("length", [1, 3, 5, 11, 51])
    def test_input_gradient_sums_taps_in_kernel_order(self, length, t, lead, dtype):
        # oracle: a zero-filled padded buffer that gathers one tap at a time,
        # kernel column 0 first; the op's gradient must match it bit for bit
        rng = np.random.default_rng(17)
        channels, pad = 4, (length - 1) // 2
        g = rng.standard_normal(lead + (t, channels)).astype(dtype)
        k = rng.standard_normal((channels, length)).astype(dtype)
        g[rng.random(g.shape) < 0.2] = -0.0
        k[rng.random(k.shape) < 0.2] = -0.0
        want = np.zeros(lead + (t + 2 * pad, channels), dtype)
        for off in range(length):
            want[..., off : off + t, :] += g * k[:, off]
        want = want[..., pad : pad + t, :]
        x = Tensor(rng.standard_normal(lead + (t, channels)).astype(dtype),
                   requires_grad=True)
        T.tsum(T.mul(T.depthwise_conv1d(x, Tensor(k)), g)).backward()
        assert np.array_equal(x.grad, want)
        assert np.array_equal(np.signbit(x.grad), np.signbit(want))


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = T.layer_norm(Tensor([[2.0, 2.0, 2.0]]), Tensor(np.ones(3)),
                           Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_two_point_normalization(self):
        # mean 2, biased var 1: (1,3) -> (-1, 1) as eps -> 0
        out = T.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_gamma_zero_gives_beta(self):
        out = T.layer_norm(Tensor(np.random.default_rng(19).standard_normal((2, 4))),
                           Tensor(np.zeros(4)), Tensor(np.full(4, 7.0)))
        assert np.allclose(out.data, 7.0)

    def test_biased_variance_used(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = T.layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                           eps=0.0 + 1e-300)
        expected = (x - x.mean()) / np.sqrt(x.var())   # population variance
        assert np.allclose(out.data, expected)

    def test_eps_positive_required(self):
        with pytest.raises(ConfigError):
            T.layer_norm(Tensor([1.0]), Tensor([1.0]), Tensor([0.0]), eps=0.0)

    def test_gradients(self):
        rng = np.random.default_rng(20)
        fd_check(lambda x, g, b: T.layer_norm(x, g, b),
                 [rng.standard_normal((3, 5)), rng.standard_normal(5),
                  rng.standard_normal(5)])


class TestActivations:
    def test_relu(self):
        assert np.array_equal(T.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_prelu_definition(self):
        out = T.prelu(Tensor([-2.0, 2.0]), Tensor(0.25))
        assert np.array_equal(out.data, [-0.5, 2.0])

    def test_prelu_slope_must_be_scalar(self):
        with pytest.raises(ShapeError):
            T.prelu(Tensor([1.0]), Tensor([0.1, 0.2]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_where_form_on_signed_zeros(self, dtype):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(67).astype(dtype)
        x[::3] = 0.0
        x[1::5] = -0.0
        out = T.relu(Tensor(x)).data
        assert out.tobytes() == np.where(x > 0, x, 0.0).astype(dtype).tobytes()
        for s in (0.25, 0.0, -0.0, -0.5, 1.0, 1.5):
            slope = np.asarray(s, dtype=dtype)
            out = T.prelu(Tensor(x), Tensor(slope)).data
            assert out.tobytes() == np.where(x > 0, x, slope * x).tobytes()

    def test_activation_gradients(self):
        rng = np.random.default_rng(22)
        # offset away from the relu kink so finite differences are clean
        x = rng.standard_normal((4, 5)) + np.where(
            rng.standard_normal((4, 5)) > 0, 0.5, -0.5)
        fd_check(T.relu, [x])
        fd_check(lambda a, s: T.prelu(a, s), [x, np.asarray(0.3)])
        fd_check(lambda a, s: T.prelu(a, s), [x, np.asarray(1.7)])


def unfused_attention(q, k, v, scale):
    """The scores-softmax-context composition the attention node replaces."""
    scores = q @ np.swapaxes(k, -1, -2) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return probs @ v, probs


def merge_heads(a):
    """(..., H, T, d) -> (..., T, H*d)."""
    return np.swapaxes(a, -3, -2).reshape(a.shape[:-3] + (a.shape[-2], -1))


class TestAttention:
    def test_equal_scores_give_uniform_weights(self):
        q = Tensor(np.zeros((2, 3, 4)))
        kv = Tensor(np.random.default_rng(24).standard_normal((2, 5, 4)))
        out, weights = T.attention(q, kv, kv, 1, 0.5)
        assert weights.shape == (2, 1, 3, 5)
        assert np.allclose(weights, 1.0 / 5.0)
        assert np.allclose(out.data, kv.data.mean(axis=-2, keepdims=True))

    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_rows_sum_to_one(self, dtype, atol):
        # (batch 3, heads 2, length 6, head width 4), heads side by side
        rng = np.random.default_rng(21)
        q, k, v = (rng.standard_normal((3, 2, 6, 4)).astype(dtype) for _ in range(3))
        out, weights = T.attention(Tensor(merge_heads(q)), Tensor(merge_heads(k)),
                                   Tensor(merge_heads(v)), 2, 0.5)
        assert out.dtype == dtype and weights.dtype == dtype
        assert out.shape == (3, 6, 8) and weights.shape == (3, 2, 6, 6)
        assert np.all(weights >= 0.0)
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=atol)
        ref_out, ref_probs = unfused_attention(q, k, v, dtype(0.5))
        assert np.allclose(weights, ref_probs, atol=atol)
        assert np.allclose(out.data, merge_heads(ref_out), atol=10 * atol)

    def test_heads_inside_equal_heads_split_by_graph_nodes(self):
        # the node's own head split and merge against reshape and swapaxes
        # nodes around a one-head call, bit for bit, forward and backward
        rng = np.random.default_rng(26)
        arrays = [rng.standard_normal((2, 5, 6)).astype(np.float32) for _ in range(3)]
        seed = rng.standard_normal((2, 5, 6)).astype(np.float32)

        def run(fused):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            if fused:
                out, weights = T.attention(q, k, v, 3, 0.7)
            else:
                def split(a):
                    return T.swapaxes(a.reshape((2, 5, 3, 2)), -3, -2)
                ctx, weights = T.attention(split(q), split(k), split(v), 1, 0.7)
                out = T.swapaxes(ctx, -3, -2).reshape((2, 5, 6))
                weights = weights[:, :, 0]
            T.tsum(T.mul(out, seed)).backward()
            return [out.data, weights] + [t.grad for t in (q, k, v)]

        for got, want in zip(run(True), run(False)):
            assert got.tobytes() == want.tobytes()

    def test_shapes_checked(self):
        a = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((3, 4))), a, a, 1, 1.0)      # ndim differs
        with pytest.raises(ShapeError):
            T.attention(a, Tensor(np.zeros((2, 3, 5))), a, 1, 1.0)   # width differs
        with pytest.raises(ShapeError):
            T.attention(a, a, Tensor(np.zeros((2, 2, 4))), 1, 1.0)   # length differs
        with pytest.raises(ShapeError):
            T.attention(a, a, a, 3, 1.0)              # width not a multiple of heads
        with pytest.raises(ConfigError):
            T.attention(a, a, a, 0, 1.0)

    def test_inf_score_raises_naming_attention(self):
        # finite operands whose scores overflow to +Inf; the weights are a
        # plain array, so the context node's check is the one that fires
        big = Tensor(np.full((1, 2, 2), 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="attention"):
                T.attention(big, big, Tensor(np.ones((1, 2, 2))), 1, 1.0)

    def test_gradients_with_leading_axes_and_heads(self):
        # batch 2, 3 heads of width 2 (values 3), keys longer than queries
        rng = np.random.default_rng(25)
        fd_check(lambda q, k, v: T.attention(q, k, v, 3, 0.7)[0],
                 [rng.standard_normal((2, 4, 6)),
                  rng.standard_normal((2, 5, 6)),
                  rng.standard_normal((2, 5, 9))])


BIG = np.full((2, 2), 3e38, dtype=np.float32)   # finite; twice it is not


class TestFinitenessRule:
    """Op outputs are checked where values are made, not where they move."""

    def test_exempt_ops_only_move_copy_or_clamp(self):
        assert T._UNCHECKED_OPS == {"reshape", "transpose", "take", "concat",
                                    "frames", "relu"}

    @pytest.mark.parametrize("op, make", [
        ("add", lambda: T.add(Tensor(BIG), Tensor(BIG))),
        ("sub", lambda: T.sub(Tensor(BIG), Tensor(-BIG))),
        ("mul", lambda: T.mul(Tensor(BIG), Tensor(BIG))),
        ("div", lambda: T.div(Tensor([1.0]), Tensor([0.0]))),
        ("log", lambda: T.log(Tensor([0.0]))),
        ("tsum", lambda: T.tsum(Tensor(BIG))),
        ("matmul", lambda: T.matmul(Tensor(BIG), Tensor(BIG))),
        ("linear", lambda: T.linear(Tensor(BIG), Tensor(np.ones((2, 1), np.float32)))),
        ("attention", lambda: T.attention(Tensor(BIG[None]), Tensor(BIG[None]),
                                          Tensor(BIG[None]), 1, 1.0)),
        ("depthwise_conv1d",
         lambda: T.depthwise_conv1d(Tensor(BIG), Tensor(np.ones((2, 3), np.float32)))),
        ("overlap_sum", lambda: T.overlap_sum(Tensor(BIG[..., None]), 1, 3)),
        ("overlap_add", lambda: overlap_add(Tensor(BIG[..., None]), 3)),
    ])
    def test_checked_op_names_itself(self, op, make):
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteError, match=f"^{op} produced a non-finite value"):
            make()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_cannot_enter_the_graph(self, bad):
        # so every input of an exempt op was checked when it was made
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, bad], dtype=np.float32))


class TestBackward:
    def test_linear_analytic_gradient(self):
        # loss = sum(x @ W): dL/dW[i, j] = x[i] summed over rows
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        T.tsum(T.matmul(Tensor(x), w)).backward()
        assert np.array_equal(w.grad, x.sum(axis=0, keepdims=True).T @ np.ones((1, 2)))

    def test_gradient_accumulates_across_uses(self):
        w = Tensor(np.array(2.0), requires_grad=True)
        y = T.add(T.mul(w, 3.0), T.mul(w, 4.0))
        y.backward()
        assert w.grad == pytest.approx(7.0)

    def test_first_contribution_is_copied(self):
        # ``add`` hands one array to both operands: a later contribution to
        # ``a`` must not reach ``b``'s grad, whichever order the walk takes
        for flip in (False, True):
            a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
            terms = [T.add(a, b), T.mul(a, 5.0)]
            T.tsum(T.add(*terms[::-1] if flip else terms)).backward()
            assert np.array_equal(a.grad, [6.0, 6.0])
            assert np.array_equal(b.grad, [1.0, 1.0])

    def test_interior_graph_released(self):
        w = Tensor(np.array(2.0), requires_grad=True)
        mid = T.mul(w, 3.0)
        T.tsum(mid).backward()
        assert mid.grad is None and mid._backward is None

    def test_decibels(self):
        out = T.decibels(Tensor(np.array(100.0)))
        assert out.item() == pytest.approx(20.0)
        fd_check(T.decibels, [np.array([2.0, 0.5])])
