"""Layer modules: registration, shapes, attention semantics."""

import numpy as np
import pytest

import casep.tensor as T
from casep.nn import (
    Linear,
    LayerNorm,
    Module,
    MultiHeadAttention,
    Parameter,
    PReLU,
)
from casep.tensor import ConfigError, ShapeError, Tensor, no_grad


class TestModuleRegistration:
    def test_dotted_paths(self):
        class Outer(Module):
            def __init__(self):
                self.lin = Linear(2, 3, np.random.default_rng(0))
                self.scale = Parameter(np.ones(1, dtype=np.float32))

        names = dict(Outer().named_parameters())
        assert set(names) == {"lin.weight", "lin.bias", "scale"}

    def test_module_list_paths(self):
        class Stack(Module):
            def __init__(self):
                self.layers = [Linear(2, 2, np.random.default_rng(i)) for i in range(2)]

        names = [n for n, _ in Stack().named_parameters()]
        assert names == ["layers.0.weight", "layers.0.bias",
                         "layers.1.weight", "layers.1.bias"]

    def test_no_base_init_needed(self):
        class Bare(Module):
            def __init__(self):
                self.first = Linear(2, 2, np.random.default_rng(0))
                self.scale = Parameter(np.ones(1, dtype=np.float32))
                self.second = Linear(2, 2, np.random.default_rng(1))
                self.offset = Parameter(np.zeros(1, dtype=np.float32))

        names = [n for n, _ in Bare().named_parameters()]
        # direct parameters first, then submodules, each in assignment order
        assert names == ["scale", "offset", "first.weight", "first.bias",
                         "second.weight", "second.bias"]

    def test_shared_submodule_deduplicated(self):
        class Tied(Module):
            def __init__(self):
                inner = Linear(3, 3, np.random.default_rng(0))
                self.a = inner
                self.b = inner

        tied = Tied()
        assert len(list(tied.named_parameters())) == 4   # both paths reported
        assert len(tied.parameters()) == 2               # one storage each
        assert tied.param_count() == 12

    def test_zero_grad(self):
        lin = Linear(2, 2, np.random.default_rng(0))

        def backward():
            T.tsum(lin(Tensor(np.ones((1, 2), dtype=np.float32)))).backward()

        backward()
        first = lin.weight.grad.copy()
        assert np.any(first != 0.0)
        lin.zero_grad()
        assert lin.weight.grad is None and lin.bias.grad is None
        backward()
        assert np.array_equal(lin.weight.grad, first)   # not added to the old one


class TestLinearModule:
    def test_shapes_and_dtype(self):
        lin = Linear(4, 6, np.random.default_rng(0))
        out = lin(Tensor(np.zeros((2, 5, 4), dtype=np.float32)))
        assert out.shape == (2, 5, 6) and out.dtype == np.float32

    def test_init_bound(self):
        lin = Linear(100, 50, np.random.default_rng(0))
        assert np.max(np.abs(lin.weight.data)) <= np.sqrt(1.0 / 100)

    def test_double_precision(self):
        lin = Linear(3, 3, np.random.default_rng(0), dtype=np.float64)
        assert lin.weight.dtype == np.float64
        assert lin(Tensor(np.zeros((1, 3)))).dtype == np.float64


class TestLayerNormModule:
    def test_normalizes_last_axis(self):
        ln = LayerNorm(8)
        x = np.random.default_rng(0).standard_normal((5, 8)).astype(np.float32)
        out = ln(Tensor(x)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-2)

    def test_learnable_shift(self):
        ln = LayerNorm(4)
        ln.beta.data[:] = 3.0
        ln.gamma.data[:] = 0.0
        out = ln(Tensor(np.random.default_rng(1).standard_normal((2, 4))
                        .astype(np.float32)))
        assert np.allclose(out.data, 3.0)


class TestPReLUModule:
    def test_scalar_slope(self):
        act = PReLU()
        assert act.slope.shape == ()
        assert act.param_count() == 1
        out = act(Tensor(np.array([-4.0, 4.0], dtype=np.float32)))
        assert np.allclose(out.data, [-1.0, 4.0])

    def test_slope_trains(self):
        act = PReLU()
        act.slope.data[...] = 0.5
        T.tsum(act(Tensor(np.array([-2.0], dtype=np.float32)))).backward()
        assert act.slope.grad == pytest.approx(-2.0)


class TestMultiHeadAttention:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            MultiHeadAttention(6, 4, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            MultiHeadAttention(8, 0, np.random.default_rng(0))

    def test_input_width_checked(self):
        mha = MultiHeadAttention(8, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            mha(Tensor(np.zeros((3, 4), dtype=np.float32)))

    def test_output_and_weight_shapes(self):
        mha = MultiHeadAttention(8, 2, np.random.default_rng(0))
        out, attn = mha(Tensor(np.random.default_rng(1)
                               .standard_normal((5, 8)).astype(np.float32)))
        assert out.shape == (5, 8)
        assert attn.shape == (2, 5, 5)

    def test_leading_dims_preserved(self):
        mha = MultiHeadAttention(8, 4, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(2)
                   .standard_normal((3, 2, 6, 8)).astype(np.float32))
        out, attn = mha(x)
        assert out.shape == (3, 2, 6, 8)
        assert attn.shape == (3, 2, 4, 6, 6)

    def test_rows_are_distributions(self):
        mha = MultiHeadAttention(16, 4, np.random.default_rng(0))
        _, attn = mha(Tensor(np.random.default_rng(3)
                             .standard_normal((2, 7, 16)).astype(np.float32)))
        assert np.all(attn >= 0.0)
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-5)

    def test_length_one_attends_to_itself(self):
        mha = MultiHeadAttention(8, 2, np.random.default_rng(0))
        _, attn = mha(Tensor(np.random.default_rng(4)
                             .standard_normal((1, 8)).astype(np.float32)))
        assert np.allclose(attn, 1.0)

    def test_no_projection_biases(self):
        mha = MultiHeadAttention(8, 2, np.random.default_rng(0))
        assert mha.param_count() == 4 * 8 * 8
        assert {n for n, _ in mha.named_parameters()} == {"wq", "wk", "wv", "wo"}

    def test_zero_output_projection(self):
        mha = MultiHeadAttention(8, 2, np.random.default_rng(0))
        mha.wo.data[:] = 0.0
        out, _ = mha(Tensor(np.random.default_rng(5)
                            .standard_normal((4, 8)).astype(np.float32)))
        assert np.all(out.data == 0.0)

    def test_gradients_match_finite_differences(self):
        mha = MultiHeadAttention(4, 2, np.random.default_rng(0), dtype=np.float64)
        x = np.random.default_rng(6).standard_normal((3, 4))
        proj = np.random.default_rng(7).standard_normal((3, 4))

        def loss_value():
            with no_grad():
                out, _ = mha(Tensor(x))
                return float(np.sum(out.data * proj))

        out, _ = mha(Tensor(x))
        T.tsum(T.mul(out, Tensor(proj))).backward()
        worst = 0.0
        for _, p in mha.named_parameters():
            for i in range(p.size):
                w0 = p.data.flat[i]
                h = 1e-6 * max(1.0, abs(w0))
                p.data.flat[i] = w0 + h
                lp = loss_value()
                p.data.flat[i] = w0 - h
                lm = loss_value()
                p.data.flat[i] = w0
                numeric = (lp - lm) / (2 * h)
                rel = abs(p.grad.flat[i] - numeric) / max(
                    abs(p.grad.flat[i]), abs(numeric), 1e-6)
                worst = max(worst, rel)
        assert worst < 1e-6
