"""Adam optimizer: hand-computed steps, shared parameters, state round trip."""

import numpy as np
import pytest

from casep.nn import Parameter
from casep.optim import Adam
from casep.tensor import ConfigError


def make_param(value, dtype=np.float64):
    p = Parameter(np.asarray(value, dtype=dtype))
    p.grad = np.zeros_like(p.data)
    return p


class TestSingleSteps:
    def test_first_step_moves_by_learning_rate(self):
        # unit gradient: m_hat = 1, v_hat = 1, delta = lr / (1 + eps)
        p = make_param([0.0])
        p.grad = np.array([1.0])
        opt = Adam([("p", p)], lr=0.01)
        opt.step()
        assert p.data[0] == pytest.approx(-0.01 / (1.0 + 1e-8), rel=1e-12)

    def test_step_magnitude_ignores_gradient_scale(self):
        # constant gradient of any size gives |delta| close to lr at step one
        big, small = make_param([0.0]), make_param([0.0])
        big.grad = np.array([1000.0])
        small.grad = np.array([1e-3])
        Adam([("p", big)], lr=0.01).step()
        Adam([("p", small)], lr=0.01).step()
        assert big.data[0] == pytest.approx(-0.01, rel=1e-4)
        assert small.data[0] == pytest.approx(-0.01, rel=1e-4)

    def test_negative_gradient_increases_weight(self):
        p = make_param([2.0])
        p.grad = np.array([-3.0])
        Adam([("p", p)], lr=0.1).step()
        assert p.data[0] == pytest.approx(2.1, rel=1e-6)

    def test_zero_gradient_leaves_parameter(self):
        p = make_param([1.5])
        Adam([("p", p)], lr=0.1).step()
        assert p.data[0] == 1.5

    def test_second_step_hand_computed(self):
        p = make_param([0.0])
        opt = Adam([("p", p)], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        p.grad = np.array([1.0])
        opt.step()
        p.grad = np.array([1.0])
        opt.step()
        m = 0.9 * 0.1 + 0.1                       # 0.19
        v = 0.999 * 0.001 + 0.001                 # 0.001999
        m_hat = m / (1 - 0.9 ** 2)
        v_hat = v / (1 - 0.999 ** 2)
        step1 = 0.1 * 1.0 / (1.0 + 1e-8)
        expected = -step1 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-10)

    def test_eps_outside_square_root(self):
        # with a tiny gradient the placement of eps dominates the update
        p = make_param([0.0])
        p.grad = np.array([1e-8])
        eps = 1e-2
        Adam([("p", p)], lr=1.0, eps=eps).step()
        expected = -1e-8 / (np.sqrt(1e-16) + eps)   # m_hat=g, v_hat=g^2
        assert p.data[0] == pytest.approx(expected, rel=1e-6)


class TestConvergence:
    def test_quadratic_descent(self):
        p = make_param([0.0])
        opt = Adam([("p", p)], lr=0.1)
        history = []
        for _ in range(400):
            p.grad = 2.0 * (p.data - 3.0)          # d/dw (w - 3)^2
            opt.step()
            history.append(float((p.data[0] - 3.0) ** 2))
        assert history[-1] < 1e-4
        assert history[-1] < history[0]


class TestSharedParameters:
    def test_shared_entry_counted_once(self):
        p = make_param([0.0])
        opt = Adam([("a.w", p), ("b.w", p)], lr=0.01)
        assert len(opt._entries) == 1
        p.grad = np.array([1.0])
        opt.step()
        # applied exactly once, not once per alias
        assert p.data[0] == pytest.approx(-0.01, rel=1e-6)


class TestValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(ConfigError):
            Adam([("p", make_param([0.0]))], lr=0.0)

    def test_bad_betas(self):
        with pytest.raises(ConfigError):
            Adam([("p", make_param([0.0]))], beta1=1.0)
        with pytest.raises(ConfigError):
            Adam([("p", make_param([0.0]))], beta2=-0.1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_bad_eps(self, eps):
        with pytest.raises(ConfigError, match=f"eps must be positive and finite, got {eps}"):
            Adam([("p", make_param([0.0]))], eps=eps)


class TestStateRoundTrip:
    def test_resume_is_bit_exact(self):
        def grads(step, p):
            rng = np.random.default_rng(step)
            return rng.standard_normal(p.data.shape).astype(p.data.dtype)

        def fresh():
            rng = np.random.default_rng(99)
            p = Parameter(rng.standard_normal(5).astype(np.float32))
            return p, Adam([("p", p)], lr=0.01)

        p1, opt1 = fresh()
        for s in range(10):
            p1.grad = grads(s, p1)
            opt1.step()

        p2, opt2 = fresh()
        for s in range(5):
            p2.grad = grads(s, p2)
            opt2.step()
        state = {k: v.copy() for k, v in opt2.state_tensors().items()}
        p3 = Parameter(p2.data.copy())
        opt3 = Adam([("p", p3)], lr=0.01)
        opt3.load_state(state)
        assert opt3.step_count == 5
        for s in range(5, 10):
            p3.grad = grads(s, p3)
            opt3.step()
        assert np.array_equal(p1.data, p3.data)

    def test_state_names(self):
        p = make_param([0.0], dtype=np.float32)
        opt = Adam([("enc.w", p)])
        keys = set(opt.state_tensors())
        assert keys == {"optim.step", "optim.m.enc.w", "optim.v.enc.w"}

    def test_shape_mismatch_rejected(self):
        p = make_param([0.0, 0.0], dtype=np.float32)
        opt = Adam([("w", p)])
        bad = {
            "optim.step": np.array([1.0], dtype=np.float32),
            "optim.m.w": np.zeros(3, dtype=np.float32),
            "optim.v.w": np.zeros(2, dtype=np.float32),
        }
        with pytest.raises(ConfigError):
            opt.load_state(bad)


def per_parameter_step(state, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step a parameter at a time: the reference for the flat one."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for data, grad, m, v in state:
        g = np.zeros_like(data) if grad is None else grad
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / data.dtype.type(bc1)
        v_hat = v / data.dtype.type(bc2)
        data -= data.dtype.type(lr) * m_hat / (np.sqrt(v_hat) + data.dtype.type(eps))


class TestFlatUpdate:
    """One update over flat moment buffers equals the per-parameter one."""

    SHAPES = {"a.w": (3, 4), "a.slope": (), "b.w": (5,), "c.k": (2, 1, 3)}

    def named(self):
        rng = np.random.default_rng(8)
        return [(name, Parameter(rng.standard_normal(shape).astype(np.float32)))
                for name, shape in self.SHAPES.items()]

    @staticmethod
    def grad(step, name, p):
        if name == "b.w" and step % 2 == 0:
            return None
        rng = np.random.default_rng((step, len(name)))
        return rng.standard_normal(p.data.shape).astype(np.float32)

    def run(self, named, opt, ref, steps):
        """Steps both the optimizer and the per-parameter reference ``ref``,
        {name: [data, m, v]}, and checks they agree bit for bit."""
        for step in steps:
            for name, p in named:
                p.grad = self.grad(step, name, p)
            opt.step()
            per_parameter_step([(d, self.grad(step, n, d), m, v)
                                for n, (d, m, v) in ref.items()], step, lr=0.01)
            state = opt.state_tensors()
            for name, p in named:
                data, m, v = ref[name]
                assert p.data.tobytes() == data.tobytes(), (step, name)
                assert state[f"optim.m.{name}"].tobytes() == m.tobytes()
                assert state[f"optim.v.{name}"].tobytes() == v.tobytes()

    def test_matches_per_parameter_formula_then_resumes(self):
        named = self.named()
        ref = {name: [p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)]
               for name, p in named}
        params = [p for _, p in named]
        opt = Adam(named, lr=0.01)
        self.run(named, opt, ref, range(1, 6))
        assert all(p is q for (_, p), q in zip(named, params))   # not rebound
        state = {k: v.copy() for k, v in opt.state_tensors().items()}
        assert set(state) == {"optim.step"} | {f"optim.{s}.{name}" for name in
                                               self.SHAPES for s in "mv"}
        assert all(state[f"optim.m.{n}"].shape == s for n, s in self.SHAPES.items())

        resumed = [(name, Parameter(p.data.copy())) for name, p in named]
        fresh = Adam(resumed, lr=0.01)
        fresh.load_state(state)
        assert fresh.step_count == 5
        self.run(resumed, fresh, ref, range(6, 9))

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ConfigError, match="one dtype"):
            Adam([("a", make_param([0.0], np.float32)),
                  ("b", make_param([0.0], np.float64))])
