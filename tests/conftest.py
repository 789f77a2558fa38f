import numpy as np
import pytest

import casep.tensor as T
from casep.codec import EncoderConfig
from casep.config import ModelConfig, PathConfig, SyntheticSpec
from casep.tensor import Tensor, no_grad


def fd_check(op, arrays, tol=1e-6, seed=0):
    """Analytic gradient of a random projection of op(*arrays) vs central
    differences, every coordinate of every input."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    out = op(*tensors)
    proj = rng.standard_normal(out.shape)

    def scalar_of(ts):
        return T.tsum(T.mul(op(*ts), Tensor(proj))).item()

    loss = T.tsum(T.mul(out, Tensor(proj)))
    loss.backward()
    worst = 0.0
    for t in tensors:
        grad = t.grad
        assert grad is not None and grad.shape == t.data.shape
        for i in range(t.data.size):
            w0 = t.data.flat[i]
            h = 1e-6 * max(1.0, abs(w0))
            t.data.flat[i] = w0 + h
            with no_grad():
                lp = scalar_of(tensors)
            t.data.flat[i] = w0 - h
            with no_grad():
                lm = scalar_of(tensors)
            t.data.flat[i] = w0
            numeric = (lp - lm) / (2 * h)
            analytic = grad.flat[i]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, rel)
    assert worst < tol, f"finite differences disagree: {worst:.3e}"


def tiny_model_config(shared: bool = False, precision: str = "single",
                      speakers: int = 2) -> ModelConfig:
    """Smallest config that exercises every component."""
    return ModelConfig(
        encoder=EncoderConfig(filters=16, kernel=16, stride=8),
        chunk_size=8,
        speakers=speakers,
        n_blocks=1,
        n_intra=1,
        n_inter=1,
        shared=shared,
        intra=PathConfig(16, 8, 8, heads=2, kernel=5, ffn_dim=64),
        inter=PathConfig(16, 8, 8, heads=2, kernel=3, ffn_dim=64),
        precision=precision,
    )


def smoke_model_config() -> ModelConfig:
    """The desk-scale learning config (short encoder, 512-sample input)."""
    return ModelConfig(
        encoder=EncoderConfig(filters=16, kernel=4, stride=2),
        chunk_size=8,
        speakers=2,
        n_blocks=1,
        n_intra=1,
        n_inter=1,
        shared=False,
        intra=PathConfig(16, 8, 8, heads=2, kernel=5, ffn_dim=64),
        inter=PathConfig(16, 8, 8, heads=2, kernel=3, ffn_dim=64),
    )


def two_sine_spec(length: int = 512, seed: int = 0) -> SyntheticSpec:
    return SyntheticSpec(
        n_sources=2,
        length=length,
        sample_rate=8000,
        kind="sinusoid",
        bands=[(200.0, 400.0), (1000.0, 2000.0)],
        seed=seed,
    )


SMOKE_CONFIG_TEXT = """
encoder.filters = 16
encoder.kernel = 4
encoder.stride = 2
model.chunk_size = 8
model.speakers = 2
model.blocks = 1
model.intra_reps = 1
model.inter_reps = 1
model.shared = false
model.sample_rate = 8000
model.precision = single
intra.attn_channels = 8
intra.conv_channels = 8
intra.heads = 2
intra.kernel = 5
intra.ffn_dim = 64
inter.attn_channels = 8
inter.conv_channels = 8
inter.heads = 2
inter.kernel = 3
inter.ffn_dim = 64
data.kind = sinusoid
data.length = 512
data.bands = 200-400; 1000-2000
data.seed = 0
train.steps = 500
train.lr = 1e-3
train.batch = 2
train.seed = 0
eval.count = 16
eval.seed = 7
"""


def smoke_entries(out_dir, steps: int = 500, extra: dict | None = None) -> dict:
    from casep.config import parse_flat

    entries = parse_flat(SMOKE_CONFIG_TEXT)
    entries["train.out_dir"] = str(out_dir)
    entries["train.steps"] = str(steps)
    if extra:
        entries.update(extra)
    return entries


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
