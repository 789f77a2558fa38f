"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import casep  # noqa: E402
import workloads  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        ((1, 0), "root", 0.0, 10.0, None),
        ((1, 0), "a", 1.0, 4.0, 0),
        ((1, 0), "b", 3.0, 6.0, 0),      # overlaps a: the union [1, 6] counts once
        ((1, 0), "leaf", 2.0, 3.0, 1),
        ((1, 0), "late", 9.0, 12.0, 0),  # clipped to the parent's end
        ((2, 0), "a", 20.0, 20.5, None),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got["a"] == pytest.approx((4.0 - 1.0 - 1.0) + 0.5)
    assert got["b"] == pytest.approx(3.0)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["late"] == pytest.approx(3.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1, 101))) == 90   # 10 samples above
    assert tail_percentile(list(range(1, 100))) is None  # only 9 above
    assert tail_percentile([]) is None
    assert tail_percentile(list(range(200, 0, -1))) == 180


def test_output_digest_sees_sign_and_sample_order():
    x = np.random.default_rng(1).standard_normal(1000) * 1e-3
    ref = workloads.output_digest(x)
    assert workloads.digest_matches(workloads.output_digest(x.copy()), ref)
    for changed in (-x, x[::-1], np.roll(x, 1), x * 1.01):
        assert not workloads.digest_matches(workloads.output_digest(changed), ref)


def _casep_bindings():
    """Every attribute of every casep module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "casep" or name.startswith("casep."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("casep"):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_tracer_uninstall_restores_every_original():
    from casep import chunking, tensor, training
    before = _casep_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert tensor._from_op is not before[("casep.tensor", "_from_op")]
        assert chunking._from_op is tensor._from_op
        assert training.gen_mixture is not before[("casep.training", "gen_mixture")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _casep_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_step_clock_restores_adam():
    from casep import optim, training
    with workloads.StepClock():
        assert training.Adam is not optim.Adam
    assert training.Adam is optim.Adam


def test_step_clock_leaves_on_step_out_of_step_times(tmp_path):
    from casep import training
    wl = workloads.WORKLOADS["train_smoke"]()
    wl.prepare(0, tmp_path)
    with workloads.StepClock(on_step=lambda: time.sleep(0.3)) as clock:
        training.train_run({**wl.entries(0), "train.steps": "3"})
    assert len(clock.calls) == 1 and len(clock.calls[0]) == 3
    assert all(0 < step < 0.3 for step in clock.calls[0])


def _input_bytes(seed, work):
    wl = workloads.WORKLOADS["separate_short"]()
    wl.prepare(seed, work)
    return [p.read_bytes() for p in wl.inputs]


def test_same_seed_gives_identical_inputs(tmp_path):
    first = _input_bytes(5, tmp_path / "a")
    assert first == _input_bytes(5, tmp_path / "b")
    assert first != _input_bytes(6, tmp_path / "c")
    assert len(set(first)) == len(first)  # the files are distinct mixtures


def _traced_smoke_counts(seed, work):
    wl = workloads.WORKLOADS["train_smoke"]()
    wl.prepare(seed, work)
    tracer = Tracer()
    tracer.install()
    try:
        loop = wl.loop(0.0, tracer)  # one train_run call
    finally:
        tracer.uninstall()
    assert loop.failed == 0 and len(loop.op_s) == wl.steps
    return dict(tracer.nodes), tracer.node_bytes, tracer.layer_metrics(len(loop.op_s))


def test_same_seed_gives_identical_node_counts(tmp_path):
    nodes, nbytes, layers = _traced_smoke_counts(3, tmp_path / "a")
    again, again_bytes, again_layers = _traced_smoke_counts(3, tmp_path / "b")
    assert nodes == again and nbytes == again_bytes
    assert layers["tensor.nodes"] == again_layers["tensor.nodes"] > 0
    assert layers["metrics.si_snr_calls"] > 0 and layers["optim.adam_step_s"] > 0
