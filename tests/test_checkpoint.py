"""Binary checkpoint container: layout, round trips, error paths."""

import os
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import tiny_model_config

from casep.checkpoint import (
    ALIGN,
    MAGIC,
    VERSION,
    load_checkpoint,
    load_model_state,
    load_separator,
    model_state,
    save_checkpoint,
)
from casep.config import default_model_config, model_config_to_flat, serialize_flat
from casep.model import Separator
from casep.tensor import ConfigError


@pytest.fixture
def ckpt_path(tmp_path):
    return tmp_path / "model.ckpt"


def layout(version, cfg, state, extra, align):
    """The file ``save_checkpoint`` writes, each payload padded to ``align``."""
    config = serialize_flat({**model_config_to_flat(cfg), **extra}).encode()
    out = MAGIC + struct.pack("<II", version, len(config)) + config
    out += struct.pack("<I", len(state))
    for name, arr in state.items():
        out += struct.pack(f"<I{len(name)}sI{arr.ndim}I", len(name), name.encode(),
                           arr.ndim, *arr.shape)
        out += bytes(-len(out) % align) + arr.astype("<f4").tobytes()
    return out


class TestRoundTrip:
    def test_weights_bit_exact(self, ckpt_path):
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=3)
        save_checkpoint(ckpt_path, cfg, model_state(model))
        _, _, tensors = load_checkpoint(ckpt_path)
        for name, original in model_state(model).items():
            assert np.array_equal(tensors[name], original), name

    def test_scalar_tensors_keep_rank_zero(self, ckpt_path):
        # the learnable activation slope is 0-d and must stay 0-d
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=0)
        save_checkpoint(ckpt_path, cfg, model_state(model))
        _, _, tensors = load_checkpoint(ckpt_path)
        assert tensors["post_act.slope"].shape == ()

    def test_config_survives(self, ckpt_path):
        cfg = tiny_model_config(shared=True)
        save_checkpoint(ckpt_path, cfg, {})
        loaded_cfg, entries, _ = load_checkpoint(ckpt_path)
        assert model_config_to_flat(loaded_cfg) == model_config_to_flat(cfg)
        assert entries["model.shared"] == "true"

    def test_extra_entries_preserved(self, ckpt_path):
        cfg = tiny_model_config()
        save_checkpoint(ckpt_path, cfg, {}, {"trained.steps": "500"})
        _, entries, _ = load_checkpoint(ckpt_path)
        assert entries["trained.steps"] == "500"

    def test_loaded_state_restores_model(self, ckpt_path):
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=3)
        save_checkpoint(ckpt_path, cfg, model_state(model))
        _, _, tensors = load_checkpoint(ckpt_path)
        fresh = Separator.build(cfg, seed=99)
        load_model_state(fresh, tensors)
        for name, original in model_state(model).items():
            assert np.array_equal(model_state(fresh)[name], original), name

    @pytest.mark.parametrize("shared, precision", [
        (False, "single"), (False, "double"), (True, "single")])
    def test_load_adopts_aligned_payloads(self, ckpt_path, shared, precision):
        # single precision takes the mapped payloads themselves, double
        # precision a float64 copy of each
        cfg = tiny_model_config(shared=shared, precision=precision)
        save_checkpoint(ckpt_path, cfg, model_state(Separator.build(cfg, seed=3)))
        _, _, tensors = load_checkpoint(ckpt_path)
        fresh = Separator.build(cfg, seed=99)
        load_model_state(fresh, tensors)
        for name, arr in model_state(fresh).items():
            assert arr.dtype == cfg.dtype and arr.flags.writeable, name
            assert np.array_equal(arr, tensors[name].astype(cfg.dtype)), name
            assert np.shares_memory(arr, tensors[name]) == (precision == "single"), name
            if precision == "single":
                assert arr.ctypes.data % ALIGN == 0, name

    def test_writes_to_loaded_model_never_reach_file(self, ckpt_path):
        cfg = tiny_model_config()
        save_checkpoint(ckpt_path, cfg, model_state(Separator.build(cfg, seed=3)))
        before = ckpt_path.read_bytes()
        loaded, _ = load_separator(ckpt_path)
        for arr in model_state(loaded).values():
            arr[...] = np.nan
        assert ckpt_path.read_bytes() == before

    def test_model_keeps_weights_after_file_is_replaced(self, ckpt_path):
        cfg = tiny_model_config()
        state = model_state(Separator.build(cfg, seed=3))
        save_checkpoint(ckpt_path, cfg, state)
        loaded, _ = load_separator(ckpt_path)
        save_checkpoint(ckpt_path, cfg, model_state(Separator.build(cfg, seed=4)))
        for name, arr in model_state(loaded).items():
            assert np.array_equal(arr, state[name]), name

    def test_writes_to_loaded_arrays_stay_in_memory(self, ckpt_path):
        cfg = tiny_model_config()
        save_checkpoint(ckpt_path, cfg, model_state(Separator.build(cfg, seed=3)))
        before = ckpt_path.read_bytes()
        _, _, tensors = load_checkpoint(ckpt_path)
        for arr in tensors.values():
            arr[...] = np.nan
        assert ckpt_path.read_bytes() == before
        save_checkpoint(ckpt_path, cfg, model_state(Separator.build(cfg, seed=4)))
        assert all(np.isnan(arr).all() for arr in tensors.values())

    def test_load_separator_rebuilds_model(self, ckpt_path):
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=3)
        save_checkpoint(ckpt_path, cfg, model_state(model), {"trained.steps": "5"})
        loaded, entries = load_separator(ckpt_path)
        assert model_config_to_flat(loaded.cfg) == model_config_to_flat(cfg)
        assert entries["trained.steps"] == "5"
        for name, original in model_state(model).items():
            assert np.array_equal(model_state(loaded)[name], original), name

    def test_failed_rename_keeps_previous_checkpoint(self, ckpt_path, monkeypatch):
        cfg = tiny_model_config()
        save_checkpoint(ckpt_path, cfg, model_state(Separator.build(cfg, seed=3)))
        before = ckpt_path.read_bytes()

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_checkpoint(ckpt_path, cfg, model_state(Separator.build(cfg, seed=4)))
        monkeypatch.undo()
        assert ckpt_path.read_bytes() == before
        assert [p.name for p in ckpt_path.parent.iterdir()] == [ckpt_path.name]
        load_separator(ckpt_path)

    def test_failed_write_keeps_previous_checkpoint(self, ckpt_path):
        cfg = tiny_model_config()
        save_checkpoint(ckpt_path, cfg, model_state(Separator.build(cfg, seed=3)))
        before = ckpt_path.read_bytes()
        tensors = dict(model_state(Separator.build(cfg, seed=4)))
        tensors["z.bad"] = np.array(["not a number"])   # fails after the others
        with pytest.raises(ValueError):
            save_checkpoint(ckpt_path, cfg, tensors)
        assert ckpt_path.read_bytes() == before
        assert [p.name for p in ckpt_path.parent.iterdir()] == [ckpt_path.name]

    def test_load_separator_draws_no_weights(self, ckpt_path, monkeypatch):
        cfg = tiny_model_config()
        save_checkpoint(ckpt_path, cfg, model_state(Separator.build(cfg, seed=3)))
        want = Separator.build(cfg, 0)
        load_model_state(want, load_checkpoint(ckpt_path)[2])

        def no_draw(*args, **kwargs):
            raise AssertionError("load_separator drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded, _ = load_separator(ckpt_path)
        got = model_state(loaded)
        assert got.keys() == model_state(want).keys()
        for name, arr in model_state(want).items():
            assert got[name].dtype == arr.dtype and np.array_equal(got[name], arr), name

    def test_shared_weights_stored_once(self, ckpt_path):
        cfg = replace(tiny_model_config(shared=True), n_intra=4, n_inter=4)
        model = Separator.build(cfg, seed=0)
        state = model_state(model)
        assert sum(a.size for a in state.values()) == model.param_count()


class TestLoadMemory:
    def test_full_scale_load_holds_weights_once(self, ckpt_path):
        # the model takes the mapped payloads, which tracemalloc does not
        # see; only weights held in fresh memory are traced
        cfg = default_model_config()
        state = model_state(Separator.build(cfg, seed=0))
        save_checkpoint(ckpt_path, cfg, state)
        weight_bytes = sum(a.nbytes for a in state.values())
        del state
        tracemalloc.start()
        try:
            loaded, _ = load_separator(ckpt_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.param_count() * 4 == weight_bytes
        assert peak < weight_bytes / 4


class TestLayoutDetails:
    def test_header_bytes(self, ckpt_path):
        save_checkpoint(ckpt_path, tiny_model_config(), {})
        blob = ckpt_path.read_bytes()
        assert blob[:4] == MAGIC
        assert struct.unpack("<I", blob[4:8])[0] == VERSION

    def test_payloads_are_little_endian_f32(self, ckpt_path):
        cfg = tiny_model_config()
        arr = np.arange(4, dtype=np.float64).reshape(2, 2)
        save_checkpoint(ckpt_path, cfg, {"w": arr})
        _, _, tensors = load_checkpoint(ckpt_path)
        assert tensors["w"].dtype == np.float32
        assert np.array_equal(tensors["w"], arr.astype(np.float32))


    def test_whole_file_layout(self, ckpt_path):
        # the model's PReLU slope is a 0-d tensor: rank 0, no extents
        cfg = tiny_model_config()
        state = model_state(Separator.build(cfg, seed=3))
        assert state["post_act.slope"].shape == ()
        save_checkpoint(ckpt_path, cfg, state, {"trained.steps": "5"})
        assert ckpt_path.read_bytes() == layout(
            VERSION, cfg, state, {"trained.steps": "5"}, align=64)

    def test_version_1_loads_bit_exact(self, ckpt_path):
        # unpadded: most payloads sit at offsets no float32 array may start at
        cfg = tiny_model_config()
        state = model_state(Separator.build(cfg, seed=3))
        ckpt_path.write_bytes(layout(1, cfg, state, {"trained.steps": "5"}, align=1))
        loaded, entries = load_separator(ckpt_path)
        assert entries["trained.steps"] == "5"
        got = model_state(loaded)
        for name, arr in state.items():
            assert got[name].dtype == np.float32 and got[name].flags.aligned, name
            assert np.array_equal(got[name], arr), name


class TestErrorPaths:
    def test_bad_magic(self, ckpt_path):
        ckpt_path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigError, match="magic"):
            load_checkpoint(ckpt_path)

    def test_bad_version(self, ckpt_path):
        save_checkpoint(ckpt_path, tiny_model_config(), {})
        blob = bytearray(ckpt_path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        ckpt_path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="version"):
            load_checkpoint(ckpt_path)

    def test_truncated_file(self, ckpt_path):
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=0)
        save_checkpoint(ckpt_path, cfg, model_state(model))
        blob = ckpt_path.read_bytes()
        ckpt_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(ckpt_path)

    def test_file_cut_inside_padding(self, ckpt_path):
        cfg = tiny_model_config()
        save_checkpoint(ckpt_path, cfg, {"w": np.zeros(3)})
        blob = ckpt_path.read_bytes()
        config = serialize_flat(model_config_to_flat(cfg)).encode()
        # magic, version and config length, config, tensor count, then
        # name length and "w", rank and one extent
        header_end = 4 + 8 + len(config) + 4 + (4 + 1) + 4 + 4
        payload_start = len(blob) - 3 * 4
        assert payload_start % ALIGN == 0 and payload_start > header_end
        ckpt_path.write_bytes(blob[: payload_start - 1])
        with pytest.raises(ConfigError, match="truncated checkpoint file"):
            load_checkpoint(ckpt_path)

    def test_extents_that_wrap_int64_are_truncated(self, ckpt_path):
        # 2^31 cubed is 2^93, which an int64 product wraps to 0
        save_checkpoint(ckpt_path, tiny_model_config(), {"wrap": np.zeros((1, 1, 1))})
        blob = bytearray(ckpt_path.read_bytes())
        at = blob.index(b"wrap") + 4
        assert struct.unpack("<I", blob[at : at + 4])[0] == 3
        blob[at + 4 : at + 16] = struct.pack("<3I", *(3 * [2**31]))
        ckpt_path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="truncated checkpoint file"):
            load_checkpoint(ckpt_path)

    def test_trailing_bytes(self, ckpt_path):
        save_checkpoint(ckpt_path, tiny_model_config(), {})
        ckpt_path.write_bytes(ckpt_path.read_bytes() + b"junk")
        with pytest.raises(ConfigError, match="trailing"):
            load_checkpoint(ckpt_path)

    def test_repeated_tensor_rejected(self, ckpt_path):
        # a whole model plus a second encoder.kernels, which would win
        cfg = tiny_model_config()
        state = model_state(Separator.build(cfg, seed=0))
        state["encoder.kernelz"] = np.zeros_like(state["encoder.kernels"])
        blob = layout(VERSION, cfg, state, {}, align=ALIGN)
        ckpt_path.write_bytes(blob.replace(b"encoder.kernelz", b"encoder.kernels"))
        message = f"{ckpt_path}: checkpoint lists tensor encoder.kernels twice"
        for load in (load_checkpoint, load_separator):
            with pytest.raises(ConfigError, match=re.escape(message)):
                load(ckpt_path)

    def test_missing_weight_rejected(self, ckpt_path):
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=0)
        state = model_state(model)
        state.pop("post_act.slope")
        save_checkpoint(ckpt_path, cfg, state)
        _, _, tensors = load_checkpoint(ckpt_path)
        with pytest.raises(ConfigError, match="lacks"):
            load_model_state(Separator.build(cfg, seed=1), tensors)

    def test_unknown_weight_rejected(self, ckpt_path):
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=0)
        state = dict(model_state(model))
        state["mystery.w"] = np.zeros(3, dtype=np.float32)
        save_checkpoint(ckpt_path, cfg, state)
        _, _, tensors = load_checkpoint(ckpt_path)
        with pytest.raises(ConfigError, match="unknown"):
            load_model_state(Separator.build(cfg, seed=1), tensors)

    def test_shape_mismatch_rejected(self, ckpt_path):
        cfg = tiny_model_config()
        model = Separator.build(cfg, seed=0)
        state = dict(model_state(model))
        state["pre_linear.bias"] = np.zeros(7, dtype=np.float32)
        save_checkpoint(ckpt_path, cfg, state)
        _, _, tensors = load_checkpoint(ckpt_path)
        with pytest.raises(ConfigError, match="shape mismatch"):
            load_model_state(Separator.build(cfg, seed=1), tensors)
