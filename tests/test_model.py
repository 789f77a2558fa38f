"""Full separator assembly: preprocessing, block stack, mask head, decode."""

import numpy as np
import pytest
from conftest import tiny_model_config

import casep.tensor as T
from casep.blocks import AttentionRecorder
from casep.codec import Waveform
from casep.model import Separator, fit_length
from casep.tensor import ConfigError, Tensor, no_grad


def tiny_model(seed=0, **kwargs):
    return Separator.build(tiny_model_config(**kwargs), seed=seed)


def sample_input(model, n=256, seed=1):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(n).astype(model.cfg.dtype))


class TestPreprocess:
    def test_zero_latent_gives_bias_only(self):
        model = tiny_model()
        latent = Tensor(np.zeros((10, 16), dtype=np.float32))
        out = model.pre_linear(model.pre_norm(latent))
        assert np.allclose(out.data, model.pre_linear.bias.data, atol=1e-7)

    def test_shape_preserved(self):
        model = tiny_model()
        latent = Tensor(np.random.default_rng(0)
                        .standard_normal((10, 16)).astype(np.float32))
        out = model.pre_linear(model.pre_norm(latent))
        assert out.shape == (10, 16)

    def test_constant_latent_normalizes_to_bias(self):
        # a constant row has zero normalized form, leaving only the bias
        model = tiny_model()
        model.pre_linear.weight.data[:] = np.eye(16, dtype=np.float32)
        model.pre_linear.bias.data[:] = 0.5
        latent = Tensor(np.full((4, 16), 3.0, dtype=np.float32))
        out = model.pre_linear(model.pre_norm(latent))
        assert np.allclose(out.data, 0.5, atol=1e-3)


class TestMaskHead:
    def test_masks_non_negative(self):
        model = tiny_model()
        _, masks = model.masks_for(sample_input(model))
        for m in masks:
            assert np.all(m.data >= 0.0)

    def test_mask_count_and_shape(self):
        model = tiny_model(speakers=3)
        latent, masks = model.masks_for(sample_input(model))
        assert len(masks) == 3
        for m in masks:
            assert m.shape == latent.shape

    def test_speaker_slices_are_channel_blocks(self):
        # speaker s reads channels [s*D, (s+1)*D) of the post-processed map;
        # make those slices distinguishable through otherwise equal heads
        model = tiny_model()
        d = model.cfg.width
        for s in range(2):
            model.mask_in[s].weight.data[:] = np.eye(d, dtype=np.float32)
            model.mask_in[s].bias.data[:] = 0.0
            model.mask_out[s].weight.data[:] = np.eye(d, dtype=np.float32)
            model.mask_out[s].bias.data[:] = 0.0
        model.post_linear.weight.data[:] = 0.0
        model.post_linear.weight.data[:, :d] = 1.0      # speaker 0 channels only
        model.post_linear.bias.data[:] = 0.0
        _, masks = model.masks_for(sample_input(model))
        assert np.any(masks[0].data > 0.0)
        assert np.all(masks[1].data == 0.0)


class TestForward:
    def test_estimate_count_and_length(self):
        model = tiny_model()
        estimates, masks = model.forward(sample_input(model))
        assert len(estimates) == 2 and len(masks) == 2
        t_lat = model.cfg.encoder.latent_frames(256)
        expected = model.decoder.output_length(t_lat)
        for est in estimates:
            assert est.shape == (expected,)

    def test_batch_rows_equal_unbatched_forwards(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((3, 256)).astype(model.cfg.dtype)
        with no_grad():
            estimates, masks = model.forward(Tensor(batch))
            for b in range(3):
                single, single_masks = model.forward(Tensor(batch[b]))
                for got, want in zip(estimates + masks, single + single_masks):
                    scale = np.max(np.abs(want.data))
                    assert np.max(np.abs(got.data[b] - want.data)) <= 1e-6 * scale

    def test_outputs_finite(self):
        model = tiny_model()
        estimates, _ = model.forward(sample_input(model))
        for est in estimates:
            assert np.all(np.isfinite(est.data))

    def test_doubling_masks_doubles_estimates(self):
        model = tiny_model(precision="double")
        x = sample_input(model)
        with no_grad():
            latent, masks = model.masks_for(x)
            singles = [model.decoder(m, latent).data for m in masks]
            doubles = [model.decoder(Tensor(2.0 * m.data), latent).data
                       for m in masks]
        for one, two in zip(singles, doubles):
            assert np.allclose(two, 2.0 * one, rtol=1e-9, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = tiny_model(seed=11)
        b = tiny_model(seed=11)
        x = sample_input(a)
        with no_grad():
            ea, _ = a.forward(x)
            eb, _ = b.forward(x)
        for u, v in zip(ea, eb):
            assert np.array_equal(u.data, v.data)
        c = tiny_model(seed=12)
        with no_grad():
            ec, _ = c.forward(x)
        assert not np.array_equal(ea[0].data, ec[0].data)


class TestSeparate:
    def test_length_matched_outputs(self):
        model = tiny_model()
        wave = Waveform(np.random.default_rng(2).standard_normal(300)
                        .astype(np.float32))
        outs = model.separate(wave)
        assert len(outs) == 2
        for o in outs:
            assert len(o) == 300 and o.sample_rate == wave.sample_rate

    def test_rate_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            model.separate(Waveform(np.zeros(300, dtype=np.float32),
                                    sample_rate=16000))

    def test_recorder_collects_all_layers(self):
        model = tiny_model()
        rec = AttentionRecorder()
        model.separate(Waveform(np.zeros(300, dtype=np.float32)), rec)
        cfg = model.cfg
        expected = {(b, net, i)
                    for b in range(cfg.n_blocks)
                    for net, count in (("intra", cfg.n_intra),
                                       ("inter", cfg.n_inter))
                    for i in range(count)}
        assert set(rec.maps) == expected


class TestParameterSets:
    def test_block_count_scales_parameter_sets(self):
        cfg2 = tiny_model_config()
        cfg2.n_blocks = 2
        two = Separator(cfg2, np.random.default_rng(0))
        one = tiny_model()
        delta = two.param_count() - one.param_count()
        per_block = sum(p.size for _, p in one.blocks[0].named_parameters())
        assert delta == per_block

    def test_sharing_reduces_unique_parameters(self):
        cfg_shared = tiny_model_config(shared=True)
        cfg_shared.n_intra = cfg_shared.n_inter = 3
        cfg_full = tiny_model_config(shared=False)
        cfg_full.n_intra = cfg_full.n_inter = 3
        shared = Separator(cfg_shared, np.random.default_rng(0))
        full = Separator(cfg_full, np.random.default_rng(0))
        assert shared.param_count() < full.param_count()
        shared_block = sum(p.size for p in shared.blocks[0].parameters())
        full_block = sum(p.size for p in full.blocks[0].parameters())
        assert full_block == 3 * shared_block


class TestFitLength:
    def test_trim(self):
        out = fit_length(np.arange(10.0), 6)
        assert np.array_equal(out, np.arange(6.0))

    def test_pad(self):
        out = fit_length(np.arange(4.0), 6)
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0, 0.0, 0.0])

    def test_exact(self):
        x = np.arange(5.0)
        assert np.array_equal(fit_length(x, 5), x)
