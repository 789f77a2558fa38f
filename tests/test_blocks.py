"""Hybrid attention+conv layer and the dual-path block."""

import numpy as np
import pytest

import casep.tensor as T
from casep import blocks
from casep.blocks import DualPathBlock, HybridLayer, channel_split, slab_size
from casep.chunking import segment
from casep.config import PathConfig
from casep.tensor import ConfigError, Tensor, no_grad


def path_cfg(width=8, attn=4, conv=4, heads=2, kernel=3, ffn=16):
    return PathConfig(width, attn, conv, heads=heads, kernel=kernel, ffn_dim=ffn)


def make_layer(cfg=None, seed=0, dtype=np.float32):
    return HybridLayer(cfg or path_cfg(), np.random.default_rng(seed), dtype=dtype)


class TestSlabSize:
    """One rule sizes the slabs of every layer and of the mask head."""

    @pytest.mark.parametrize("budget, count, item_bytes, workers, size", [
        (146, 250, 1, 1, 125),          # room for 146: 125 + 125, not 146 + 104
        (8 << 20, 33, 1_024_000, 1, 7),     # the full-scale mask head at batch 1
        (16 << 20, 33, 1_024_000, 1, 11),   # ... and at the former budget
        (292, 250, 1, 2, 125),          # each of two workers gets half the room
        (146, 7, 200, 1, 1),            # an item larger than the budget
        (146, 9, 16, 1, 9),             # every item fits: one slab
        (146, 0, 16, 2, 1),             # no items: one slab of one
    ])
    def test_fewest_even_slabs(self, monkeypatch, budget, count, item_bytes,
                               workers, size):
        monkeypatch.setattr(blocks, "SLAB_BYTES", budget)
        assert slab_size(count, item_bytes, workers) == size


class TestChannelSplit:
    def test_row_slices(self):
        h = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        hc, ha = channel_split(h, 2, 2)
        assert np.array_equal(hc.data, [[[1.0, 2.0]]])
        assert np.array_equal(ha.data, [[[3.0, 4.0]]])

    def test_empty_conv_side(self):
        h = Tensor(np.ones((2, 3, 4)))
        hc, ha = channel_split(h, 0, 4)
        assert hc.shape == (2, 3, 0)
        assert np.array_equal(ha.data, h.data)

    def test_concat_inverts_split(self, rng):
        h = Tensor(rng.standard_normal((2, 5, 6)))
        hc, ha = channel_split(h, 2, 4)
        assert np.array_equal(T.concat([hc, ha], axis=-1).data, h.data)

    def test_width_mismatch(self):
        with pytest.raises(ConfigError):
            channel_split(Tensor(np.ones((1, 2, 4))), 3, 2)


class TestAttentionPath:
    def test_zero_output_projection_reduces_to_norm(self, rng):
        layer = make_layer()
        layer.attn.wo.data[:] = 0.0
        ha = Tensor(rng.standard_normal((2, 5, 4)).astype(np.float32))
        out = layer.attention_path(ha)
        expected = layer.attn_norm(ha)
        assert np.allclose(out.data, expected.data, atol=1e-6)

    def test_single_frame_closed_form(self, rng):
        # one position: attention weights collapse to 1, context = value
        layer = make_layer()
        ha = Tensor(rng.standard_normal((2, 1, 4)).astype(np.float32))
        out = layer.attention_path(ha)
        assert np.allclose(layer.attn(ha)[1], 1.0)
        proj = (ha.data @ layer.attn.wv.data) @ layer.attn.wo.data
        expected = layer.attn_norm(Tensor(proj + ha.data))
        assert np.allclose(out.data, expected.data, atol=1e-6)

    def test_shape_preserved(self, rng):
        layer = make_layer()
        ha = Tensor(rng.standard_normal((3, 7, 4)).astype(np.float32))
        assert layer.attention_path(ha).shape == (3, 7, 4)
        assert layer.attn(ha)[1].shape == (3, 2, 7, 7)


class TestConvPath:
    def test_zero_pointwise_reduces_to_norm(self, rng):
        layer = make_layer()
        layer.pointwise.weight.data[:] = 0.0
        layer.pointwise.bias.data[:] = 0.0
        hc = Tensor(rng.standard_normal((2, 5, 4)).astype(np.float32))
        out = layer.conv_path(hc)
        assert np.allclose(out.data, layer.conv_norm(hc).data, atol=1e-6)

    def test_delta_kernel_identity_pointwise_doubles(self, rng):
        layer = make_layer()
        layer.depthwise.data[:] = 0.0
        layer.depthwise.data[:, layer.cfg.kernel // 2] = 1.0
        layer.pointwise.weight.data[:] = np.eye(4, dtype=np.float32)
        layer.pointwise.bias.data[:] = 0.0
        hc = Tensor(rng.standard_normal((2, 5, 4)).astype(np.float32))
        out = layer.conv_path(hc)
        expected = layer.conv_norm(Tensor(2.0 * hc.data))
        assert np.allclose(out.data, expected.data, atol=1e-5)

    def test_shape_preserved(self, rng):
        layer = make_layer()
        out = layer.conv_path(Tensor(rng.standard_normal((3, 9, 4))
                                     .astype(np.float32)))
        assert out.shape == (3, 9, 4)


class TestHybridLayer:
    @pytest.mark.parametrize("attn,conv", [(8, 0), (4, 4), (0, 8), (2, 6)])
    def test_shape_preserved_any_split(self, rng, attn, conv):
        heads = 2 if attn else 1
        layer = make_layer(path_cfg(8, attn, conv, heads=heads))
        out = layer(Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32)))
        assert out.shape == (2, 5, 8)

    def test_zero_weights_stay_finite(self, rng):
        layer = make_layer()
        for p in layer.parameters():
            if p is not layer.out_norm.gamma and p is not layer.attn_norm.gamma \
                    and p is not layer.conv_norm.gamma:
                p.data[:] = 0.0
        out = layer(Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32)))
        assert np.all(np.isfinite(out.data))

    def test_forward_node_count(self, rng, monkeypatch):
        # one node per fused op. Attention path: 3 projections, attention
        # (which splits and merges the heads itself), the output projection,
        # residual add and norm (7). Conv path: depthwise, pointwise, add,
        # norm (4). Split (2 takes), concat, then linear, relu, linear, add,
        # norm (8).
        nodes = []
        original = T._from_op

        def counting(data, parents, backward):
            nodes.append(backward.__qualname__.split(".", 1)[0])
            return original(data, parents, backward)

        monkeypatch.setattr(T, "_from_op", counting)
        make_layer()(Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32)))
        assert len(nodes) == 19, nodes

    def test_published_layer_counts(self):
        # mid-size layer: 4 * 128^2 attention weights, 51*128 + 128^2 conv
        layer = make_layer(path_cfg(256, 128, 128, heads=8, kernel=51, ffn=1024),
                           seed=1)
        attn_weights = sum(p.size for p in
                           (layer.attn.wq, layer.attn.wk, layer.attn.wv,
                            layer.attn.wo))
        conv_weights = layer.depthwise.size + layer.pointwise.weight.size
        assert attn_weights == 65_536
        assert conv_weights == 22_912

    def test_degenerate_layers_skip_param_groups(self):
        pure_attn = make_layer(path_cfg(8, 8, 0, heads=2))
        assert pure_attn.depthwise is None
        assert all("pointwise" not in n for n, _ in pure_attn.named_parameters())
        pure_conv = make_layer(path_cfg(8, 0, 8, heads=1))
        assert pure_conv.attn is None
        assert all("attn" not in n for n, _ in pure_conv.named_parameters())

    def test_conv_path_ignores_attention_channels(self, rng):
        layer = make_layer()
        base = rng.standard_normal((2, 5, 8)).astype(np.float32)
        tweaked = base.copy()
        tweaked[..., 4:] += 1.0                       # attention half only
        hc_a, _ = channel_split(Tensor(base), 4, 4)
        hc_b, _ = channel_split(Tensor(tweaked), 4, 4)
        assert np.array_equal(layer.conv_path(hc_a).data,
                              layer.conv_path(hc_b).data)


class TestDualPathBlock:
    def make_block(self, shared, n_intra=2, n_inter=2, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        return DualPathBlock(path_cfg(), path_cfg(kernel=5), n_intra, n_inter,
                             shared, rng, dtype=dtype)

    def test_shape_preserved(self, rng):
        block = self.make_block(shared=False, n_intra=1, n_inter=1)
        chunks = segment(Tensor(rng.standard_normal((10, 8)).astype(np.float32)), 4)
        assert block(chunks).shape == chunks.shape

    def test_permutation_is_involution(self, rng):
        x = Tensor(rng.standard_normal((3, 4, 5)))
        assert np.array_equal(x.transpose((1, 0, 2)).transpose((1, 0, 2)).data,
                              x.data)

    def test_shared_has_one_parameter_set(self):
        shared = self.make_block(shared=True, n_intra=4, n_inter=4)
        unshared = self.make_block(shared=False, n_intra=4, n_inter=4)
        shared_intra = sum(p.size for _, p in shared.intra.named_parameters())
        unshared_intra = sum(p.size for n, p in unshared.named_parameters()
                             if n.startswith("intra."))
        assert unshared_intra == 4 * shared_intra

    def test_bad_repetition_counts(self):
        with pytest.raises(ConfigError):
            self.make_block(shared=False, n_intra=0)

    def test_unshared_equals_shared_at_identical_init(self, rng):
        shared = self.make_block(shared=True, seed=3)
        unshared = self.make_block(shared=False, seed=4)
        for net in ("intra", "inter"):
            src = dict(getattr(shared, net).named_parameters())
            for layer in getattr(unshared, net):
                for name, p in layer.named_parameters():
                    p.data[:] = src[name].data
        chunks = segment(Tensor(rng.standard_normal((10, 8)).astype(np.float32)), 4)
        with no_grad():
            a = shared(chunks).data
            b = unshared(chunks).data
        assert np.array_equal(a, b)

    def test_shared_gradient_matches_finite_differences(self, rng):
        # reuse of one layer across iterations must sum the gradients
        block = self.make_block(shared=True, seed=5, dtype=np.float64)
        x = rng.standard_normal((10, 8))
        chunks = segment(Tensor(x), 4)
        proj = rng.standard_normal(chunks.shape)

        def loss_value():
            with no_grad():
                out = block(segment(Tensor(x), 4))
                return float(np.sum(out.data * proj))

        out = block(chunks)
        T.tsum(T.mul(out, Tensor(proj))).backward()
        params = list(block.parameters())
        coords = []
        pick = np.random.default_rng(7)
        for p in params:
            take = min(p.size, 6)
            for i in pick.choice(p.size, size=take, replace=False):
                coords.append((p, int(i)))
        worst = 0.0
        for p, i in coords:
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


class TestAttentionRecorder:
    """The attention maps each layer of a block records of its own input."""

    def test_keys_and_shapes(self, rng):
        # within-chunk maps span chunk frames, across-chunk maps span chunks
        block = DualPathBlock(path_cfg(), path_cfg(kernel=5), 2, 1, False,
                              np.random.default_rng(0))
        chunks = segment(Tensor(rng.standard_normal((10, 8)).astype(np.float32)), 4)
        n_chunks, size = chunks.shape[:2]
        with no_grad():
            slabs = {("intra", 0): list(block.intra[0].attention_maps(chunks))}
            h = block.intra[0](chunks)
            slabs["intra", 1] = list(block.intra[1].attention_maps(h))
            frames = T.swapaxes(block.intra[1](h), 0, 1)
            slabs["inter", 0] = list(block.inter[0].attention_maps(frames))
        assert all(len(s) == 1 for s in slabs.values())    # one slab each
        assert slabs["intra", 0][0].shape == (n_chunks, 2, size, size)
        assert slabs["intra", 1][0].shape == (n_chunks, 2, size, size)
        assert slabs["inter", 0][0].shape == (size, 2, n_chunks, n_chunks)

    def test_rows_sum_to_one(self, rng):
        block = DualPathBlock(path_cfg(), path_cfg(kernel=5), 1, 1, False,
                              np.random.default_rng(0))
        chunks = segment(Tensor(rng.standard_normal((10, 8)).astype(np.float32)), 4)
        with no_grad():
            intra, = block.intra[0].attention_maps(chunks)
            frames = T.swapaxes(block.intra[0](chunks), 0, 1)
            inter, = block.inter[0].attention_maps(frames)
        for grid in (intra, inter):
            assert np.allclose(grid.sum(axis=-1), 1.0, atol=1e-5)


class TestAttentionMaps:
    """A layer's attention maps of its input, slab by slab."""

    def test_slabs_within_budget_join_to_one_pass(self, rng, monkeypatch):
        layer = make_layer()
        h = Tensor(rng.standard_normal((2, 5, 3, 8)).astype(np.float32))
        budget = 4 * 2 * 3 * 16 * 4           # four sequences' (3, 16) pairs
        monkeypatch.setattr(blocks, "SLAB_BYTES", budget)
        with no_grad():
            slabs = list(layer.attention_maps(h))
            one = layer.attn(channel_split(h, 4, 4)[1])[1]
        assert [len(m) for m in slabs] == [4, 4, 2]
        assert max(m.nbytes for m in slabs) <= budget
        assert np.array_equal(np.concatenate(slabs), one.reshape((10, 2, 3, 3)))

    def test_layer_without_attention_is_a_config_error(self, rng):
        layer = make_layer(PathConfig(8, 0, 8, heads=1, kernel=3, ffn_dim=16))
        h = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
        with no_grad(), pytest.raises(ConfigError, match="no attention path"):
            next(layer.attention_maps(h))
