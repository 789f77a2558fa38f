"""Full separator assembly: preprocessing, block stack, mask head, decode."""

import os
import re
import sys
import threading
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from conftest import tiny_model_config

import casep.tensor as T
from casep import blocks
from casep import model as model_module
from casep.blocks import HybridLayer
from casep.checkpoint import model_state, save_checkpoint
from casep.codec import Decoder, EncoderConfig, Waveform
from casep.config import ModelConfig, PathConfig, default_model_config
from casep.model import Separator
from casep.tensor import ConfigError, ShapeError, Tensor, no_grad
from casep.training import dump_attention_run
from casep.wavio import write_wav


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
        assert np.all(masks.data >= 0.0)

    def test_mask_count_and_shape(self):
        model = tiny_model(speakers=3)
        latent, masks = model.masks_for(sample_input(model))
        assert masks.shape == (3,) + latent.shape

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
        assert np.any(masks.data[0] > 0.0)
        assert np.all(masks.data[1] == 0.0)


class TestForward:
    def test_estimate_count_and_length(self):
        model = tiny_model()
        estimates = model.forward(sample_input(model))
        _, masks = model.masks_for(sample_input(model))
        assert masks.shape[0] == 2
        assert estimates.shape == (2, 256)

    def test_batch_rows_equal_unbatched_forwards(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((3, 256)).astype(model.cfg.dtype)
        with no_grad():
            estimates = model.forward(Tensor(batch)).data
            _, masks = model.masks_for(Tensor(batch))
            for b in range(3):
                single = model.forward(Tensor(batch[b])).data
                _, single_masks = model.masks_for(Tensor(batch[b]))
                # each speaker's estimate and mask on its own scale
                for got, want in zip([*estimates[b], *masks.data[b]],
                                     [*single, *single_masks.data]):
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-6 * scale

    # kernel 16, stride 8: 263 samples give 31 latent frames whose windows
    # cover 256 samples, leaving 7 that no window reaches
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_unaligned_length_returned_with_zero_tail(self, lead):
        model = tiny_model()
        x = np.random.default_rng(4).standard_normal(lead + (263,))
        estimates = model.forward(Tensor(x.astype(model.cfg.dtype))).data
        assert estimates.shape == lead + (2, 263)
        assert np.all(estimates[..., 256:] == 0.0)
        assert np.all(np.any(estimates[..., :256] != 0.0, axis=-1))

    @pytest.mark.parametrize("graph", [True, False])
    @pytest.mark.parametrize("shape", [(0, 256), (2, 0, 256)])
    def test_empty_batch_names_its_shape(self, graph, shape):
        model = tiny_model()
        x = Tensor(np.zeros(shape, dtype=np.float32))
        with nullcontext() if graph else no_grad():
            for run in (model.forward, model.masks_for):
                with pytest.raises(ShapeError, match=re.escape(str(shape))):
                    run(x)

    def test_outputs_finite(self):
        model = tiny_model()
        estimates = model.forward(sample_input(model))
        assert np.all(np.isfinite(estimates.data))

    def test_doubling_masks_doubles_estimates(self):
        model = tiny_model(precision="double")
        x = sample_input(model)
        with no_grad():
            latent, masks = model.masks_for(x)
            one = model.decoder(masks, latent, 256).data
            two = model.decoder(Tensor(2.0 * masks.data), latent, 256).data
        assert np.allclose(two, 2.0 * one, rtol=1e-9, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = tiny_model(seed=11)
        b = tiny_model(seed=11)
        x = sample_input(a)
        with no_grad():
            ea = a.forward(x).data
            eb = b.forward(x).data
        assert np.array_equal(ea, eb)
        c = tiny_model(seed=12)
        with no_grad():
            ec = c.forward(x).data
        assert not np.array_equal(ea[0], ec[0])


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

    def test_layer_input_reaches_every_step(self):
        model = Separator.build(replace(tiny_model_config(), n_blocks=2, n_intra=2))
        x = Tensor(np.random.default_rng(2).standard_normal(300).astype(np.float32))
        with no_grad():
            running = model.layer_input(x, 0, "intra.0")[1]
            for b, block in enumerate(model.blocks):
                for name, want in block.steps().items():
                    step, h = model.layer_input(x, b, name)
                    assert step is want and np.array_equal(h.data, running.data)
                    running = step(h)         # the next step's input
        for block, name in ((0, "intra.2"), (2, "intra.0"), (0, "inter")):
            with pytest.raises(ConfigError, match="no step"):
                model.layer_input(x, block, name)


class TestTracedMemory:
    """What a no-graph ``masks_for`` keeps alive, traced by tracemalloc on a
    mid-size model (two blocks of two layers per direction) whose arrays are
    large beside the interpreter's own allocations."""

    @pytest.fixture
    def model(self):
        return Separator.build(ModelConfig(
            encoder=EncoderConfig(filters=64, kernel=16, stride=8),
            chunk_size=32, speakers=2, n_blocks=2, n_intra=2, n_inter=2,
            shared=False,
            intra=PathConfig(64, 32, 32, heads=4, kernel=9, ffn_dim=128),
            inter=PathConfig(64, 32, 32, heads=4, kernel=5, ffn_dim=128),
        ))

    @pytest.fixture
    def samples(self):
        return Tensor(np.random.default_rng(6).standard_normal(4000)
                      .astype(np.float32))

    @staticmethod
    def traced(run):
        """``run()``'s result, the traced bytes when it started, and the
        traced peak since the last ``tracemalloc.reset_peak``."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = run()
            return out, base, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_layers_start_with_one_activation(self, model, samples, monkeypatch):
        starts = []
        original = HybridLayer.__call__

        def spy(layer, h):
            starts.append((tracemalloc.get_traced_memory()[0], h.data.nbytes))
            return original(layer, h)

        monkeypatch.setattr(HybridLayer, "__call__", spy)
        with no_grad():
            (latent, _), base, _ = self.traced(lambda: model.masks_for(samples))
        assert len(starts) == 8
        # the latent and the layer's input, not the block's input as well;
        # a quarter of an activation of slack for small objects
        for start, activation in starts:
            assert start - base <= latent.data.nbytes + activation * 5 // 4

    def test_mask_stage_drops_head_input_before_join(self, model, samples,
                                                     monkeypatch):
        _, graph_masks = model.masks_for(samples)
        assert graph_masks.requires_grad
        flats = []
        original = model_module.overlap_add_slabs

        def spy(*args):
            flat = original(*args)
            flats.append(flat.data.nbytes)
            tracemalloc.reset_peak()          # the per-speaker stage starts
            return flat

        monkeypatch.setattr(model_module, "overlap_add_slabs", spy)
        with no_grad():
            (latent, masks), base, peak = self.traced(lambda: model.masks_for(samples))
        assert np.array_equal(masks.data, graph_masks.data)
        # the head's input is as large as the masks. While the second mask is
        # made: the latent, the head's input, the first mask and the second's
        # pair of (T, D) arrays; at the join: the latent and the masks twice,
        # the head's input freed. The slack holds a finiteness check's boolean
        # (T, D) array (mask / 4) and small objects.
        mask = masks.data.nbytes // model.cfg.speakers
        assert flats[0] == masks.data.nbytes
        bound = latent.data.nbytes + flats[0] + 3 * masks.data.nbytes // 2
        assert peak - base <= bound + mask // 2

    def test_three_speakers_match_with_and_without_graph(self):
        model = tiny_model(speakers=3)
        x = sample_input(model, n=300)
        latent, graph_masks = model.masks_for(x)
        with no_grad():
            free_latent, masks = model.masks_for(x)
        assert masks.shape == (3,) + latent.shape
        assert np.array_equal(free_latent.data, latent.data)
        assert np.array_equal(masks.data, graph_masks.data)


class TestSeedlessBuild:
    def test_holds_no_weight_memory(self):
        # a loader replaces every weight, so the zeros it builds are not stored
        model, base, peak = TestTracedMemory.traced(
            lambda: Separator.build(default_model_config(), seed=None))
        weight_bytes = sum(a.nbytes for a in model_state(model).values())
        assert peak - base < weight_bytes / 8


class TestSlabs:
    """Without graph recording, each layer runs its sequences in slabs."""

    # 300 samples give 8 chunks of 8 frames, so the intra and the inter
    # layers each see 8 sequences of length 8. Three sequences' (8, 64)
    # float32 feed-forward pair fill this budget: slabs of 3, 3 and 2.
    BUDGET = 3 * 2 * 8 * 64 * 4

    @pytest.fixture
    def weights(self, monkeypatch):
        """The attention weights of every kernel call, in call order."""
        calls = []
        original = T.attention

        def spy(q, k, v, heads, scale):
            out, probs = original(q, k, v, heads, scale)
            calls.append(probs)
            return out, probs

        monkeypatch.setattr(T, "attention", spy)
        return calls

    def wave(self):
        return Waveform(np.random.default_rng(2).standard_normal(300)
                        .astype(np.float32))

    def test_separate_equals_one_slab_run(self, weights, monkeypatch):
        monkeypatch.setattr(blocks, "worker_count", lambda: 1)
        model = tiny_model()
        x = Tensor(self.wave().samples)
        with no_grad():
            _, one = model.masks_for(x)
        one_maps = list(weights)
        assert [w.shape[0] for w in one_maps] == [8, 8]
        weights.clear()
        monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
        with no_grad():
            _, slabbed = model.masks_for(x)
        assert [w.shape[0] for w in weights] == [3, 3, 2, 3, 3, 2]
        assert max(w.nbytes for w in weights) <= self.BUDGET
        assert np.array_equal(slabbed.data, one.data)
        for layer, grid in enumerate(one_maps):
            assert np.array_equal(np.concatenate(weights[3 * layer : 3 * layer + 3]),
                                  grid), layer

    @pytest.mark.parametrize("fit", [5, 6, 7])
    def test_slabs_share_sequences_evenly(self, weights, monkeypatch, fit):
        # room for 5, 6 or 7 of a layer's 8 sequences: two slabs of 4 each,
        # not one full slab and the rest
        monkeypatch.setattr(blocks, "worker_count", lambda: 1)
        monkeypatch.setattr(blocks, "SLAB_BYTES", fit * self.BUDGET // 3)
        tiny_model().separate(self.wave())
        assert [w.shape[0] for w in weights] == [4, 4, 4, 4]

    def test_dump_is_the_same_for_any_slabs(self, weights, monkeypatch, tmp_path):
        model = tiny_model()
        ckpt = tmp_path / "tiny.tsep"
        save_checkpoint(ckpt, model.cfg, model_state(model))
        wav = tmp_path / "mix.wav"
        write_wav(wav, self.wave())

        def dump(name):
            return dump_attention_run(str(ckpt), str(wav), "0:inter:0:1",
                                      str(tmp_path / name)).read_bytes()

        one = dump("one")
        monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
        # the intra layer's slabs, then the inter maps' on the calling thread
        for workers, slabs in ((1, [3, 3, 2, 3, 3, 2]), (2, [1] * 8 + [3, 3, 2])):
            monkeypatch.setattr(blocks, "worker_count", lambda: workers)
            weights.clear()
            assert dump(f"workers{workers}") == one
            assert [w.shape[0] for w in weights] == slabs
            assert max(w.nbytes for w in weights) <= self.BUDGET

    def test_batched_forward_equals_one_slab_run(self, weights, monkeypatch):
        monkeypatch.setattr(blocks, "worker_count", lambda: 1)
        model = tiny_model()
        batch = Tensor(np.random.default_rng(3).standard_normal((2, 300))
                       .astype(np.float32))
        with no_grad():
            _, one_masks = model.masks_for(batch)
            one_maps = list(weights)
            weights.clear()
            monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
            _, masks = model.masks_for(batch)
        assert [w.shape[0] for w in weights] == [3] * 5 + [1] + [3] * 5 + [1]
        assert np.array_equal(masks.data, one_masks.data)
        # the one-pass run keeps the (2, 8) leading axes; slabs flatten them
        for layer, grid in enumerate(one_maps):
            assert grid.shape == (2, 8, 2, 8, 8)
            assert np.array_equal(np.concatenate(weights[6 * layer : 6 * layer + 6]),
                                  grid.reshape((16, 2, 8, 8))), layer

    @pytest.mark.parametrize("fit", [5, 6, 7])
    def test_mask_head_slabs_are_even(self, monkeypatch, fit):
        # room for 5, 6 or 7 of the head's 8 chunks, whose (8, 32) float32
        # output pair is 2048 bytes each: two slabs of 4 chunks, and the
        # same masks as one pass
        model = tiny_model()
        with no_grad():
            _, one = model.masks_for(Tensor(self.wave().samples))
        chunks = []
        original = model_module.overlap_add_slabs

        def spy(x, n_frames, fn, step):
            def counted(c):
                chunks.append(c.shape[-3])
                return fn(c)
            return original(x, n_frames, counted, step)

        monkeypatch.setattr(model_module, "overlap_add_slabs", spy)
        monkeypatch.setattr(blocks, "worker_count", lambda: 1)
        monkeypatch.setattr(blocks, "SLAB_BYTES", fit * 2 * 8 * 32 * 4)
        with no_grad():
            _, masks = model.masks_for(Tensor(self.wave().samples))
        assert chunks == [4, 4]
        assert np.array_equal(masks.data, one.data)

    def test_recording_graph_takes_one_pass(self, weights, monkeypatch):
        monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
        model = tiny_model()
        est = model.forward(Tensor(self.wave().samples))
        assert est.requires_grad
        assert [w.shape[0] for w in weights] == [8, 8]


class TestDumpStopsAtItsLayer:
    """``dump-attention`` runs the network up to the layer it names: no
    later step, no mask head and no decoder."""

    BLOCK = ["intra", "intra", "swap", "inter", "inter", "swap"]

    @pytest.mark.parametrize("selector, calls", [("0:intra:0:1", []),
                                                 ("1:inter:1:0", BLOCK + BLOCK[:4])])
    def test_runs_the_steps_before_its_layer(self, tmp_path, monkeypatch, selector,
                                             calls):
        cfg = replace(tiny_model_config(), n_blocks=2, n_intra=2, n_inter=2)
        ckpt, wav = tmp_path / "tiny.tsep", tmp_path / "mix.wav"
        save_checkpoint(ckpt, cfg, model_state(Separator.build(cfg)))
        write_wav(wav, Waveform(np.random.default_rng(2).standard_normal(300)
                                .astype(np.float32)))
        seen = []

        def spy(name, original):
            def call(*args):        # a layer is named by its direction
                seen.append(name or ("intra" if args[0].cfg == cfg.intra else "inter"))
                return original(*args)
            return call

        monkeypatch.setattr(HybridLayer, "__call__", spy(None, HybridLayer.__call__))
        monkeypatch.setattr(blocks, "_swap_chunks", spy("swap", blocks._swap_chunks))
        monkeypatch.setattr(model_module, "overlap_add_slabs",
                            spy("head", model_module.overlap_add_slabs))
        monkeypatch.setattr(Decoder, "__call__", spy("decoder", Decoder.__call__))
        dump_attention_run(str(ckpt), str(wav), selector, str(tmp_path / "maps"))
        assert seen == calls


class TestSlabPool:
    """With two workers, a layer run without graph recording spreads its
    slabs over the calling thread and one pool thread."""

    # Each worker's budget, half of it, holds one sequence's (8, 64)
    # float32 feed-forward pair: eight slabs of one per layer.
    BUDGET = 2 * 2 * 8 * 64 * 4

    @pytest.fixture
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(blocks, "worker_count", lambda: 2)

    @staticmethod
    def meet(monkeypatch, change=None):
        """Spy on the layer body: returns the thread of every call. Each of
        the first two threads waits at a barrier in its first call, so both
        must run a slab; ``change(h)``, if given, replaces the input of the
        pool thread's first slab."""
        threads = []
        caller = threading.current_thread()
        barrier = threading.Barrier(2, timeout=30)
        original = HybridLayer._body

        def spy(layer, h):
            thread = threading.current_thread()
            first = thread not in threads
            threads.append(thread)
            if first and len(set(threads)) <= 2:
                barrier.wait()
                if change is not None and thread is not caller:
                    with np.errstate(over="ignore", invalid="ignore"):
                        return original(layer, change(h))
            return original(layer, h)

        monkeypatch.setattr(HybridLayer, "_body", spy)
        return threads

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def fail(threads):
            raise AssertionError("a layer started the slab pool")

        monkeypatch.setattr(blocks, "_helpers", fail)

    def wave(self, n=300):
        return Waveform(np.random.default_rng(2).standard_normal(n)
                        .astype(np.float32))

    def test_separate_equals_one_pass(self, two_workers, monkeypatch):
        model = tiny_model()
        one = model.separate(self.wave())
        monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
        threads = self.meet(monkeypatch)
        pooled = model.separate(self.wave())
        assert len(threads) == 16 and len(set(threads)) == 2
        for got, want in zip(pooled, one):
            assert np.array_equal(got.samples, want.samples)

    def test_batched_forward_equals_one_pass(self, two_workers, monkeypatch):
        model = tiny_model()
        batch = Tensor(np.random.default_rng(3).standard_normal((2, 300))
                       .astype(np.float32))
        with no_grad():
            one = model.forward(batch).data
            monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
            threads = self.meet(monkeypatch)
            pooled = model.forward(batch).data
        assert len(threads) == 32 and len(set(threads)) == 2
        assert np.array_equal(pooled, one)

    def test_pool_thread_records_no_graph(self, two_workers, monkeypatch):
        # the caller's no_grad is its own thread's: the pool thread enters
        # no_grad itself, so no slab's attention builds a graph
        modes = []
        original = T.attention

        def spy(*args):
            modes.append(T.grad_enabled())
            return original(*args)

        monkeypatch.setattr(T, "attention", spy)
        monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
        threads = self.meet(monkeypatch)
        tiny_model().separate(self.wave())
        assert len(set(threads)) == 2 and modes == [False] * 16

    def test_graph_and_small_inputs_start_no_pool(self, two_workers, no_pool,
                                                  monkeypatch):
        model = tiny_model()
        model.separate(self.wave())   # fits one worker's budget
        monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
        assert model.forward(Tensor(self.wave().samples)).requires_grad

    def test_worker_error_reaches_caller(self, two_workers, monkeypatch):
        model = tiny_model()
        monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
        original = HybridLayer._body
        # past float32 range after the first projection
        self.meet(monkeypatch, lambda h: Tensor(np.full(h.shape, 3e38, h.dtype)))
        with pytest.raises(T.NonFiniteError, match="linear produced"):
            model.separate(self.wave())
        monkeypatch.setattr(HybridLayer, "_body", original)
        model.separate(self.wave())   # the pool still works

    def test_pool_persists_across_calls(self, two_workers, monkeypatch):
        # a pool made per call would give each call new threads, each with
        # its own malloc arena holding memory after the call
        model = tiny_model()
        monkeypatch.setattr(blocks, "SLAB_BYTES", self.BUDGET)
        original = HybridLayer._body
        helpers = []
        for _ in range(2):
            threads = self.meet(monkeypatch)
            model.separate(self.wave())
            helpers.append(set(threads) - {threading.current_thread()})
            monkeypatch.setattr(HybridLayer, "_body", original)
        assert len(helpers[0]) == 1 and helpers[1] == helpers[0]
        assert blocks._helpers(1) is blocks._helpers(1)

    def test_no_start_after_an_error(self):
        # each thread takes one start; start 0 fails while the other thread
        # is still on start 1, which then finds nothing left to take
        ran = []
        barrier = threading.Barrier(2, timeout=30)

        def run(start):
            ran.append(start)
            barrier.wait()
            if start == 0:
                raise ValueError("slab 0")
            time.sleep(0.2)

        with pytest.raises(ValueError, match="slab 0"):
            blocks._run_slabs(run, range(10), 2)
        assert sorted(ran) == [0, 1]

    def test_runner_leaves_the_graph_mode_to_run(self):
        # each thread takes one start; a pool thread starts recording, as
        # every thread does, and the runner does not switch it off
        modes = {}
        barrier = threading.Barrier(2, timeout=30)

        def run(start):
            barrier.wait()
            modes[start] = T.grad_enabled()

        assert T.grad_enabled()
        blocks._run_slabs(run, range(2), 2)
        assert modes == {0: True, 1: True}

    def test_each_slab_runs_once_under_contention(self):
        # more workers than cores, each yielding after every call, with the
        # interpreter switching threads as often as it can: a start handed
        # out twice or lost shows here
        ran = []

        def run(start):
            ran.append(start)
            time.sleep(0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocks._run_slabs(run, range(2000), 4)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(2000))

    @pytest.mark.parametrize("cpus, env, workers", [
        (4, {}, 1),                                       # BLAS uses every CPU
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 4),
        (4, {"OMP_NUM_THREADS": "2"}, 2),
        (4, {"MKL_NUM_THREADS": "3"}, 1),
        (4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        (4, {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 4),
        (4, {"MKL_NUM_THREADS": "many"}, 1),
        (4, {"OMP_NUM_THREADS": "0"}, 1),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),            # taskset -c 0
        (2, {"OMP_NUM_THREADS": "1"}, 2),
        (4, {"OPENBLAS_NUM_THREADS": "\u00b2"}, 1),       # a digit int() rejects
    ])
    def test_worker_count_rule(self, monkeypatch, cpus, env, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for var in blocks.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert blocks.worker_count() == workers


class TestParameterSets:
    def test_block_count_scales_parameter_sets(self):
        cfg2 = replace(tiny_model_config(), n_blocks=2)
        two = Separator(cfg2, np.random.default_rng(0))
        one = tiny_model()
        delta = two.param_count() - one.param_count()
        per_block = sum(p.size for _, p in one.blocks[0].named_parameters())
        assert delta == per_block

    def test_sharing_reduces_unique_parameters(self):
        cfg_shared = replace(tiny_model_config(shared=True), n_intra=3, n_inter=3)
        cfg_full = replace(tiny_model_config(shared=False), n_intra=3, n_inter=3)
        shared = Separator(cfg_shared, np.random.default_rng(0))
        full = Separator(cfg_full, np.random.default_rng(0))
        assert shared.param_count() < full.param_count()
        shared_block = sum(p.size for p in shared.blocks[0].parameters())
        full_block = sum(p.size for p in full.blocks[0].parameters())
        assert full_block == 3 * shared_block
