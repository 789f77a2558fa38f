"""Training harness: runs, resume, abort, gradient check, eval, dumps."""

import numpy as np
import pytest
from conftest import smoke_entries, smoke_model_config, tiny_model_config, \
    two_sine_spec

import casep.tensor as T
from casep import chunking
from casep.checkpoint import load_checkpoint, load_separator, model_state
from casep.codec import Decoder
from casep.config import EvalSettings, parse_flat, synthetic_spec_from_flat
from casep.model import Separator
from casep.nn import MultiHeadAttention
from casep.tensor import ConfigError
from casep.training import (
    dump_attention_run,
    eval_model,
    eval_run,
    example_loss,
    grad_check_report,
    grad_check_run,
    mixture_arrays,
    parse_selector,
    separate_files,
    train_run,
)
from casep.wavio import write_wav


class TestTrainRun:
    def test_short_run_artifacts(self, tmp_path):
        result = train_run(smoke_entries(tmp_path, steps=12))
        assert len(result.losses) == 12
        assert result.start_step == 0 and result.end_step == 12
        assert np.all(np.isfinite(result.losses))
        assert result.checkpoint_path.exists()
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.kv").exists()
        logged = [float(v) for v in
                  (tmp_path / "losses.txt").read_text().split()]
        assert logged == pytest.approx(result.losses, abs=1e-9)

    def test_report_kv_contents(self, tmp_path):
        entries = smoke_entries(tmp_path, steps=6)
        result = train_run(entries)
        kv = parse_flat((tmp_path / "report.kv").read_text())
        assert kv["run.steps"] == "6"
        assert kv["run.config_hash"] == result.config_hash
        assert float(kv["run.final_loss"]) == pytest.approx(result.losses[-1],
                                                            abs=1e-9)
        # the final pass over the first 8 training mixtures, reloaded
        model, _ = load_separator(result.checkpoint_path)
        spec = synthetic_spec_from_flat(entries, 2, 8000)
        final = eval_model(model, spec, EvalSettings(count=8, seed=spec.seed))
        assert kv["run.train_si_snri_db"] == f"{final.si_snri_mean:.6f}"
        assert kv["run.train_sdri_db"] == f"{final.sdri_mean:.6f}"
        text = (tmp_path / "report.txt").read_text()
        assert f"train SDRi     {final.sdri_mean:+.2f} dB" in text

    def test_checkpoint_records_run_metadata(self, tmp_path):
        result = train_run(smoke_entries(tmp_path, steps=4))
        _, entries, tensors = load_checkpoint(result.checkpoint_path)
        assert entries["trained.steps"] == "4"
        assert entries["trained.data_seed"] == "0"
        assert float(tensors["optim.step"][0]) == 4.0

    def test_deterministic_repeat(self, tmp_path):
        a = train_run(smoke_entries(tmp_path / "a", steps=10))
        b = train_run(smoke_entries(tmp_path / "b", steps=10))
        assert a.losses == b.losses

    def test_zero_steps_still_writes_checkpoint(self, tmp_path):
        result = train_run(smoke_entries(tmp_path, steps=0))
        assert result.losses == []
        assert result.checkpoint_path.exists()

    def test_echo_reports_progress(self, tmp_path):
        lines = []
        train_run(smoke_entries(tmp_path, steps=3), echo=lines.append)
        assert any(line.startswith("step ") for line in lines)

    def test_divergence_aborts_with_step_number(self, tmp_path):
        entries = smoke_entries(tmp_path, steps=5,
                                extra={"train.lr": "1e12"})
        with np.errstate(all="ignore"), \
                pytest.raises(RuntimeError, match="training aborted at step"):
            train_run(entries)

    def test_one_graph_for_any_batch(self, monkeypatch):
        # a training step builds one forward and one loss for the whole
        # batch, so its node count does not grow with the batch size
        model = Separator.build(smoke_model_config(), 0)
        nodes = []
        original = T._from_op

        def counting(data, parents, backward):
            nodes.append(backward)
            return original(data, parents, backward)

        monkeypatch.setattr(T, "_from_op", counting)
        monkeypatch.setattr(chunking, "_from_op", counting)
        counts = {}
        for batch in (1, 4):
            mix, sources = mixture_arrays(two_sine_spec(), range(batch), np.float32)
            assert mix.shape == (batch, 512)
            nodes.clear()
            example_loss(model, mix, sources).loss.backward()
            counts[batch] = len(nodes)
        assert counts[1] == counts[4], counts


class TestResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        full = train_run(smoke_entries(tmp_path / "full", steps=10))
        part = train_run(smoke_entries(tmp_path / "part", steps=5))
        entries = smoke_entries(tmp_path / "part", steps=10)
        cont = train_run(entries, resume=str(part.checkpoint_path))
        assert cont.start_step == 5 and cont.end_step == 10
        # same stream indices, same optimizer state: bit-exact continuation
        assert cont.losses == full.losses[5:]
        _, _, full_t = load_checkpoint(full.checkpoint_path)
        _, _, cont_t = load_checkpoint(cont.checkpoint_path)
        for name in full_t:
            assert np.array_equal(full_t[name], cont_t[name]), name

    def test_resume_config_mismatch_rejected(self, tmp_path):
        part = train_run(smoke_entries(tmp_path, steps=2))
        entries = smoke_entries(tmp_path, steps=4,
                                extra={"model.chunk_size": "4"})
        with pytest.raises(ConfigError, match="different model config"):
            train_run(entries, resume=str(part.checkpoint_path))


class TestGradCheck:
    def test_tiny_model_passes(self):
        cfg = tiny_model_config(precision="double")
        res = grad_check_run(cfg, two_sine_spec(length=256), seed=0)
        assert res.passed(1e-5)
        assert res.coords_checked >= 200
        model = Separator.build(cfg, 0)
        assert res.groups_covered == len(model.parameters())

    def test_single_precision_config_is_checked_in_double(self):
        spec = two_sine_spec(length=256)
        single = grad_check_run(tiny_model_config(), spec, min_coords=30)
        double = grad_check_run(tiny_model_config(precision="double"), spec,
                                min_coords=30)
        assert single == double

    def test_report_text(self):
        cfg = tiny_model_config(precision="double")
        res = grad_check_run(cfg, two_sine_spec(length=256), seed=0,
                             min_coords=30)
        text = grad_check_report(res)
        assert "PASS" in text and "max relative error" in text


class TestEval:
    def test_eval_after_training(self, tmp_path):
        trained = train_run(smoke_entries(tmp_path, steps=4))
        entries = smoke_entries(tmp_path, steps=4)
        res, report_path = eval_run(str(trained.checkpoint_path), entries)
        assert res.count == 16
        assert np.isfinite(res.si_snri_mean) and np.isfinite(res.sdri_mean)
        assert report_path.exists()
        kv = parse_flat((tmp_path / "eval_report.kv").read_text())
        assert float(kv["eval.si_snri_mean_db"]) == pytest.approx(
            res.si_snri_mean, abs=1e-5)

    def test_eval_seed_must_differ_from_training(self, tmp_path):
        trained = train_run(smoke_entries(tmp_path, steps=2))
        entries = smoke_entries(tmp_path, steps=2, extra={"eval.seed": "0"})
        with pytest.raises(ConfigError, match="held-out"):
            eval_run(str(trained.checkpoint_path), entries)


class TestSeparateFiles:
    def make_checkpoint(self, tmp_path):
        return train_run(smoke_entries(tmp_path, steps=0)).checkpoint_path

    def test_writes_one_file_per_speaker(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path)
        from casep.codec import Waveform
        from casep.synth import gen_mixture

        mix, _ = gen_mixture(two_sine_spec(), 0)
        wav_path = tmp_path / "mix.wav"
        write_wav(wav_path, Waveform(0.2 * mix.samples, 8000))
        paths = separate_files(str(ckpt), str(wav_path), str(tmp_path / "out"))
        assert [p.name for p in paths] == ["mix_src1.wav", "mix_src2.wav"]
        for p in paths:
            assert p.exists()

    def test_sample_rate_mismatch_names_policy(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path)
        from casep.codec import Waveform

        wav_path = tmp_path / "wrong_rate.wav"
        write_wav(wav_path, Waveform(np.zeros(512), 16000))
        with pytest.raises(ConfigError, match="resampling is not performed"):
            separate_files(str(ckpt), str(wav_path), str(tmp_path / "out"))


class TestAttentionSelector:
    def test_parse_valid(self):
        assert parse_selector("1:inter:0:3") == (1, "inter", 0, 3)

    def test_wrong_field_count(self):
        with pytest.raises(ConfigError, match="block:net:iteration:head"):
            parse_selector("1:intra:0")

    def test_bad_net(self):
        with pytest.raises(ConfigError, match="intra or inter"):
            parse_selector("0:middle:0:0")

    def test_non_integer(self):
        with pytest.raises(ConfigError, match="non-integer"):
            parse_selector("a:intra:0:0")


class TestDumpAttention:
    @pytest.fixture
    def setup(self, tmp_path):
        ckpt = train_run(smoke_entries(tmp_path, steps=0)).checkpoint_path
        from casep.codec import Waveform
        from casep.synth import gen_mixture

        mix, _ = gen_mixture(two_sine_spec(), 0)
        wav_path = tmp_path / "mix.wav"
        write_wav(wav_path, Waveform(0.2 * mix.samples, 8000))
        return str(ckpt), str(wav_path), tmp_path

    def test_dump_rows_are_stochastic(self, setup):
        ckpt, wav_path, tmp_path = setup
        out = dump_attention_run(ckpt, wav_path, "0:intra:0:1",
                                 str(tmp_path / "maps"))
        assert out.name == "attention_b0_intra_i0_h1.txt"
        grid = np.loadtxt(out)
        assert grid.shape[0] == grid.shape[1]
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-5)

    def test_dump_equals_unfused_softmax(self, setup, monkeypatch):
        ckpt, wav_path, tmp_path = setup
        inputs = []
        original = MultiHeadAttention.__call__

        def spy(mha, x):
            inputs.append((mha, x.data.copy()))
            return original(mha, x)

        monkeypatch.setattr(MultiHeadAttention, "__call__", spy)
        grid = np.loadtxt(dump_attention_run(ckpt, wav_path, "0:intra:0:1",
                                             str(tmp_path / "maps")))
        mha, x = inputs[0]     # the first layer run is block 0, intra 0

        def heads(w):
            z = (x @ w.data).reshape(x.shape[:-1] + (mha.heads, mha.head_dim))
            return np.swapaxes(z, -2, -3)

        scores = heads(mha.wq) @ np.swapaxes(heads(mha.wk), -1, -2) * mha.scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-6)
        assert np.abs(grid - probs[:, 1].mean(axis=0)).max() < 1e-6

    def test_dump_does_not_decode(self, setup, monkeypatch):
        ckpt, wav_path, tmp_path = setup
        calls = []
        original = Decoder.__call__

        def spy(decoder, *args):
            calls.append(args)
            return original(decoder, *args)

        monkeypatch.setattr(Decoder, "__call__", spy)
        dump_attention_run(ckpt, wav_path, "0:intra:0:1", str(tmp_path / "maps"))
        assert calls == []
        separate_files(ckpt, wav_path, str(tmp_path / "sep"))
        assert len(calls) == 1    # the spy sees a decode

    def test_map_extents_follow_layout(self, setup):
        # within-chunk maps span the chunk size, across-chunk maps the count
        ckpt, wav_path, tmp_path = setup
        cfg, _, _ = load_checkpoint(ckpt)
        intra = np.loadtxt(dump_attention_run(ckpt, wav_path, "0:intra:0:0",
                                              str(tmp_path / "m1")))
        inter = np.loadtxt(dump_attention_run(ckpt, wav_path, "0:inter:0:0",
                                              str(tmp_path / "m2")))
        assert intra.shape == (cfg.chunk_size, cfg.chunk_size)
        assert inter.shape[0] != cfg.chunk_size

    def test_block_out_of_range(self, setup):
        ckpt, wav_path, tmp_path = setup
        with pytest.raises(ConfigError, match="block 5 out of range"):
            dump_attention_run(ckpt, wav_path, "5:intra:0:0",
                               str(tmp_path / "maps"))

    def test_iteration_out_of_range(self, setup):
        ckpt, wav_path, tmp_path = setup
        with pytest.raises(ConfigError, match="iteration 9 out of range"):
            dump_attention_run(ckpt, wav_path, "0:intra:9:0",
                               str(tmp_path / "maps"))

    def test_head_out_of_range(self, setup):
        ckpt, wav_path, tmp_path = setup
        with pytest.raises(ConfigError, match="head 7 out of range"):
            dump_attention_run(ckpt, wav_path, "0:intra:0:7",
                               str(tmp_path / "maps"))

    def test_conv_only_net_has_no_maps(self, tmp_path):
        entries = smoke_entries(tmp_path, steps=0, extra={
            "intra.attn_channels": "0",
            "intra.conv_channels": "16",
            "intra.heads": "1",
        })
        ckpt = train_run(entries).checkpoint_path
        from casep.codec import Waveform

        wav_path = tmp_path / "z.wav"
        write_wav(wav_path, Waveform(0.1 * np.sin(np.arange(512) / 5), 8000))
        with pytest.raises(ConfigError, match="no attention path"):
            dump_attention_run(str(ckpt), str(wav_path), "0:intra:0:0",
                               str(tmp_path / "maps"))
