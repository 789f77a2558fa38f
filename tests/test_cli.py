"""Command-line entry points, driven through main(argv)."""

import argparse
import struct

import numpy as np
import pytest
from conftest import SMOKE_CONFIG_TEXT, two_sine_spec

from casep import blocks, cli, codec, nn, training
from casep.checkpoint import load_checkpoint, model_state, save_checkpoint
from casep.cli import build_parser, main
from casep.codec import Waveform
from casep.config import model_config_from_flat, parse_flat
from casep.metrics import MAX_SPEAKERS
from casep.model import Separator
from casep.synth import gen_mixture
from casep.wavio import read_wav, write_wav


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    text = SMOKE_CONFIG_TEXT + f"train.out_dir = {tmp_path / 'run'}\n"
    text = text.replace("train.steps = 500", "train.steps = 4")
    path.write_text(text)
    return path


@pytest.fixture
def trained(tmp_path, config_file, capsys):
    assert main(["train", str(config_file)]) == 0
    capsys.readouterr()
    return tmp_path / "run" / "model.tsep"


def set_keys(path, edits):
    """Rewrite the config at ``path`` with the ``key = value`` lines of
    ``edits`` in place of the lines that set the same keys."""
    keys = {line.split("=", 1)[0].strip() for line in edits.splitlines()}
    kept = [line for line in path.read_text().splitlines(keepends=True)
            if line.split("=", 1)[0].strip() not in keys]
    path.write_text("".join(kept) + edits)


def assert_one_line_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err


@pytest.fixture
def draws(monkeypatch):
    """The shape of every weight drawn from a random generator."""
    shapes = []
    original = nn.uniform_param

    def spy(rng, shape, fan_in, dtype):
        if rng is not None:
            shapes.append(shape)
        return original(rng, shape, fan_in, dtype)

    for module in (nn, blocks, codec):
        monkeypatch.setattr(module, "uniform_param", spy)
    return shapes


def test_flag_census():
    # every option a subcommand accepts; a new one must be added here
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    flags = {(name, option)
             for name, parser in subcommands.items()
             for action in parser._actions
             for option in action.option_strings
             if option not in ("-h", "--help")}
    assert flags == {("train", "--resume"),
                     ("grad-check", "--seed"), ("grad-check", "--coords"),
                     ("count-params", "--kv")}


@pytest.mark.parametrize("argv", [["train"], ["grad-check", "x.cfg", "--seed", "x"],
                                  ["frobnicate"]])
def test_usage_error_is_a_cli_error(argv, capsys):
    assert_one_line_error(main(argv), capsys)


def test_help_is_not_an_error(capsys):
    with pytest.raises(SystemExit, match="^0$"):
        main(["train", "--help"])
    assert capsys.readouterr().out.startswith("usage: casep train")


@pytest.fixture
def mixture_wav(tmp_path):
    mix, _ = gen_mixture(two_sine_spec(), 0)
    path = tmp_path / "mix.wav"
    write_wav(path, Waveform(0.2 * mix.samples, 8000))
    return path


class TestTrain:
    def test_trains_and_echoes(self, config_file, tmp_path, capsys):
        assert main(["train", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert "step " in out and "training run" in out
        assert (tmp_path / "run" / "model.tsep").exists()

    @staticmethod
    def more_steps(config_file):
        """The config with train.steps raised from 4 to 6, so a resume from
        the 4-step run has steps left."""
        config_file.write_text(config_file.read_text().replace(
            "train.steps = 4", "train.steps = 6"))

    def test_resume_flag(self, config_file, trained, capsys):
        self.more_steps(config_file)
        assert main(["train", str(config_file), "--resume", str(trained)]) == 0
        assert "steps          4 -> 6" in capsys.readouterr().out

    def test_resume_with_no_step_left_writes_nothing(self, config_file, trained,
                                                     capsys):
        run = trained.parent
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        code = main(["train", str(config_file), "--resume", str(trained)])
        line = assert_one_line_error(code, capsys)
        assert "the checkpoint is at step 4 and train.steps is 4" in line
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_resume_without_optimizer_state_is_a_cli_error(self, config_file,
                                                          tmp_path, capsys):
        cfg = model_config_from_flat(parse_flat(config_file.read_text()))
        weights = tmp_path / "weights.tsep"
        save_checkpoint(weights, cfg, model_state(Separator.build(cfg, 0)))
        code = main(["train", str(config_file), "--resume", str(weights)])
        assert "lacks optimizer state: optim.step" in assert_one_line_error(code, capsys)

    def test_resume_from_nan_weight_is_a_cli_error(self, config_file, trained,
                                                  capsys):
        cfg, entries, tensors = load_checkpoint(trained)
        tensors["mask_out.1.bias"][3] = np.nan
        save_checkpoint(trained, cfg, tensors)
        code = main(["train", str(config_file), "--resume", str(trained)])
        line = assert_one_line_error(code, capsys)
        assert f"{trained}: checkpoint weight mask_out.1.bias is non-finite" in line

    @pytest.mark.parametrize("name, value, named", [
        ("optim.step", 2.4, "optim.step must hold one integer in [0, 16777216], got [2.4]"),
        ("optim.step", -3.0, "optim.step must hold one integer in [0, 16777216], got [-3.]"),
        ("optim.step", np.nan, "optim.step must hold one integer in [0, 16777216], got [nan]"),
        ("optim.step", 2.0 ** 24 + 2, "optim.step must hold one integer"),
        ("optim.m.mask_out.1.bias", np.nan, "optim.m.mask_out.1.bias is non-finite"),
        ("optim.v.pre_norm.gamma", -1.0, "optim.v.pre_norm.gamma must be finite and >= 0"),
        ("optim.v.pre_norm.gamma", np.inf, "optim.v.pre_norm.gamma must be finite and >= 0"),
    ])
    def test_resume_from_corrupt_optimizer_state_is_a_cli_error(
            self, config_file, trained, tmp_path, capsys, name, value, named):
        # blamed on the file, before a step runs or an output directory is made
        cfg, entries, tensors = load_checkpoint(trained)
        tensors[name].flat[0] = value
        save_checkpoint(trained, cfg, tensors)
        set_keys(config_file, f"train.steps = 6\ntrain.out_dir = {tmp_path / 'more'}\n")
        code = main(["train", str(config_file), "--resume", str(trained)])
        line = assert_one_line_error(code, capsys)
        assert line.startswith(f"error: {trained}: optimizer state ") and named in line
        assert not (tmp_path / "more").exists()

    def test_steps_past_float32_integers_is_a_cli_error(self, config_file, tmp_path,
                                                       capsys, monkeypatch):
        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "mixture_arrays", no_step)
        set_keys(config_file, "train.steps = 16777217\n")
        code = main(["train", str(config_file)])
        line = assert_one_line_error(code, capsys)
        assert "train: steps must be <= 16777216, got 16777217" in line
        assert not (tmp_path / "run").exists()

    def test_resume_draws_no_weights(self, config_file, trained, draws, capsys):
        cfg = model_config_from_flat(parse_flat(config_file.read_text()))
        Separator.build(cfg, 0)
        assert draws    # the spy sees a seeded build
        draws.clear()
        self.more_steps(config_file)
        assert main(["train", str(config_file), "--resume", str(trained)]) == 0
        assert draws == []

    @pytest.mark.parametrize("edits, named", [
        ("data.kind = noise_band\ndata.length = 16\ndata.bands = 100-110; 1000-2000\n",
         "data: band 100.0-110.0 holds no frequency bin"),
        ("data.level_db_lo = nan\n", "data: level_db_lo nan"),
        ("data.level_db_hi = 7000\n", "data: level_db_hi 7000.0"),
        ("train.lr = nan\n", "train: lr must be positive and finite, got nan"),
        ("train.eps = nan\n", "train: eps must be positive and finite, got nan"),
        ("train.eps = -1e-8\n", "train: eps must be positive and finite, got -1e-08"),
        ("model.chunksize = 8\n", "unknown config key model.chunksize"),
        ("intra.width = 16\n", "unknown config key intra.width"),
        ("data.sample_rate = 16000\n", "unknown config key data.sample_rate"),
        ("train.step = 3\n", "unknown config key train.step"),
        ("train.length_cap = 256\n", "unknown config key train.length_cap"),
        ("intra.kernel = -1\n", "intra: conv kernel must be positive and odd, got -1"),
        ("intra.heads = 3\n", "intra: heads 3 must divide attention channels 8"),
        ("model.chunk_size = 7\n", "model: chunk size must be even and >= 2, got 7"),
        ("trian.steps = 5\n", "unknown config section in key trian.steps"),
        ("train.seed = -1\n", "train: seed must be >= 0, got -1"),
        ("data.seed = -5\n", "data: seed must be >= 0, got -5"),
        # numpy's overflow warnings before the abort stay off stderr
        ("train.lr = 1e30\n", "training aborted at step 1: linear produced"),
    ], ids=["empty_noise_band", "nan_level", "huge_level", "nan_lr", "nan_eps",
            "negative_eps", "model_typo", "intra_typo", "data_typo", "train_typo",
            "length_cap", "negative_kernel", "heads_split", "odd_chunk", "section_typo",
            "negative_train_seed", "negative_data_seed", "diverging_lr"])
    def test_bad_setting_is_a_cli_error(self, config_file, capsys, edits, named):
        set_keys(config_file, edits)
        code = main(["train", str(config_file)])
        assert named in assert_one_line_error(code, capsys)

    @pytest.mark.parametrize("command, edits", [
        ("train", "intra.ffn_dim = 4611686018427387904\n"),
        ("count-params", "intra.ffn_dim = 4611686018427387904\n"),
        ("train", "data.length = 4611686018427387904\n"),
    ], ids=["train_ffn", "count_params_ffn", "train_length"])
    def test_array_too_big_to_index_is_a_cli_error(self, config_file, capsys,
                                                   command, edits):
        # numpy refuses these shapes before it allocates anything
        set_keys(config_file, edits)
        assert_one_line_error(main([command, str(config_file)]), capsys)

    def test_too_many_speakers_to_train_writes_nothing(self, config_file, tmp_path,
                                                       capsys):
        set_keys(config_file, "model.speakers = 5\n"
                 "data.bands = 200-400; 500-700; 1000-1400; 2000-2400; 3000-3400\n")
        code = main(["train", str(config_file)])
        line = assert_one_line_error(code, capsys)
        assert f"model.speakers = 5: training supports at most {MAX_SPEAKERS}" in line
        assert not (tmp_path / "run").exists()
        # only the assignment search is limited
        assert main(["count-params", str(config_file)]) == 0

    @pytest.mark.parametrize("edits", ["data.length = 4611686018427387904\n",
                                       "train.lr = 1e30\n"],
                             ids=["train_length", "diverging_lr"])
    def test_failed_run_leaves_no_out_dir(self, config_file, tmp_path, capsys, edits):
        # both fail after the out_dir and its missing parent are made
        set_keys(config_file, edits + f"train.out_dir = {tmp_path / 'new' / 'run'}\n")
        assert_one_line_error(main(["train", str(config_file)]), capsys)
        assert not (tmp_path / "new").exists()

    def test_failed_run_keeps_an_existing_out_dir(self, config_file, tmp_path, capsys):
        (tmp_path / "run").mkdir()
        set_keys(config_file, "data.length = 4611686018427387904\n")
        assert_one_line_error(main(["train", str(config_file)]), capsys)
        assert (tmp_path / "run").is_dir()

    @pytest.mark.parametrize("edits, named", [
        ("train.beta1 = 1.5\n", "train: beta1 must lie in [0, 1), got 1.5"),
        ("train.beta2 = nan\n", "train: beta2 must lie in [0, 1), got nan"),
    ], ids=["train.beta1 = 1.5\n", "train.beta2 = nan\n"])
    def test_bad_beta_creates_no_out_dir(self, config_file, tmp_path, capsys, edits,
                                         named):
        config_file.write_text(config_file.read_text() + edits)
        code = main(["train", str(config_file)])
        assert named in assert_one_line_error(code, capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 745. GiB", "error: out of memory: Unable to allocate 745. GiB\n"),
        ("", "error: out of memory\n"),
    ])
    def test_out_of_memory_is_a_cli_error(self, config_file, monkeypatch, capsys,
                                          message, line):
        # a stand-in for numpy's allocation error: nothing is allocated
        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "train_run", fail)
        assert assert_one_line_error(main(["train", str(config_file)]), capsys) == line

    def test_non_utf8_config_is_a_cli_error(self, config_file, capsys):
        config_file.write_bytes(config_file.read_bytes() + b"# \xff\xfe\n")
        code = main(["count-params", str(config_file)])
        line = assert_one_line_error(code, capsys)
        assert f"{config_file}: config file is not UTF-8" in line

    def test_missing_config_is_a_cli_error(self, capsys):
        assert main(["train", "/nonexistent.cfg"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSeparate:
    def test_writes_sources(self, trained, mixture_wav, tmp_path, capsys):
        outdir = tmp_path / "sep"
        assert main(["separate", str(trained), str(mixture_wav),
                     str(outdir)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        for line in printed:
            wav = read_wav(line)
            assert len(wav) == len(read_wav(mixture_wav))

    def test_unaligned_wav_keeps_its_length(self, trained, tmp_path, capsys):
        # kernel 4, stride 2: the decoder's windows cover 512 of 513 samples
        mix, _ = gen_mixture(two_sine_spec(length=513), 0)
        path = tmp_path / "odd.wav"
        write_wav(path, Waveform(0.2 * mix.samples, 8000))
        assert main(["separate", str(trained), str(path), str(tmp_path / "sep")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        for line in printed:
            wav = read_wav(line)
            assert len(wav) == 513 and wav.samples[-1] == 0.0

    def test_too_short_wav_is_a_cli_error(self, trained, tmp_path, capsys):
        short = tmp_path / "two_samples.wav"
        write_wav(short, Waveform(np.array([0.1, -0.1]), 8000))
        code = main(["separate", str(trained), str(short), str(tmp_path / "sep")])
        assert_one_line_error(code, capsys)

    def test_corrupt_checkpoint_text_is_a_cli_error(self, trained, mixture_wav,
                                                    tmp_path, capsys):
        blob = bytearray(trained.read_bytes())
        blob[12] = 0xFF    # first byte of the embedded config text
        trained.write_bytes(bytes(blob))
        code = main(["separate", str(trained), str(mixture_wav),
                     str(tmp_path / "sep")])
        assert "checkpoint config is not UTF-8" in assert_one_line_error(code, capsys)

    @pytest.mark.parametrize("cut", [20, -1, -4],
                             ids=["inside_header", "odd_data", "short_data"])
    def test_truncated_wav_is_a_cli_error(self, trained, mixture_wav, tmp_path,
                                          capsys, cut):
        blob = mixture_wav.read_bytes()
        mixture_wav.write_bytes(blob[:cut])
        code = main(["separate", str(trained), str(mixture_wav),
                     str(tmp_path / "sep")])
        assert "mix.wav" in assert_one_line_error(code, capsys)

    def test_wrapping_extents_are_a_cli_error(self, trained, mixture_wav,
                                              tmp_path, capsys):
        cfg, _, _ = load_checkpoint(trained)
        save_checkpoint(trained, cfg, {"wrap": np.zeros((1, 1, 1))})
        blob = bytearray(trained.read_bytes())
        at = blob.index(b"wrap") + 8
        blob[at : at + 12] = struct.pack("<3I", *(3 * [2**31]))
        trained.write_bytes(bytes(blob))
        code = main(["separate", str(trained), str(mixture_wav),
                     str(tmp_path / "sep")])
        assert "truncated checkpoint" in assert_one_line_error(code, capsys)

    def test_nan_weight_is_a_cli_error(self, trained, mixture_wav, tmp_path,
                                       capsys):
        cfg, _, tensors = load_checkpoint(trained)
        tensors["encoder.kernels"][0, 0, 0] = np.nan
        save_checkpoint(trained, cfg, tensors)
        code = main(["separate", str(trained), str(mixture_wav),
                     str(tmp_path / "sep")])
        line = assert_one_line_error(code, capsys)
        assert "checkpoint weight encoder.kernels is non-finite" in line

    def test_bad_wav_is_a_cli_error(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        assert main(["separate", str(trained), str(bad),
                     str(tmp_path / "sep")]) == 2
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_prints_report(self, trained, config_file, capsys):
        assert main(["eval", str(trained), str(config_file)]) == 0
        out = capsys.readouterr().out
        assert "SI-SNRi" in out and "SDRi" in out

    def test_unaligned_length(self, trained, config_file, tmp_path, capsys):
        odd = tmp_path / "odd.cfg"
        odd.write_text(config_file.read_text().replace(
            "data.length = 512", "data.length = 513"))
        assert main(["eval", str(trained), str(odd)]) == 0
        assert "SI-SNRi" in capsys.readouterr().out

    def test_seed_clash_is_a_cli_error(self, trained, config_file, tmp_path,
                                       capsys):
        clash = tmp_path / "clash.cfg"
        clash.write_text(config_file.read_text().replace(
            "eval.seed = 7", "eval.seed = 0"))
        assert main(["eval", str(trained), str(clash)]) == 2
        assert "held-out" in capsys.readouterr().err

    def test_negative_seed_is_a_cli_error(self, trained, config_file, capsys):
        config_file.write_text(config_file.read_text().replace(
            "eval.seed = 7", "eval.seed = -2"))
        code = main(["eval", str(trained), str(config_file)])
        assert "eval: seed must be >= 0, got -2" in assert_one_line_error(code, capsys)

    def test_non_integer_data_seed_is_a_cli_error(self, trained, config_file,
                                                  capsys):
        cfg, _, tensors = load_checkpoint(trained)
        save_checkpoint(trained, cfg, tensors,
                        extra_entries={"trained.data_seed": "x1"})
        code = main(["eval", str(trained), str(config_file)])
        line = assert_one_line_error(code, capsys)
        assert f"{trained}: trained.data_seed 'x1' is not an integer" in line


class TestGradCheck:
    def test_passes_on_double_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "gc.cfg"
        cfg_path.write_text(SMOKE_CONFIG_TEXT.replace(
            "model.precision = single", "model.precision = double"))
        assert main(["grad-check", str(cfg_path), "--coords", "40"]) == 0
        out = capsys.readouterr().out
        assert "gradient check: PASS" in out
        assert "(threshold 1e-05)" in out

    def test_negative_seed_is_a_cli_error(self, config_file, capsys):
        code = main(["grad-check", str(config_file), "--seed", "-3"])
        assert "seed must be >= 0, got -3" in assert_one_line_error(code, capsys)

    @pytest.mark.parametrize("coords", ["0", "-5"])
    def test_coords_below_one_is_a_cli_error(self, config_file, capsys, coords):
        # a check of no coordinate would read PASS
        code = main(["grad-check", str(config_file), "--coords", coords])
        line = assert_one_line_error(code, capsys)
        assert f"coords must be >= 1, got {coords}" in line

    def test_passes_on_unaligned_length(self, tmp_path, capsys):
        # 513 samples: the loss also scores the one sample no window reaches
        cfg_path = tmp_path / "gc.cfg"
        cfg_path.write_text(SMOKE_CONFIG_TEXT.replace(
            "model.precision = single", "model.precision = double").replace(
            "data.length = 512", "data.length = 513"))
        assert main(["grad-check", str(cfg_path), "--coords", "40"]) == 0
        out = capsys.readouterr().out
        assert "gradient check: PASS" in out


class TestCountParams:
    def test_analytic_report(self, config_file, capsys):
        assert main(["count-params", str(config_file)]) == 0
        assert "parameter budget" in capsys.readouterr().out

    def test_instantiated_match_and_kv(self, config_file, tmp_path, capsys):
        kv_path = tmp_path / "params.kv"
        assert main(["count-params", str(config_file), "--kv", str(kv_path)]) == 0
        assert "== analytic" in capsys.readouterr().out
        assert "params.total_empirical" in kv_path.read_text()

    def test_instantiate_draws_no_weights(self, config_file, draws, capsys):
        assert main(["count-params", str(config_file)]) == 0
        assert draws == []


class TestDumpAttention:
    def test_writes_grid(self, trained, mixture_wav, tmp_path, capsys):
        outdir = tmp_path / "maps"
        assert main(["dump-attention", str(trained), str(mixture_wav),
                     "0:inter:0:1", str(outdir)]) == 0
        path = capsys.readouterr().out.strip()
        grid = np.loadtxt(path)
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-5)

    def test_bad_selector_is_a_cli_error(self, trained, mixture_wav, tmp_path,
                                         capsys):
        assert main(["dump-attention", str(trained), str(mixture_wav),
                     "0:intra:0:99", str(tmp_path / "maps")]) == 2
        assert "head 99 out of range" in capsys.readouterr().err

    def test_wrong_rate_wav_is_the_separate_error(self, trained, tmp_path, capsys):
        wav = tmp_path / "fast.wav"
        write_wav(wav, Waveform(np.zeros(512), 16000))
        code = main(["dump-attention", str(trained), str(wav), "0:intra:0:1",
                     str(tmp_path / "maps")])
        line = assert_one_line_error(code, capsys)
        assert line.startswith(f"error: {wav}: sample rate 16000 != model rate 8000")
        code = main(["separate", str(trained), str(wav), str(tmp_path / "sep")])
        assert assert_one_line_error(code, capsys) == line
