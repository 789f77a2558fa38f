"""Command-line entry points, driven through main(argv)."""

import struct

import numpy as np
import pytest
from conftest import SMOKE_CONFIG_TEXT, two_sine_spec

from casep.checkpoint import load_checkpoint, model_state, save_checkpoint
from casep.cli import main
from casep.codec import Waveform
from casep.config import model_config_from_flat, parse_flat
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


def assert_one_line_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err


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

    def test_resume_flag(self, config_file, trained, capsys):
        assert main(["train", str(config_file), "--resume", str(trained)]) == 0
        assert "steps          4 -> 4" in capsys.readouterr().out

    def test_resume_without_optimizer_state_is_a_cli_error(self, config_file,
                                                          tmp_path, capsys):
        cfg = model_config_from_flat(parse_flat(config_file.read_text()))
        weights = tmp_path / "weights.tsep"
        save_checkpoint(weights, cfg, model_state(Separator.build(cfg, 0)))
        code = main(["train", str(config_file), "--resume", str(weights)])
        assert "lacks optimizer state: optim.step" in assert_one_line_error(code, capsys)

    @pytest.mark.parametrize("edits, named", [
        ("data.kind = noise_band\ndata.length = 16\ndata.bands = 100-110; 1000-2000\n",
         "band 100.0-110.0 holds no frequency bin"),
        ("data.level_db_lo = nan\n", "level_db_lo nan"),
        ("data.level_db_hi = 7000\n", "level_db_hi 7000.0"),
        ("train.lr = nan\n", "learning rate must be finite, got nan"),
    ], ids=["empty_noise_band", "nan_level", "huge_level", "nan_lr"])
    def test_bad_setting_is_a_cli_error(self, config_file, capsys, edits, named):
        config_file.write_text(config_file.read_text() + edits)
        code = main(["train", str(config_file)])
        assert named in assert_one_line_error(code, capsys)

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
        assert "non-finite" in assert_one_line_error(code, capsys)

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

    def test_seed_clash_is_a_cli_error(self, trained, config_file, tmp_path,
                                       capsys):
        clash = tmp_path / "clash.cfg"
        clash.write_text(config_file.read_text().replace(
            "eval.seed = 7", "eval.seed = 0"))
        assert main(["eval", str(trained), str(clash)]) == 2
        assert "held-out" in capsys.readouterr().err


class TestGradCheck:
    def test_passes_on_double_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "gc.cfg"
        cfg_path.write_text(SMOKE_CONFIG_TEXT.replace(
            "model.precision = single", "model.precision = double"))
        assert main(["grad-check", str(cfg_path), "--coords", "40"]) == 0
        out = capsys.readouterr().out
        assert "gradient check: PASS" in out

    def test_single_precision_is_a_cli_error(self, config_file, capsys):
        assert main(["grad-check", str(config_file)]) == 2
        assert "double" in capsys.readouterr().err


class TestCountParams:
    def test_analytic_report(self, config_file, capsys):
        assert main(["count-params", str(config_file)]) == 0
        assert "parameter budget" in capsys.readouterr().out

    def test_instantiated_match_and_kv(self, config_file, tmp_path, capsys):
        kv_path = tmp_path / "params.kv"
        assert main(["count-params", str(config_file), "--instantiate",
                     "--kv", str(kv_path)]) == 0
        assert "== analytic" in capsys.readouterr().out
        assert "params.total_empirical" in kv_path.read_text()


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
