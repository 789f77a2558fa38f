"""The README quick start and the `casep` console script, as a user meets them."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import two_sine_spec

from casep.cli import main
from casep.synth import gen_mixture
from casep.wavio import write_wav

ROOT = Path(__file__).resolve().parents[1]


def readme_block(after: str) -> str:
    """The first fenced block of README.md that follows the line ``after``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index(after + "\n")
    return re.search(r"```\n(.*?)```", text[start:], re.S).group(1)


def test_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("smoke.cfg").write_text(readme_block("Write a config file (`smoke.cfg`):"))
    mix, _ = gen_mixture(two_sine_spec(), 0)
    write_wav("mix.wav", mix)
    commands = [shlex.split(line.split("#", 1)[0])
                for line in readme_block("Then:").splitlines()]
    assert [c[:2] for c in commands] == [
        ["casep", "train"], ["casep", "eval"], ["casep", "separate"],
        ["casep", "count-params"], ["casep", "grad-check"], ["casep", "dump-attention"]]
    for command in commands:
        code = main(command[1:])
        out, err = capsys.readouterr()
        assert code == 0, (command, err)
        if command[1] == "grad-check":
            assert out.startswith("gradient check: PASS"), out
    assert Path("out/mix_src1.wav").exists() and Path("out/mix_src2.wav").exists()
    assert Path("maps/attention_b0_intra_i0_h1.txt").exists()


def test_console_script_prints_help():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, func = project["project"]["scripts"]["casep"].split(":")
    assert (module, func) == ("casep.cli", "main")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # what the installed wrapper runs: sys.exit(main()) with the user's argv
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from {module} import {func}; "
                               f"sys.exit({func}())", "--help"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: casep")
