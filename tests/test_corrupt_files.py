"""Byte fuzz of the two file formats casep reads: TSEP checkpoints and WAV.

A damaged file may still load, or it must fail with the format's own error
(ConfigError for TSEP, WavFormatError for WAV), which the CLI reports as one
line. Any other exception would reach the user as a traceback.
"""

import numpy as np
import pytest
from conftest import tiny_model_config
from hypothesis import given, settings
from hypothesis import strategies as st

from casep.checkpoint import load_checkpoint, save_checkpoint
from casep.codec import Waveform
from casep.tensor import ConfigError
from casep.wavio import WavFormatError, read_wav, write_wav


def _tsep_bytes(path) -> bytes:
    tensors = {"w": np.arange(6.0).reshape(2, 3), "s": np.float32(0.25),
               "v": np.ones(4)}
    save_checkpoint(path, tiny_model_config(), tensors, {"trained.steps": "3"})
    return path.read_bytes()


def _wav_bytes(path) -> bytes:
    write_wav(path, Waveform(np.linspace(-0.5, 0.5, 24), 8000))
    return path.read_bytes()


FORMATS = {
    "tsep": (_tsep_bytes, load_checkpoint, ConfigError),
    "wav": (_wav_bytes, read_wav, WavFormatError),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding the intact file of each format as ``intact.<kind>``."""
    path = tmp_path_factory.mktemp("fuzz")
    for kind, (make, _, _) in FORMATS.items():
        make(path / f"intact.{kind}")
    return path


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(FORMATS)), truncate=st.booleans(),
       where=st.floats(0.0, 1.0), flip=st.integers(1, 255))
def test_damaged_file_loads_or_raises_format_error(work, kind, truncate, where,
                                                   flip):
    # cut the file at an offset, or XOR one byte there with a nonzero mask
    blob = bytearray((work / f"intact.{kind}").read_bytes())
    at = min(int(where * len(blob)), len(blob) - 1)
    if truncate:
        del blob[at:]
    else:
        blob[at] ^= flip
    path = work / f"damaged.{kind}"
    path.write_bytes(bytes(blob))
    _, load, error = FORMATS[kind]
    try:
        load(path)
    except error:
        pass
