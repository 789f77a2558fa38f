"""Mono 16-bit PCM WAV reading and writing on the stdlib ``wave`` module.

Floats map to ints as round(x * 32768) clipped to the int16 range, and
back as int / 32768, so a read-write-read cycle is bit-exact.
"""

from __future__ import annotations

import wave

import numpy as np

from .codec import Waveform


class WavFormatError(ValueError):
    """The file is not the supported mono 16-bit PCM layout."""


def read_wav(path) -> Waveform:
    try:
        with wave.open(str(path), "rb") as f:
            channels = f.getnchannels()
            width = f.getsampwidth()
            comp = f.getcomptype()
            rate = f.getframerate()
            n = f.getnframes()
            raw = f.readframes(n)
    except (wave.Error, EOFError, RuntimeError) as exc:
        # the wave module raises EOFError for a file cut short in its header
        # and RuntimeError when a chunk size points outside its chunk
        reason = str(exc) or "damaged or truncated header"
        raise WavFormatError(f"{path}: not a readable WAV file ({reason})") from exc
    if comp != "NONE":
        raise WavFormatError(f"{path}: compression type {comp!r}, need NONE (PCM)")
    if channels != 1:
        raise WavFormatError(f"{path}: {channels} channels, need mono")
    if width != 2:
        raise WavFormatError(f"{path}: sample width {width} bytes, need 2 (16-bit)")
    if len(raw) % 2:
        raise WavFormatError(f"{path}: data chunk ends inside a sample")
    if len(raw) < 2 * n:
        raise WavFormatError(f"{path}: data chunk holds {len(raw) // 2} of {n} frames")
    ints = np.frombuffer(raw, dtype="<i2")
    return Waveform(ints.astype(np.float64) / 32768.0, rate)


def write_wav(path, wav: Waveform) -> None:
    ints = np.clip(
        np.round(np.asarray(wav.samples, dtype=np.float64) * 32768.0),
        -32768,
        32767,
    ).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(wav.sample_rate)
        f.writeframes(ints.tobytes())
