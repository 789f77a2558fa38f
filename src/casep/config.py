"""Run configuration: dataclasses and the flat ``section.key = value`` format.

One text file fully determines a run. Lines are ``dotted.key = value``;
``#`` starts a comment. Each key is one dataclass field: its annotation
picks the parser (int, float, bool, string, or a band list like
``100-400; 1000-2000``) and its default fills a missing key. Every config
dataclass is frozen and checks its values when built.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .codec import EncoderConfig
from .tensor import ConfigError


@dataclass(frozen=True)
class PathConfig:
    """Shape of one hybrid layer (attention + depthwise-separable conv)."""

    width: int
    attn_channels: int
    conv_channels: int
    ffn_dim: int
    heads: int = 1
    kernel: int = 1

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigError("layer width must be positive")
        if self.attn_channels < 0 or self.conv_channels < 0:
            raise ConfigError("channel counts must be non-negative")
        if self.attn_channels + self.conv_channels != self.width:
            raise ConfigError(
                f"attention {self.attn_channels} + conv {self.conv_channels} "
                f"channels must sum to width {self.width}"
            )
        if self.attn_channels > 0:
            if self.heads < 1 or self.attn_channels % self.heads != 0:
                raise ConfigError(
                    f"heads {self.heads} must divide attention channels "
                    f"{self.attn_channels}"
                )
        if self.conv_channels > 0 and (self.kernel < 1 or self.kernel % 2 == 0):
            raise ConfigError(f"conv kernel must be positive and odd, got {self.kernel}")
        if self.ffn_dim < 1:
            raise ConfigError("feed-forward width must be positive")


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    chunk_size: int
    speakers: int
    n_blocks: int
    n_intra: int
    n_inter: int
    intra: PathConfig
    inter: PathConfig
    shared: bool = False
    sample_rate: int = 8000
    precision: str = "single"

    @property
    def width(self) -> int:
        return self.encoder.filters

    @property
    def dtype(self):
        return np.float32 if self.precision == "single" else np.float64

    def __post_init__(self) -> None:
        if self.speakers < 2:
            raise ConfigError("need at least 2 speakers")
        if min(self.n_blocks, self.n_intra, self.n_inter) < 1:
            raise ConfigError("all repetition counts must be >= 1")
        if self.chunk_size < 2 or self.chunk_size % 2 != 0:
            raise ConfigError(f"chunk size must be even >= 2, got {self.chunk_size}")
        if self.intra.width != self.width or self.inter.width != self.width:
            raise ConfigError(
                "layer widths must equal the encoder filter count "
                f"({self.intra.width}/{self.inter.width} vs {self.width})"
            )
        if self.precision not in ("single", "double"):
            raise ConfigError(f"precision must be single or double, got {self.precision}")
        if self.sample_rate < 1:
            raise ConfigError("sample rate must be positive")


def check_seed(name: str, seed: int) -> None:
    """numpy seeds random streams from non-negative integers only."""
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0, got {seed}")


# Source levels are dB from unit RMS. Past +-100 dB a source is clipped or
# rounded to silence in a PCM16 WAV (about 96 dB of range), and near
# 6000 dB its gain overflows float64.
_LEVEL_DB_LIMIT = 100.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for deterministic synthetic mixtures of band-limited sources."""

    n_sources: int = 2
    length: int = 512
    sample_rate: int = 8000
    kind: str = "sinusoid"
    bands: tuple[tuple[float, float], ...] = ((100.0, 400.0), (1000.0, 2000.0))
    level_db_lo: float = 0.0
    level_db_hi: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # a passed list of pairs becomes a tuple, so the spec stays as checked
        object.__setattr__(self, "bands", tuple(tuple(b) for b in self.bands))
        if self.n_sources < 1:
            raise ConfigError("need at least one source")
        if self.kind not in ("sinusoid", "noise_band"):
            raise ConfigError(f"unknown source kind {self.kind!r}")
        if len(self.bands) != self.n_sources:
            raise ConfigError(
                f"{self.n_sources} sources need {self.n_sources} bands, "
                f"got {len(self.bands)}"
            )
        nyquist = self.sample_rate / 2
        for lo, hi in self.bands:
            if not 0 < lo < hi < nyquist:
                raise ConfigError(f"band {lo}-{hi} outside (0, {nyquist})")
        ordered = sorted(self.bands)
        for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
            if lo < hi:
                raise ConfigError("source frequency bands must be disjoint")
        for name in ("level_db_lo", "level_db_hi"):
            level = getattr(self, name)
            if not -_LEVEL_DB_LIMIT <= level <= _LEVEL_DB_LIMIT:
                raise ConfigError(f"{name} {level} outside "
                                  f"[-{_LEVEL_DB_LIMIT:g}, {_LEVEL_DB_LIMIT:g}] dB")
        if self.level_db_hi < self.level_db_lo:
            raise ConfigError("level range high end below low end")
        if self.length < 1:
            raise ConfigError("length must be positive")
        check_seed("data.seed", self.seed)
        if self.kind == "noise_band":
            # the rfft bins synth keeps; none would make an all-zero source
            freqs = np.fft.rfftfreq(self.length, d=1.0 / self.sample_rate)
            for lo, hi in self.bands:
                if not np.any((freqs >= lo) & (freqs <= hi)):
                    raise ConfigError(f"band {lo}-{hi} holds no frequency bin "
                                      f"at length {self.length}")


@dataclass(frozen=True)
class TrainSettings:
    steps: int = 500
    lr: float = 1e-3
    batch: int = 1
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    out_dir: str = "run"

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        check_seed("train.seed", self.seed)
        if not math.isfinite(self.lr):
            raise ConfigError(f"learning rate must be finite, got {self.lr}")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if not math.isfinite(self.eps) or self.eps <= 0:
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= beta < 1:    # NaN fails too
                raise ConfigError(f"train.{name} must lie in [0, 1), got {beta}")


@dataclass(frozen=True)
class EvalSettings:
    count: int = 16
    seed: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError("eval count must be >= 1")
        check_seed("eval.seed", self.seed)


# -- flat text format ------------------------------------------------------


def parse_flat(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: keys must look like section.name")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key} repeats line {seen[key]}")
        seen[key] = lineno
        out[key] = value.strip()
    return out


def serialize_flat(entries: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in sorted(entries.items()))


def config_hash(entries: dict[str, str]) -> str:
    return hashlib.sha256(serialize_flat(entries).encode()).hexdigest()


# the sections a config file may hold; a key in any other is a typo
SECTIONS = ("encoder", "model", "intra", "inter", "data", "train", "eval")
# flat key names that differ from their field names
_KEYS = {"n_blocks": "blocks", "n_intra": "intra_reps", "n_inter": "inter_reps"}
# required in the flat text; the dataclass default serves direct construction
_REQUIRED = {"bands"}
_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def _bands(value: str) -> tuple[tuple[float, float], ...]:
    bands = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        lo, _, hi = part.partition("-")
        bands.append((float(lo), float(hi)))
    if not bands:
        raise ConfigError("empty band list")
    return tuple(bands)


_PARSERS = {"int": int, "float": float, "str": str,
            "tuple[tuple[float, float], ...]": _bands}


def _convert(key: str, kind: str, value: str):
    """Parse ``value`` by the annotation ``kind`` of the field behind ``key``."""
    if kind == "bool":
        if value.lower() not in _BOOLS:
            raise ConfigError(f"expected a boolean, got {value!r}")
        return _BOOLS[value.lower()]
    try:
        return _PARSERS[kind](value)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def _read(cls, entries: dict[str, str], section: str, **given):
    """Build ``cls`` from the ``section.*`` entries. Fields in ``given`` are
    taken as passed; a missing key falls back to the field's default, and a
    field without one (or named in ``_REQUIRED``) must be present. A
    ``section.*`` key that no field reads is an error."""
    values = dict(given)
    keys = {f"{section}.{_KEYS.get(f.name, f.name)}": f
            for f in fields(cls) if f.name not in given}
    for key in entries:
        if key.startswith(f"{section}.") and key not in keys:
            raise ConfigError(f"unknown config key {key}")
    for key, f in keys.items():
        if key in entries:
            values[f.name] = _convert(key, f.type, entries[key])
        elif f.name in _REQUIRED or f.default is MISSING:
            raise ConfigError(f"missing required config key {key}")
    return cls(**values)


def _write(obj, section: str, out: dict[str, str], *skip: str) -> None:
    """Add every field of ``obj`` except ``skip`` to ``out`` as flat text."""
    for f in fields(obj):
        if f.name not in skip:
            value = getattr(obj, f.name)
            text = str(value).lower() if f.type == "bool" else str(value)
            out[f"{section}.{_KEYS.get(f.name, f.name)}"] = text


def model_config_from_flat(entries: dict[str, str]) -> ModelConfig:
    enc = _read(EncoderConfig, entries, "encoder")
    return _read(ModelConfig, entries, "model", encoder=enc,
                 intra=_read(PathConfig, entries, "intra", width=enc.filters),
                 inter=_read(PathConfig, entries, "inter", width=enc.filters))


def model_config_to_flat(cfg: ModelConfig) -> dict[str, str]:
    out: dict[str, str] = {}
    _write(cfg.encoder, "encoder", out)
    _write(cfg, "model", out, "encoder", "intra", "inter")
    _write(cfg.intra, "intra", out, "width")
    _write(cfg.inter, "inter", out, "width")
    return out


def synthetic_spec_from_flat(entries: dict[str, str], n_sources: int,
                             sample_rate: int) -> SyntheticSpec:
    return _read(SyntheticSpec, entries, "data", n_sources=n_sources,
                 sample_rate=sample_rate)


def train_settings_from_flat(entries: dict[str, str]) -> TrainSettings:
    return _read(TrainSettings, entries, "train")


def eval_settings_from_flat(entries: dict[str, str]) -> EvalSettings:
    return _read(EvalSettings, entries, "eval")


def default_model_config() -> ModelConfig:
    """Full-scale architecture defaults (wide variant, split channels)."""
    return ModelConfig(
        encoder=EncoderConfig(filters=256, kernel=16, stride=8),
        chunk_size=250,
        speakers=2,
        n_blocks=2,
        n_intra=4,
        n_inter=4,
        intra=PathConfig(256, 128, 128, heads=8, kernel=51, ffn_dim=1024),
        inter=PathConfig(256, 128, 128, heads=8, kernel=11, ffn_dim=1024),
    )
