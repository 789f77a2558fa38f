"""Run configuration: dataclasses and the flat ``section.key = value`` format.

One text file fully determines a run. Lines are ``dotted.key = value``;
``#`` starts a comment. Values are parsed by the consuming field (int,
float, bool, string, or a band list like ``100-400; 1000-2000``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .codec import EncoderConfig
from .tensor import ConfigError


@dataclass
class PathConfig:
    """Shape of one hybrid layer (attention + depthwise-separable conv)."""

    width: int
    attn_channels: int
    conv_channels: int
    heads: int
    kernel: int
    ffn_dim: int

    def validate(self) -> None:
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
        if self.conv_channels > 0 and self.kernel % 2 == 0:
            raise ConfigError(f"conv kernel must be odd, got {self.kernel}")
        if self.ffn_dim < 1:
            raise ConfigError("feed-forward width must be positive")


@dataclass
class ModelConfig:
    encoder: EncoderConfig
    chunk_size: int
    speakers: int
    n_blocks: int
    n_intra: int
    n_inter: int
    shared: bool
    intra: PathConfig
    inter: PathConfig
    sample_rate: int = 8000
    precision: str = "single"

    @property
    def width(self) -> int:
        return self.encoder.filters

    @property
    def dtype(self):
        return np.float32 if self.precision == "single" else np.float64

    def validate(self) -> None:
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
        self.intra.validate()
        self.inter.validate()


@dataclass
class SyntheticSpec:
    """Recipe for deterministic synthetic mixtures of band-limited sources."""

    n_sources: int = 2
    length: int = 512
    sample_rate: int = 8000
    kind: str = "sinusoid"
    bands: list[tuple[float, float]] = field(
        default_factory=lambda: [(100.0, 400.0), (1000.0, 2000.0)]
    )
    level_db_lo: float = 0.0
    level_db_hi: float = 0.0
    seed: int = 0

    def validate(self) -> None:
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
        if self.level_db_hi < self.level_db_lo:
            raise ConfigError("level range high end below low end")
        if self.length < 1:
            raise ConfigError("length must be positive")


@dataclass
class TrainSettings:
    steps: int = 500
    lr: float = 1e-3
    batch: int = 1
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    length_cap: int = 0   # 0 disables the signal-length cap
    out_dir: str = "run"

    def validate(self) -> None:
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")


@dataclass
class EvalSettings:
    count: int = 16
    seed: int = 1

    def validate(self) -> None:
        if self.count < 1:
            raise ConfigError("eval count must be >= 1")


# -- flat text format ------------------------------------------------------


def parse_flat(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
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
        out[key] = value.strip()
    return out


def serialize_flat(entries: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in sorted(entries.items()))


def config_hash(entries: dict[str, str]) -> str:
    return hashlib.sha256(serialize_flat(entries).encode()).hexdigest()


def _get(entries, key, conv, default=None):
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required config key {key}")
        return default
    value = entries[key]
    try:
        return conv(value)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def _bool(value: str) -> bool:
    v = value.lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def _bands(value: str) -> list[tuple[float, float]]:
    bands = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        lo, _, hi = part.partition("-")
        bands.append((float(lo), float(hi)))
    if not bands:
        raise ConfigError("empty band list")
    return bands


def _path_config(entries: dict[str, str], section: str, width: int) -> PathConfig:
    g = lambda key, conv, default=None: _get(entries, f"{section}.{key}", conv, default)
    return PathConfig(
        width=width,
        attn_channels=g("attn_channels", int),
        conv_channels=g("conv_channels", int),
        heads=g("heads", int, 1),
        kernel=g("kernel", int, 1),
        ffn_dim=g("ffn_dim", int),
    )


def model_config_from_flat(entries: dict[str, str]) -> ModelConfig:
    enc = EncoderConfig(
        filters=_get(entries, "encoder.filters", int),
        kernel=_get(entries, "encoder.kernel", int),
        stride=_get(entries, "encoder.stride", int),
    )
    cfg = ModelConfig(
        encoder=enc,
        chunk_size=_get(entries, "model.chunk_size", int),
        speakers=_get(entries, "model.speakers", int),
        n_blocks=_get(entries, "model.blocks", int),
        n_intra=_get(entries, "model.intra_reps", int),
        n_inter=_get(entries, "model.inter_reps", int),
        shared=_get(entries, "model.shared", _bool, False),
        intra=_path_config(entries, "intra", enc.filters),
        inter=_path_config(entries, "inter", enc.filters),
        sample_rate=_get(entries, "model.sample_rate", int, 8000),
        precision=_get(entries, "model.precision", str, "single"),
    )
    cfg.validate()
    return cfg


def model_config_to_flat(cfg: ModelConfig) -> dict[str, str]:
    out = {
        "encoder.filters": str(cfg.encoder.filters),
        "encoder.kernel": str(cfg.encoder.kernel),
        "encoder.stride": str(cfg.encoder.stride),
        "model.chunk_size": str(cfg.chunk_size),
        "model.speakers": str(cfg.speakers),
        "model.blocks": str(cfg.n_blocks),
        "model.intra_reps": str(cfg.n_intra),
        "model.inter_reps": str(cfg.n_inter),
        "model.shared": "true" if cfg.shared else "false",
        "model.sample_rate": str(cfg.sample_rate),
        "model.precision": cfg.precision,
    }
    for section, pc in (("intra", cfg.intra), ("inter", cfg.inter)):
        out[f"{section}.attn_channels"] = str(pc.attn_channels)
        out[f"{section}.conv_channels"] = str(pc.conv_channels)
        out[f"{section}.heads"] = str(pc.heads)
        out[f"{section}.kernel"] = str(pc.kernel)
        out[f"{section}.ffn_dim"] = str(pc.ffn_dim)
    return out


def synthetic_spec_from_flat(entries: dict[str, str], n_sources: int,
                             sample_rate: int) -> SyntheticSpec:
    g = lambda key, conv, default=None: _get(entries, f"data.{key}", conv, default)
    spec = SyntheticSpec(
        n_sources=n_sources,
        length=g("length", int, 512),
        sample_rate=sample_rate,
        kind=g("kind", str, "sinusoid"),
        bands=g("bands", _bands),
        level_db_lo=g("level_db_lo", float, 0.0),
        level_db_hi=g("level_db_hi", float, 0.0),
        seed=g("seed", int, 0),
    )
    spec.validate()
    return spec


def train_settings_from_flat(entries: dict[str, str]) -> TrainSettings:
    g = lambda key, conv, default=None: _get(entries, f"train.{key}", conv, default)
    ts = TrainSettings(
        steps=g("steps", int, 500),
        lr=g("lr", float, 1e-3),
        batch=g("batch", int, 1),
        seed=g("seed", int, 0),
        beta1=g("beta1", float, 0.9),
        beta2=g("beta2", float, 0.999),
        eps=g("eps", float, 1e-8),
        length_cap=g("length_cap", int, 0),
        out_dir=g("out_dir", str, "run"),
    )
    ts.validate()
    return ts


def eval_settings_from_flat(entries: dict[str, str]) -> EvalSettings:
    g = lambda key, conv, default=None: _get(entries, f"eval.{key}", conv, default)
    es = EvalSettings(count=g("count", int, 16), seed=g("seed", int, 1))
    es.validate()
    return es


def default_model_config() -> ModelConfig:
    """Full-scale architecture defaults (wide variant, split channels)."""
    enc = EncoderConfig(filters=256, kernel=16, stride=8)
    return ModelConfig(
        encoder=enc,
        chunk_size=250,
        speakers=2,
        n_blocks=2,
        n_intra=4,
        n_inter=4,
        shared=False,
        intra=PathConfig(256, 128, 128, heads=8, kernel=51, ffn_dim=1024),
        inter=PathConfig(256, 128, 128, heads=8, kernel=11, ffn_dim=1024),
    )
