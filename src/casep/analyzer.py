"""Closed-form parameter accounting, cross-checked against live models.

Two kinds of counts live here. The weight-only closed forms (attention
4D², separable conv KD+D², and the serial/parallel block variants) cover
just the projection/kernel matrices, matching how such budgets are usually
quoted. The model report counts every parameter a built model actually
owns, biases and norm scales included, and must equal the enumerated
count of the built model exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import ModelConfig, PathConfig, default_model_config
from .nn import Module
from .tensor import ConfigError


# -- weight-only closed forms ---------------------------------------------


def attention_weight_params(width: int) -> int:
    """Four square projections: 4 * width^2."""
    return 4 * width * width


def sepconv_weight_params(kernel: int, width: int) -> int:
    """Depthwise taps plus pointwise mix: kernel*width + width^2."""
    return kernel * width + width * width


def serial_block_params(width: int, kernel: int) -> int:
    """Full-width attention followed by full-width separable conv."""
    return attention_weight_params(width) + sepconv_weight_params(kernel, width)


def parallel_block_params(width: int, kernel: int) -> int:
    """Half-width attention beside half-width conv: K/2*D + 5/4*D^2."""
    if (kernel * width) % 2 != 0 or (5 * width * width) % 4 != 0:
        raise ConfigError(
            f"closed form needs even kernel*width and width divisible by 2, "
            f"got width={width} kernel={kernel}"
        )
    return (kernel * width) // 2 + (5 * width * width) // 4


def split_weight_params(attn_channels: int, conv_channels: int, kernel: int) -> int:
    """General channel split: 4*Da^2 + kernel*Dc + Dc^2 (weights only)."""
    return attention_weight_params(attn_channels) + sepconv_weight_params(
        kernel, conv_channels)


def count_table(width: int, kernel: int) -> dict[str, int]:
    """The four weight-only block budgets at one width/kernel point."""
    return {
        "mha": attention_weight_params(width),
        "sepconv": sepconv_weight_params(kernel, width),
        "serial": serial_block_params(width, kernel),
        "parallel": parallel_block_params(width, kernel),
    }


# -- full built-model counts ----------------------------------------------


def layer_param_counts(cfg: PathConfig) -> dict[str, int]:
    """Everything one hybrid layer owns, split by component."""
    d, da, dc, f = cfg.width, cfg.attn_channels, cfg.conv_channels, cfg.ffn_dim
    attention = attention_weight_params(da)
    conv_weights = sepconv_weight_params(cfg.kernel, dc)
    conv_bias = dc
    norms = 2 * (da + dc + d)
    ffn = d * f + f + f * d + d
    total = attention + conv_weights + conv_bias + norms + ffn
    return {
        "attention_weights": attention,
        "conv_weights": conv_weights,
        "conv_bias": conv_bias,
        "norms": norms,
        "ffn": ffn,
        "total": total,
    }


@dataclass
class ParamReport:
    encoder: int
    preprocess: int
    intra_layer: int
    inter_layer: int
    intra_sets: int
    inter_sets: int
    mask_net_layers: int
    postprocess: int
    mask_head: int
    decoder: int
    total_analytic: int
    total_empirical: int | None = None


def model_param_report(cfg: ModelConfig, model: Module | None = None) -> ParamReport:
    """Analytic whole-model budget; attach the enumerated count if given."""
    d, k = cfg.width, cfg.speakers
    enc = cfg.encoder.filters * cfg.encoder.kernel
    preprocess = 2 * d + d * d + d
    intra_layer = layer_param_counts(cfg.intra)["total"]
    inter_layer = layer_param_counts(cfg.inter)["total"]
    intra_sets = cfg.n_blocks * (1 if cfg.shared else cfg.n_intra)
    inter_sets = cfg.n_blocks * (1 if cfg.shared else cfg.n_inter)
    mask_net = intra_sets * intra_layer + inter_sets * inter_layer
    postprocess = d * d * k + d * k + 1
    mask_head = k * 2 * (d * d + d)
    dec = cfg.encoder.filters * cfg.encoder.kernel
    total = enc + preprocess + mask_net + postprocess + mask_head + dec
    report = ParamReport(
        encoder=enc,
        preprocess=preprocess,
        intra_layer=intra_layer,
        inter_layer=inter_layer,
        intra_sets=intra_sets,
        inter_sets=inter_sets,
        mask_net_layers=mask_net,
        postprocess=postprocess,
        mask_head=mask_head,
        decoder=dec,
        total_analytic=total,
    )
    if model is not None:
        report.total_empirical = model.param_count()
    return report


def format_param_report(report: ParamReport) -> str:
    lines = [
        "parameter budget",
        f"  encoder             {report.encoder:>12,}",
        f"  preprocess          {report.preprocess:>12,}",
        f"  within-chunk layer  {report.intra_layer:>12,} x {report.intra_sets}",
        f"  across-chunk layer  {report.inter_layer:>12,} x {report.inter_sets}",
        f"  mask-net layers     {report.mask_net_layers:>12,}",
        f"  postprocess         {report.postprocess:>12,}",
        f"  mask head           {report.mask_head:>12,}",
        f"  decoder             {report.decoder:>12,}",
        f"  total (analytic)    {report.total_analytic:>12,}",
    ]
    if report.total_empirical is not None:
        match = "==" if report.total_empirical == report.total_analytic else "!="
        lines.append(
            f"  total (enumerated)  {report.total_empirical:>12,}  "
            f"[{match} analytic]"
        )
    return "\n".join(lines)


def param_report_kv(report: ParamReport) -> dict[str, str]:
    out = {
        "params.encoder": str(report.encoder),
        "params.preprocess": str(report.preprocess),
        "params.intra_layer": str(report.intra_layer),
        "params.inter_layer": str(report.inter_layer),
        "params.intra_sets": str(report.intra_sets),
        "params.inter_sets": str(report.inter_sets),
        "params.mask_net": str(report.mask_net_layers),
        "params.postprocess": str(report.postprocess),
        "params.mask_head": str(report.mask_head),
        "params.decoder": str(report.decoder),
        "params.total_analytic": str(report.total_analytic),
    }
    if report.total_empirical is not None:
        out["params.total_empirical"] = str(report.total_empirical)
    return out


# -- full-scale reference budgets -----------------------------------------


def _budget_config(split: bool, blocks: int, intra: int, inter: int,
                   shared: bool) -> ModelConfig:
    """``default_model_config`` with these repetitions; without ``split``
    every layer's channels go to attention."""
    cfg = replace(default_model_config(), n_blocks=blocks, n_intra=intra,
                  n_inter=inter, shared=shared)
    if not split:
        cfg = replace(cfg, intra=replace(cfg.intra, attn_channels=256, conv_channels=0),
                      inter=replace(cfg.inter, attn_channels=256, conv_channels=0))
    return cfg


@dataclass
class ReferenceBudget:
    label: str
    config: ModelConfig
    expected_total: float  # published full-scale budget, same family


REFERENCE_BUDGETS: list[ReferenceBudget] = [
    ReferenceBudget("attention-only 16 layers (2 blocks, 4+4)",
                    _budget_config(False, 2, 4, 4, False), 13.0e6),
    ReferenceBudget("attention-only 32 layers (2 blocks, 8+8)",
                    _budget_config(False, 2, 8, 8, False), 25.7e6),
    ReferenceBudget("attention-only 32 layers (4 blocks, 4+4)",
                    _budget_config(False, 4, 4, 4, False), 25.7e6),
    ReferenceBudget("split-path 16 layers (2 blocks, 4+4)",
                    _budget_config(True, 2, 4, 4, False), 10.2e6),
    ReferenceBudget("split-path 32 layers (2 blocks, 8+8)",
                    _budget_config(True, 2, 8, 8, False), 20.0e6),
    ReferenceBudget("split-path 32 layers (4 blocks, 4+4)",
                    _budget_config(True, 4, 4, 4, False), 20.0e6),
    ReferenceBudget("split-path shared 16 layers (2 blocks, 4+4)",
                    _budget_config(True, 2, 4, 4, True), 2.9e6),
    ReferenceBudget("split-path shared 32 layers (2 blocks, 8+8)",
                    _budget_config(True, 2, 8, 8, True), 2.9e6),
    ReferenceBudget("split-path shared 32 layers (4 blocks, 4+4)",
                    _budget_config(True, 4, 4, 4, True), 5.3e6),
]
