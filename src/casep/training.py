"""Desk-scale harness: training, evaluation, gradient checking, dumps.

Training is fully deterministic: the model is initialized from the run
seed, and the mixture stream is stateless: example ``index`` is generated
from (data seed, index) alone, so a resumed run sees exactly the examples
the uninterrupted run would have seen.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .blocks import AttentionRecorder
from .checkpoint import load_checkpoint, load_model_state, load_separator, \
    model_state, save_checkpoint
from .config import EvalSettings, ModelConfig, SyntheticSpec, config_hash, \
    eval_settings_from_flat, model_config_from_flat, model_config_to_flat, \
    serialize_flat, synthetic_spec_from_flat, train_settings_from_flat
from .metrics import improvements, upit_loss
from .model import Separator
from .nn import unique_named
from .optim import Adam
from .synth import gen_mixture
from .tensor import ConfigError, NonFiniteError, Tensor, no_grad
from .wavio import read_wav, write_wav


def effective_spec(spec: SyntheticSpec, length_cap: int) -> SyntheticSpec:
    if length_cap and spec.length > length_cap:
        return replace(spec, length=length_cap)
    return spec


def mixture_arrays(spec: SyntheticSpec, indices, dtype):
    """Stream examples ``indices`` (an int or a sequence) as the mixtures and
    one array per source, each shaped ``np.shape(indices) + (length,)``."""
    mixes, sources = zip(*(gen_mixture(spec, int(i)) for i in np.ravel(indices)))
    shape = np.shape(indices) + (spec.length,)

    def stacked(waves):
        return np.stack([w.samples for w in waves]).astype(dtype).reshape(shape)

    return stacked(mixes), [stacked(s) for s in zip(*sources)]


def example_loss(model: Separator, mix: np.ndarray, sources: list[np.ndarray]):
    """Forward mixtures (..., n) and return their permutation-invariant loss."""
    ests, _ = model.forward(Tensor(mix))
    n = ests[0].shape[-1]
    targets = [s[..., :n] for s in sources]
    return upit_loss(ests, targets)


def write_report(out_dir: Path, stem: str, text: str, kv: dict[str, str]) -> None:
    (out_dir / f"{stem}.txt").write_text(text if text.endswith("\n") else text + "\n")
    (out_dir / f"{stem}.kv").write_text(serialize_flat(kv))


@dataclass
class TrainResult:
    losses: list[float]       # one entry per step executed in this run
    start_step: int
    end_step: int
    train_si_snri: float
    wall_time: float
    config_hash: str
    checkpoint_path: Path


def train_run(entries: dict[str, str], resume: str | None = None,
              echo=None) -> TrainResult:
    cfg = model_config_from_flat(entries)
    spec = synthetic_spec_from_flat(entries, cfg.speakers, cfg.sample_rate)
    settings = train_settings_from_flat(entries)
    spec = effective_spec(spec, settings.length_cap)
    out_dir = Path(settings.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = Separator.build(cfg, settings.seed)
    opt = Adam(model.named_parameters(), lr=settings.lr,
               beta1=settings.beta1, beta2=settings.beta2, eps=settings.eps)
    start_step = 0
    if resume is not None:
        ck_cfg, ck_entries, tensors = load_checkpoint(resume)
        if model_config_to_flat(ck_cfg) != model_config_to_flat(cfg):
            raise ConfigError("resume checkpoint was built from a different model config")
        load_model_state(model, tensors)
        opt.load_state({k: v for k, v in tensors.items() if k.startswith("optim.")})
        start_step = opt.step_count

    dtype = cfg.dtype
    losses: list[float] = []
    t0 = time.perf_counter()
    for step in range(start_step, settings.steps):
        model.zero_grad()
        first = step * settings.batch
        mix, sources = mixture_arrays(spec, range(first, first + settings.batch), dtype)
        try:
            loss_t = example_loss(model, mix, sources).loss
            value = loss_t.item()
            if not math.isfinite(value):
                raise NonFiniteError("loss is not finite")
            loss_t.backward()
        except NonFiniteError as exc:
            raise RuntimeError(f"training aborted at step {step}: {exc}") from exc
        opt.step()
        losses.append(value)
        if echo and (step % 50 == 0 or step == settings.steps - 1):
            echo(f"step {step:5d}  loss {value:+.3f}")
    wall = time.perf_counter() - t0

    snri = eval_model(model, spec, EvalSettings(count=8, seed=spec.seed)).si_snri_mean
    ck_path = out_dir / "model.tsep"
    tensors = dict(model_state(model))
    tensors.update(opt.state_tensors())
    save_checkpoint(ck_path, cfg, tensors,
                    extra_entries={"trained.data_seed": str(spec.seed),
                                   "trained.steps": str(settings.steps)})

    chash = config_hash(entries)
    (out_dir / "losses.txt").write_text(
        "".join(f"{v:.9f}\n" for v in losses)
    )
    final_loss = losses[-1] if losses else float("nan")
    text = "\n".join([
        "training run",
        f"  steps          {start_step} -> {settings.steps}",
        f"  final loss     {final_loss:+.4f}",
        f"  train SI-SNRi  {snri:+.2f} dB (first 8 stream mixtures)",
        f"  wall time      {wall:.1f} s",
        f"  config hash    {chash}",
        f"  checkpoint     {ck_path}",
    ])
    kv = {
        "run.start_step": str(start_step),
        "run.steps": str(settings.steps),
        "run.final_loss": f"{final_loss:.9f}",
        "run.train_si_snri_db": f"{snri:.6f}",
        "run.wall_time_s": f"{wall:.3f}",
        "run.config_hash": chash,
        "run.checkpoint": str(ck_path),
        "run.seed": str(settings.seed),
        "run.data_seed": str(spec.seed),
    }
    write_report(out_dir, "report", text, kv)
    if echo:
        echo(text)
    return TrainResult(losses, start_step, settings.steps, snri, wall, chash, ck_path)


# -- gradient checking -----------------------------------------------------


@dataclass
class GradCheckResult:
    max_rel_err: float
    worst_name: str
    worst_index: int
    worst_analytic: float
    worst_numeric: float
    coords_checked: int
    groups_covered: int

    def passed(self, threshold: float = 1e-5) -> bool:
        return self.max_rel_err < threshold


def grad_check_run(cfg: ModelConfig, spec: SyntheticSpec, seed: int = 0,
                   min_coords: int = 200) -> GradCheckResult:
    """Compare backward gradients against central finite differences.

    Coordinates are sampled from every parameter tensor. The relative
    error denominator is floored at 1% of the largest sampled gradient so
    near-zero coordinates do not drown the check in roundoff noise.
    """
    if cfg.precision != "double":
        raise ConfigError("gradient checking requires model.precision = double")
    model = Separator.build(cfg, seed)
    mix, sources = mixture_arrays(spec, 0, np.float64)

    def loss_value() -> float:
        with no_grad():
            return example_loss(model, mix, sources).loss.item()

    model.zero_grad()
    pit = example_loss(model, mix, sources)
    pit.loss.backward()

    groups = unique_named(model.named_parameters())
    per_group = max(1, math.ceil(min_coords / len(groups)))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 424243)))
    coords = []
    for name, p in groups:
        n = p.size
        picks = (np.arange(n) if n <= per_group
                 else rng.choice(n, size=per_group, replace=False))
        coords.extend((name, p, int(i)) for i in picks)

    gmax = max(abs(float(p.grad.flat[i])) for _, p, i in coords)
    floor = max(1e-2 * gmax, 1e-30)
    worst = (-1.0, "", 0, 0.0, 0.0)
    for name, p, i in coords:
        w0 = float(p.data.flat[i])
        h = 1e-6 * max(1.0, abs(w0))
        p.data.flat[i] = w0 + h
        lp = loss_value()
        p.data.flat[i] = w0 - h
        lm = loss_value()
        p.data.flat[i] = w0
        numeric = (lp - lm) / (2.0 * h)
        analytic = float(p.grad.flat[i])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
        if rel > worst[0]:
            worst = (rel, name, i, analytic, numeric)
    return GradCheckResult(
        max_rel_err=worst[0],
        worst_name=worst[1],
        worst_index=worst[2],
        worst_analytic=worst[3],
        worst_numeric=worst[4],
        coords_checked=len(coords),
        groups_covered=len(groups),
    )


def grad_check_report(res: GradCheckResult, threshold: float = 1e-5) -> str:
    status = "PASS" if res.passed(threshold) else "FAIL"
    return "\n".join([
        f"gradient check: {status}",
        f"  max relative error  {res.max_rel_err:.3e} (threshold {threshold:.0e})",
        f"  worst coordinate    {res.worst_name}[{res.worst_index}]",
        f"    analytic {res.worst_analytic:+.9e}  numeric {res.worst_numeric:+.9e}",
        f"  coordinates checked {res.coords_checked} across {res.groups_covered} tensors",
    ])


# -- evaluation ------------------------------------------------------------


@dataclass
class EvalResult:
    count: int
    si_snri_mean: float
    si_snri_std: float
    sdri_mean: float
    sdri_std: float


def eval_model(model: Separator, spec: SyntheticSpec,
               settings: EvalSettings) -> EvalResult:
    eval_spec = replace(spec, seed=settings.seed)
    dtype = model.cfg.dtype
    snri_vals, sdri_vals = [], []
    with no_grad():
        for idx in range(settings.count):
            mix, sources = mixture_arrays(eval_spec, idx, dtype)
            ests, _ = model.forward(Tensor(mix))
            n = ests[0].shape[0]
            est_arrs = [e.data for e in ests]
            targets = [s[:n] for s in sources]
            snri, sdri = improvements(est_arrs, targets, mix[:n])
            snri_vals.append(snri)
            sdri_vals.append(sdri)
    return EvalResult(
        count=settings.count,
        si_snri_mean=float(np.mean(snri_vals)),
        si_snri_std=float(np.std(snri_vals)),
        sdri_mean=float(np.mean(sdri_vals)),
        sdri_std=float(np.std(sdri_vals)),
    )


def eval_run(ckpt_path: str, entries: dict[str, str]) -> tuple[EvalResult, Path]:
    model, ck_entries = load_separator(ckpt_path)
    spec = synthetic_spec_from_flat(entries, model.cfg.speakers, model.cfg.sample_rate)
    settings = eval_settings_from_flat(entries)
    trained_seed = ck_entries.get("trained.data_seed")
    if trained_seed is not None and int(trained_seed) == settings.seed:
        raise ConfigError(
            f"eval seed {settings.seed} equals the training data seed; "
            "evaluation needs held-out mixtures"
        )
    res = eval_model(model, spec, settings)
    out_dir = Path(ckpt_path).resolve().parent
    text = "\n".join([
        "evaluation",
        f"  mixtures   {res.count} (seed {settings.seed})",
        f"  SI-SNRi    {res.si_snri_mean:+.2f} dB (std {res.si_snri_std:.2f})",
        f"  SDRi       {res.sdri_mean:+.2f} dB (std {res.sdri_std:.2f})",
    ])
    kv = {
        "eval.count": str(res.count),
        "eval.seed": str(settings.seed),
        "eval.si_snri_mean_db": f"{res.si_snri_mean:.6f}",
        "eval.si_snri_std_db": f"{res.si_snri_std:.6f}",
        "eval.sdri_mean_db": f"{res.sdri_mean:.6f}",
        "eval.sdri_std_db": f"{res.sdri_std:.6f}",
    }
    write_report(out_dir, "eval_report", text, kv)
    return res, out_dir / "eval_report.txt"


# -- file separation and attention dumps ----------------------------------


def separate_files(ckpt_path: str, wav_path: str, out_dir: str) -> list[Path]:
    model, _ = load_separator(ckpt_path)
    wav = read_wav(wav_path)
    if wav.sample_rate != model.cfg.sample_rate:
        raise ConfigError(
            f"{wav_path}: sample rate {wav.sample_rate} != model rate "
            f"{model.cfg.sample_rate} (resampling is not performed)"
        )
    outs = model.separate(wav)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(wav_path).stem
    paths = []
    for i, est in enumerate(outs, start=1):
        p = out / f"{stem}_src{i}.wav"
        write_wav(p, est)
        paths.append(p)
    return paths


@dataclass
class AttentionSelector:
    block: int
    net: str        # "intra" or "inter"
    iteration: int
    head: int

    @classmethod
    def parse(cls, text: str) -> "AttentionSelector":
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"selector {text!r} must be block:net:iteration:head"
            )
        b, net, it, head = parts
        if net not in ("intra", "inter"):
            raise ConfigError(f"selector net must be intra or inter, got {net!r}")
        try:
            return cls(int(b), net, int(it), int(head))
        except ValueError as exc:
            raise ConfigError(f"selector {text!r} has non-integer fields") from exc


def dump_attention_run(ckpt_path: str, wav_path: str, selector_text: str,
                       out_dir: str) -> Path:
    model, _ = load_separator(ckpt_path)
    cfg = model.cfg
    sel = AttentionSelector.parse(selector_text)
    if not 0 <= sel.block < cfg.n_blocks:
        raise ConfigError(f"block {sel.block} out of range [0, {cfg.n_blocks})")
    reps = cfg.n_intra if sel.net == "intra" else cfg.n_inter
    path_cfg = cfg.intra if sel.net == "intra" else cfg.inter
    if not 0 <= sel.iteration < reps:
        raise ConfigError(f"iteration {sel.iteration} out of range [0, {reps})")
    if path_cfg.attn_channels == 0:
        raise ConfigError(f"the {sel.net} layers have no attention path")
    if not 0 <= sel.head < path_cfg.heads:
        raise ConfigError(f"head {sel.head} out of range [0, {path_cfg.heads})")

    wav = read_wav(wav_path)
    recorder = AttentionRecorder()
    model.separate(wav, recorder)
    raw = recorder.maps[(sel.block, sel.net, sel.iteration)]
    grid = raw[:, sel.head].mean(axis=0)   # batch-averaged, stays row-stochastic
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = out / f"attention_b{sel.block}_{sel.net}_i{sel.iteration}_h{sel.head}.txt"
    np.savetxt(p, grid, fmt="%.8e")
    return p
