"""Command-line interface.

Subcommands: train, separate, eval, grad-check, count-params,
dump-attention. Every command takes a flat ``section.key = value`` config
file and/or a checkpoint; see the package README for the key reference.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .analyzer import format_param_report, model_param_report, param_report_kv
from .config import SECTIONS, model_config_from_flat, parse_flat, \
    serialize_flat, synthetic_spec_from_flat
from .model import Separator
from .tensor import ConfigError, NonFiniteError
from .training import dump_attention_run, eval_run, grad_check_report, \
    grad_check_run, separate_files, train_run


def _load_entries(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        entries = parse_flat(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not UTF-8") from None
    for key in entries:
        if key.split(".", 1)[0] not in SECTIONS:
            raise ConfigError(f"unknown config section in key {key}")
    return entries


def _cmd_train(args) -> int:
    entries = _load_entries(args.config)
    train_run(entries, resume=args.resume, echo=print)
    return 0


def _cmd_separate(args) -> int:
    paths = separate_files(args.checkpoint, args.input, args.outdir)
    for p in paths:
        print(p)
    return 0


def _cmd_eval(args) -> int:
    entries = _load_entries(args.config)
    _, report_path = eval_run(args.checkpoint, entries)
    print(report_path.read_text(), end="")
    return 0


def _cmd_grad_check(args) -> int:
    entries = _load_entries(args.config)
    cfg = model_config_from_flat(entries)
    spec = synthetic_spec_from_flat(entries, cfg.speakers, cfg.sample_rate)
    res = grad_check_run(cfg, spec, seed=args.seed, min_coords=args.coords)
    print(grad_check_report(res))
    return 0 if res.passed() else 1


def _cmd_count_params(args) -> int:
    entries = _load_entries(args.config)
    cfg = model_config_from_flat(entries)
    # only the parameter count is read, so no weights are drawn
    report = model_param_report(cfg, Separator.build(cfg, seed=None))
    print(format_param_report(report))
    if args.kv:
        Path(args.kv).write_text(serialize_flat(param_report_kv(report)))
    return 0 if report.total_empirical == report.total_analytic else 1


def _cmd_dump_attention(args) -> int:
    p = dump_attention_run(args.checkpoint, args.input, args.selector, args.outdir)
    print(p)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are ``ConfigError``s (subparsers are of this class too)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="casep",
        description="Train, run, and inspect the dual-path separation model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("config")
    p.add_argument("--resume", metavar="CKPT", default=None,
                   help="continue from a checkpoint written by an earlier run")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("separate", help="split one WAV into per-speaker WAVs")
    p.add_argument("checkpoint")
    p.add_argument("input")
    p.add_argument("outdir")
    p.set_defaults(fn=_cmd_separate)

    p = sub.add_parser("eval", help="metrics on held-out synthetic mixtures")
    p.add_argument("checkpoint")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords", type=int, default=200)
    p.set_defaults(fn=_cmd_grad_check)

    p = sub.add_parser("count-params",
                       help="analytic parameter budget, checked against the built model")
    p.add_argument("config")
    p.add_argument("--kv", metavar="PATH", default=None,
                   help="write the machine-readable report here")
    p.set_defaults(fn=_cmd_count_params)

    p = sub.add_parser("dump-attention", help="write one attention map as text")
    p.add_argument("checkpoint")
    p.add_argument("input")
    p.add_argument("selector", help="block:net:iteration:head, e.g. 0:intra:0:1")
    p.add_argument("outdir")
    p.set_defaults(fn=_cmd_dump_attention)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():
            # numpy's overflow warnings only come before the error that
            # reports the non-finite value; the filter covers slab threads
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.fn(args)
    # ValueError: ConfigError, ShapeError, WavFormatError, numpy's "array is too big"
    except (ValueError, NonFiniteError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
