"""Benchmark casep end to end (``--trace 0``) or layer by layer (``--trace 1``).

Run from the repository root:

    python3 perfbench/run.py --workload train_smoke --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it is the detailed report under the metric names of perfbench/README.md,
with the environment; it is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3  # set-ups before the loop; one more runs between its operations
MIN_BEYOND = 10  # a tail percentile is reported only with this many samples above it


def limit_threads() -> int:
    """Run BLAS on one thread; call before numpy loads. Returns ``nproc``.

    On a small shared machine a second BLAS thread competes with every
    other process and made run-to-run spread several times wider. One
    thread also makes results independent of the core count.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "casep").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": nproc,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def checked_reference(wl) -> list[str]:
    """Run the reference operation (also the warm-up) and check its output."""
    try:
        return wl.check_reference()
    except Exception as exc:  # reported as a failed operation
        return [f"reference operation failed: {type(exc).__name__}: {exc}"]


def percentile(values, pct: float) -> float:
    """Nearest-rank ``pct``-th percentile: a sample value."""
    return sorted(values)[max(1, math.ceil(pct / 100.0 * len(values))) - 1]


def tail_percentile(values, pct: float = 90.0):
    """``pct``-th percentile, or None when fewer than ten samples lie beyond it."""
    n = len(values)
    if n - max(1, math.ceil(pct / 100.0 * n)) < MIN_BEYOND:
        return None
    return percentile(values, pct)


def timing_detail(wl, loop) -> dict:
    """The loop's timings under the metric names of the README."""
    ops = loop.op_s
    if not ops:
        return {"samples": 0}
    p50, p90 = median(ops), tail_percentile(ops)
    if wl.kind == "train":
        return {
            "train.step_ms.p50": p50 * 1e3,
            "train.step_ms.p90": None if p90 is None else p90 * 1e3,
            "train.step_ms.samples": len(ops),
            "train.examples_per_s": loop.examples / loop.busy_s,
            "train.finish_s": median(loop.finish_s),
            "train.si_snri_db": median(loop.si_snri_db),
        }
    return {
        "separate.rtf.p50": p50 / wl.audio_s_per_op,
        "separate.rtf.p90": None if p90 is None else p90 / wl.audio_s_per_op,
        "separate.rtf.samples": len(ops),
        "separate.files_per_s": loop.examples / loop.busy_s,
    }


def at_ref_speed(wl, times, probes) -> float:
    """Median of ``times``, each scaled to the reference host speed by the
    host probe timed next to it (see the probes in workloads.py)."""
    return median(t * wl.probe_ref_s / p for t, p in zip(times, probes))


def untraced_run(wl, seconds: float):
    # Set-ups are spread over the run, one between each two operations, so
    # that they sample the host's slow and fast phases alike.
    setup, setup_probe = [], []
    for _ in range(SETUP_REPS):
        setup.append(wl.setup_once())
        setup_probe.append(wl.probe())
    problems = checked_reference(wl)
    loop = wl.loop(seconds, probed=True)
    setup += loop.setup_s
    setup_probe += loop.setup_probe_s
    rtf = at_ref_speed(wl, loop.op_s, loop.probe_s) / wl.audio_s_per_op \
        if loop.op_s else 0.0
    probes = setup_probe + loop.probe_s
    metrics = {  # name -> (value, unit)
        "setup_s": (at_ref_speed(wl, setup, setup_probe), "s"),
        "rtf_ref.p50": (rtf, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"setup_s": metrics["setup_s"][0], "setup_s.raw": median(setup),
              "setup_s.samples": len(setup), "rtf_ref.p50": rtf,
              "host.speed": wl.probe_ref_s / median(probes),
              "host.probes": len(probes),
              **timing_detail(wl, loop), "peak_rss_mb": peak_rss_mb()}
    return metrics, detail, problems + loop.errors, \
        1 + loop.attempted, int(bool(problems)) + loop.failed


PER_LAYER_UNITS = {"_s": "s/op", "_calls": "count/op", "_bytes": "B/op"}


def traced_run(wl, seconds: float, spans_path: Path):
    """Half the time untraced, then half traced; the per-layer numbers come
    from the traced half, the overhead from the difference of the two."""
    problems = checked_reference(wl)
    plain = wl.loop(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.loop(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = {}
    for name, value in tracer.layer_metrics(len(traced.op_s)).items():
        unit = next((u for suffix, u in PER_LAYER_UNITS.items()
                     if name.endswith(suffix)), "count/op")
        metrics[name] = (value, unit)
    if plain.op_s and traced.op_s:
        base, slow = median(plain.op_s), median(traced.op_s)
        metrics["trace.overhead_ms"] = ((slow - base) * 1e3, "ms")
        metrics["trace.overhead_pct"] = (100.0 * (slow - base) / base, "%")
    else:
        metrics["trace.overhead_ms"] = (0.0, "ms")
        metrics["trace.overhead_pct"] = (0.0, "%")
    detail = {"untraced": timing_detail(wl, plain), "traced": timing_detail(wl, traced),
              "spans": len(tracer.spans)}
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps(tracer.span_records()))
    errors = problems + plain.errors + traced.errors
    return metrics, detail, errors, 1 + plain.attempted + traced.attempted, \
        int(bool(problems)) + plain.failed + traced.failed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "casep" / "__init__.py").is_file():
        print(f"perfbench: no casep sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    nproc = limit_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    out_stem = f"{args.workload}-seed{args.seed}"
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        wl.prepare(args.seed, work)
        if args.trace:
            outcome = traced_run(wl, args.seconds, OUT_DIR / f"{out_stem}-spans.json")
        else:
            outcome = untraced_run(wl, args.seconds)
        metrics, detail, errors, attempted, failed = outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **detail,
              "error_rate": failed / attempted, "attempted": attempted,
              "failed": failed, "errors": errors[:20],
              "environment": environment(nproc)}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{out_stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
