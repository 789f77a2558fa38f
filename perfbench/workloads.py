"""The benchmark's workloads.

Each workload makes its inputs from the seed, outside any timed region,
then runs a closed loop through casep's public entry points: the next
operation starts when the previous one returns. ``train_*`` loops call
``training.train_run`` (what ``casep train`` runs) and ``separate_*``
loops call ``training.separate_files`` (what ``casep separate`` runs).
Before the loop, one reference operation on fixed inputs warms the
process up and is checked against values stored in ``reference.json``.
"""

from __future__ import annotations

import functools
import json
import math
import time
import wave
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from casep import optim, training
from casep.checkpoint import load_checkpoint, load_model_state, model_state, \
    save_checkpoint
from casep.config import SyntheticSpec, default_model_config, \
    model_config_from_flat, parse_flat
from casep.model import Separator
from casep.synth import gen_mixture
from casep.wavio import write_wav

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REF_SEED = 0      # seed of the fixed reference inputs
MODEL_SEED = 0    # weights of the full-scale separation checkpoint
LOSS_TOL = 1e-2   # dB; covers BLAS thread-count and summation-order rounding
DIGEST_SEED = 0
DIGEST_VECTORS = 8
DIGEST_RTOL = 1e-3

# The README smoke config.
SMOKE = """
encoder.filters = 16
encoder.kernel = 4
encoder.stride = 2
model.chunk_size = 8
model.speakers = 2
model.blocks = 1
model.intra_reps = 1
model.inter_reps = 1
model.shared = false
intra.attn_channels = 8
intra.conv_channels = 8
intra.heads = 2
intra.kernel = 5
intra.ffn_dim = 64
inter.attn_channels = 8
inter.conv_channels = 8
inter.heads = 2
inter.kernel = 3
inter.ffn_dim = 64
data.kind = sinusoid
data.length = 512
data.bands = 200-400; 1000-2000
train.lr = 1e-3
train.batch = 2
"""

# Paper layer width (256 = 128 attention + 128 conv) in one block.
WIDE = """
encoder.filters = 256
encoder.kernel = 16
encoder.stride = 8
model.chunk_size = 250
model.speakers = 2
model.blocks = 1
model.intra_reps = 1
model.inter_reps = 1
model.shared = false
intra.attn_channels = 128
intra.conv_channels = 128
intra.heads = 8
intra.kernel = 51
intra.ffn_dim = 1024
inter.attn_channels = 128
inter.conv_channels = 128
inter.heads = 8
inter.kernel = 11
inter.ffn_dim = 1024
data.kind = noise_band
data.length = 4000
data.bands = 200-1200; 1500-3500
train.lr = 1e-3
train.batch = 2
"""

# Host-speed probes. On the shared 2-vCPU host where these were chosen,
# speed changed by up to 1.5x in phases from seconds to minutes long, and
# every workload slowed with it. An end-to-end run therefore times a fixed
# probe next to each operation and set-up, and scales their times by
# probe_ref_s / probe time: the time at the host speed where the probe
# takes probe_ref_s, about that host's fast phase. Each workload uses the
# probe that tracked its slowdowns best there: a pure Python loop for
# training on tiny arrays, whose steps are interpreter-bound, and
# large-array arithmetic for the full-scale separation.
def probe_interp() -> float:
    """Seconds taken by a pure Python loop (about 0.3 ms)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s += i * i
    return time.perf_counter() - t0


@functools.cache
def _probe_arrays():
    rng = np.random.default_rng(0)
    return rng.standard_normal((384, 384)), rng.standard_normal(1 << 20)


def probe_array() -> float:
    """Seconds taken by matrix products and passes over 8 MB (about 45 ms)."""
    matrix, vector = _probe_arrays()
    t0 = time.perf_counter()
    y = matrix
    for _ in range(6):
        y = np.tanh(y @ matrix * 0.05)
    z = vector
    for _ in range(10):
        z = np.sqrt(z * z + 1.0)
    return time.perf_counter() - t0


# Separation inputs: two disjoint noise bands at a mixture RMS of about
# 0.15-0.3; write_wav clips the rare peaks beyond full scale.
SEPARATE_BANDS = [(200.0, 1200.0), (1500.0, 3500.0)]
SEPARATE_LEVEL_DB = (-20.0, -14.0)


@dataclass
class LoopResult:
    """What one closed measuring loop produced."""

    op_s: list[float] = field(default_factory=list)  # step or call wall times
    probe_s: list[float] = field(default_factory=list)  # host probe next to each op_s
    busy_s: float = 0.0       # step-loop time (training) or call time (separation)
    examples: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    finish_s: list[float] = field(default_factory=list)
    si_snri_db: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)  # set-ups run between operations
    setup_probe_s: list[float] = field(default_factory=list)  # host probe after each

    def record_failure(self, problems: list[str]) -> None:
        self.failed += 1
        self.errors.extend(problems)


def load_reference(name: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[name]


class StepClock:
    """Times training steps from outside casep.

    While active, ``casep.training.Adam`` is a subclass that times each
    step of a ``train_run`` call, from the return of its constructor or of
    the previous step to the return of ``step``. ``on_step`` runs after
    each step, outside the timed intervals.
    """

    def __init__(self, on_step=None):
        self.calls: list[list[float]] = []  # step durations of each call
        self.resumed = 0.0  # when the last step, with its on_step, ended
        self._on_step = on_step
        self._saved = None

    def __enter__(self) -> "StepClock":
        clock, on_step = self, self._on_step

        class ClockedAdam(optim.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clock.calls.append([])
                clock.resumed = time.perf_counter()

            def step(self):
                super().step()
                clock.calls[-1].append(time.perf_counter() - clock.resumed)
                if on_step is not None:
                    on_step()
                clock.resumed = time.perf_counter()

        self._saved = training.Adam
        training.Adam = ClockedAdam
        return self

    def __exit__(self, *exc) -> None:
        training.Adam = self._saved


class TrainWorkload:
    kind = "train"
    probe = staticmethod(probe_interp)
    probe_ref_s = 0.3e-3  # never change: it rescales every figure

    def __init__(self, name: str, config: str, steps: int, si_snri_floor_db: float):
        self.name = name
        self.base = parse_flat(config)
        self.base["train.steps"] = str(steps)
        self.steps = steps
        self.batch = int(self.base["train.batch"])
        self.si_snri_floor_db = si_snri_floor_db
        self.cfg = model_config_from_flat(self.base)
        self.audio_s_per_op = (self.batch * int(self.base["data.length"])
                               / self.cfg.sample_rate)

    def entries(self, seed: int) -> dict[str, str]:
        out = dict(self.base)
        out.update({"data.seed": str(seed), "train.seed": str(seed),
                    "train.out_dir": str(self.work / "train")})
        return out

    def prepare(self, seed: int, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.seed = seed

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        model = Separator.build(self.cfg, self.seed)
        optim.Adam(model.named_parameters(), lr=float(self.base["train.lr"]))
        return time.perf_counter() - t0

    def reference_values(self) -> dict:
        result = training.train_run(self.entries(REF_SEED))
        return {"final_loss": result.losses[-1], "si_snri_db": result.train_si_snri}

    def check_reference(self) -> list[str]:
        ref = load_reference(self.name)
        got = self.reference_values()
        problems = []
        if not abs(got["final_loss"] - ref["final_loss"]) <= LOSS_TOL:
            problems.append(f"reference final loss {got['final_loss']:.6f} != "
                            f"stored {ref['final_loss']:.6f} (tol {LOSS_TOL})")
        if not got["si_snri_db"] >= self.si_snri_floor_db:
            problems.append(f"reference SI-SNRi {got['si_snri_db']:.3f} dB below "
                            f"floor {self.si_snri_floor_db}")
        return problems

    def _check(self, result, steps, first_losses) -> list[str]:
        problems = []
        if len(result.losses) != self.steps or len(steps) != self.steps:
            problems.append(f"ran {len(result.losses)} steps, expected {self.steps}")
        if not all(math.isfinite(v) for v in result.losses):
            problems.append("non-finite training loss")
        if first_losses is not None and result.losses != first_losses:
            problems.append("losses differ from the first call with the same inputs")
        if not result.train_si_snri >= self.si_snri_floor_db:
            problems.append(f"SI-SNRi {result.train_si_snri:.3f} dB below floor "
                            f"{self.si_snri_floor_db}")
        return problems

    def loop(self, seconds: float, tracer=None, probed=False) -> LoopResult:
        """Call ``train_run`` until ``seconds`` have passed. With ``probed``,
        the host probe runs after every step, and a set-up and a probe run
        between consecutive calls."""
        res = LoopResult()
        entries = self.entries(self.seed)
        first_losses = None
        probes: list[float] = []
        on_step = tracer.next_step if tracer else \
            (lambda: probes.append(self.probe())) if probed else None
        with StepClock(on_step) as clock:
            t_end = time.perf_counter() + seconds
            while True:
                if tracer:
                    tracer.next_call()
                res.attempted += 1
                n_calls = len(clock.calls)
                probes.clear()
                try:
                    result = training.train_run(entries)
                except Exception as exc:  # a failed operation is counted, not fatal
                    res.record_failure([f"{type(exc).__name__}: {exc}"])
                else:
                    done = time.perf_counter()
                    steps = clock.calls[-1] if len(clock.calls) > n_calls else []
                    problems = self._check(result, steps, first_losses)
                    if problems:
                        res.record_failure(problems)
                    else:
                        first_losses = first_losses or result.losses
                        res.op_s.extend(steps)
                        res.probe_s.extend(probes)
                        res.busy_s += sum(steps)
                        res.examples += self.steps * self.batch
                        res.finish_s.append(done - clock.resumed)
                        res.si_snri_db.append(result.train_si_snri)
                if time.perf_counter() >= t_end:
                    return res
                if probed:
                    res.setup_s.append(self.setup_once())
                    res.setup_probe_s.append(self.probe())


def read_pcm16(path) -> np.ndarray:
    """The benchmark's own WAV reader, so checks never run through casep."""
    with wave.open(str(path), "rb") as f:
        if f.getnchannels() != 1 or f.getsampwidth() != 2:
            raise ValueError(f"{path}: not mono 16-bit PCM")
        raw = f.readframes(f.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def output_digest(samples: np.ndarray) -> list[float]:
    """Projections of a separated signal on DIGEST_VECTORS fixed Gaussian
    vectors: a change of any sample's size, sign or place moves them."""
    basis = np.random.default_rng(DIGEST_SEED).standard_normal(
        (DIGEST_VECTORS, samples.shape[0]))
    return (basis @ samples).tolist()


def digest_matches(got, ref) -> bool:
    """``got`` is within DIGEST_RTOL of ``ref``, relative to the norm of ``ref``."""
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and \
        float(np.linalg.norm(got - ref)) <= DIGEST_RTOL * float(np.linalg.norm(ref))


class SeparateWorkload:
    kind = "separate"
    probe = staticmethod(probe_array)
    probe_ref_s = 0.040  # never change: it rescales every figure

    def __init__(self, name: str, samples: int, files: int):
        self.name = name
        self.samples = samples
        self.files = files
        self.cfg = default_model_config()
        self.audio_s_per_op = samples / self.cfg.sample_rate

    def _spec(self, seed: int) -> SyntheticSpec:
        lo, hi = SEPARATE_LEVEL_DB
        return SyntheticSpec(n_sources=self.cfg.speakers, length=self.samples,
                             sample_rate=self.cfg.sample_rate, kind="noise_band",
                             bands=SEPARATE_BANDS, level_db_lo=lo, level_db_hi=hi,
                             seed=seed)

    def prepare(self, seed: int, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.out_dir = work / "separated"
        self.checkpoint = work / "model.tsep"
        model = Separator.build(self.cfg, MODEL_SEED)
        save_checkpoint(self.checkpoint, self.cfg, model_state(model))
        del model
        spec = self._spec(seed)
        self.inputs = []
        for i in range(self.files):
            path = work / f"mix{i:03d}.wav"
            write_wav(path, gen_mixture(spec, i)[0])
            self.inputs.append(path)
        self.reference_input = work / "reference.wav"
        write_wav(self.reference_input, gen_mixture(replace(spec, seed=REF_SEED), 0)[0])

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        cfg, _, tensors = load_checkpoint(self.checkpoint)
        model = Separator.build(cfg, 0)
        load_model_state(model, tensors)
        return time.perf_counter() - t0

    def _separate(self, path: Path):
        """Separate one file and check its outputs.

        Returns (outputs, problems, seconds the ``separate_files`` call took).
        """
        t0 = time.perf_counter()
        paths = training.separate_files(str(self.checkpoint), str(path),
                                        str(self.out_dir))
        elapsed = time.perf_counter() - t0
        if len(paths) != self.cfg.speakers:
            return [], [f"{len(paths)} output files for {self.cfg.speakers} "
                        "speakers"], elapsed
        outputs, problems = [], []
        for p in paths:
            samples = read_pcm16(p)
            if samples.shape[0] != self.samples:
                problems.append(f"{p.name}: {samples.shape[0]} samples, "
                                f"input has {self.samples}")
            elif not np.any(samples):
                problems.append(f"{p.name}: silent output")
            outputs.append(samples)
        return outputs, problems, elapsed

    def reference_values(self) -> dict:
        outputs, problems, _ = self._separate(self.reference_input)
        if problems:
            raise RuntimeError("; ".join(problems))
        return {"digests": [output_digest(s) for s in outputs]}

    def check_reference(self) -> list[str]:
        ref = load_reference(self.name)["digests"]
        outputs, problems, _ = self._separate(self.reference_input)
        for i, samples in enumerate(outputs):
            if not digest_matches(output_digest(samples), ref[i]):
                problems.append(f"speaker {i + 1} output differs from the "
                                "stored digest")
        return problems

    def loop(self, seconds: float, tracer=None, probed=False) -> LoopResult:
        """Call ``separate_files`` until ``seconds`` have passed. With
        ``probed``, the host probe runs before and after every call, and a
        set-up runs before each probe between consecutive calls."""
        res = LoopResult()
        before = self.probe() if probed else 0.0
        t_end = time.perf_counter() + seconds
        while True:
            if tracer:
                tracer.next_call()
            path = self.inputs[res.attempted % self.files]
            res.attempted += 1
            try:
                _, problems, elapsed = self._separate(path)
            except Exception as exc:  # a failed operation is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                res.record_failure(problems)
            else:
                res.op_s.append(elapsed)
                if probed:
                    res.probe_s.append((before + self.probe()) / 2)
                res.busy_s += elapsed
                res.examples += 1
            if time.perf_counter() >= t_end:
                return res
            if probed:
                res.setup_s.append(self.setup_once())
                before = self.probe()
                res.setup_probe_s.append(before)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "train_smoke": lambda: TrainWorkload("train_smoke", SMOKE, steps=50,
                                         si_snri_floor_db=0.0),
    "train_wide": lambda: TrainWorkload("train_wide", WIDE, steps=6,
                                        si_snri_floor_db=-3.0),
    "separate_short": lambda: SeparateWorkload("separate_short", 8000, files=32),
    "separate_long": lambda: SeparateWorkload("separate_long", 32000, files=8),
}
