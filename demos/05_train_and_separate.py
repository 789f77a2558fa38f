"""
Train a desk-scale separator end to end
=======================================

Five hundred optimizer steps on synthetic two-source mixtures take about
ten seconds and lift the training SI-SNR well above the mixture
baseline. The trained model then pulls a held-out mixture apart, and we
peek at one attention map.
"""

import tempfile
from pathlib import Path

import numpy as np

from casep.checkpoint import load_separator
from casep.codec import Waveform
from casep.config import parse_flat, synthetic_spec_from_flat
from casep.metrics import improvements
from casep.synth import gen_mixture
from casep.training import dump_attention_run, train_run
from casep.wavio import write_wav

CONFIG = """
encoder.filters = 16
encoder.kernel = 4
encoder.stride = 2
model.chunk_size = 8
model.speakers = 2
model.blocks = 1
model.intra_reps = 1
model.inter_reps = 1
model.shared = false
model.sample_rate = 8000
model.precision = single
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
data.seed = 0
train.steps = 500
train.lr = 1e-3
train.batch = 2
train.seed = 0
"""

# Everything the run writes goes to a directory removed at the end.
with tempfile.TemporaryDirectory(prefix="separator_demo_") as tmp:
    work = Path(tmp)
    entries = parse_flat(CONFIG)
    entries["train.out_dir"] = str(work)

    result = train_run(entries)
    print(f"trained {result.end_step} steps in {result.wall_time:.1f}s, "
          f"final loss {result.losses[-1]:+.2f}, "
          f"train SI-SNRi {result.train_si_snri:+.2f} dB")

    # Separate a mixture the training stream never produced (fresh seed).
    spec = synthetic_spec_from_flat(entries, 2, 8000)
    spec.seed = 1234
    mixture, sources = gen_mixture(spec, index=0)

    model, _ = load_separator(result.checkpoint_path)
    estimates = model.separate(mixture)

    improvement, _ = improvements(
        [e.samples for e in estimates],
        [s.samples for s in sources],
        mixture.samples,
    )
    print(f"held-out mixture separated: SI-SNRi {improvement:+.2f} dB")

    # Attention maps are row-stochastic scores; here the first head's
    # within-chunk map from the only block. Scale before writing so the
    # 16-bit file does not clip.
    wav = work / "mix.wav"
    write_wav(wav, Waveform(0.2 * mixture.samples, mixture.sample_rate))
    path = dump_attention_run(str(result.checkpoint_path), str(wav),
                              "0:intra:0:0", str(work / "maps"))
    grid = np.loadtxt(path)
    print(f"attention map {grid.shape[0]}x{grid.shape[1]} dumped to {Path(path).name}")
    print("row sums:", np.round(grid.sum(axis=1), 6))
