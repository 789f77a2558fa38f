"""
Waveform codec and two-axis chunking
====================================

Encode a waveform into learned filter activations, fold the frame axis
into half-overlapping chunks, and check that both stages invert cleanly.
"""

import numpy as np

from casep.chunking import overlap_add, segment
from casep.codec import Decoder, Encoder, EncoderConfig
from casep.config import SyntheticSpec
from casep.synth import gen_mixture
from casep.tensor import Tensor, no_grad

spec = SyntheticSpec(length=4000)
mixture, sources = gen_mixture(spec, index=0)
print("mixture samples", len(mixture), "at", mixture.sample_rate, "Hz")

cfg = EncoderConfig(filters=64, kernel=16, stride=8)
encoder = Encoder(cfg, np.random.default_rng(0))
decoder = Decoder(cfg, np.random.default_rng(1))

with no_grad():
    latent = encoder(Tensor(mixture.samples))
print("latent grid    ", latent.shape, "(frames, filters)")

# Chunking views the frame axis as overlapping windows; overlap-add with
# count normalization undoes it exactly, including the zero padding, once
# it is told the frame count to trim back to.
chunks = segment(latent, size=50)
print("chunked        ", chunks.shape, "(chunks, chunk, filters)")
restored = overlap_add(chunks, latent.shape[0])
print("round trip exact:", np.array_equal(restored.data, latent.data))

# An all-ones mask passes the latent straight through the decoder. Masks
# carry a speaker axis before the frame axis; here there is one speaker.
# Like overlap-add, the decoder is told the sample count to return: the
# input's, zero past the last window when the encoder's windows fall short.
with no_grad():
    out = decoder(Tensor(np.ones((1,) + latent.shape, dtype=latent.dtype)), latent,
                  len(mixture))
print("decoded samples", out.shape[-1],
      "== input samples:", out.shape[-1] == len(mixture))
