"""The "TSEP" checkpoint container.

Layout, version 2 (all integers little-endian uint32):

    b"TSEP" | version | config_len | config utf-8 text
    | tensor_count | { name_len | name utf-8 | rank | extents... | padding
    | payload }*

Payloads are row-major little-endian 32-bit floats. The padding is zero
bytes up to the next file offset that is a multiple of ``ALIGN``, so every
payload of a mapped file is an aligned array a model can use as its
weights without a copy. Version 1 is the same layout without padding; it is
still read, never written. The embedded config is the flat
``section.key = value`` text of the model (plus any extra run metadata the
writer chooses to record), enough to rebuild the architecture without the
original config file. Optimizer state rides along under reserved
``optim.`` name prefixes; loaders that only want weights skip those.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from .config import ModelConfig, model_config_from_flat, model_config_to_flat, \
    parse_flat, serialize_flat
from .model import Separator
from .nn import Module
from .tensor import ConfigError

MAGIC = b"TSEP"
VERSION = 2
ALIGN = 64


def save_checkpoint(path, cfg: ModelConfig, tensors: dict[str, np.ndarray],
                    extra_entries: dict[str, str] | None = None) -> None:
    entries = model_config_to_flat(cfg)
    if extra_entries:
        entries.update(extra_entries)
    config_blob = serialize_flat(entries).encode()
    # write a sibling file and rename it over the target, so an interrupted
    # save leaves the previous checkpoint intact
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + struct.pack("<II", VERSION, len(config_blob)))
            f.write(config_blob)
            f.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                blob = name.encode()
                # asarray keeps a 0-d shape; the payload is the same bytes
                arr = np.asarray(arr, dtype="<f4")
                f.write(struct.pack(f"<I{len(blob)}sI{arr.ndim}I", len(blob), blob,
                                    arr.ndim, *arr.shape))
                f.write(bytes(-f.tell() % ALIGN))
                f.write(np.ascontiguousarray(arr).data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    """Maps the file once, copy-on-write; ``take`` returns views."""

    def __init__(self, path):
        self.path = path
        # a private mapping reads the page cache in place: no copy into fresh
        # memory, whose page faults cost more than the copy, and writes to a
        # view never reach the file
        with open(path, "rb") as f:
            if os.fstat(f.fileno()).st_size:
                mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
                self.blob = np.frombuffer(mapped, dtype=np.uint8)
            else:
                self.blob = np.zeros(0, dtype=np.uint8)
        self.view = memoryview(self.blob)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise ConfigError("truncated checkpoint file")
        out = self.view[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, what: str) -> str:
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError:
            raise ConfigError(f"{self.path}: checkpoint {what} is not UTF-8") from None


def load_checkpoint(path):
    """Returns (ModelConfig, raw config entries, {name: float32 array}).

    Reads versions 1 and 2. The arrays are writable views into one private
    mapping of the whole file; a version-2 array starts on an ``ALIGN``-byte
    boundary. Writes to them stay in this process. Like any mapped file, one
    rewritten in place while its arrays are alive can change their values,
    and one truncated in place faults when they are read; ``save_checkpoint``
    replaces a file by rename, which is safe."""
    r = _Reader(path)
    if r.take(4) != MAGIC:
        raise ConfigError(f"{path}: not a checkpoint (bad magic)")
    version = r.u32()
    if version not in (1, VERSION):
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    entries = parse_flat(r.text("config"))
    cfg = model_config_from_flat(entries)
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text("tensor name")
        rank = r.u32()
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank)) if rank else ()
        count = math.prod(shape)   # Python ints: np.prod of huge extents wraps
        if name in tensors:
            raise ConfigError(f"{path}: checkpoint lists tensor {name} twice")
        if version == VERSION:
            r.take(-r.pos % ALIGN)
        tensors[name] = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
    if r.pos != len(r.blob):
        raise ConfigError(f"{path}: trailing bytes after last tensor")
    return cfg, entries, tensors


def model_state(model: Module) -> dict[str, np.ndarray]:
    """Named weights in graph order; a shared weight appears once."""
    return {name: p.data for name, p in model.named_parameters()}


def load_model_state(model: Module, tensors: dict[str, np.ndarray]) -> None:
    """Give a built model's parameters the checkpoint's weights, name by name.

    A parameter takes the checkpoint's array itself when that array already
    has the parameter's dtype and is aligned and writable, as a single-
    precision model's weights from a version-2 file are; otherwise it takes
    an aligned copy cast to its dtype. The model may therefore share memory
    with ``tensors``, and through them with the file's mapping."""
    weights = {k: v for k, v in tensors.items() if not k.startswith("optim.")}
    lookup = dict(model.named_parameters())
    missing = sorted(set(lookup) - set(weights))
    if missing:
        raise ConfigError(f"checkpoint lacks weights for: {', '.join(missing[:5])}")
    extra = sorted(set(weights) - set(lookup))
    if extra:
        raise ConfigError(f"checkpoint has unknown weights: {', '.join(extra[:5])}")
    for name, arr in weights.items():
        p = lookup[name]
        if tuple(arr.shape) != p.data.shape:
            raise ConfigError(
                f"shape mismatch for {name}: checkpoint {arr.shape} "
                f"vs model {p.data.shape}"
            )
        p.data = np.require(arr, p.data.dtype, "CAW")


def load_separator(path) -> tuple[Separator, dict[str, str]]:
    """Rebuild the model a checkpoint stores: (model, raw config entries).

    A single-precision model from a version-2 file reads its weights from
    the file's private mapping for as long as it lives (see
    ``load_checkpoint``)."""
    cfg, entries, tensors = load_checkpoint(path)
    model = Separator.build(cfg, seed=None)
    load_model_state(model, tensors)
    for name, arr in model_state(model).items():
        if not np.isfinite(arr).all():
            raise ConfigError(f"{path}: checkpoint weight {name} is non-finite")
    return model, entries
