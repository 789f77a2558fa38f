"""Tracing of casep from outside the package, for the benchmark's traced run.

``Tracer.install`` replaces public functions and methods of the casep
modules with wrappers and ``uninstall`` puts the original objects back.
Three kinds of wrapper exist:

- spans, around layer entry points (encoder, hybrid-layer paths, uPIT,
  backward, the Adam step, checkpoint and WAV I/O, ...). A span records
  its operation id, name, start, end and enclosing span, so self time is
  its duration minus the part its child spans cover;
- node counters at ``tensor._from_op``, the constructor every graph node
  goes through, keyed by the op that built the node;
- probes that time or count a helper used everywhere (the finiteness
  check, layer norm, SI-SNR). Probes are not spans: their time stays in
  the self time of the span that called them.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

NODE_KINDS = ("add", "mul", "reshape", "transpose", "matmul", "tmean", "sub")

# span name in the trace -> per-layer metric reporting its self time
SELF_TIME_METRICS = {
    "tensor.backward": "tensor.backward_s",
    "blocks.intra.attn": "blocks.intra.attn_s",
    "blocks.inter.attn": "blocks.inter.attn_s",
    "blocks.intra.conv": "blocks.intra.conv_s",
    "blocks.inter.conv": "blocks.inter.conv_s",
    "blocks.intra.layer": "blocks.intra.ffn_norm_s",
    "blocks.inter.layer": "blocks.inter.ffn_norm_s",
    "chunking.segment": "chunking.segment_s",
    "chunking.overlap_add": "chunking.overlap_add_s",
    "codec.encoder": "codec.encoder_s",
    "codec.decoder": "codec.decoder_s",
    "model.head": "model.head_s",
    "metrics.upit": "metrics.upit_s",
    "optim.adam_step": "optim.adam_step_s",
    "synth.gen_mixture": "synth.gen_mixture_s",
    "checkpoint.load": "checkpoint.load_s",
    "checkpoint.load_state": "checkpoint.load_state_s",
    "model.build": "model.build_s",
    "checkpoint.save": "checkpoint.save_s",
    "wavio.read": "wavio.read_s",
    "wavio.write": "wavio.write_s",
}


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` holds ``(op, name, start, end, parent_index)`` records. A
    span's self time is its duration minus the union of its children's
    intervals, clipped to the span.
    """
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for i, (_, name, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        totals[name] += (end - start) - covered
    return dict(totals)


class Tracer:
    """Spans, node counts and probe totals for one traced measuring loop."""

    def __init__(self):
        self.spans: list[list] = []    # [op, name, start, end, parent index]
        self.op = (0, 0)               # (public call, training step within it)
        self.nodes: Counter = Counter()
        self.node_bytes = 0
        self.attn_weight_bytes = 0
        self.probe_s: dict[str, float] = defaultdict(float)
        self.probe_calls: Counter = Counter()
        self._stack: list[int] = []
        self._block = None             # the DualPathBlock being run, if any
        self._patches: list[tuple] = []

    # -- operation ids ----------------------------------------------------

    def next_call(self) -> None:
        self.op = (self.op[0] + 1, 0)

    def next_step(self) -> None:
        self.op = (self.op[0], self.op[1] + 1)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the
        call's positional arguments."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [self.op, name if isinstance(name, str) else name(args),
                   0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return wrapper

    def _probe(self, key, fn):
        totals, calls = self.probe_s, self.probe_calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[key] += clock() - t0
                calls[key] += 1
        return wrapper

    def _count_nodes(self, fn):
        nodes = self.nodes

        def from_op(data, parents, backward):
            # backward closures are named "<op>.<locals>.bwd"
            nodes[backward.__qualname__.split(".", 1)[0]] += 1
            self.node_bytes += data.nbytes
            return fn(data, parents, backward)
        return from_op

    def _count_attention(self, fn):
        def wrapper(*args, **kwargs):
            out, weights = fn(*args, **kwargs)
            self.attn_weight_bytes += weights.data.nbytes
            return out, weights
        return wrapper

    def _dual_path(self, fn):
        def wrapper(block, *args, **kwargs):
            outer, self._block = self._block, block
            try:
                return fn(block, *args, **kwargs)
            finally:
                self._block = outer
        return self._span("blocks.dual_path", wrapper)

    def _layer_name(self, args) -> str:
        layer, block = args[0], self._block
        if block is None:
            return "blocks.layer"
        intra = block.intra
        is_intra = layer is intra if block.shared else any(l is layer for l in intra)
        return "blocks.intra.layer" if is_intra else "blocks.inter.layer"

    def _path_name(self, suffix):
        def name(_args):
            parent = self.spans[self._stack[-1]][1] if self._stack else "blocks.layer"
            return parent.rsplit(".", 1)[0] + suffix
        return name

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, module, attr, make) -> None:
        """Replace a module-level function everywhere casep refers to it
        (``from .x import f`` copies the reference into other modules)."""
        orig = getattr(module, attr)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if name == "casep" or name.startswith("casep."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, new)

    def _wrap_method(self, cls, attr, make) -> None:
        self._set(cls, attr, make(cls.__dict__[attr]))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from casep import blocks, checkpoint, chunking, codec, metrics, model, \
            nn, optim, synth, tensor, training, wavio

        span = self._span
        self._wrap_function(tensor, "_from_op", self._count_nodes)
        self._wrap_function(tensor, "_check_finite",
                            lambda f: self._probe("tensor.finite_check", f))
        self._wrap_method(tensor.Tensor, "backward",
                          lambda f: span("tensor.backward", f))
        self._wrap_method(nn.LayerNorm, "__call__",
                          lambda f: self._probe("nn.layer_norm", f))
        self._wrap_method(nn.MultiHeadAttention, "__call__", self._count_attention)
        self._wrap_method(blocks.DualPathBlock, "__call__", self._dual_path)
        self._wrap_method(blocks.HybridLayer, "__call__",
                          lambda f: span(self._layer_name, f))
        self._wrap_method(blocks.HybridLayer, "attention_path",
                          lambda f: span(self._path_name(".attn"), f))
        self._wrap_method(blocks.HybridLayer, "conv_path",
                          lambda f: span(self._path_name(".conv"), f))
        self._wrap_method(codec.Encoder, "__call__", lambda f: span("codec.encoder", f))
        self._wrap_method(codec.Decoder, "__call__", lambda f: span("codec.decoder", f))
        self._wrap_method(model.Separator, "forward", lambda f: span("model.forward", f))
        self._wrap_method(model.Separator, "masks_for", lambda f: span("model.head", f))
        self._wrap_method(model.Separator, "build",
                          lambda f: classmethod(span("model.build", f.__func__)))
        self._wrap_method(optim.Adam, "step", lambda f: span("optim.adam_step", f))
        for module, attr, name in (
            (chunking, "segment", "chunking.segment"),
            (chunking, "overlap_add", "chunking.overlap_add"),
            (metrics, "upit_loss", "metrics.upit"),
            (synth, "gen_mixture", "synth.gen_mixture"),
            (checkpoint, "load_checkpoint", "checkpoint.load"),
            (checkpoint, "load_model_state", "checkpoint.load_state"),
            (checkpoint, "save_checkpoint", "checkpoint.save"),
            (wavio, "read_wav", "wavio.read"),
            (wavio, "write_wav", "wavio.write"),
            (training, "train_run", "training.train_run"),
            (training, "separate_files", "training.separate_files"),
        ):
            self._wrap_function(module, attr, lambda f, n=name: span(n, f))
        self._wrap_function(metrics, "si_snr", lambda f: self._probe("metrics.si_snr", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer totals divided by the number of measured operations."""
        per = 1.0 / max(ops, 1)
        selfs = self_times(self.spans)
        out = {"tensor.nodes": sum(self.nodes.values()) * per}
        for kind in NODE_KINDS:
            out[f"tensor.nodes.{kind}"] = self.nodes[kind] * per
        out["tensor.nodes.other"] = sum(
            n for k, n in self.nodes.items() if k not in NODE_KINDS) * per
        out["tensor.node_bytes"] = self.node_bytes * per
        out["tensor.finite_check_s"] = self.probe_s["tensor.finite_check"] * per
        out["nn.layer_norm_s"] = self.probe_s["nn.layer_norm"] * per
        out["nn.layer_norm_calls"] = self.probe_calls["nn.layer_norm"] * per
        out["blocks.attn_weight_bytes"] = self.attn_weight_bytes * per
        out["metrics.si_snr_calls"] = self.probe_calls["metrics.si_snr"] * per
        for span_name, metric in SELF_TIME_METRICS.items():
            out[metric] = selfs.get(span_name, 0.0) * per
        return out

    def span_records(self) -> dict:
        """Column-wise span dump for the trace file."""
        return {
            "op": [list(r[0]) for r in self.spans],
            "name": [r[1] for r in self.spans],
            "start": [r[2] for r in self.spans],
            "end": [r[3] for r in self.spans],
            "parent": [r[4] for r in self.spans],
        }
