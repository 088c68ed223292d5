"""Spans around the public calls of each mxt module, patched from outside.

Nothing in the package knows it is being traced: `Tracer.install` replaces
functions and methods with timing wrappers, everywhere the package holds
them (including names imported by value, such as `mxt.blocks.scan_chunked`),
and `Tracer.uninstall` puts the originals back. Wrappers only read clocks,
shapes and sizes, so a traced run computes bit-identical results.

A span is `[name, start, end, parent, op]`: `parent` indexes the enclosing
span (-1 at top level) and `op` is the benchmark's operation id, or SETUP
for program set-up and OTHER for input preparation and output checks.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

SETUP = -1
OTHER = -2

# Time metrics: base name -> (span names, what the base reports, phase).
# Each base is emitted twice: as named, and with the other kind as suffix
# (".self" for an inclusive base, ".incl" for a self-time base). A phase of
# "op" divides by operations (steps, requests, images), "setup" by set-ups.
_LEVELS = range(4)
TIME_METRICS = {
    "tensor.backward_s": (("tensor.backward",), "incl", "op"),
    **{f"blocks.{kind}_s.L{lv}": ((f"blocks.{kind}.L{lv}",), "incl", "op")
       for kind in ("srsa", "mamba", "gdfn") for lv in _LEVELS},
    "blocks.conv2d_s": (("blocks.conv2d",), "self", "op"),
    "blocks.dwconv_s": (("blocks.dwconv",), "self", "op"),
    "blocks.causal_conv_s": (("blocks.causal_conv",), "self", "op"),
    "blocks.layernorm_s": (("blocks.layernorm",), "self", "op"),
    "blocks.linear_s": (("blocks.linear",), "self", "op"),
    "ssm.selective_scan_s": (("ssm.scan_chunked",), "incl", "op"),
    "ssm.discretize_s": (("ssm.selective_discrete",), "incl", "op"),
    "ssm.scan_s": (("ssm.scan_recurrence",), "incl", "op"),
    "ssm.readout_s": (("ssm.scan_with_params",), "self", "op"),
    "model.forward_s": (("model.forward",), "self", "op"),
    "model.blend_s": (("model.tiled_inference",), "self", "op"),
    "losses.generator_s": (("losses.generator_loss",), "incl", "op"),
    "losses.discriminator_s": (("losses.discriminator_loss",), "incl", "op"),
    "train.adam_s": (("train.adam",), "incl", "op"),
    "train.step_self_s": (("train.train_step",), "self", "op"),
    "data.samples_s": (("data.build_samples",), "incl", "setup"),
    "data.batch_s": (("data.batch_at",), "incl", "op"),
    "data.io_s": (("data.read_image", "data.read_pgm", "data.write_image"), "incl", "op"),
    "checkpoint.save_s": (("checkpoint.save",), "incl", "op"),
    "checkpoint.load_s": (("checkpoint.load",), "incl", "setup"),
    "metrics.ssim_s": (("metrics.ssim",), "incl", "op"),
    "metrics.psnr_s": (("metrics.psnr",), "incl", "op"),
}

# Closure names of the tape ops (`<op>.<locals>.bwd`) reported one by one;
# any other op is summed into "other".
TAPE_OPS = ("_binary", "_unary", "index", "reshape", "transpose", "matmul",
            "pad", "concat", "softmax", "sum_", "mean", "adaptive_avg_pool2d",
            "upsample_nearest2x", "zoh_gain", "scan_recurrence")

# Counters: name -> how one run's samples reduce to a value. "op_mean"
# takes each operation's largest sample (0 if it has none) and averages
# over operations; "max" is the largest sample of the run.
COUNTERS = {
    "tensor.tape_nodes": "op_mean",
    "tensor.tape_mib": "op_mean",
    **{f"tensor.tape_mib.{op}": "op_mean" for op in TAPE_OPS + ("other",)},
    "ssm.state_melems": "max",
    "checkpoint.mib": "max",
}


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for base, (_, kind, _) in TIME_METRICS.items():
        names += [base, base + (".self" if kind == "incl" else ".incl")]
    return names + list(COUNTERS) + ["model.tiles", "trace.overhead_s"]


class Tracer:
    def __init__(self, base_channels: int):
        self.base_channels = base_channels
        self.op = OTHER
        self.spans: list = []
        self.counters: list = []   # (name, value, op)
        self._stack: list = []
        self._undo: list = []
        self.sites: set = set()   # "module.attr" names that were patched

    # ---- recording ------------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        """`name` is a string or a function of the call's arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            label = name if isinstance(name, str) else name(*args, **kwargs)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def count(self, name: str, value: float) -> None:
        self.counters.append((name, value, self.op))

    # ---- patching -------------------------------------------------------------

    def _patch_function(self, module, attr, name, **hooks):
        """Replace a module-level function in every mxt module that holds it."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mxt" and not mod_name.startswith("mxt."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
                    self.sites.add(f"{mod_name}.{key}")

    def _patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, **hooks))
        self._undo.append((cls, attr, original))
        self.sites.add(f"{cls.__module__}.{cls.__name__}.{attr}")

    def install(self) -> None:
        from mxt import blocks, checkpoint, data, losses, metrics, model, ssm, tensor, train

        def level(name):
            def label(module, x, *args, **kwargs):
                return f"blocks.{name}.L{round(math.log2(x.shape[1] / self.base_channels))}"
            return label

        def tape_account(root):
            nodes = tensor.active_tape().nodes
            by_op = defaultdict(int)
            for node in nodes:
                op = node.bwd.__qualname__.split(".", 1)[0]
                by_op[op if op in TAPE_OPS else "other"] += node.out.data.nbytes
            self.count("tensor.tape_nodes", len(nodes))
            self.count("tensor.tape_mib", sum(by_op.values()) / 2**20)
            for op in TAPE_OPS + ("other",):
                self.count(f"tensor.tape_mib.{op}", by_op[op] / 2**20)

        def state_size(result, x, params):
            self.count("ssm.state_melems", result[0].size / 1e6)

        def saved_size(result, path, *args, **kwargs):
            self.count("checkpoint.mib", os.path.getsize(path) / 2**20)

        self._patch_method(tensor.Tensor, "backward", "tensor.backward", before=tape_account)
        self._patch_method(blocks.Srsa, "forward", level("srsa"))
        self._patch_method(blocks.MambaBlock, "forward", level("mamba"))
        self._patch_method(blocks.Gdfn, "forward", level("gdfn"))
        self._patch_method(blocks.Conv2d, "forward", "blocks.conv2d")
        self._patch_method(blocks.DepthwiseConv2d, "forward", "blocks.dwconv")
        self._patch_method(blocks.CausalConv1d, "forward", "blocks.causal_conv")
        self._patch_method(blocks.LayerNorm, "forward", "blocks.layernorm")
        self._patch_method(blocks.Linear, "forward", "blocks.linear")
        self._patch_function(ssm, "scan_chunked", "ssm.scan_chunked")
        self._patch_function(ssm, "selective_discrete", "ssm.selective_discrete",
                             after=state_size)
        self._patch_function(ssm, "scan_recurrence", "ssm.scan_recurrence")
        self._patch_function(ssm, "scan_with_params", "ssm.scan_with_params")
        self._patch_method(model.MxT, "forward", "model.forward")
        self._patch_function(model, "tiled_inference", "model.tiled_inference")
        self._patch_function(losses, "generator_loss", "losses.generator_loss")
        self._patch_function(losses, "discriminator_loss", "losses.discriminator_loss")
        self._patch_method(train.Adam, "step", "train.adam")
        self._patch_function(train, "train_step", "train.train_step")
        self._patch_function(train, "build_samples", "data.build_samples")
        self._patch_function(data, "batch_at", "data.batch_at")
        for fn in ("read_image", "read_pgm", "write_image"):
            self._patch_function(data, fn, f"data.{fn}")
        self._patch_function(checkpoint, "save_checkpoint", "checkpoint.save", after=saved_size)
        self._patch_function(checkpoint, "load_checkpoint", "checkpoint.load")
        self._patch_function(metrics, "ssim", "metrics.ssim")
        self._patch_function(metrics, "psnr", "metrics.psnr")
        # names the program imports by value must be covered too
        for site in ("mxt.blocks.scan_chunked", "mxt.train.generator_loss",
                     "mxt.train.discriminator_loss", "mxt.train.batch_at"):
            if site not in self.sites:
                raise RuntimeError(f"tracing did not reach {site}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ---- reduction ------------------------------------------------------------

    def metrics(self, ops: int, setups: int) -> tuple:
        """(per-layer metrics, samples per metric) for one traced phase."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        incl = defaultdict(float)
        self_ = defaultdict(float)
        seen = defaultdict(int)
        tiles = 0
        for i, (name, start, end, parent, op) in enumerate(spans):
            phase = "op" if op >= 0 else "setup" if op == SETUP else None
            if phase is None:
                continue
            incl[name, phase] += end - start
            self_[name, phase] += end - start - child_time[i]
            seen[name, phase] += 1
            if (phase == "op" and name == "model.forward" and parent >= 0
                    and spans[parent][0] == "model.tiled_inference"):
                tiles += 1

        out, samples = {}, {}
        for base, (names, kind, phase) in TIME_METRICS.items():
            per = max(ops if phase == "op" else setups, 1)
            i_val = sum(incl[n, phase] for n in names) / per
            s_val = sum(self_[n, phase] for n in names) / per
            other = ".self" if kind == "incl" else ".incl"
            out[base] = i_val if kind == "incl" else s_val
            out[base + other] = s_val if kind == "incl" else i_val
            samples[base] = samples[base + other] = sum(seen[n, phase] for n in names)

        per_op = defaultdict(dict)
        run_max = defaultdict(float)
        for name, value, op in self.counters:
            if op < 0:
                continue
            per_op[name][op] = max(per_op[name].get(op, 0.0), value)
            run_max[name] = max(run_max[name], value)
        for name, reduce in COUNTERS.items():
            out[name] = (sum(per_op[name].values()) / max(ops, 1) if reduce == "op_mean"
                         else run_max[name])
            samples[name] = len(per_op[name])
        out["model.tiles"] = tiles / max(ops, 1)
        samples["model.tiles"] = tiles
        return out, samples

    def dump(self, path: str, t0: float) -> None:
        """Write the spans as JSON lines, times relative to t0."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                    parent, op]) + "\n")
