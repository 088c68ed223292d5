"""The three workloads, each a closed loop with one client on the paper layout.

A workload is driven through the public entry points of `mxt`, making the
calls `mxt train`, `mxt infer` and `mxt eval` make. Calls go through module
attributes (`M.tiled_inference`, not an imported name) so that the tracer's
wrappers see them. Every call into the program runs inside a `Tape` or under
`no_grad`, as the program's own entry points do, so the benchmark adds
nothing to the global tape.

Output checks test properties a legitimate speed-up keeps, never golden
values. An operation that raises or fails a check counts as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import statistics
import time

import numpy as np

from mxt import data as D
from mxt import metrics as ME
from mxt import model as M
from mxt import train as TR
from mxt.losses import LossWeights

# the layout of the paper: 4,685,323 parameters at float32
PAPER = {"base_channels": 16, "hm_counts": (4, 6, 6, 8, 6, 6, 4)}
# seed of the untrained weights that infer and eval load; compute cost does
# not depend on weight values, so the weights need no training
WEIGHTS_SEED = 0


class Budget:
    """When a closed loop stops: after a fixed number of operations, or once
    the next operation, at its estimated duration (0 if there is none yet),
    would end past the deadline. The first `min_ops` operations always run."""

    def __init__(self, seconds: float | None, ops: int | None, min_ops: int):
        self.seconds, self.ops, self.min_ops = seconds, ops, min_ops
        self.t0 = time.perf_counter()

    def start_next(self, index: int, est: float | None, extra: float = 0.0) -> bool:
        """May operation `index` start, `extra` seconds from now?"""
        if self.ops is not None:
            return index < self.ops
        if index < self.min_ops:
            return True
        return time.perf_counter() - self.t0 + extra + (est or 0.0) <= self.seconds


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _differing(mine: dict, theirs: dict) -> list:
    """Names whose arrays are not bit-identical (or missing) in `theirs`."""
    return [n for n, a in mine.items()
            if n not in theirs or a.dtype != theirs[n].dtype
            or a.shape != theirs[n].shape or a.tobytes() != theirs[n].tobytes()]


def _params(module) -> dict:
    return {n: p.data for n, p in module.named_parameters()}


def _write_untrained_checkpoint(path: str) -> None:
    model = M.MxT(M.ModelConfig(**PAPER), np.random.default_rng(WEIGHTS_SEED),
                  dtype=np.float32)
    M.save_model(path, model)


class Workload:
    name = ""
    min_ops = 1
    ITEMS_PER_OP = 1  # samples, requests or images

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.reset()

    def reset(self) -> None:
        """Clear the results of a previous phase."""
        self.attempted = 0
        self.loop_ops = 0          # operations run by the timed loop
        self.failed_ops: set = set()
        self.errors: list = []
        self.digests: list = []    # outputs that a traced run must reproduce
        self.info: dict = {}
        self.latencies: dict = {}  # input size -> seconds per operation
        self.items = 0             # samples, requests or images done
        self.busy_s = 0.0

    def fail(self, op, why) -> None:
        self.failed_ops.add(op)
        if len(self.errors) < 20:
            self.errors.append(f"op {op}: {why}")

    def prepare(self) -> None:
        """Make the inputs; runs once per process and is not timed."""

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, budget: Budget, mark) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Checks made once after the loop, outside the timed region."""

    def end_to_end(self) -> dict:
        """Median operation latency at the largest input, and the throughput of
        a closed loop whose operations, one per input size, each take their
        median time. Medians, not means, so that a few operations slowed by
        the host do not move a run."""
        medians = {size: statistics.median(times) for size, times in self.latencies.items() if times}
        self.info["mean_throughput_per_s"] = self.items / self.busy_s
        return {
            "throughput_per_s": self.ITEMS_PER_OP * len(medians) / sum(medians.values()),
            "latency_ms": medians[max(medians)] * 1e3,
        }


class TrainPaper32(Workload):
    name = "train-paper-32"
    min_ops = 2
    BATCH, SIZE = 2, 32
    ITEMS_PER_OP = BATCH

    def setup(self) -> None:
        self.state = TR.init_train_state(
            M.ModelConfig(**PAPER),
            TR.TrainConfig(batch_size=self.BATCH, image_size=self.SIZE, seed=self.seed),
            LossWeights())
        self.samples = TR.build_samples(self.state.tcfg)

    def run(self, budget: Budget, mark) -> None:
        # one train_loop call per step, so that the loop can stop on time; the
        # last call passes the checkpoint path and so ends with the one save
        # train_loop always writes
        state = self.state
        self.ckpt = os.path.join(self.workdir, "train.ckpt")
        times = self.latencies.setdefault(self.SIZE, [])
        for i in itertools.count():
            est = statistics.median(times) if times else None
            last = not budget.start_next(i + 1, est, extra=est or 0.0)
            mark(i)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                parts = TR.train_loop(state, self.samples, state.step + 1,
                                      checkpoint_path=self.ckpt if last else None)
            except Exception as exc:  # the next step would repeat this one
                self.fail(i, repr(exc))
                break
            times.append(time.perf_counter() - t0)
            self.items += state.tcfg.batch_size
            bad = sorted(k for k, v in parts.items() if not math.isfinite(v))
            if bad:
                self.fail(i, f"non-finite loss parts {bad}")
            self.digests.append(sorted(parts.items()))
            self.info["final_loss"] = parts
            if last:
                break
        self.loop_ops = self.attempted
        self.busy_s = sum(times)

    def check(self) -> None:
        last = self.attempted - 1
        try:
            with open(self.ckpt, "rb") as f:
                self.digests.append(_sha(f.read()))
            loaded = TR.load_train_state(self.ckpt)
        except Exception as exc:
            self.fail(last, f"checkpoint does not reload: {exc!r}")
            return
        state = self.state
        bad = [f"step {loaded.step} != {state.step}"] if loaded.step != state.step else []
        for tag in ("model", "disc"):
            bad += [f"{tag}.{n}" for n in _differing(_params(getattr(state, tag)),
                                                     _params(getattr(loaded, tag)))]
        for tag in ("opt_g", "opt_d"):
            mine, theirs = getattr(state, tag), getattr(loaded, tag)
            bad += [f"{tag}.t"] if mine.t != theirs.t else []
            bad += [f"{tag}.m.{n}" for n in _differing(mine.m, theirs.m)]
            bad += [f"{tag}.v.{n}" for n in _differing(mine.v, theirs.v)]
        if bad:
            self.fail(last, f"reloaded checkpoint differs in {bad[:5]}")
        self.info["steps"] = state.step
        self.info["parameters"] = state.model.param_count()


class InferPaperWhole(Workload):
    name = "infer-paper-whole"
    min_ops = 2
    SIZES = (64, 128)
    POOL = 2  # images per size; requests cycle, so identical requests repeat

    def prepare(self) -> None:
        self.ckpt = os.path.join(self.workdir, "model.ckpt")
        _write_untrained_checkpoint(self.ckpt)
        self.requests = []
        for size in self.SIZES:
            for j, s in enumerate(D.synthetic_dataset(self.POOL, size, size, seed=self.seed)):
                img = os.path.join(self.workdir, f"in-{size}-{j}.ppm")
                mask = os.path.join(self.workdir, f"in-{size}-{j}.pgm")
                D.write_ppm(img, s.i_gt)
                D.write_pgm(mask, s.mask)
                self.requests.append((j, size, img, mask))
        self.requests.sort()  # j-major: 64, 128, 64, 128, ...

    def setup(self) -> None:
        self.model, _ = M.load_model(self.ckpt)

    def _request(self, img_path: str, mask_path: str, out_path: str) -> np.ndarray:
        # what `mxt infer` runs after load_model
        img = D.read_image(img_path)
        mask = D.read_pgm(mask_path)
        x = M.prepare_input(img, mask, dtype=self.model.embed.w.data.dtype)
        out = M.tiled_inference(self.model, x, tile=0)
        D.write_image(out_path, M.composite(out, img.astype(np.float64), mask))
        return out

    def _checked_request(self, op, j, size, img_path, mask_path):
        """Run one request and check it; returns (output hash, seconds)."""
        out_path = os.path.join(self.workdir, f"out-{size}.ppm")
        t0 = time.perf_counter()
        try:
            out = self._request(img_path, mask_path, out_path)
        except Exception as exc:
            self.fail(op, repr(exc))
            return None
        elapsed = time.perf_counter() - t0
        with open(out_path, "rb") as f:
            written = f.read()
        with open(img_path, "rb") as f:
            given = f.read()
        with open(mask_path, "rb") as f:
            known = np.frombuffer(f.read()[-size * size:], np.uint8).reshape(size, size) <= 127
        n = 3 * size * size
        if out.shape != (3, size, size):
            self.fail(op, f"output shape {out.shape}")
        elif not (np.isfinite(out).all() and out.min() >= 0.0 and out.max() <= 1.0):
            self.fail(op, "output not finite or outside [0, 1]")
        elif written.split(maxsplit=4)[:4] != [b"P6", str(size).encode(), str(size).encode(), b"255"]:
            self.fail(op, f"written header {written[:20]!r}")
        elif not np.array_equal(np.frombuffer(written[-n:], np.uint8).reshape(size, size, 3)[known],
                                np.frombuffer(given[-n:], np.uint8).reshape(size, size, 3)[known]):
            self.fail(op, "known pixels of the written image differ from the input")
        digest = _sha(written)
        if (j, size) not in self.seen:
            self.seen[j, size] = digest
        else:
            self.repeats_checked += 1
            if self.seen[j, size] != digest:
                self.fail(op, f"repeated request {j} at {size} gave a different output")
        return digest, elapsed

    def run(self, budget: Budget, mark) -> None:
        # requests alternate between the sizes; the loop may stop after either,
        # since the metrics take a median per size
        self.seen: dict = {}
        self.repeats_checked = 0
        for i in itertools.count():
            j, size, img, mask = self.requests[i % len(self.requests)]
            times = self.latencies.setdefault(size, [])
            if not budget.start_next(i, statistics.median(times) if times else None):
                break
            mark(i)
            self.attempted += 1
            result = self._checked_request(i, j, size, img, mask)
            if result is not None:
                digest, elapsed = result
                times.append(elapsed)
                self.busy_s += elapsed
                self.items += 1
                self.digests.append(digest)
        self.loop_ops = self.attempted

    def check(self) -> None:
        if not self.repeats_checked:  # the loop ended before any input came round again
            self.attempted += 1
            self._checked_request(self.attempted - 1, *self.requests[0])
        for size, times in self.latencies.items():
            if times:
                self.info[f"infer_ms_{size}"] = statistics.median(times) * 1e3
        self.info["repeats_checked"] = self.repeats_checked


class EvalPaperTiled(Workload):
    name = "eval-paper-tiled"
    SIZE, TILE, OVERLAP = 64, 32, 8
    POOL = 6  # two images per coverage bucket, taken in turn low/mid/high

    def prepare(self) -> None:
        self.ckpt = os.path.join(self.workdir, "model.ckpt")
        _write_untrained_checkpoint(self.ckpt)
        self.samples = D.synthetic_dataset(self.POOL, self.SIZE, self.SIZE, seed=self.seed)

    def setup(self) -> None:
        self.model, _ = M.load_model(self.ckpt)

    def run(self, budget: Budget, mark) -> None:
        times = self.latencies.setdefault(self.SIZE, [])
        yielded: list = []   # op index of each pair evaluate_pairs receives
        dtype = self.model.embed.w.data.dtype
        started = None       # when the image evaluate_pairs is scoring began

        def pairs():
            # what `mxt eval` feeds evaluate_pairs, cut off when time is up;
            # an image's time ends when evaluate_pairs asks for the next one
            nonlocal started
            for i in itertools.count():
                if started is not None:
                    times.append(time.perf_counter() - started)
                    started = None
                if not budget.start_next(i, statistics.median(times) if times else None):
                    return
                started = time.perf_counter()
                mark(i)
                self.attempted += 1
                s = self.samples[i % self.POOL]
                try:
                    x = M.prepare_input(s.i_gt, s.mask, dtype=dtype)
                    out = M.tiled_inference(self.model, x, tile=self.TILE, overlap=self.OVERLAP)
                except Exception as exc:
                    started = None
                    self.fail(i, repr(exc))
                    continue
                yielded.append(i)
                yield out, s.i_gt, s.mask, s.bucket

        try:
            report = ME.evaluate_pairs(pairs())
        except Exception as exc:
            self.fail(self.attempted - 1, repr(exc))
            report = None
        self.loop_ops = self.attempted
        self.busy_s = sum(times)
        if report is None:
            return
        self.items = len(report.records)
        for rec, op in zip(report.records, yielded):
            vals = (rec.psnr, rec.ssim, rec.l1)
            if not all(math.isfinite(v) for v in vals):
                self.fail(op, f"non-finite metric {vals}")
            elif not -1.0 <= rec.ssim <= 1.0:
                self.fail(op, f"ssim {rec.ssim} outside [-1, 1]")
            self.digests.append((rec.bucket,) + vals)
        self.info["table"] = report.aggregate()


WORKLOADS = {w.name: w for w in (TrainPaper32, InferPaperWhole, EvalPaperTiled)}
