"""Command-line front end.

    mxt train --out run.ckpt --iters 200
    mxt infer --model run.ckpt --image in.ppm --mask holes.pgm --out filled.ppm
    mxt eval --model run.ckpt --synthetic 6
    mxt gradcheck
    mxt scan-bench --length 256
    mxt mask-gen --out masks/ --count 10 --bucket all

Configuration is flat ``key=value`` pairs with dotted keys (model.*, train.*,
loss.*, width). Precedence, lowest to highest: built-in defaults, --config
file, the MXT_SEED environment variable (train.seed only), then explicit
flags / --set pairs. The effective configuration is echoed, sorted, before
training starts. ``train --resume`` takes its configuration from the
checkpoint and accepts only --iters and --out beside it (MXT_SEED unset).

Exit codes: 0 success; 1 usage error; 2 bad data or config (parse errors,
out-of-range values, schema/shape mismatches, missing files); 3 numeric
failure (non-finite loss, failed gradient check).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .checkpoint import CorruptionError, SchemaError
from .data import ParseError
from .tensor import ContractError, DimensionError, NumericError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract reserves 2 for
    # data errors, so usage problems are rerouted to exit 1
    def error(self, message):
        raise _UsageError(message)


# ---- configuration stack -------------------------------------------------------


def default_flat() -> dict:
    from .losses import LossWeights
    from .model import ModelConfig
    from .train import TrainConfig, flat_config

    return flat_config(ModelConfig(), TrainConfig(), LossWeights(), "standard")


def parse_config_file(path: str) -> dict:
    with open(path, "rb") as f:
        blob = f.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 at byte {e.start}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def effective_config(config_path: str | None, env: dict, overrides: dict) -> dict:
    from .model import WIDTHS

    flat = default_flat()

    def apply(source: dict, origin: str):
        for key, value in source.items():
            if key not in flat:
                raise ContractError(f"unknown config key {key!r} (from {origin})")
            flat[key] = value

    if config_path:
        apply(parse_config_file(config_path), config_path)
    seed = _env_seed(env)
    if seed is not None:
        flat["train.seed"] = seed
    apply(overrides, "command line")
    if flat["width"] not in WIDTHS:
        raise ContractError(f"width must be {' or '.join(WIDTHS)}, got {flat['width']!r}")
    return flat


def _env_seed(env: dict) -> str | None:
    """MXT_SEED as set in env, checked to be an integer >= 0; None when unset."""
    raw = env.get("MXT_SEED")
    if raw is not None:
        try:
            seed = int(raw)
        except ValueError:
            raise ContractError(f"MXT_SEED must be an integer, got {raw!r}") from None
        _require_at_least(0, ("MXT_SEED", seed))
    return raw


def build_configs(flat: dict):
    from .losses import LossWeights
    from .model import ModelConfig, decode_config
    from .train import TrainConfig

    mcfg = decode_config(ModelConfig, flat, "model.")
    tcfg = decode_config(TrainConfig, flat, "train.")
    weights = decode_config(LossWeights, flat, "loss.")
    return mcfg, tcfg, weights, flat["width"]


# train flags that set one config key each: (argparse dest, key)
_FLAG_KEYS = (("seed", "train.seed"), ("iters", "train.iters"),
              ("batch_size", "train.batch_size"), ("lr", "train.lr"),
              ("synthetic", "train.data_count"), ("image_size", "train.image_size"),
              ("data_dir", "train.data_dir"), ("width", "width"))


def _collect_overrides(args) -> dict:
    overrides = {}
    for flag, key in _FLAG_KEYS:
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = str(value)
    for pair in args.set or []:
        if "=" not in pair:
            raise _UsageError(f"--set needs key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _echo_config(flat: dict) -> None:
    for key in sorted(flat):
        print(f"{key}={flat[key]}")


# ---- subcommands ----------------------------------------------------------------


def cmd_train(args) -> int:
    from .model import width_of
    from .train import (
        build_samples,
        flat_config,
        hole_l1,
        init_train_state,
        load_train_state,
        train_loop,
    )

    _require_file_path(args.out)
    if args.resume:
        # a resumed run takes its config from the checkpoint; only the step
        # target (--iters) and the output path may change
        fresh_only = ["config", "set"] + [d for d, _ in _FLAG_KEYS if d != "iters"]
        ignored = [f"--{d.replace('_', '-')}" for d in fresh_only if getattr(args, d) is not None]
        if os.environ.get("MXT_SEED") is not None:
            ignored.append("MXT_SEED")
        if ignored:
            raise _UsageError(f"--resume takes its config from the checkpoint; "
                              f"drop {' '.join(ignored)}")
        state = load_train_state(args.resume)
        if args.iters is not None:
            state.tcfg = dataclasses.replace(state.tcfg, iters=args.iters)
        _echo_config(flat_config(state.model.config, state.tcfg, state.weights,
                                 width_of(state.model.dtype)))
        print(f"resumed from {args.resume} at step {state.step}")
    else:
        flat = effective_config(args.config, os.environ, _collect_overrides(args))
        _echo_config(flat)
        mcfg, tcfg, weights, width = build_configs(flat)
        state = init_train_state(mcfg, tcfg, weights, width=width)
    samples = build_samples(state.tcfg)
    print(f"training on {len(samples)} samples, "
          f"{state.model.param_count()} parameters, width={width_of(state.model.dtype)}")
    train_loop(state, samples, target_steps=state.tcfg.iters,
               checkpoint_path=args.out, log_fn=print)
    final = hole_l1(state, samples)
    print(f"done step={state.step} hole_l1={final:.6f}")
    print(f"saved {args.out}")
    return 0


def cmd_infer(args) -> int:
    from .data import check_image, read_image, read_pgm, write_image
    from .model import composite, load_model, prepare_input, tiled_inference

    _require_file_path(args.out)
    # composited output takes the input's 3 channels; raw output the model's
    check_image(args.out, None if args.raw else 3, "--out")
    check_image(args.image, 3, "--image")
    if check_image(args.mask, 1, "--mask") != ".pgm":
        raise ContractError(f"--mask {args.mask}: a mask is read as binary PGM, so must be .pgm")
    img = read_image(args.image)
    mask = read_pgm(args.mask)
    if mask.shape[1:] != img.shape[1:]:
        raise DimensionError(
            f"mask {mask.shape[1:]} does not match image {img.shape[1:]}")
    model, _meta = load_model(args.model)
    if args.raw:
        check_image(args.out, model.config.output_channels, "--out")
    x = prepare_input(img, mask, dtype=model.dtype)
    out = tiled_inference(model, x, tile=args.tile, overlap=args.overlap)
    if not args.raw:
        out = composite(out, img.astype(np.float64), mask)
    write_image(args.out, out)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    from .metrics import evaluate_pairs
    from .model import load_model, prepare_input, tiled_inference
    from .train import TrainConfig, build_samples

    _require_at_least(1, ("--synthetic", args.synthetic), ("--image-size", args.image_size))
    seed = _resolve_seed(args.seed)
    samples = build_samples(TrainConfig(data_count=args.synthetic, image_size=args.image_size,
                                        seed=seed, data_dir=args.data_dir or ""))
    model, _meta = load_model(args.model)

    def pairs():
        for s in samples:
            x = prepare_input(s.i_gt, s.mask, dtype=model.dtype)
            out = tiled_inference(model, x, tile=args.tile, overlap=args.overlap)
            yield out, s.i_gt, s.mask, s.bucket

    report = evaluate_pairs(pairs(), composited=not args.raw)
    if args.per_image:
        print(report.render_lines())
    print(report.render_table())
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import STANDARD_BLOCKS, run_standard_suite

    for flag, value in (("--step", args.step), ("--tol", args.tol)):
        # written as "not in range" so that nan fails too
        if not 0 < value < float("inf"):
            raise ContractError(f"{flag} must be finite and > 0, got {value}")
    names = args.blocks.split(",") if args.blocks else None
    unknown = [n for n in names or () if n not in STANDARD_BLOCKS]
    if unknown:
        raise _UsageError(f"unknown gradcheck block(s) {', '.join(unknown)}; "
                          f"known: {', '.join(STANDARD_BLOCKS)}")
    failures = 0
    worst_overall = 0.0
    for name, report in run_standard_suite(names, h=args.step):
        worst = report["worst"]
        worst_overall = max(worst_overall, worst)
        ok = worst < args.tol
        failures += 0 if ok else 1
        print(f"block={name} worst={worst:.3e} status={'ok' if ok else 'FAIL'}")
    print(f"gradcheck worst={worst_overall:.3e} tol={args.tol:g} failures={failures}")
    if failures:
        raise NumericError(f"{failures} gradient check(s) exceeded {args.tol:g}")
    return 0


def scan_time_ratio(length: int, channels: int = 8, state_dim: int = 8,
                    repeats: int = 9, seed: int = 0) -> tuple:
    """Time the raw sequential recurrence at L and 2L; (t_L, t_2L, t_2L / t_L).

    Host speed drifts over minutes, so the two lengths are timed back to back
    in ``repeats`` interleaved pairs, and the pair with the median ratio
    (the lower one for an even count) is returned: drift then falls within
    a pair instead of between two separately taken medians.
    """
    from .ssm import recurrence_sequential

    if repeats < 1:
        raise ContractError(f"scan-bench needs at least one repeat, got {repeats}")
    rng = np.random.default_rng(seed)
    inputs = [(rng.uniform(0.5, 0.99, (1, n, channels, state_dim)),
               rng.standard_normal((1, n, channels, state_dim)))
              for n in (length, 2 * length)]
    for a, b in inputs:
        recurrence_sequential(a, b)  # warm-up
    pairs = []
    for _ in range(repeats):
        times = []
        for a, b in inputs:
            t0 = time.perf_counter()
            recurrence_sequential(a, b)
            times.append(time.perf_counter() - t0)
        pairs.append((times[0], times[1], times[1] / times[0]))
    return sorted(pairs, key=lambda p: p[2])[(repeats - 1) // 2]


def cmd_scan_bench(args) -> int:
    _require_at_least(1, ("--length", args.length), ("--channels", args.channels),
                         ("--state-dim", args.state_dim))
    _require_at_least(0, ("--seed", args.seed or 0))
    t1, t2, ratio = scan_time_ratio(args.length, args.channels, args.state_dim,
                                    args.repeats, args.seed or 0)
    print(f"L={args.length} s={t1:.6f}")
    print(f"L={2 * args.length} s={t2:.6f}")
    print(f"ratio={ratio:.3f} (median of {args.repeats} interleaved pairs)")
    return 0


def cmd_mask_gen(args) -> int:
    from .data import BUCKETS, mask_set, write_pgm

    _require_at_least(1, ("--size", args.size), ("--count", args.count))
    seed = _resolve_seed(args.seed)
    buckets = sorted(BUCKETS) if args.bucket == "all" else [args.bucket]
    for b in buckets:
        if b not in BUCKETS:
            raise ContractError(f"unknown bucket {b!r}; have {sorted(BUCKETS)}")
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    fallbacks = 0
    for bucket in buckets:
        for name, res in mask_set(bucket, args.count, args.size, seed):
            write_pgm(os.path.join(args.out, name), res.mask)
            fallbacks += int(res.fallback)
            manifest.append(f"{name} bucket={bucket} ratio={res.ratio:.4f} "
                            f"fallback={int(res.fallback)}")
    with open(os.path.join(args.out, "manifest.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(manifest) + "\n")
    print(f"wrote {len(manifest)} masks to {args.out} ({fallbacks} fallbacks)")
    return 0


def _require_at_least(low: int, *flags) -> None:
    """Reject any (flag, value) pair whose value is below low."""
    for flag, value in flags:
        if value < low:
            raise ContractError(f"{flag} must be >= {low}, got {value}")


def _require_file_path(out: str) -> None:
    """--out, written after all the work, must name a file in an existing directory."""
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ContractError(f"--out {out} is not a file path in an existing directory")


def _resolve_seed(flag_value) -> int:
    """Explicit flag beats MXT_SEED beats 0; either must be >= 0."""
    if flag_value is not None:
        _require_at_least(0, ("--seed", flag_value))
        return flag_value
    seed = _env_seed(os.environ)
    return 0 if seed is None else int(seed)


# ---- wiring ---------------------------------------------------------------------


def build_parser() -> _Parser:
    from .model import WIDTHS

    p = _Parser(prog="mxt", description="Hybrid state-space / attention image inpainting")
    sub = p.add_subparsers(dest="command", metavar="command")

    tr = sub.add_parser("train", help="train a model", add_help=True)
    tr.add_argument("--out", required=True, help="checkpoint path to write")
    tr.add_argument("--config", help="key=value config file")
    tr.add_argument("--resume", help="continue from a training checkpoint")
    tr.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override any config key (repeatable)")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--iters", type=int)
    tr.add_argument("--batch-size", dest="batch_size", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--synthetic", type=int, metavar="N",
                    help="train on N generated images")
    tr.add_argument("--image-size", dest="image_size", type=int)
    tr.add_argument("--data-dir", dest="data_dir")
    tr.add_argument("--width", choices=list(WIDTHS))
    tr.set_defaults(func=cmd_train)

    inf = sub.add_parser("infer", help="fill holes in one image")
    inf.add_argument("--model", required=True)
    inf.add_argument("--image", required=True, help="input RGB image")
    inf.add_argument("--mask", required=True, help="hole mask, binary PGM (white = hole)")
    inf.add_argument("--out", required=True)
    inf.add_argument("--tile", type=int, default=0, help="tile size (0 = whole image)")
    inf.add_argument("--overlap", type=int, default=16)
    inf.add_argument("--raw", action="store_true",
                     help="write the raw network output instead of compositing")
    inf.set_defaults(func=cmd_infer)

    ev = sub.add_parser("eval", help="score a model on a dataset")
    ev.add_argument("--model", required=True)
    ev.add_argument("--synthetic", type=int, default=6, metavar="N")
    ev.add_argument("--image-size", dest="image_size", type=int, default=32)
    ev.add_argument("--data-dir", dest="data_dir")
    ev.add_argument("--seed", type=int)
    ev.add_argument("--tile", type=int, default=0)
    ev.add_argument("--overlap", type=int, default=16)
    ev.add_argument("--raw", action="store_true", help="score raw output, no compositing")
    ev.add_argument("--per-image", dest="per_image", action="store_true")
    ev.set_defaults(func=cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference check of every block")
    gc.add_argument("--blocks", help="comma-separated subset (default: all)")
    gc.add_argument("--tol", type=float, default=1e-5)
    gc.add_argument("--step", type=float, default=1e-5, help="FD step h")
    gc.set_defaults(func=cmd_gradcheck)

    sb = sub.add_parser("scan-bench", help="time the sequential scan at L and 2L")
    sb.add_argument("--length", type=int, default=256)
    sb.add_argument("--channels", type=int, default=8)
    sb.add_argument("--state-dim", dest="state_dim", type=int, default=8)
    sb.add_argument("--repeats", type=int, default=9)
    sb.add_argument("--seed", type=int)
    sb.set_defaults(func=cmd_scan_bench)

    mg = sub.add_parser("mask-gen", help="generate irregular hole masks")
    mg.add_argument("--out", required=True, help="output directory")
    mg.add_argument("--count", type=int, default=10, help="masks per bucket")
    mg.add_argument("--bucket", default="all", help="low, mid, high, or all")
    mg.add_argument("--size", type=int, default=64)
    mg.add_argument("--seed", type=int)
    mg.set_defaults(func=cmd_mask_gen)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (ParseError, SchemaError, CorruptionError, DimensionError,
            ContractError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
