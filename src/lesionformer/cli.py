"""Command-line surface: synthesize data, train, evaluate, emit heatmaps.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .autodiff import DimensionError, NumericError
from .data import (ImageError, ManifestError, NetpbmError, SynthConfig,
                   load_image, load_samples, split_samples, synth_generate,
                   write_manifest, write_netpbm)
from .metrics import UndefinedMetricError
from .model import ModelConfig, grad_cam, init_params
from .training import (Checkpoint, CheckpointError, TrainConfig, config_lines,
                       evaluate, load_checkpoint, save_checkpoint, set_field,
                       train)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _to_uint8(img):
    return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)


def cmd_synth(args):
    try:
        proportions = tuple(float(x) for x in args.imbalance.split(","))
    except ValueError:
        raise UsageError(f"imbalance {args.imbalance!r} is not comma-separated numbers") from None
    h, w = args.size
    if args.patch < 1 or h % args.patch or w % args.patch:
        raise UsageError(f"size {h}x{w} not divisible by patch {args.patch}")
    cfg = SynthConfig(height=h, width=w, classes=len(proportions),
                      imbalance=proportions, seed=args.seed)
    try:
        samples = synth_generate(args.n, cfg)
    except ValueError as e:
        raise UsageError(str(e)) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, s in enumerate(samples):
        img_name = f"img{i:05d}.ppm"
        mask_name = f"mask{i:05d}.pgm"
        write_netpbm(out / img_name, _to_uint8(s.image))
        write_netpbm(out / mask_name, _to_uint8(s.mask))
        rows.append((img_name, s.label, mask_name))
    write_manifest(out / "manifest.csv", rows)
    print(f"wrote {len(samples)} samples to {out}")
    return 0


def parse_configs(pairs):
    """Resolve repeated KEY=VAL flags against the fields of both config
    dataclasses.

    ``seed`` is a field of both and applies to both.
    """
    model_cfg, train_cfg = ModelConfig(), TrainConfig()
    configs = [(cfg, {f.name for f in dataclasses.fields(cfg)})
               for cfg in (model_cfg, train_cfg)]
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise UsageError(f"config flag {pair!r} is not KEY=VAL")
        owners = [cfg for cfg, names in configs if key in names]
        if not owners:
            valid = sorted(set().union(*(names for _, names in configs)))
            raise UsageError(f"unknown config key {key!r}; valid keys: {', '.join(valid)}")
        for cfg in owners:
            try:
                set_field(cfg, key, raw)
            except ValueError as e:
                raise UsageError(str(e)) from None
    return model_cfg, train_cfg


def _print_report(rep):
    print("ACC\tAUC\tF1-Score\tPrecision")
    print(f"{rep.acc:.4f}\t{rep.auc_macro:.4f}\t{rep.f1_macro:.4f}\t{rep.precision_macro:.4f}")


def cmd_train(args):
    model_cfg, train_cfg = parse_configs(args.config)
    try:
        model_cfg.validate()
        train_cfg.validate()
    except ValueError as e:
        raise UsageError(str(e)) from None
    if args.dump_config:
        print("\n".join(config_lines("model", model_cfg) + config_lines("train", train_cfg)))
    if not Path(args.out).parent.is_dir():  # found now, not after the last epoch
        raise FileNotFoundError(f"no directory for --out {args.out}")
    samples = load_samples(args.data, (model_cfg.image_h, model_cfg.image_w),
                           model_cfg.channels, model_cfg.classes)
    train_set, eval_set = split_samples(samples, train_cfg.eval_fraction,
                                        train_cfg.seed)
    if not train_set:
        raise UsageError(f"eval_fraction {train_cfg.eval_fraction} leaves no "
                         f"training sample of {len(samples)}")
    try:
        params = init_params(model_cfg, dtype=train_cfg.np_dtype)
    except (ValueError, MemoryError) as e:  # numpy refuses or fails the allocation
        raise UsageError(f"cannot allocate the initial parameters: {e}") from None

    log_fh = open(args.log, "w") if args.log else None
    try:
        log = (lambda line: print(line, file=log_fh)) if log_fh else None
        logs, state = train(params, model_cfg, train_cfg, train_set, log=log)
    finally:
        if log_fh:
            log_fh.close()
    save_checkpoint(args.out, Checkpoint(model_config=model_cfg,
                                         train_config=train_cfg, params=params,
                                         opt=state, step=len(logs)))
    rep, _, _ = evaluate(params, model_cfg, eval_set if eval_set else train_set,
                         strict_auc=False)
    _print_report(rep)
    return 0


def cmd_eval(args):
    ckpt = load_checkpoint(args.ckpt)
    cfg = ckpt.model_config
    samples = load_samples(args.data, (cfg.image_h, cfg.image_w), cfg.channels,
                           cfg.classes)
    rep, _, _ = evaluate(ckpt.params, cfg, samples)
    _print_report(rep)
    return 0


def cmd_gradcam(args):
    ckpt = load_checkpoint(args.ckpt)
    cfg = ckpt.model_config
    if not 0 <= args.target_class < cfg.classes:
        raise UsageError(f"class {args.target_class} out of range [0, {cfg.classes})")
    image = load_image(args.image, (cfg.image_h, cfg.image_w), cfg.channels)
    grid, upsampled = grad_cam(ckpt.params, image, args.target_class, cfg)
    write_netpbm(f"{args.out}.heat.pgm", _to_uint8(upsampled))
    heat_rgb = np.zeros(image.shape[:2] + (3,))
    heat_rgb[:, :, 0] = upsampled
    # any channel count but 3 shows as gray: the mean of its channels
    rgb = (image if image.shape[2] == 3
           else np.repeat(image.mean(axis=2, keepdims=True), 3, axis=2))
    write_netpbm(f"{args.out}.overlay.ppm", _to_uint8(0.5 * rgb + 0.5 * heat_rgb))
    if not grid.any():
        why = ("the model has no encoder block, so no patch token reaches the "
               "class logit" if cfg.layers == 0 else
               f"no patch token has a positive gradient-weighted activation "
               f"for class {args.target_class}")
        print(f"warning: the Grad-CAM map is blank: {why}", file=sys.stderr)
    r, c = np.unravel_index(int(grid.argmax()), grid.shape)
    print(f"argmax=({r},{c})")
    return 0


def build_parser():
    parser = _Parser(prog="lesionformer",
                     description="Multi-scale attention lesion classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic lesion dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--imbalance", default="60,30,10")
    p.add_argument("--size", type=int, nargs=2, default=[32, 32], metavar=("H", "W"))
    p.add_argument("--patch", type=int, default=4)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train on a manifest")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--config", action="append", default=[], metavar="KEY=VAL")
    p.add_argument("--dump-config", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcam", help="write heatmap and overlay for one image")
    p.add_argument("--image", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--class", dest="target_class", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gradcam)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # the guards raise NumericError on every non-finite value, so NumPy's
        # floating-point warnings would only add lines before the abort
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (NetpbmError, ManifestError, ImageError, CheckpointError,
            DimensionError, UndefinedMetricError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 3
