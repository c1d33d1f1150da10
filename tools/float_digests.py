#!/usr/bin/env python3
"""Print a SHA-256 digest of every float array a lesionformer tree computes.

    python3 tools/float_digests.py PATH_TO_TREE

Imports ``lesionformer`` from ``PATH_TO_TREE/src`` and prints one
``name sha256`` line per array, for each config in ``CONFIGS``:

- the gradients of the first train step;
- the losses of six train steps on one batch, one image of it unmasked;
- the parameters and Adam moments after those steps;
- the bytes of a checkpoint of them, which must load back to the same
  arrays and save again to the same bytes (else the tool exits 3 naming
  the config);
- ``evaluate``'s probabilities on four held-out images;
- one held-out image's probabilities and focus map;
- its Grad-CAM grid for every class;

and, for the default config in float64, one run of train steps whose batch
size and unmasked images change (``RESIZES``) with a Grad-CAM call after
each step: each step's losses and Grad-CAM grid, then the parameters and
Adam moments.

A digest covers an array's dtype, shape and values in row-major order, not
its memory layout; a -0.0 and a +0.0 digest differently. Two trees compute
the same floats when their outputs are equal:

    python3 tools/float_digests.py path/to/parent > parent.txt
    python3 tools/float_digests.py . > change.txt
    diff parent.txt change.txt && wc -l change.txt
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, set before NumPy loads, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

STEPS = 6
HELD_OUT = 4

LARGE = dict(image_h=64, image_w=64, embed_dim=64, heads=4, scales=3, layers=2)

# (batch size, indices of its images without a mask) per step of the run
# whose batches change: the first step of each size on the thread records a
# plan and later ones reuse it, wherever their images lack a mask
RESIZES = ((8, ()), (5, ()), (5, (1,)), (8, ()), (8, (0, 3)), (8, ()))

# name -> (ModelConfig overrides, dtype, batch size)
CONFIGS = {
    "default-f64": ({}, "float64", 8),
    "default-f32": ({}, "float32", 8),
    "large-f32": (LARGE, "float32", 4),
    "one-scale": (dict(scales=1), "float64", 8),
    "8x8-patch2-three-scales": (dict(image_h=8, image_w=8, patch=2, scales=3), "float64", 8),
    "no-layers": (dict(layers=0), "float64", 8),
    "one-layer-two-heads": (dict(layers=1, heads=2), "float64", 8),
}


class RoundTripError(Exception):
    """A checkpoint that does not load back to the arrays and bytes saved."""


def digest(arr) -> str:
    """SHA-256 of ``arr``'s dtype, shape and row-major bytes."""
    arr = np.asarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def config_digests(name, model_cfg, dtype, batch):
    """``(name, sha256)`` pairs for every array of one config, in a fixed
    order; ``batch`` must be at least 2. ``lesionformer`` must already be
    importable."""
    from lesionformer import data, losses, model, training

    samples = data.synth_generate(batch + HELD_OUT, data.SynthConfig(
        height=model_cfg.image_h, width=model_cfg.image_w,
        channels=model_cfg.channels, classes=model_cfg.classes))
    train_set, held_out = samples[:batch], samples[batch:]
    train_set[1] = dataclasses.replace(train_set[1], mask=None)
    train_cfg = training.TrainConfig(dtype=dtype, batch_size=batch)
    params = model.init_params(model_cfg, train_cfg.np_dtype)
    state = training.init_adam(params)
    weights = losses.class_weights(
        data.class_frequencies(train_set, model_cfg.classes), train_cfg.weight_epsilon)

    out = []
    adam_step = training.adam_step

    # the first step's gradients, as train_step hands them to Adam
    def first_gradients(params, grads, *args):
        if state.t == 0:
            out.extend((f"{name}.grad.{k}", digest(grads[k])) for k in params)
        adam_step(params, grads, *args)

    training.adam_step = first_gradients
    try:
        for step in range(STEPS):
            b = training.train_step(params, model_cfg, train_cfg, train_set, state,
                                    weights, train_cfg.learning_rate)
            out.append((f"{name}.loss.step{step}", digest([b.l_ce, b.l_attn, b.total])))
    finally:
        training.adam_step = adam_step
    for k, p in params.items():
        out.append((f"{name}.param.{k}", digest(p.data)))
        out.append((f"{name}.adam_m.{k}", digest(state.m[k])))
        out.append((f"{name}.adam_v.{k}", digest(state.v[k])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        training.save_checkpoint(path, training.Checkpoint(
            model_cfg, train_cfg, params, state, STEPS))
        saved = path.read_bytes()
        out.append((f"{name}.checkpoint", hashlib.sha256(saved).hexdigest()))
        back = training.load_checkpoint(path)
        training.save_checkpoint(path, back)
        if path.read_bytes() != saved:
            raise RoundTripError(f"{name}: checkpoint save -> load -> save changed its bytes")
        for k, p in params.items():
            for what, a, b in (("parameter", p.data, back.params[k].data),
                               ("adam m", state.m[k], back.opt.m[k]),
                               ("adam v", state.v[k], back.opt.v[k])):
                if digest(a) != digest(b):
                    raise RoundTripError(f"{name}: {what} {k} loads back changed")
    _, probs, _ = training.evaluate(params, model_cfg, held_out, strict_auc=False)
    out.append((f"{name}.eval.probs", digest(probs)))
    image = held_out[0].image
    res = model.forward(params, image, model_cfg)
    out.append((f"{name}.image.probs", digest(res.probs.data)))
    if res.focus is not None:
        G = model_cfg.grid_side
        out.append((f"{name}.image.focus_map", digest(res.focus.data.reshape(G, G))))
    for k in range(model_cfg.classes):
        grid, _ = model.grad_cam(params, image, k, model_cfg)
        out.append((f"{name}.gradcam.class{k}", digest(grid)))
    return out


def resize_digests(name, model_cfg, dtype, steps):
    """``(name, sha256)`` pairs for train steps of the ``steps`` (see
    ``RESIZES``) on one set of parameters, with a held-out image's Grad-CAM
    grid after each step. ``lesionformer`` must already be importable."""
    from lesionformer import data, losses, model, training

    samples = data.synth_generate(max(size for size, _ in steps) + 1, data.SynthConfig(
        height=model_cfg.image_h, width=model_cfg.image_w,
        channels=model_cfg.channels, classes=model_cfg.classes))
    train_set, image = samples[:-1], samples[-1].image
    train_cfg = training.TrainConfig(dtype=dtype)
    params = model.init_params(model_cfg, train_cfg.np_dtype)
    state = training.init_adam(params)
    weights = losses.class_weights(
        data.class_frequencies(train_set, model_cfg.classes), train_cfg.weight_epsilon)
    out = []
    for step, (size, unmasked) in enumerate(steps):
        batch = [dataclasses.replace(s, mask=None) if i in unmasked else s
                 for i, s in enumerate(train_set[:size])]
        b = training.train_step(params, model_cfg, train_cfg, batch, state,
                                weights, train_cfg.learning_rate)
        out.append((f"{name}.loss.step{step}", digest([b.l_ce, b.l_attn, b.total])))
        grid, _ = model.grad_cam(params, image, step % model_cfg.classes, model_cfg)
        out.append((f"{name}.gradcam.step{step}", digest(grid)))
    for k, p in params.items():
        out.append((f"{name}.param.{k}", digest(p.data)))
        out.append((f"{name}.adam_m.{k}", digest(state.m[k])))
        out.append((f"{name}.adam_v.{k}", digest(state.v[k])))
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: float_digests.py PATH_TO_TREE", file=sys.stderr)
        return 1
    src = (Path(args[0]) / "src").resolve()
    if not (src / "lesionformer" / "__init__.py").is_file():
        print(f"float_digests: no lesionformer package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import lesionformer
    from lesionformer.model import ModelConfig

    if Path(lesionformer.__file__).resolve().parent != src / "lesionformer":
        print(f"float_digests: lesionformer was already imported from "
              f"{lesionformer.__file__}", file=sys.stderr)
        return 2
    try:
        for name, (overrides, dtype, batch) in CONFIGS.items():
            for key, value in config_digests(name, ModelConfig(**overrides), dtype, batch):
                print(key, value)
        for key, value in resize_digests("resized-default-f64", ModelConfig(), "float64",
                                         RESIZES):
            print(key, value)
    except RoundTripError as e:
        print(f"float_digests: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
