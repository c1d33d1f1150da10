#!/usr/bin/env python3
"""Print how much memory a lesionformer tree's train step and Grad-CAM churn.

    python3 tools/step_memory.py PATH_TO_TREE

Imports ``lesionformer`` from ``PATH_TO_TREE/src``. For each config in
``CONFIGS`` (the default one and the benchmark's ``train-large-f32``) it
runs ``WARMUP`` train steps on one batch, then prints one line with:

- ``minflt_per_step``: minor page faults per step, ``ru_minflt`` over
  ``STEPS`` more steps, to two decimals: on a 2-core host, one tree's
  ``train-large-f32`` line read from 0.3 to 2.1 over 40 steps, and from
  0.35 to 0.40 in three runs over 200;
- ``step_peak_mb``: the ``tracemalloc`` peak of one more step above its
  start, over every traced allocation, NumPy's included;
- ``arena_mb``: the bytes of the thread's step workspace (0 for a tree
  without one);
- ``gradcam_peak_mb``: the ``tracemalloc`` peak of one ``grad_cam`` call
  on the first image above its start, after one warm-up call.

A step that reuses its arrays takes almost no faults and a peak far below
its arrays' size. Compare two trees the way ``float_digests.py`` does:

    python3 tools/step_memory.py path/to/parent
    python3 tools/step_memory.py .
"""

from __future__ import annotations

import os
import resource
import sys
import tracemalloc
from pathlib import Path

# one BLAS thread, set before NumPy loads, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WARMUP = 5
STEPS = 200

LARGE = dict(image_h=64, image_w=64, embed_dim=64, heads=4, scales=3, layers=2)

# name -> (ModelConfig overrides, dtype, batch size)
CONFIGS = {
    "default": ({}, "float64", 8),
    "train-large-f32": (LARGE, "float32", 4),
}


def traced_peak(fn):
    """The ``tracemalloc`` peak of calling ``fn()``, in bytes above its start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def measure(model_cfg, dtype, batch, warmup, steps):
    """``(faults per step, step peak bytes, arena bytes, Grad-CAM peak
    bytes)`` of ``steps`` train steps on one batch of ``batch`` synthetic
    images, after ``warmup`` steps, then of one ``grad_cam`` call after one
    warm-up call. ``lesionformer`` must already be importable."""
    from lesionformer import data, losses, model, training

    samples = data.synth_generate(batch, data.SynthConfig(
        height=model_cfg.image_h, width=model_cfg.image_w,
        channels=model_cfg.channels, classes=model_cfg.classes))
    train_cfg = training.TrainConfig(dtype=dtype, batch_size=batch)
    params = model.init_params(model_cfg, train_cfg.np_dtype)
    state = training.init_adam(params)
    weights = losses.class_weights(
        data.class_frequencies(samples, model_cfg.classes), train_cfg.weight_epsilon)

    def step():
        training.train_step(params, model_cfg, train_cfg, samples, state, weights,
                            train_cfg.learning_rate)

    for _ in range(warmup):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        step()
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps
    peak = traced_peak(step)
    workspace = getattr(training, "step_workspace", None)

    def cam():
        model.grad_cam(params, samples[0].image, samples[0].label, model_cfg)

    cam()
    arena = 0 if workspace is None else workspace.nbytes
    return faults, peak, arena, traced_peak(cam)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: step_memory.py PATH_TO_TREE", file=sys.stderr)
        return 1
    src = (Path(args[0]) / "src").resolve()
    if not (src / "lesionformer" / "__init__.py").is_file():
        print(f"step_memory: no lesionformer package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import lesionformer
    from lesionformer.model import ModelConfig

    if Path(lesionformer.__file__).resolve().parent != src / "lesionformer":
        print(f"step_memory: lesionformer was already imported from "
              f"{lesionformer.__file__}", file=sys.stderr)
        return 2
    for name, (overrides, dtype, batch) in CONFIGS.items():
        faults, peak, arena, cam = measure(
            ModelConfig(**overrides), dtype, batch, WARMUP, STEPS)
        print(f"{name} minflt_per_step={faults:.2f} step_peak_mb={peak / 2**20:.2f} "
              f"arena_mb={arena / 2**20:.2f} gradcam_peak_mb={cam / 2**20:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
