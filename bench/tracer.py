"""Per-layer spans recorded from outside the program.

The tracer swaps module attributes of ``lesionformer`` for timing wrappers
and puts the originals back on ``uninstall``. Nothing under ``src/`` knows
about it. Modules that bound a function at import time (``model`` binds the
autodiff ops, ``losses`` binds ``custom_op``, ``training`` binds
``forward``/``adam_step``) get their own attribute wrapped, so every call
site the program uses goes through a wrapper.

A span's self time is its duration minus the time of the wrapped spans
directly inside it. ``custom_op`` and the backward callables handed to it are
counted and timed but are not spans, so their time stays in the self time of
whatever op or layer called them.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter

# Ops a default forward records. An op outside this list still counts in
# autodiff.ops_per_sample, and the run prints the whole census.
FORWARD_OPS = ("matmul", "transpose", "add", "scale", "scale_by", "div_by",
               "add_rowvec", "slice_rows", "slice_cols", "concat_rows",
               "concat_cols", "sum_all", "softmax_rows", "layer_norm", "gelu",
               "pool_grid")
# Ops whose backward runs in a train step or a Grad-CAM call.
BACKWARD_OPS = FORWARD_OPS + ("reshape", "mul", "sqrt", "weighted_cross_entropy")
LAYERS = (0, 1)


class Tracer:
    def __init__(self, lf):
        self.lf = lf            # the imported lesionformer package
        self._saved = []        # (owner, attr, original)
        self.reset()

    def reset(self):
        self.stack = []                     # open spans: [key, child seconds]
        self.incl = defaultdict(float)      # key -> inclusive seconds
        self.self_s = defaultdict(float)    # key -> self seconds
        self.calls = Counter()              # key -> completed calls
        self.under = defaultdict(float)     # (parent key, key) -> seconds
        self.open = Counter()               # key -> spans of it now open
        self.forward_ops = Counter()        # op name -> calls inside forward
        self.step_ops = 0                   # custom_op calls inside train_step
        self.custom_op_s = 0.0
        self.backward_s = defaultdict(float)
        self.ckpt_bytes = 0

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, key):
        """Wrap ``fn``; ``key`` is a string or a function of the call args."""
        tracer = self

        def wrapper(*args, **kwargs):
            k = key(args) if callable(key) else key
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [k, 0.0]
            stack.append(frame)
            tracer.open[k] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.open[k] -= 1
                stack.pop()
                tracer.incl[k] += dt
                tracer.self_s[k] += dt - frame[1]
                tracer.calls[k] += 1
                tracer.under[(parent, k)] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _custom_op(self, fn):
        tracer = self

        def custom_op(out_data, inputs, backward_fn, name):
            def timed_backward(g):
                t = perf_counter()
                try:
                    return backward_fn(g)
                finally:
                    tracer.backward_s[name] += perf_counter() - t

            if tracer.open["model.forward"]:
                tracer.forward_ops[name] += 1
            if tracer.open["training.train_step"]:
                tracer.step_ops += 1
            t0 = perf_counter()
            try:
                return fn(out_data, inputs, timed_backward, name)
            finally:
                tracer.custom_op_s += perf_counter() - t0

        return custom_op

    def _save_checkpoint(self, fn):
        tracer = self

        def save_checkpoint(path, ckpt):
            out = fn(path, ckpt)
            tracer.ckpt_bytes = os.path.getsize(path)
            return out

        return save_checkpoint

    # -- install ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        lf = self.lf
        ad, model, losses, training = lf.autodiff, lf.model, lf.losses, lf.training
        metrics, data = lf.metrics, lf.data

        op = self._custom_op(ad.custom_op)
        self._patch(ad, "custom_op", op)
        self._patch(losses, "custom_op", op)
        self._patch(ad.Tape, "backward", self._span(ad.Tape.backward, "autodiff.backward"))

        fwd = self._span(model.forward, "model.forward")
        self._patch(model, "forward", fwd)
        self._patch(training, "forward", fwd)
        for attr, key in (("embed", "model.embed"),
                          ("encoder_block", "model.encoder_block"),
                          ("focus_from_attention", "model.focus"),
                          ("softmax_rows", "model.softmax"),
                          ("matmul", "model.matmul"),
                          ("gelu", "model.gelu"),
                          ("layer_norm", "model.layer_norm"),
                          ("grad_cam", "model.grad_cam")):
            self._patch(model, attr, self._span(getattr(model, attr), key))
        # multi_scale_attention(params, layer, ...); pool_grid(x, side, window)
        self._patch(model, "multi_scale_attention",
                    self._span(model.multi_scale_attention,
                               lambda a: f"model.attention.layer{a[1]}"))
        self._patch(model, "pool_grid",
                    self._span(model.pool_grid, lambda a: f"model.pool_grid.w{a[2]}"))

        for attr in ("weighted_cross_entropy", "attention_regularization"):
            self._patch(losses, attr, self._span(getattr(losses, attr), f"losses.{attr}"))

        for attr in ("train_step", "adam_step", "evaluate", "load_checkpoint"):
            self._patch(training, attr, self._span(getattr(training, attr), f"training.{attr}"))
        self._patch(training, "save_checkpoint",
                    self._span(self._save_checkpoint(training.save_checkpoint),
                               "training.save_checkpoint"))
        self._patch(metrics, "report", self._span(metrics.report, "metrics.report"))
        for attr in ("synth_sample", "read_netpbm", "load_samples"):
            self._patch(data, attr, self._span(getattr(data, attr), f"data.{attr}"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def data_metrics(self, images):
        """Set-up layer numbers; ``images`` is how many images were loaded."""
        c, t = self.calls, self.incl
        return {
            "data.synth_ms_per_sample": (_per(t["data.synth_sample"], c["data.synth_sample"]) * 1e3, "ms"),
            "data.read_netpbm_us_per_file": (_per(t["data.read_netpbm"], c["data.read_netpbm"]) * 1e6, "us"),
            "data.load_samples_ms_per_image": (_per(t["data.load_samples"], images) * 1e3, "ms"),
        }

    def layer_metrics(self):
        """Per-sample numbers are per model forward; per-step numbers per train step."""
        c, t = self.calls, self.incl
        n = c["model.forward"]
        steps = c["training.train_step"]
        cams = c["model.grad_cam"]

        def ms(seconds, count):
            return _per(seconds, count) * 1e3

        m = {"autodiff.ops_per_sample": (_per(sum(self.forward_ops.values()), n), "count")}
        for name in FORWARD_OPS:
            m[f"autodiff.ops_per_sample.{name}"] = (_per(self.forward_ops[name], n), "count")
        m["autodiff.ops_per_step"] = (_per(self.step_ops, steps), "count")
        m["autodiff.custom_op_ms_per_sample"] = (ms(self.custom_op_s, n), "ms")
        m["autodiff.backward_ms_per_sample"] = (ms(t["autodiff.backward"], n), "ms")
        for name in BACKWARD_OPS:
            m[f"autodiff.backward_ms_per_sample.{name}"] = (ms(self.backward_s[name], n), "ms")

        m["model.forward_ms_per_sample"] = (ms(t["model.forward"], n), "ms")
        m["model.embed_ms_per_sample"] = (ms(t["model.embed"], n), "ms")
        for i in LAYERS:
            m[f"model.attention_ms_per_sample.layer{i}"] = (ms(t[f"model.attention.layer{i}"], n), "ms")
        # Window 2 is the one every config has; larger windows count in the total.
        pool = sum(v for k, v in t.items() if k.startswith("model.pool_grid."))
        m["model.pool_grid_ms_per_sample"] = (ms(pool, n), "ms")
        m["model.pool_grid_ms_per_sample.w2"] = (ms(t["model.pool_grid.w2"], n), "ms")
        for part in ("softmax", "matmul", "gelu", "layer_norm", "focus"):
            m[f"model.{part}_ms_per_sample"] = (ms(t[f"model.{part}"], n), "ms")
        m["model.mlp_ms_per_sample"] = (ms(self.self_s["model.encoder_block"], n), "ms")
        m["model.grad_cam.forward_ms"] = (ms(self.under[("model.grad_cam", "model.forward")], cams), "ms")
        m["model.grad_cam.backward_ms"] = (ms(self.under[("model.grad_cam", "autodiff.backward")], cams), "ms")

        m["losses.cross_entropy_ms_per_step"] = (ms(t["losses.weighted_cross_entropy"], steps), "ms")
        m["losses.attention_reg_ms_per_step"] = (ms(t["losses.attention_regularization"], steps), "ms")
        step = "training.train_step"
        m["training.step.forward_ms"] = (ms(self.under[(step, "model.forward")], steps), "ms")
        m["training.step.backward_ms"] = (ms(self.under[(step, "autodiff.backward")], steps), "ms")
        m["training.step.adam_ms"] = (ms(self.under[(step, "training.adam_step")], steps), "ms")
        m["training.step.other_ms"] = (ms(self.self_s[step], steps), "ms")
        m["training.checkpoint_bytes"] = (self.ckpt_bytes, "bytes")
        m["training.save_checkpoint_ms"] = (ms(t["training.save_checkpoint"], c["training.save_checkpoint"]), "ms")
        m["training.load_checkpoint_ms"] = (ms(t["training.load_checkpoint"], c["training.load_checkpoint"]), "ms")
        m["metrics.report_ms"] = (ms(t["metrics.report"], c["metrics.report"]), "ms")
        return m


def _per(total, count):
    return total / count if count else 0.0
