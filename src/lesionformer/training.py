"""Deterministic training loop with Adam, checkpointing, and evaluation.

Shuffling and per-sample randomness are derived from (seed, epoch) /
(seed, index) so a run is fully determined by its config; resuming from a
checkpoint therefore only needs the global step counter.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import losses, metrics
from .autodiff import NumericError, Tape, Tensor
from .autodiff import concat_rows, reshape
from .data import class_frequencies, mask_to_patch_grid
from .model import ModelConfig, ModelParams, forward, init_params


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    lambda_attn: float = 0.1
    attn_mode: str = "focusing"
    weight_epsilon: float = 1e-6
    seed: int = 0
    eval_every: int = 0          # 0 disables mid-run evaluation
    eval_fraction: float = 0.2
    dtype: str = "float64"
    dynamic_weights: bool = False
    cosine_decay: bool = False

    def validate(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.attn_mode not in ("literal", "focusing"):
            raise ValueError(f"unknown attn_mode {self.attn_mode!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(m={k: np.zeros_like(t.data) for k, t in params.items()},
                     v={k: np.zeros_like(t.data) for k, t in params.items()},
                     t=0)


def adam_step(params: ModelParams, grads: dict, state: AdamState,
              cfg: TrainConfig, lr: float | None = None):
    """Standard Adam with bias correction; mutates params and state."""
    if lr is None:
        lr = cfg.learning_rate
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)


def _epoch_permutation(seed, epoch, n):
    return np.random.default_rng([seed, 5000 + epoch]).permutation(n)


def train(params: ModelParams, model_cfg: ModelConfig, train_cfg: TrainConfig,
          samples, state: AdamState | None = None, start_step: int = 0,
          log=None):
    """Run (epochs * ceil(n/B) - start_step) steps; returns per-step logs.

    ``log``, if given, receives one `step,epoch,l_ce,l_attn,total` line per
    step. The last partial batch of an epoch is kept.
    """
    train_cfg.validate()
    if not samples:
        raise ValueError("empty training set")
    if state is None:
        state = init_adam(params)
    n = len(samples)
    b = train_cfg.batch_size
    steps_per_epoch = math.ceil(n / b)
    total_steps = train_cfg.epochs * steps_per_epoch

    weights = losses.class_weights(
        class_frequencies(samples, model_cfg.classes), train_cfg.weight_epsilon)
    logs = []
    perm = None
    perm_epoch = -1
    for step in range(start_step, total_steps):
        epoch = step // steps_per_epoch
        pos = step % steps_per_epoch
        if epoch != perm_epoch:
            perm = _epoch_permutation(train_cfg.seed, epoch, n)
            perm_epoch = epoch
            if train_cfg.dynamic_weights:
                epoch_samples = [samples[i] for i in perm]
                weights = losses.class_weights(
                    class_frequencies(epoch_samples, model_cfg.classes),
                    train_cfg.weight_epsilon)
        batch = [samples[i] for i in perm[pos * b:(pos + 1) * b]]
        lr = train_cfg.learning_rate
        if train_cfg.cosine_decay:
            lr *= 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
        breakdown = train_step(params, model_cfg, train_cfg, batch, state, weights, lr)
        logs.append(breakdown)
        if log is not None:
            log(f"{step},{epoch},{breakdown.l_ce:.10g},{breakdown.l_attn:.10g},"
                f"{breakdown.total:.10g}")
    return logs, state


def train_step(params: ModelParams, model_cfg: ModelConfig, train_cfg: TrainConfig,
               batch, state: AdamState, weights, lr):
    g = model_cfg.grid_side
    with Tape() as tape:
        prob_rows = []
        focus_grids = []
        mask_grids = []
        for s in batch:
            res = forward(params, s.image, model_cfg, want_record=False)
            prob_rows.append(res.probs)
            if train_cfg.lambda_attn > 0 and s.mask is not None:
                focus_grids.append(reshape(res.focus, (g, g)))
                mask_grids.append(mask_to_patch_grid(s.mask, model_cfg.patch))
        labels = [s.label for s in batch]
        l_ce = losses.weighted_cross_entropy(concat_rows(prob_rows), labels, weights)
        l_attn = None
        if train_cfg.lambda_attn > 0 and focus_grids:
            l_attn = losses.attention_regularization(
                focus_grids, mask_grids, train_cfg.attn_mode)
        total, breakdown = losses.total_loss(l_ce, l_attn, train_cfg.lambda_attn)
        tape.backward(total)
        grads = {name: tape.grad(p) for name, p in params.items()}
    adam_step(params, grads, state, train_cfg, lr)
    return breakdown


def evaluate(params: ModelParams, model_cfg: ModelConfig, samples,
             strict_auc: bool = True):
    """Forward-only pass over samples; returns (MetricsReport, probs, labels)."""
    if not samples:
        raise ValueError("empty evaluation set")
    probs = np.stack([forward(params, s.image, model_cfg, want_record=False)
                      .probs.data[0] for s in samples])
    labels = np.asarray([s.label for s in samples], dtype=np.int64)
    return metrics.report(probs, labels, model_cfg.classes, strict_auc), probs, labels


# ---------------------------------------------------------------------------
# checkpoints

MAGIC = b"LSNFRMT1"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: TrainConfig
    params: ModelParams
    opt: AdamState | None
    step: int


def _cfg_lines(prefix, cfg):
    out = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        out.append(f"{prefix}.{f.name}={v}")
    return out

def _cfg_from(prefix, kv, cls):
    defaults = cls()
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = f"{prefix}.{f.name}"
        if key not in kv:
            raise CheckpointError(f"checkpoint header missing {key}")
        raw = kv[key]
        default = getattr(defaults, f.name)
        if isinstance(default, bool):
            kwargs[f.name] = raw == "true"
        elif isinstance(default, int):
            kwargs[f.name] = int(raw)
        elif isinstance(default, float):
            kwargs[f.name] = float(raw)
        else:
            kwargs[f.name] = raw
    return cls(**kwargs)


def save_checkpoint(path, ckpt: Checkpoint):
    """Container: magic, length-prefixed key=value header, then per array a
    length-prefixed name, an 8-byte little-endian count, and raw
    little-endian floats at the configured width."""
    dtype = np.dtype(ckpt.train_config.np_dtype).newbyteorder("<")
    arrays = [(name, t.data) for name, t in ckpt.params.items()]
    if ckpt.opt is not None:
        for name in ckpt.params.names():
            arrays.append((f"opt.m.{name}", ckpt.opt.m[name]))
            arrays.append((f"opt.v.{name}", ckpt.opt.v[name]))
    header_lines = [
        f"format_version={FORMAT_VERSION}",
        f"dtype={ckpt.train_config.dtype}",
        f"step={ckpt.step}",
        f"opt_t={ckpt.opt.t if ckpt.opt is not None else -1}",
        f"n_arrays={len(arrays)}",
    ]
    header_lines += _cfg_lines("model", ckpt.model_config)
    header_lines += _cfg_lines("train", ckpt.train_config)
    header = ("\n".join(header_lines) + "\n").encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(header)), header]
    for name, arr in arrays:
        nb = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<Q", arr.size))
        parts.append(np.ascontiguousarray(arr).astype(dtype).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:8]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise CheckpointError(f"truncated checkpoint: {len(raw)} bytes, preamble needs 12")
    (hlen,) = struct.unpack_from("<I", raw, 8)
    if 12 + hlen > len(raw):
        raise CheckpointError(f"truncated header: need {hlen} bytes")
    header = raw[12:12 + hlen].decode("utf-8")
    kv = {}
    for line in header.splitlines():
        if line:
            k, _, v = line.partition("=")
            kv[k] = v
    if int(kv.get("format_version", -1)) != FORMAT_VERSION:
        raise CheckpointError(f"unknown format version {kv.get('format_version')!r}")
    model_cfg = _cfg_from("model", kv, ModelConfig)
    train_cfg = _cfg_from("train", kv, TrainConfig)
    dtype = np.dtype(train_cfg.np_dtype).newbyteorder("<")
    pos = 12 + hlen
    arrays = {}
    try:
        for _ in range(int(kv["n_arrays"])):
            (nlen,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos:pos + nlen].decode("utf-8")
            pos += nlen
            (count,) = struct.unpack_from("<Q", raw, pos)
            pos += 8
            nbytes = count * dtype.itemsize
            if pos + nbytes > len(raw):
                raise CheckpointError(f"truncated array {name}: need {nbytes} bytes")
            arrays[name] = np.frombuffer(raw, dtype=dtype, count=count, offset=pos).copy()
            pos += nbytes
    except struct.error:
        # a cut inside a name length, a name or a count leaves a field short
        raise CheckpointError(f"truncated checkpoint: ends inside an array field at byte {len(raw)}") from None
    if pos != len(raw):
        raise CheckpointError(f"{len(raw) - pos} trailing bytes after the last array")

    # shapes come from the config, counts are validated against it
    template = init_params(model_cfg, dtype=train_cfg.np_dtype)
    tensors = {}
    for name, t in template.items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint missing parameter {name}")
        flat = arrays[name]
        if flat.size != t.data.size:
            raise CheckpointError(
                f"parameter {name}: expected {t.data.size} elements, got {flat.size}")
        tensors[name] = Tensor(flat.reshape(t.data.shape).astype(train_cfg.np_dtype),
                               requires_grad=True)
    params = ModelParams(tensors)
    opt = None
    opt_t = int(kv.get("opt_t", -1))
    if opt_t >= 0:
        opt = AdamState(m={}, v={}, t=opt_t)
        for name, t in template.items():
            for moment, store in (("m", opt.m), ("v", opt.v)):
                key = f"opt.{moment}.{name}"
                if key not in arrays:
                    raise CheckpointError(f"checkpoint missing optimizer array {key}")
                store[name] = arrays[key].reshape(t.data.shape).astype(train_cfg.np_dtype)
    return Checkpoint(model_config=model_cfg, train_config=train_cfg,
                      params=params, opt=opt, step=int(kv["step"]))
