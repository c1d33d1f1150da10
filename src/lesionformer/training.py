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
from .autodiff import NumericError, Tape, Tensor, all_finite
from .autodiff import reshape, slice_rows
from .data import class_frequencies, mask_to_patch_grid
from .model import ModelConfig, ModelParams, forward, param_shapes


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
    eval_fraction: float = 0.2
    dtype: str = "float64"
    cosine_decay: bool = False

    def validate(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the float checks are written `not ok` so that NaN fails them
        if not 0 <= self.eval_fraction < 1:
            raise ValueError(f"eval_fraction must lie in [0, 1), got {self.eval_fraction}")
        if not self.lambda_attn >= 0:
            raise ValueError(f"lambda_attn must be >= 0, got {self.lambda_attn}")
        for name in ("learning_rate", "weight_epsilon", "adam_eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
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
        if not all_finite(g):
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
    """One forward and one backward over the whole batch, then an Adam step.

    The regulariser is taken per masked image; images without a mask, and a
    model without encoder layers (so without a focus map), add nothing."""
    g, b = model_cfg.grid_side, len(batch)
    masked = [i for i, s in enumerate(batch) if s.mask is not None]
    with Tape() as tape:
        res = forward(params, np.stack([s.image for s in batch]), model_cfg,
                      want_record=False)
        l_ce = losses.weighted_cross_entropy(res.probs, [s.label for s in batch], weights)
        l_attn = None
        if train_cfg.lambda_attn > 0 and masked and res.focus is not None:
            focus = reshape(res.focus, (b, model_cfg.num_patches))
            focus_grids = [reshape(slice_rows(focus, i, i + 1), (g, g)) for i in masked]
            mask_grids = [mask_to_patch_grid(batch[i].mask, model_cfg.patch)
                          for i in masked]
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


def config_lines(prefix, cfg):
    """One ``prefix.field=value`` line per dataclass field of ``cfg``:
    booleans as ``true``/``false``, floats by repr, the rest by str."""
    out = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        out.append(f"{prefix}.{f.name}={v}")
    return out


def set_field(cfg, name, raw):
    """Set field ``name`` of ``cfg`` from text written by :func:`config_lines`.

    ``raw`` is parsed as the type of the field's current value; a boolean
    accepts only ``true`` or ``false``. Malformed text raises ValueError.
    """
    old = getattr(cfg, name)
    try:
        if isinstance(old, bool):
            value = {"true": True, "false": False}[raw]
        else:
            value = type(old)(raw)
    except (KeyError, ValueError):
        raise ValueError(f"bad value {raw!r} for config key {name}") from None
    setattr(cfg, name, value)


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
    header_lines += config_lines("model", ckpt.model_config)
    header_lines += config_lines("train", ckpt.train_config)
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
    # unknown keys are ignored, so a checkpoint that still carries a
    # since-removed config field loads; a missing key is an error. The one
    # exception: model.literal_multiscale=true named a model that attended
    # unpooled keys at every scale, which this code no longer computes.
    try:
        kv = {}
        for line in raw[12:12 + hlen].decode("utf-8").splitlines():
            if line:
                k, _, v = line.partition("=")
                kv[k] = v
        if int(kv["format_version"]) != FORMAT_VERSION:
            raise ValueError(f"unknown format version {kv['format_version']!r}")
        model_cfg, train_cfg = ModelConfig(), TrainConfig()
        for prefix, cfg in (("model", model_cfg), ("train", train_cfg)):
            for f in dataclasses.fields(cfg):
                set_field(cfg, f.name, kv[f"{prefix}.{f.name}"])
        if kv.get("model.literal_multiscale", "false") != "false":
            raise ValueError(f"model.literal_multiscale="
                             f"{kv['model.literal_multiscale']} is not supported")
        model_cfg.validate()
        train_cfg.validate()
        step, opt_t, n_arrays = int(kv["step"]), int(kv["opt_t"]), int(kv["n_arrays"])
    except KeyError as e:
        raise CheckpointError(f"checkpoint header missing {e.args[0]}") from None
    except ValueError as e:  # also a header that is not UTF-8
        raise CheckpointError(f"bad checkpoint header: {e}") from None
    dtype = np.dtype(train_cfg.np_dtype).newbyteorder("<")
    pos = 12 + hlen
    arrays = {}
    try:
        for _ in range(n_arrays):
            (nlen,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos:pos + nlen].decode("utf-8")
            pos += nlen
            (count,) = struct.unpack_from("<Q", raw, pos)
            pos += 8
            nbytes = count * dtype.itemsize
            if pos + nbytes > len(raw):
                raise CheckpointError(f"truncated array {name}: need {nbytes} bytes")
            # a read-only view; take() copies it out in the run's dtype
            arrays[name] = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
            pos += nbytes
    except struct.error:
        # a cut inside a name length, a name or a count leaves a field short
        raise CheckpointError(f"truncated checkpoint: ends inside an array field at byte {len(raw)}") from None
    except UnicodeDecodeError as e:
        raise CheckpointError(f"array name at byte {pos} is not UTF-8 ({e.reason})") from None
    if pos != len(raw):
        raise CheckpointError(f"{len(raw) - pos} trailing bytes after the last array")

    # shapes come from the config, counts are validated against it
    shapes = param_shapes(model_cfg)

    def take(key, what, shape):
        if key not in arrays:
            raise CheckpointError(f"checkpoint missing {what} {key}")
        flat = arrays[key]
        size = math.prod(shape)
        if flat.size != size:
            raise CheckpointError(f"{what} {key}: expected {size} elements, got {flat.size}")
        return flat.reshape(shape).astype(train_cfg.np_dtype)

    params = ModelParams({name: Tensor(take(name, "parameter", shape), requires_grad=True)
                          for name, shape in shapes.items()})
    opt = None
    if opt_t >= 0:
        opt = AdamState(m={}, v={}, t=opt_t)
        for name, shape in shapes.items():
            for moment, store in (("m", opt.m), ("v", opt.v)):
                store[name] = take(f"opt.{moment}.{name}", "optimizer array", shape)
    return Checkpoint(model_config=model_cfg, train_config=train_cfg,
                      params=params, opt=opt, step=step)
