"""Deterministic training loop with Adam, checkpointing, and evaluation.

Shuffling and per-sample randomness are derived from (seed, epoch) /
(seed, index) so a run is fully determined by its config; resuming from a
checkpoint therefore only needs the global step counter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from . import losses, metrics
from .autodiff import DimensionError, NumericError, Tape, Tensor, Workspace, _new, reshape
from .data import class_frequencies, mask_to_patch_grid
from .model import ModelConfig, forward, param_shapes


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
        if not 0 <= self.lambda_attn < math.inf:
            raise ValueError(f"lambda_attn must be finite and >= 0, got {self.lambda_attn}")
        for name in ("learning_rate", "weight_epsilon", "adam_eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
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
    """Adam's first and second moments by parameter name, and its step count.

    :func:`adam_step` keeps the parameters and moments it updates in a
    private flat store: one buffer each for the parameters, ``m`` and
    ``v`` in the params dict's order, and two scratch buffers for the
    gathered gradient and the step. Each ``Tensor.data``, ``m[name]`` and
    ``v[name]`` is a view into its kind's buffer, with the values it had.
    Assigning a new array to any of them is allowed: the next step takes
    its values back into the store, as it does for a copied or unpickled
    state, which has no store."""
    m: dict
    v: dict
    t: int = 0
    _flat: _Flat | None = field(default=None, init=False, repr=False, compare=False)


def init_adam(params: dict[str, Tensor]) -> AdamState:
    return AdamState(m={k: np.zeros_like(t.data) for k, t in params.items()},
                     v={k: np.zeros_like(t.data) for k, t in params.items()},
                     t=0)


class _Flat:
    """The flat store of :class:`AdamState`: the buffers ``p``, ``m``, ``v``
    and the scratch ``g`` and ``step``, and by name, in the params dict's
    order, the ``(parameter, m, v, gradient)`` views it handed out."""

    __slots__ = ("p", "m", "v", "g", "step", "views")

    def __init__(self, params, state):
        """Copy the values of ``params`` and ``state``'s moments in, then
        point each ``Tensor.data`` and moment at its view. Every array must
        have its parameter's shape and the first parameter's dtype; else
        this raises before anything changes."""
        dtype = next(iter(params.values())).data.dtype if params else np.float64
        for name, t in params.items():
            for kind, a in (("parameter", t.data), ("m", state.m[name]), ("v", state.v[name])):
                if a.shape != t.data.shape:
                    raise DimensionError(f"Adam's {kind} for parameter {name} has shape "
                                         f"{a.shape}, expected {t.data.shape}")
                if a.dtype != dtype:
                    raise TypeError(f"Adam's {kind} for parameter {name} is {a.dtype}; "
                                    f"every parameter and moment must be {dtype}")
        n = sum(t.data.size for t in params.values())
        self.p, self.m, self.v, self.g, self.step = (np.empty(n, dtype) for _ in range(5))
        self.views = {}
        lo = 0
        for name, t in params.items():
            hi = lo + t.data.size
            views = tuple(buf[lo:hi].reshape(t.data.shape)
                          for buf in (self.p, self.m, self.v, self.g))
            for view, a in zip(views, (t.data, state.m[name], state.v[name])):
                np.copyto(view, a)
            t.data, state.m[name], state.v[name] = views[:3]
            self.views[name] = views
            lo = hi

    def __reduce__(self):
        # a copy or pickle of the views would not be views of a copied
        # buffer: a copied state gets no store, and its next step packs one
        return type(None), ()

    def holds(self, params, state):
        """Whether every parameter and moment of ``params`` and ``state`` is
        still the view this store handed out, in the same order."""
        return len(params) == len(self.views) and all(
            name == key and t.data is p and state.m.get(name) is m and state.v.get(name) is v
            for (name, t), (key, (p, m, v, _)) in zip(params.items(), self.views.items()))


def adam_step(params: dict[str, Tensor], grads: dict, state: AdamState,
              cfg: TrainConfig, lr: float | None = None):
    """Standard Adam with bias correction; mutates params and state.

    On the first step for ``params``, and on any step after a parameter's
    ``.data`` or a moment was replaced, the values are copied into
    ``state``'s flat store (see :class:`AdamState`). Each gradient is then
    copied into the store's gradient buffer, rounded to its parameter's
    dtype, so the caller's arrays are read only here. A gradient whose
    shape is not its parameter's raises ``DimensionError``, and one with a
    NaN or +/-Inf entry, or with an entry whose square overflows, raises
    ``NumericError``; both name the parameter, and are raised before any
    parameter, moment or ``state.t`` changes. The update runs once over
    the flat buffers, with the same operations in the same order as
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``: elementwise, so each
    parameter gets the floats of its own update.
    """
    if lr is None:
        lr = cfg.learning_rate
    flat = state._flat
    if flat is None or not flat.holds(params, state):
        flat = state._flat = _Flat(params, state)
    for name, (p, _, _, gv) in flat.views.items():
        g = grads[name]
        if np.shape(g) != p.shape:
            raise DimensionError(f"gradient for parameter {name} has shape "
                                 f"{np.shape(g)}, expected {p.shape}")
        np.copyto(gv, g)
    g = flat.g
    if not math.isfinite(np.vdot(g, g)):
        for name, views in flat.views.items():
            _check_gradient(name, views[3])
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    m, v, step = flat.m, flat.v, flat.step
    np.multiply(g, 1.0 - b1, out=step)
    m *= b1
    m += step
    np.multiply(g, g, out=step)
    step *= 1.0 - b2
    v *= b2
    v += step
    np.divide(m, bc1, out=step)
    step *= lr
    denom = np.divide(v, bc2, out=g)  # the gradient is read no more
    np.sqrt(denom, out=denom)
    denom += cfg.adam_eps
    step /= denom
    flat.p -= step


def _check_gradient(name, g):
    """Raise ``NumericError`` unless every entry of ``g`` and its square is
    finite. A finite sum of squares proves both, so only a non-finite one
    takes the full scan, and no square is computed there. :func:`adam_step`
    calls this for each parameter's view of its gradient buffer, only when
    the whole buffer's sum of squares is not finite."""
    if math.isfinite(np.vdot(g, g)):
        return
    if not np.isfinite(g).all():
        raise NumericError(f"non-finite gradient for parameter {name}")
    # compared as Python floats, so the limit is not rounded to float32
    if max(float(g.max()), -float(g.min())) > math.sqrt(np.finfo(g.dtype).max):
        raise NumericError(f"gradient for parameter {name} has an entry whose "
                           f"square overflows {g.dtype}")


def _epoch_permutation(seed, epoch, n):
    return np.random.default_rng([seed, 5000 + epoch]).permutation(n)


def train(params: dict[str, Tensor], model_cfg: ModelConfig, train_cfg: TrainConfig,
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


# a train step's arrays, planned into one arena per thread and reused by
# the thread's next step (see autodiff.Workspace)
step_workspace = Workspace()


def train_step(params: dict[str, Tensor], model_cfg: ModelConfig, train_cfg: TrainConfig,
               batch, state: AdamState, weights, lr):
    """One forward and one backward over the whole batch, then an Adam step.

    The regulariser takes the stack of every image's focus map, with one
    mask or None per image: an image without a mask, and a model without
    encoder layers (so without a focus map), add nothing. The step's arrays
    come from the thread's ``step_workspace``; :func:`adam_step` copies the
    gradients, views into that arena, into its own buffer, so no arena
    array reaches Adam's state or outlives the step through it. The batch
    size and whether the regulariser runs name the step's kind; steps of
    one kind run the same ops on the same shapes wherever their unmasked
    images fall, so they share one plan."""
    g, b = model_cfg.grid_side, len(batch)
    masks = [s.mask for s in batch]
    regularise = train_cfg.lambda_attn > 0 and any(m is not None for m in masks)
    with Tape(step_workspace, (b, regularise)) as tape:
        # no name holds the stacked images, so they are freed once forward returns
        res = forward(params, np.stack([s.image for s in batch], out=_new(
            (b,) + np.shape(batch[0].image), params["pos"].dtype)), model_cfg)
        l_ce = losses.weighted_cross_entropy(res.probs, [s.label for s in batch], weights)
        l_attn = None
        if regularise and res.focus is not None:
            grids = [None if m is None else mask_to_patch_grid(m, model_cfg.patch)
                     for m in masks]
            l_attn = losses.attention_regularization(
                [reshape(res.focus, (b, g, g))], [grids], train_cfg.attn_mode)
        total, breakdown = losses.total_loss(l_ce, l_attn, train_cfg.lambda_attn)
        # the forward's attention maps then die with their op's backward
        del res
        tape.backward(total)
        grads = {name: tape.grad(p) for name, p in params.items()}
    adam_step(params, grads, state, train_cfg, lr)
    return breakdown


def evaluate(params: dict[str, Tensor], model_cfg: ModelConfig, samples,
             strict_auc: bool = True):
    """Forward-only pass over samples; returns (MetricsReport, probs, labels)."""
    if not samples:
        raise ValueError("empty evaluation set")
    probs = np.stack([forward(params, s.image, model_cfg).probs.data[0] for s in samples])
    labels = np.asarray([s.label for s in samples], dtype=np.int64)
    return metrics.report(probs, labels, model_cfg.classes, strict_auc), probs, labels


# ---------------------------------------------------------------------------
# checkpoints

MAGIC = b"LSNFRMT1"
# 2: patch_proj.w, mlp.w1, mlp.w2 and head.w (and their moments) stored (in, out)
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: TrainConfig
    params: dict[str, Tensor]
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


def _header(model_cfg, train_cfg, step, opt_t, n_arrays):
    """The checkpoint header: ``key=value`` lines, each ended by a newline."""
    lines = [f"format_version={FORMAT_VERSION}", f"dtype={train_cfg.dtype}",
             f"step={step}", f"opt_t={opt_t}", f"n_arrays={n_arrays}",
             *config_lines("model", model_cfg), *config_lines("train", train_cfg)]
    return "".join(line + "\n" for line in lines)


def _layout(shapes, moments):
    """``(name, shape)`` of each array a checkpoint holds, in file order: the
    parameters in ``shapes`` order, then, with ``moments``, each parameter's
    ``opt.m.`` and ``opt.v.`` moments."""
    layout = list(shapes.items())
    if moments:
        layout += [(f"opt.{m}.{name}", shape) for name, shape in shapes.items()
                   for m in "mv"]
    return layout


def _frame(name, count):
    """The bytes before an array's floats: the length-prefixed UTF-8 name and
    the 8-byte element count."""
    nb = name.encode("utf-8")
    return struct.pack("<I", len(nb)) + nb + struct.pack("<Q", count)


def save_checkpoint(path, ckpt: Checkpoint):
    """Container: magic, length-prefixed key=value header, then per array a
    length-prefixed name, an 8-byte little-endian count, and raw
    little-endian floats at the configured width; written to ``<path>.tmp``,
    then renamed onto ``path``, so that a failed save leaves ``path`` as it was."""
    dtype = np.dtype(ckpt.train_config.np_dtype).newbyteorder("<")
    shapes, opt = param_shapes(ckpt.model_config), ckpt.opt
    arrays = [ckpt.params[name].data for name in shapes]
    if opt is not None:
        arrays += [moments[name] for name in shapes for moments in (opt.m, opt.v)]
    layout = _layout(shapes, opt is not None)
    header = _header(ckpt.model_config, ckpt.train_config, ckpt.step,
                     opt.t if opt is not None else -1, len(layout)).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(header)), header]
    for (name, _), arr in zip(layout, arrays):
        parts.append(_frame(name, arr.size))
        parts.append(np.ascontiguousarray(arr).astype(dtype).tobytes())
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _short(n):
    """``n`` in digits, or past 15 digits as its first three and its power
    of ten (``1.02e+301``), so that an error stays one short line."""
    digits = str(n)
    return digits if len(digits) <= 15 else f"{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"


def load_checkpoint(path) -> Checkpoint:
    """Read the config values, ``step``, ``opt_t`` and the floats; every other
    byte must be the one :func:`save_checkpoint` writes for them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:8]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise CheckpointError(f"truncated checkpoint: {len(raw)} bytes, preamble needs 12")
    (hlen,) = struct.unpack_from("<I", raw, 8)
    if 12 + hlen > len(raw):
        raise CheckpointError(f"truncated header: need {hlen} bytes")
    try:
        header = raw[12:12 + hlen].decode("utf-8")
        kv = dict(line.partition("=")[::2] for line in header.split("\n"))
        version = kv["format_version"]
        if int(version) != FORMAT_VERSION:
            layout = ("stores patch_proj.w, mlp.w1, mlp.w2 and head.w (out, in)"
                      if version == "1" else "is unknown")
            raise ValueError(f"format version {version} {layout}; this code reads "
                             f"version {FORMAT_VERSION}: retrain")
        model_cfg, train_cfg = ModelConfig(), TrainConfig()
        for prefix, cfg in (("model", model_cfg), ("train", train_cfg)):
            for f in dataclasses.fields(cfg):
                set_field(cfg, f.name, kv[f"{prefix}.{f.name}"])
        model_cfg.validate()
        train_cfg.validate()
        step, opt_t = int(kv["step"]), int(kv["opt_t"])
        if opt_t < -1:
            raise ValueError(f"opt_t must be >= -1 (-1: no optimizer state), got {opt_t}")
    except KeyError as e:
        raise CheckpointError(f"checkpoint header missing {e.args[0]}") from None
    except ValueError as e:  # also a header that is not UTF-8
        raise CheckpointError(f"bad checkpoint header: {e}") from None
    shapes = param_shapes(model_cfg)
    layout = _layout(shapes, opt_t >= 0)
    expected = _header(model_cfg, train_cfg, step, opt_t, len(layout))
    if header != expected:
        line, want, got = next((i, w, g) for i, (w, g) in enumerate(
            zip_longest(expected.split("\n"), header.split("\n")), 1) if w != g)
        raise CheckpointError(f"checkpoint header line {line}: expected {want!r}, "
                              f"got {got!r}")
    dtype = np.dtype(train_cfg.np_dtype).newbyteorder("<")
    pos = 12 + hlen
    arrays = []
    for name, shape in layout:
        count = math.prod(shape)
        start = pos + 4 + len(name.encode("utf-8")) + 8  # the end of its _frame
        end = start + count * dtype.itemsize
        # the size test first: it also refuses a count past 64 bits, which
        # has no frame, before anything is allocated
        if end > len(raw) or raw[pos:start] != _frame(name, count):
            raise CheckpointError(f"byte {pos} of {len(raw)}: expected array {name} "
                                  f"of {_short(count)} elements")
        arrays.append(np.frombuffer(raw, dtype, count, start).reshape(shape)
                      .astype(train_cfg.np_dtype))
        pos = end
    if pos != len(raw):
        raise CheckpointError(f"{len(raw) - pos} trailing bytes after the last array")
    n = len(shapes)
    params = {name: Tensor(a, requires_grad=True) for name, a in zip(shapes, arrays)}
    opt = (AdamState(m=dict(zip(shapes, arrays[n::2])),
                     v=dict(zip(shapes, arrays[n + 1::2])), t=opt_t)
           if opt_t >= 0 else None)
    return Checkpoint(model_config=model_cfg, train_config=train_cfg,
                      params=params, opt=opt, step=step)
