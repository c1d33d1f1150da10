"""Dense 2-D float tensors with tape-based reverse-mode differentiation.

Storage is row-major numpy, float32 or float64. No broadcasting beyond a
scalar constant or the explicit row-vector ops; shape adaptation is done
with reshape/slice/concat so every forward value is bit-reproducible.
A tape lives for one forward/backward pass and is discarded afterwards.
"""

from __future__ import annotations

import math

import numpy as np


class NumericError(ArithmeticError):
    """A forward op produced NaN/Inf, or a gradient went non-finite."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class TapeError(RuntimeError):
    """Backward called with a bad loss (non-scalar or not on the tape)."""


_ALLOWED = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense array plus autodiff metadata."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _ALLOWED:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of ops for one forward pass; replayed in reverse.

    Use as a context manager. Only one tape may be active per thread of
    execution; training is single-threaded per pass by contract.
    """

    _active = None

    def __init__(self):
        self._records = []  # (out, inputs, backward_fn)
        self._output_ids = set()
        self._grads = None

    @classmethod
    def current(cls):
        return cls._active

    def __enter__(self):
        if Tape._active is not None:
            raise TapeError("a tape is already active")
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = None
        return False

    def _record(self, out, inputs, backward_fn):
        self._output_ids.add(id(out))
        self._records.append((out, inputs, backward_fn))

    def backward(self, loss):
        """Reverse-topological accumulation from a scalar loss."""
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
        if id(loss) not in self._output_ids:
            raise TapeError("loss tensor was not produced on this tape")
        grads = {id(loss): np.ones_like(loss.data)}
        for out, inputs, backward_fn in reversed(self._records):
            g = grads.get(id(out))
            if g is None:
                continue
            in_grads = backward_fn(g)
            for t, gi in zip(inputs, in_grads):
                if gi is None or not t.requires_grad:
                    continue
                acc = grads.get(id(t))
                if acc is None:
                    # copy: backward fns may hand back the incoming grad itself,
                    # and accumulation below mutates in place
                    grads[id(t)] = np.array(gi, copy=True)
                else:
                    acc += gi
        self._grads = grads
        return grads

    def grad(self, t):
        """Gradient of the loss w.r.t. ``t``; exact zeros if unused."""
        if self._grads is None:
            raise TapeError("backward has not been run on this tape")
        g = self._grads.get(id(t))
        if g is None:
            return np.zeros_like(t.data)
        return g


def _finite_or_raise(arr, op):
    # a finite sum proves every element finite; only a non-finite sum
    # (NaN/Inf present, or finite values that overflow) needs the full scan
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {op}")


def custom_op(out_data, inputs, backward_fn, name):
    """Register an op result on the active tape (if any) and return it.

    ``backward_fn(grad_out)`` must return one gradient array (or None)
    per input, in order. Every output is checked: any NaN or +/-Inf
    element raises ``NumericError`` naming the op. Finite values whose
    sum overflows are allowed.
    """
    _finite_or_raise(out_data, name)
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    tape = Tape.current()
    if tape is not None and requires:
        tape._record(out, list(inputs), backward_fn)
    return out


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return custom_op(ad @ bd, (a, b), backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        return (g.T,)

    return custom_op(a.data.T.copy(), (a,), backward, "transpose")


def _check_same_shape(a, b, op):
    if a.shape != b.shape:
        raise DimensionError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward(g):
        return (g, g)

    return custom_op(a.data + b.data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward(g):
        return (g, -g)

    return custom_op(a.data - b.data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def backward(g):
        return (g * bd, g * ad)

    return custom_op(ad * bd, (a, b), backward, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python-float constant."""
    c = float(c)

    def backward(g):
        return (g * c,)

    return custom_op(a.data * c, (a,), backward, "scale")


def scale_by(a: Tensor, s: Tensor) -> Tensor:
    """Multiply by a scalar tensor (gradient flows into both operands)."""
    if s.data.size != 1:
        raise DimensionError(f"scale_by expects a scalar tensor, got {s.shape}")
    ad = a.data
    sv = s.data.reshape(-1)[0]

    def backward(g):
        ga = g * sv if a.requires_grad else None
        gs = np.full_like(s.data, (g * ad).sum()) if s.requires_grad else None
        return (ga, gs)

    return custom_op(ad * sv, (a, s), backward, "scale_by")


def div_by(a: Tensor, s: Tensor) -> Tensor:
    """Divide by a scalar tensor."""
    if s.data.size != 1:
        raise DimensionError(f"div_by expects a scalar tensor, got {s.shape}")
    ad = a.data
    sv = s.data.reshape(-1)[0]

    def backward(g):
        ga = g / sv if a.requires_grad else None
        gs = np.full_like(s.data, -(g * ad).sum() / (sv * sv)) if s.requires_grad else None
        return (ga, gs)

    return custom_op(ad / sv, (a, s), backward, "div_by")


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a 1 x d row vector to every row of an n x d matrix."""
    if x.data.ndim != 2 or v.shape != (1, x.shape[1]):
        raise DimensionError(f"add_rowvec shape mismatch: {x.shape} + {v.shape}")

    def backward(g):
        return (g, g.sum(axis=0, keepdims=True))

    return custom_op(x.data + v.data, (x, v), backward, "add_rowvec")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def backward(g):
        return (g.reshape(old),)

    return custom_op(a.data.reshape(shape).copy(), (a,), backward, "reshape")


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    n = a.shape[0]
    if not (0 <= start < stop <= n):
        raise DimensionError(f"slice_rows [{start}:{stop}] out of range for {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return custom_op(a.data[start:stop].copy(), (a,), backward, "slice_rows")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    n = a.shape[1]
    if not (0 <= start < stop <= n):
        raise DimensionError(f"slice_cols [{start}:{stop}] out of range for {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        return (full,)

    return custom_op(a.data[:, start:stop].copy(), (a,), backward, "slice_cols")


def concat_rows(parts) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat_rows of empty list")
    sizes = [p.shape[0] for p in parts]

    def backward(g):
        out, off = [], 0
        for s in sizes:
            out.append(g[off:off + s])
            off += s
        return tuple(out)

    return custom_op(np.concatenate([p.data for p in parts], axis=0), parts,
                     backward, "concat_rows")


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat_cols of empty list")
    sizes = [p.shape[1] for p in parts]

    def backward(g):
        out, off = [], 0
        for s in sizes:
            out.append(g[:, off:off + s])
            off += s
        return tuple(out)

    return custom_op(np.concatenate([p.data for p in parts], axis=1), parts,
                     backward, "concat_cols")


def sum_all(a: Tensor) -> Tensor:
    """Full reduction to a 1x1 scalar tensor."""

    def backward(g):
        return (np.full_like(a.data, g.reshape(-1)[0]),)

    return custom_op(a.data.sum().reshape(1, 1), (a,), backward, "sum_all")


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise NumericError("sqrt of negative input")
    out = np.sqrt(a.data)

    def backward(g):
        # safe at 0: clamp the denominator rather than emit inf
        return (g * 0.5 / np.maximum(out, 1e-12),)

    return custom_op(out, (a,), backward, "sqrt")


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with row-max subtraction for stability."""
    if x.data.ndim != 2:
        raise DimensionError(f"softmax_rows expects 2-D, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - dot),)

    return custom_op(y, (x,), backward, "softmax_rows")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization, then per-column gain and bias (1 x d each)."""
    if x.data.ndim != 2:
        raise DimensionError(f"layer_norm expects 2-D, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(
            f"layer_norm gain/bias must be (1, {d}), got {gain.shape}/{bias.shape}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        gx = None
        if x.requires_grad:
            dxhat = g * gain.data
            # standard layer-norm backward, all per-row
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            gx = inv * (dxhat - m1 - xhat * m2)
        ggain = (g * xhat).sum(axis=0, keepdims=True) if gain.requires_grad else None
        gbias = g.sum(axis=0, keepdims=True) if bias.requires_grad else None
        return (gx, ggain, gbias)

    return custom_op(out, (x, gain, bias), backward, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    xd = x.data
    inner = _GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
        grad = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
        return (g * grad,)

    return custom_op(out, (x,), backward, "gelu")


def pool_grid(x: Tensor, side: int, window: int) -> Tensor:
    """Average-pool rows of a side*side patch grid with a square window.

    Rows are in row-major grid order; output has (side/window)**2 rows.
    """
    n, d = x.shape
    if n != side * side:
        raise DimensionError(f"pool_grid: {n} rows cannot form a {side}x{side} grid")
    if window < 1 or window > side or side % window != 0:
        raise DimensionError(f"pool_grid window {window} incompatible with grid side {side}")
    if window == 1:
        def backward_id(g):
            return (g,)
        return custom_op(x.data.copy(), (x,), backward_id, "pool_grid")
    g2 = side // window
    blocks = x.data.reshape(g2, window, g2, window, d)
    out = blocks.mean(axis=(1, 3)).reshape(g2 * g2, d)

    def backward(g):
        gb = g.reshape(g2, 1, g2, 1, d) / (window * window)
        gx = np.broadcast_to(gb, (g2, window, g2, window, d)).reshape(n, d)
        return (gx.copy(),)

    return custom_op(out, (x,), backward, "pool_grid")


# ---------------------------------------------------------------------------
# gradient oracle


def finite_difference_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference grads.

    ``f`` must be a pure scalar-valued function of ``x`` (read through
    ``x.data``). The relative error denominator is
    max(|analytic|, |numeric|, 1e-8) per coordinate.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    with Tape() as tape:
        y = f(x)
        tape.backward(y)
        analytic = tape.grad(x).copy()
    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
