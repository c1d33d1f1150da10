"""Dense float tensors with tape-based reverse-mode differentiation.

Storage is row-major numpy, float32 or float64. Every op acts on the
trailing two axes (rows, columns); any leading axes form a stack of
matrices, such as a batch of images. Broadcasting is limited to a scalar
constant, the explicit row-vector ops, and the stated cases of ``matmul``,
``add``, ``concat_rows`` and ``div_by``; any other shape adaptation is done
with reshape/slice/concat so every forward value is bit-reproducible.
Backward stores a tensor's first gradient as its op returns it and adds
later ones out of place, so a gradient may be shared or read-only, and no
backward writes into the one it receives. A tape lives for one
forward/backward pass and is discarded afterwards.
"""

from __future__ import annotations

import contextvars
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


_ACTIVE_TAPE = contextvars.ContextVar("active_tape", default=None)


class Tape:
    """Ordered record of ops for one forward pass; replayed in reverse.

    Use as a context manager. Only one tape may be active per thread (per
    context); threads each record on their own tape.
    """

    def __init__(self):
        self._records = []  # (out, inputs, backward_fn)
        self._output_ids = set()
        self._grads = None

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise TapeError("a tape is already active")
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
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
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None or not t.requires_grad:
                    continue
                acc = grads.get(id(t))
                if acc is not None:
                    # the sum keeps the first gradient's memory layout: BLAS
                    # may round a column-major matmul operand differently
                    gi = np.add(acc, gi, out=np.empty_like(acc))
                grads[id(t)] = gi
        self._grads = grads
        return grads

    def grad(self, t):
        """Gradient of the loss w.r.t. ``t``; exact zeros if unused.

        The array may be shared with another gradient or be read-only (a
        broadcast view), so copy it before writing into it.
        """
        if self._grads is None:
            raise TapeError("backward has not been run on this tape")
        g = self._grads.get(id(t))
        if g is None:
            return np.zeros_like(t.data)
        return g


def all_finite(arr) -> bool:
    """True when no element of ``arr`` is NaN or +/-Inf.

    A finite dot product of ``arr`` with itself proves every element finite,
    and BLAS computes it faster than a sum. Only a non-finite dot (a
    non-finite element, or finite values whose squares or sum overflow)
    needs the full scan.
    """
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def custom_op(out_data, inputs, backward_fn, name):
    """Register an op result on the active tape (if any) and return it.

    ``out_data`` must be a fresh float32 or float64 array, which the output
    tensor holds as it is. ``backward_fn(grad_out)`` must return one
    gradient array (or None) per input, in order. Every output is checked:
    any NaN or +/-Inf element raises ``NumericError`` naming the op. Finite
    values whose squares or sum overflow are allowed.
    """
    if not all_finite(out_data):
        raise NumericError(f"non-finite values produced by {name}")
    requires = False
    for t in inputs:
        if t.requires_grad:
            requires = True
            break
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = requires
    tape = _ACTIVE_TAPE.get()
    if tape is not None and requires:
        tape._record(out, list(inputs), backward_fn)
    return out


# ---------------------------------------------------------------------------
# ops


def _swap(x):
    """The last two axes swapped (a view)."""
    return np.swapaxes(x, -1, -2)


def _rows(x):
    """``x`` as one matrix: every leading axis folded into the rows."""
    return x.reshape(-1, x.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes.

    A 2-D ``b`` multiplies all of ``a``'s rows, any leading axes folded in,
    in one product; a stack times a stack multiplies matrix by matrix and
    needs equal leading axes.
    """
    ad, bd = a.data, b.data
    if (ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]
            or (bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2])):
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    if bd.ndim > 2:
        def backward_stack(g):
            return (g @ _swap(bd) if a.requires_grad else None,
                    _swap(ad) @ g if b.requires_grad else None)

        return custom_op(ad @ bd, (a, b), backward_stack, "matmul")
    rows = _rows(ad)

    def backward(g):
        g2 = _rows(g)
        return ((g2 @ bd.T).reshape(ad.shape) if a.requires_grad else None,
                rows.T @ g2 if b.requires_grad else None)

    return custom_op((rows @ bd).reshape(ad.shape[:-1] + bd.shape[-1:]), (a, b),
                     backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    def backward(g):
        return (_swap(g),)

    return custom_op(_swap(a.data).copy(), (a,), backward, "transpose")


def _lead_sum(g, shape):
    """Sum ``g`` over the leading axes that a part of ``shape`` lacks;
    ``g`` itself if it has none."""
    lead = tuple(range(g.ndim - len(shape)))
    return g.sum(axis=lead) if lead else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may lack ``a``'s leading axes and is then
    added to every matrix of the stack."""
    if a.shape != b.shape and (not 0 < b.data.ndim < a.data.ndim
                               or a.shape[-b.data.ndim:] != b.shape):
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    b_shape = b.shape

    def backward(g):
        return (g, _lead_sum(g, b_shape) if b.requires_grad else None)

    return custom_op(a.data + b.data, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
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
    """Divide by a scalar tensor, or each trailing matrix of a stack by its
    own 1 x 1 entry of an ``s`` shaped (*stack, 1, 1)."""
    ad, sd = a.data, s.data
    if sd.ndim > ad.ndim or (sd.size != 1 and (ad.ndim < 3
                                               or sd.shape != ad.shape[:-2] + (1, 1))):
        raise DimensionError(f"div_by expects a scalar tensor or one 1 x 1 "
                             f"entry per matrix of {a.shape}, got {s.shape}")
    # the axes one entry of s divides: all of a's, or one matrix's
    axes = tuple(range(ad.ndim)) if sd.size == 1 else (-2, -1)

    def backward(g):
        ga = g / sd if a.requires_grad else None
        gs = ((-(g * ad).sum(axis=axes, keepdims=True) / (sd * sd)).reshape(sd.shape)
              if s.requires_grad else None)
        return (ga, gs)

    return custom_op(ad / sd, (a, s), backward, "div_by")


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a 1 x d row vector to every row of an n x d matrix (or stack)."""
    if x.data.ndim < 2 or v.shape != (1, x.shape[-1]):
        raise DimensionError(f"add_rowvec shape mismatch: {x.shape} + {v.shape}")

    def backward(g):
        return (g, _rows(g).sum(axis=0, keepdims=True))

    return custom_op(x.data + v.data, (x, v), backward, "add_rowvec")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def backward(g):
        return (g.reshape(old),)

    return custom_op(a.data.reshape(shape).copy(), (a,), backward, "reshape")


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start < stop <= a.shape[-2]:
        raise DimensionError(f"slice_rows [{start}:{stop}] out of range for {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., start:stop, :] = g
        return (full,)

    return custom_op(a.data[..., start:stop, :].copy(), (a,), backward, "slice_rows")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start < stop <= a.shape[-1]:
        raise DimensionError(f"slice_cols [{start}:{stop}] out of range for {a.shape}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return custom_op(a.data[..., start:stop].copy(), (a,), backward, "slice_cols")


def concat_rows(parts) -> Tensor:
    """Stack rows; a 2-D part is repeated over the other parts' leading axes."""
    parts = list(parts)
    if not parts:
        raise DimensionError("concat_rows of empty list")
    sizes = [p.shape[-2] for p in parts]
    arrays = [p.data for p in parts]
    lead = max(arrays, key=np.ndim).shape[:-2]
    shared = [bool(lead) and a.ndim == 2 for a in arrays]
    if lead:
        arrays = [np.broadcast_to(a, lead + a.shape) if sh else a
                  for a, sh in zip(arrays, shared)]

    def backward(g):
        out, off = [], 0
        for s, sh in zip(sizes, shared):
            gp = g[..., off:off + s, :]
            out.append(_lead_sum(gp, gp.shape[-2:]) if sh else gp)
            off += s
        return tuple(out)

    return custom_op(np.concatenate(arrays, axis=-2), parts, backward, "concat_rows")


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat_cols of empty list")
    sizes = [p.shape[-1] for p in parts]

    def backward(g):
        out, off = [], 0
        for s in sizes:
            out.append(g[..., off:off + s])
            off += s
        return tuple(out)

    return custom_op(np.concatenate([p.data for p in parts], axis=-1), parts,
                     backward, "concat_cols")


def sum_all(a: Tensor) -> Tensor:
    """Reduce each trailing matrix to a 1x1 sum: one scalar for a matrix,
    a (*stack, 1, 1) tensor for a stack."""
    ad = a.data
    if ad.ndim < 2:
        raise DimensionError(f"sum_all expects at least 2-D, got {a.shape}")

    def backward(g):
        return (np.broadcast_to(g, ad.shape),)

    return custom_op(ad.sum(axis=(-2, -1), keepdims=True), (a,), backward, "sum_all")


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
    if x.data.ndim < 2:
        raise DimensionError(f"softmax_rows expects at least 2-D, got {x.shape}")
    # subtract, exp, divide; the last two in place, which saves two
    # allocations and gives the same floats
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return custom_op(y, (x,), backward, "softmax_rows")


def attention_weights(q: Tensor, kt: Tensor, c: float) -> Tensor:
    """``softmax_rows(scale(matmul(q, kt), c))`` as one op, with the same floats.

    ``q`` is n x d and ``kt`` d x m, or stacks of them with equal leading
    axes. The product is scaled, shifted by its row max, exponentiated and
    normalised in place, so the tape keeps the weights and no scores.
    """
    qd, kd = q.data, kt.data
    if (qd.ndim < 2 or kd.ndim != qd.ndim or qd.shape[-1] != kd.shape[-2]
            or qd.shape[:-2] != kd.shape[:-2]):
        raise DimensionError(f"attention_weights shapes incompatible: {q.shape} x {kt.shape}")
    c = float(c)
    y = qd @ kd
    y *= c
    # a -inf score would leave an exact 0 after the softmax; the scaled
    # scores are non-finite wherever the product is, so one check covers both
    if not all_finite(y):
        raise NumericError("non-finite values produced by attention_weights")
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        # softmax, then scale, then matmul backward, in the chain's order
        gs = g - (g * y).sum(axis=-1, keepdims=True)
        gs *= y
        gs *= c
        return (gs @ _swap(kd) if q.requires_grad else None,
                _swap(qd) @ gs if kt.requires_grad else None)

    return custom_op(y, (q, kt), backward, "attention_weights")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization, then per-column gain and bias (1 x d each)."""
    if x.data.ndim < 2:
        raise DimensionError(f"layer_norm expects at least 2-D, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(
            f"layer_norm gain/bias must be (1, {d}), got {gain.shape}/{bias.shape}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        gx = None
        if x.requires_grad:
            dxhat = g * gain.data
            # standard layer-norm backward, all per-row
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (dxhat - m1 - xhat * m2)
        ggain = _rows(g * xhat).sum(axis=0, keepdims=True) if gain.requires_grad else None
        gbias = _rows(g).sum(axis=0, keepdims=True) if bias.requires_grad else None
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
    Leading stack axes pass through.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"pool_grid expects at least 2-D, got {x.shape}")
    lead, (n, d) = x.shape[:-2], x.shape[-2:]
    if n != side * side:
        raise DimensionError(f"pool_grid: {n} rows cannot form a {side}x{side} grid")
    if window < 1 or window > side or side % window != 0:
        raise DimensionError(f"pool_grid window {window} incompatible with grid side {side}")
    if window == 1:
        def backward_id(g):
            return (g,)
        return custom_op(x.data.copy(), (x,), backward_id, "pool_grid")
    g2 = side // window
    blocks = x.data.reshape(lead + (g2, window, g2, window, d))
    out = blocks.mean(axis=(-4, -2)).reshape(lead + (g2 * g2, d))

    def backward(g):
        gb = g.reshape(lead + (g2, 1, g2, 1, d)) / (window * window)
        gx = np.broadcast_to(gb, lead + (g2, window, g2, window, d)).reshape(x.shape)
        return (gx,)

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
