"""Dense float tensors with tape-based reverse-mode differentiation.

Storage is row-major numpy, float32 or float64. Every op acts on the
trailing two axes (rows, columns); any leading axes form a stack of
matrices, such as a batch of images. Broadcasting is limited to a scalar
constant, the explicit row-vector ops, and the stated cases of ``matmul``,
``add``, ``concat_rows`` and ``div_by``; any other shape adaptation is done
with reshape/slice/concat so every forward value is bit-reproducible.
Backward stores a tensor's first gradient as its op returns it, so a
gradient may be shared or read-only, and no backward writes into the one
it receives. The tape writes only into arrays it allocated: a second
gradient allocates the sum once, and later ones add into it in place. A
slice's backward returns a :class:`Block`, which the tape adds into the
input's gradient at the slice, so no slice builds a full-size array. An op
may have several outputs (see :func:`custom_op`). A tape lives for one
forward/backward pass and is discarded afterwards.
"""

from __future__ import annotations

import contextvars
import math
import threading

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


class Block:
    """A gradient for part of an input: ``grad`` belongs at ``input[index]``
    and the rest of the input's gradient is zero."""

    __slots__ = ("index", "grad")

    def __init__(self, index, grad):
        self.index = index
        self.grad = grad


_ACTIVE_TAPE = contextvars.ContextVar("active_tape", default=None)


class Tape:
    """Ordered record of ops for one forward pass; replayed in reverse.

    Use as a context manager. Only one tape may be active per thread (per
    context); threads each record on their own tape.
    """

    def __init__(self):
        self._records = []  # (out or tuple of outs, inputs, backward_fn)
        self._output_ids = set()
        self._grads = None
        self._blocks = None

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise TapeError("a tape is already active")
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        return False

    def _record(self, out, inputs, backward_fn):
        if type(out) is tuple:
            self._output_ids.update(map(id, out))
        else:
            self._output_ids.add(id(out))
        self._records.append((out, inputs, backward_fn))

    def backward(self, loss):
        """Reverse-topological accumulation from a scalar loss.

        A tensor's first gradient is kept as its op returned it. A second
        one allocates the sum, in the first one's memory layout; later ones
        add into that sum in place. A :class:`Block` adds into the
        gradient at its index: as the first gradient it lands in zeros,
        and on a first gradient the tape did not allocate it lands in a
        copy. Each sum adds in the order the gradients arrive. Entries
        outside a block are left as they are, so a -0.0 there stays -0.0
        where adding a zero-filled array would have made it +0.0.

        The tape keeps each tensor's gradient, and each block's array,
        until it is discarded: arrays freed one by one in mid-backward let
        the allocator return memory to the system, and the next step then
        faults it back in.
        """
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
        if id(loss) not in self._output_ids:
            raise TapeError("loss tensor was not produced on this tape")
        grads = {id(loss): np.ones_like(loss.data)}
        blocks = []  # every block's array, kept as the dense gradients are
        owned = set()  # ids of the tensors whose gradient this tape allocated
        for out, inputs, backward_fn in reversed(self._records):
            if type(out) is tuple:
                g = tuple(grads.get(id(o)) for o in out)
                if all(gi is None for gi in g):
                    continue
            else:
                g = grads.get(id(out))
                if g is None:
                    continue
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None or not t.requires_grad:
                    continue
                key = id(t)
                acc = grads.get(key)
                if type(gi) is Block:
                    blocks.append(gi.grad)
                    if acc is None:
                        acc = np.zeros_like(t.data)
                        acc[gi.index] = gi.grad
                    else:
                        if key not in owned:
                            acc = acc.copy(order="K")
                        part = acc[gi.index]
                        np.add(part, gi.grad, out=part)
                    owned.add(key)
                elif acc is None:
                    acc = gi
                elif key in owned:
                    np.add(acc, gi, out=acc)
                else:
                    # the sum keeps the first gradient's memory layout: BLAS
                    # may round a column-major matmul operand differently
                    acc = np.add(acc, gi, out=np.empty_like(acc))
                    owned.add(key)
                grads[key] = acc
        self._grads, self._blocks = grads, blocks
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
    tensor holds as it is, or a tuple of them for an op with several
    outputs, which then returns a tuple of tensors. ``backward_fn`` gets the
    output's gradient, or for several outputs a tuple with one gradient per
    output and None where none arrived, and must return one gradient
    array, :class:`Block` or None per input, in order. Every output is
    checked: any NaN or +/-Inf element raises ``NumericError`` naming the
    op. Finite values whose squares or sum overflow are allowed.
    """
    several = type(out_data) is tuple
    arrays = out_data if several else (out_data,)
    for arr in arrays:
        if not all_finite(arr):
            raise NumericError(f"non-finite values produced by {name}")
    requires = False
    for t in inputs:
        if t.requires_grad:
            requires = True
            break
    outs = []
    for arr in arrays:
        t = Tensor.__new__(Tensor)
        t.data = arr
        t.requires_grad = requires
        outs.append(t)
    out = tuple(outs) if several else outs[0]
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
        ga = gs = tmp = None
        if s.requires_grad:
            tmp = g * ad
            gs = np.full_like(s.data, tmp.sum())
        if a.requires_grad:
            ga = np.multiply(g, sv, out=tmp)
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


def _slice(a: Tensor, start: int, stop: int, axis: int, name: str) -> Tensor:
    """Entries ``start:stop`` of trailing axis ``axis`` (-2 rows, -1 columns)."""
    if not 0 <= start < stop <= a.shape[axis]:
        raise DimensionError(f"{name} [{start}:{stop}] out of range for {a.shape}")

    index = (..., slice(start, stop)) + (slice(None),) * (-1 - axis)

    def backward(g):
        return (Block(index, g),)

    return custom_op(a.data[index].copy(), (a,), backward, name)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    return _slice(a, start, stop, -2, "slice_rows")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    return _slice(a, start, stop, -1, "slice_cols")


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


def _softmax(y):
    """Row-wise softmax of ``y``, in place, shifted by the row max; returns ``y``."""
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def _softmax_backward(y, g, out=None):
    """``y * (g - (g * y).sum(-1))``, the softmax input's gradient, laid out
    as ``g * y`` or written into ``out``."""
    gs = np.multiply(g, y, out=out)
    np.subtract(g, gs.sum(axis=-1, keepdims=True), out=gs)
    gs *= y
    return gs


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with row-max subtraction for stability."""
    if x.data.ndim < 2:
        raise DimensionError(f"softmax_rows expects at least 2-D, got {x.shape}")
    y = _softmax(x.data.copy(order="K"))

    def backward(g):
        return (_softmax_backward(y, g),)

    return custom_op(y, (x,), backward, "softmax_rows")


# A group of heads keeps its score stack within 2 MiB, the per-core L2
# cache of the 2-core Xeon the benchmarks were measured on, so that one
# group's product, scale, softmax and value product run on cached scores.
# A default batch of 8 (four heads: 1.08 MB) and any one image run as one
# group: on one image, the same op looping over its heads one at a time
# evaluated 9% fewer images per second. 4 x 257 x 257 float32 scores run
# one head per group, where one four-head group (4.2 MB) made the op's
# forward 5% and its forward and backward 8% slower. Bounding the three
# score stacks the backward holds instead (two-head groups at batch 8)
# trained no faster.
_HEAD_GROUP_BYTES = 2 * 1024 * 1024


class _Scratch(threading.local):
    """Per-thread flat buffers, one per (role, dtype), each grown to the
    largest request so far; threads never share one. A buffer is never
    shrunk or freed while its thread lives, so one backward on a large
    batch keeps its size: at the default config and a batch of 256, the
    two score-sized buffers hold about 8.7 MB each."""

    def __init__(self):
        self.buffers = {}

    def view(self, role, shape, dtype):
        """A C-contiguous ``shape`` view of the (``role``, ``dtype``) buffer.
        Its contents are stale, and the next request for the role reuses
        its memory, so nothing may keep it past the call that asked."""
        size = math.prod(shape)
        key = (role, dtype)
        buf = self.buffers.get(key)
        if buf is None or buf.size < size:
            buf = self.buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


_scratch = _Scratch()


def multi_head_attention(q: Tensor, kt: Tensor, v: Tensor, heads: int, c: float):
    """``heads`` attention heads as one op. Its ``2 * heads`` outputs are
    the heads' results ``weights_h @ v_h``, then their weights
    ``weights_h = softmax_rows(c * q_h @ kt_h)``.

    With dk = D / heads, head h reads columns ``h*dk:(h+1)*dk`` of the
    n x D queries ``q`` and of the m x D values ``v``, and the same rows of
    the D x m transposed keys ``kt``; stacks need equal leading axes. The
    heads run in groups whose scores fit ``_HEAD_GROUP_BYTES``, one stacked
    product, scale, softmax and value product per group, and each output
    is one head's view of its group's stack, heads on axis 0. The floats are
    those of the chain of slice ops, ``matmul``, ``scale``,
    ``softmax_rows`` and ``matmul`` per head: each head's parts are
    C-contiguous matrices, as the slices made (BLAS rounds by layout), and
    the tape keeps the weights and no scores. The backward's stacked
    temporaries live in a per-thread scratch; the gradients it returns
    are fresh dense arrays.
    """
    qd, kd, vd = q.data, kt.data, v.data
    if (qd.ndim < 2 or kd.ndim != qd.ndim or vd.ndim != qd.ndim
            or qd.shape[-1] != kd.shape[-2] or vd.shape[-2:] != (kd.shape[-1], kd.shape[-2])
            or not qd.shape[:-2] == kd.shape[:-2] == vd.shape[:-2]):
        raise DimensionError(f"multi_head_attention shapes incompatible: "
                             f"{q.shape} x {kt.shape} x {v.shape}")
    lead, (n, d), m = qd.shape[:-2], qd.shape[-2:], kd.shape[-1]
    if not 0 < heads <= d or d % heads:
        raise DimensionError(f"multi_head_attention: {heads} heads do not split "
                             f"{d} columns evenly")
    dk, c = d // heads, float(c)
    dtype = np.result_type(qd, kd, vd)

    # axis orders that bring the heads' axis to the front
    nl = len(lead)
    cols_first = (nl + 1, *range(nl + 1), nl + 2)
    rows_first = (nl, *range(nl), nl + 1, nl + 2)

    def split_cols(a, rows):
        """The heads' column blocks of (*lead, rows, D) ``a``: (heads, *lead, rows, dk)."""
        return a.reshape(lead + (rows, heads, dk)).transpose(cols_first)

    def split_rows(a):
        """The heads' row blocks of (*lead, D, m) ``a``: (heads, *lead, dk, m)."""
        return a.reshape(lead + (heads, dk, m)).transpose(rows_first)

    step = max(1, _HEAD_GROUP_BYTES // max(1, math.prod(lead) * n * m * dtype.itemsize))
    groups, outs, weights = [], [], []  # per group: its heads and their parts and weights
    for lo in range(0, heads, step):
        g = slice(lo, min(lo + step, heads))
        qh = np.ascontiguousarray(split_cols(qd, n)[g])
        kh = np.ascontiguousarray(split_rows(kd)[g])
        vh = np.ascontiguousarray(split_cols(vd, m)[g])
        y = qh @ kh
        y *= c
        # a -inf score would leave an exact 0 after the softmax; the scaled
        # scores are non-finite wherever the product is, so one check covers both
        if not all_finite(y):
            raise NumericError("non-finite values produced by multi_head_attention")
        _softmax(y)
        outs.extend(y @ vh)
        weights.extend(y)
        groups.append((g, qh, kh, vh, y))

    def backward(grads):
        g_outs, g_weights = grads[:heads], grads[heads:]
        scores = q.requires_grad or kt.requires_grad
        values = v.requires_grad and any(gi is not None for gi in g_outs)
        gq = np.empty(lead + (n, d), dtype) if q.requires_grad else None
        gkt = np.empty(lead + (d, m), dtype) if kt.requires_grad else None
        gv = np.empty(lead + (m, d), dtype) if values else None
        for g, qh, kh, vh, y in groups:
            hs = range(heads)[g]
            go = None
            if any(g_outs[h] is not None for h in hs):
                go = _scratch.view("out", (len(hs),) + lead + (n, dk), dtype)
                for i, h in enumerate(hs):
                    go[i] = 0.0 if g_outs[h] is None else g_outs[h]
            if values:
                if go is None:
                    split_cols(gv, m)[g] = 0.0
                else:  # matmul's backward
                    np.matmul(_swap(y), go, out=split_cols(gv, m)[g])
            if not scores:
                continue
            # the weights' gradient: the values' term plus the weights' own
            gy = _scratch.view("weights", y.shape, dtype)
            if go is not None:
                np.matmul(go, _swap(vh), out=gy)
            for i, h in enumerate(hs):
                gw = g_weights[h]
                if go is None:
                    gy[i] = 0.0 if gw is None else gw
                elif gw is not None:
                    np.add(gy[i], gw, out=gy[i])
            # softmax, then scale, then matmul backward, in the chain's order
            gs = _softmax_backward(y, gy, out=_scratch.view("softmax", y.shape, dtype))
            gs *= c
            if gq is not None:
                np.matmul(gs, _swap(kh), out=split_cols(gq, n)[g])
            if gkt is not None:
                np.matmul(_swap(qh), gs, out=split_rows(gkt)[g])
        return (gq, gkt, gv)

    return custom_op(tuple(outs + weights), (q, kt, v), backward, "multi_head_attention")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization (eps 1e-5), then per-column gain and bias (1 x d each)."""
    if x.data.ndim < 2:
        raise DimensionError(f"layer_norm expects at least 2-D, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(
            f"layer_norm gain/bias must be (1, {d}), got {gain.shape}/{bias.shape}")
    # two full-size arrays: xhat, and out (which first holds the squares)
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + 1e-5)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def backward(g):
        # standard layer-norm backward, all per-row, in two full-size
        # arrays; tmp is laid out as g * xhat, and the reductions' float
        # order and the returned gradient's layout depend on that
        gx = ggain = gbias = tmp = None
        if gain.requires_grad:
            tmp = g * xhat
            ggain = _rows(tmp).sum(axis=0, keepdims=True)
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            tmp = np.multiply(dxhat, xhat, out=tmp)
            m2 = tmp.mean(axis=-1, keepdims=True)
            dxhat -= m1
            gx = np.subtract(dxhat, np.multiply(xhat, m2, out=tmp), out=tmp)
            gx *= inv
        if bias.requires_grad:
            gbias = _rows(g).sum(axis=0, keepdims=True)
        return (gx, ggain, gbias)

    return custom_op(out, (x, gain, bias), backward, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    xd = x.data
    # t = tanh(c * (x + 0.044715 * x**3)), out = 0.5 * x * (1 + t), each
    # product and sum in that order, in place where the operand is spent
    t = xd * xd
    t *= xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * xd
    out *= 1.0 + t

    def backward(g):
        # dinner = c * (1 + 3 * 0.044715 * x**2)
        dinner = xd * xd
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        # grad = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner
        right = 0.5 * xd
        grad = t * t
        np.subtract(1.0, grad, out=grad)
        right *= grad
        right *= dinner
        np.add(1.0, t, out=grad)
        grad *= 0.5
        grad += right
        return (g * grad,)

    return custom_op(out, (x,), backward, "gelu")


def pool_grid(x: Tensor, side: int, window: int) -> Tensor:
    """Average-pool the last side*side rows, a patch grid in row-major
    order, with a square window; any rows before them (such as a class
    token) pass through unchanged.

    The output has those rows, then (side/window)**2 pooled rows. Leading
    stack axes pass through.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"pool_grid expects at least 2-D, got {x.shape}")
    lead, (n, d) = x.shape[:-2], x.shape[-2:]
    keep = n - side * side
    if keep < 0:
        raise DimensionError(f"pool_grid: {n} rows cannot hold a {side}x{side} grid")
    if window < 1 or window > side or side % window != 0:
        raise DimensionError(f"pool_grid window {window} incompatible with grid side {side}")
    g2 = side // window
    blocks_shape = lead + (g2, window, g2, window, d)
    out = np.empty(lead + (keep + g2 * g2, d), dtype=x.dtype)
    out[..., :keep, :] = x.data[..., :keep, :]
    out[..., keep:, :] = x.data[..., keep:, :].reshape(blocks_shape).mean(
        axis=(-4, -2)).reshape(lead + (g2 * g2, d))

    def backward(g):
        gx = np.empty(x.shape, dtype=g.dtype)
        gx[..., :keep, :] = g[..., :keep, :]
        # splitting only the row axis keeps the reshape a view of gx
        np.divide(g[..., keep:, :].reshape(lead + (g2, 1, g2, 1, d)), window * window,
                  out=gx[..., keep:, :].reshape(blocks_shape))
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
