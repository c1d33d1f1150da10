"""Dense float tensors with tape-based reverse-mode differentiation.

Storage is row-major numpy, float32 or float64: a :class:`Tensor` stores
its array row-major, and every array the ops make is row-major, or a
row-major view or broadcast. Every op acts on the trailing two axes
(rows, columns); any leading axes form a stack of matrices, such as a
batch of images. Broadcasting is limited to a scalar constant, the
explicit row-vector ops, and the stated cases of ``matmul``, ``add``,
``concat_rows`` and ``div_by``; any other shape adaptation is done with
reshape/slice/concat so every forward value is bit-reproducible. Every
gradient is a dense array of its tensor's shape; a slice's backward
returns zeros with the slice's gradient at the slice. The tape sums a
tensor's gradients into new arrays (see :meth:`Tape.backward`), so a
gradient may be shared or read-only, and no backward writes into the one
it receives. An op may have several outputs (see :func:`custom_op`). A
tape lives for one forward/backward pass and is discarded afterwards.

One rule keeps gradients, on every tape: a gradient lives on its tensor.
An op's output recorded on a tape gets a node (:class:`_Node`) that
carries the tape's mark and the output's gradient on that tape, so the
gradient stays readable while the caller holds the tensor and dies with
it. A tensor no op on the tape produced (a leaf) has its gradient in the
tape's dict of leaves, which holds the tensor. A record holds nodes, not
tensors, and an op's backward keeps only the arrays it reads, as
PyTorch's saved tensors do (Paszke et al. 2019, arXiv:1912.01703): an
output no backward reads is freed once the caller drops it, while the
forward still runs. Backward drops each record once its backward has
run, so forward arrays that only that backward read are freed as the
pass goes.

Memory: the ops take their output and gradient arrays from one allocator,
``_new(shape, dtype)``, directly or as NumPy's ``out=``, and always on the
calling thread: ``multi_head_attention`` takes its operands' head copies
and every head group's arrays in its forward, and in its backward the
gradients and one scratch set per thread that may run its groups, before
any group's kernel runs, and a kernel on its worker thread writes only
into arrays it was given (see :func:`_run`); its backward reads the
forward's key and value copies. With no workspace
active that is a fresh array, as NumPy would allocate it. A tape opened on
a :class:`Workspace` takes every one of them from one arena per thread
instead, planned from the step's recorded lifetimes and sized to its peak
live set, and never freed while the thread lives. The arena's arrays are
row-major like every other, so a step on a workspace has the floats of the
same step on a plain tape. Training opens each step's tape on a workspace;
``evaluate``, ``grad_cam`` and a bare ``forward`` allocate as before.
Reductions to one value per row, column or matrix still come from the
heap.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
import os
import queue
import sys
import threading
import time
import weakref

import numpy as np


class NumericError(ArithmeticError):
    """A forward op produced NaN/Inf, or a gradient went non-finite."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class TapeError(RuntimeError):
    """Backward called with a bad loss (non-scalar or not on the tape)."""


_ALLOWED = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense array plus autodiff metadata: for an output of an op a tape
    recorded, its :class:`_Node` on that tape, which carries its gradient
    (see :meth:`Tape.grad`).

    The array is stored row-major: a C-contiguous float32 or float64 input
    is kept as it is, and any other is copied. NumPy lays a fresh result
    out as its operands and BLAS rounds a product with a strided operand
    differently, so one layout gives an op the same floats whether its
    arrays come from NumPy or from a :class:`Workspace`."""

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype, order="C")
        if arr.dtype not in _ALLOWED:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self._node = None

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


class _Node:
    """What a tape keeps of one output of an op it recorded: the tape's
    mark and the output's gradient on that tape. Its ``requires_grad`` is
    True, as every recorded output's is, so the tape reads it alike from
    a record's inputs, nodes and leaf tensors. The output's tensor holds
    its node, and the node does not hold the tensor: a record holds nodes,
    so an output's array lives only while the caller holds its tensor or a
    backward reads it."""

    __slots__ = ("mark", "grad")
    requires_grad = True

    def __init__(self, mark):
        self.mark = mark
        self.grad = None


_ACTIVE_TAPE = contextvars.ContextVar("active_tape", default=None)
_ACTIVE_WORKSPACE = contextvars.ContextVar("active_workspace", default=None)


class Tape:
    """Ordered record of ops for one forward pass; replayed in reverse.

    Use as a context manager. Only one tape may be active per thread (per
    context); threads each record on their own tape. The tape gives each
    output of the ops it records a :class:`_Node` carrying a mark of its
    own, a bare object (not the tape, so no node holds the tape and its
    records); after :meth:`backward`, a recorded output's node carries its
    gradient and the tape holds only the leaves' gradients. While a tape
    opened on a :class:`Workspace` is active, every array the ops allocate
    comes from that workspace, by its plan for the step's ``kind`` (any
    hashable name; steps of one kind make the same requests).
    """

    def __init__(self, workspace=None, kind=None):
        self._records = []  # (node or tuple of nodes, inputs, backward_fn)
        self._mark = object()  # on the node of each output of the recorded ops
        self._leaves = None  # after backward: leaf tensor -> gradient
        self._workspace = workspace
        self._kind = kind

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise TapeError("a tape is already active")
        self._token = _ACTIVE_TAPE.set(self)
        if self._workspace is not None:
            self._workspace._begin(self._kind)
            self._ws_token = _ACTIVE_WORKSPACE.set(self._workspace)
        return self

    def __exit__(self, exc_type, *exc):
        if self._workspace is not None:
            _ACTIVE_WORKSPACE.reset(self._ws_token)
            self._workspace._end(exc_type is None)
        _ACTIVE_TAPE.reset(self._token)
        return False

    def _record(self, out, inputs, backward_fn):
        """Record an op: give each of its output tensors ``out`` (one or a
        tuple) a node on this tape, and keep the nodes, each input's node
        if this tape produced the input or else the input tensor itself (a
        leaf), and ``backward_fn``."""
        mark = self._mark
        if type(out) is tuple:
            nodes = tuple(_Node(mark) for _ in out)
            for t, node in zip(out, nodes):
                t._node = node
        else:
            nodes = out._node = _Node(mark)
        entries = []
        for t in inputs:
            node = t._node
            entries.append(node if node is not None and node.mark is mark else t)
        self._records.append((nodes, entries, backward_fn))

    def backward(self, loss):
        """Reverse-topological accumulation from a scalar loss; runs once
        per tape. Read the gradients with :meth:`grad`.

        A record holds the nodes of its outputs and of the inputs this tape
        produced, not their tensors, and a backward keeps only the arrays
        it reads, so an output no backward reads is freed once the caller
        drops its tensor, while the forward still runs. Each record is dropped once its backward
        has run, and an output's gradient is read from its node. An
        input's gradient goes onto its node if this tape produced it, else
        into the dict of leaves, which then holds the leaf. So the forward
        arrays that only a backward read are freed as the pass goes, and
        each op output's gradient lives as long as its tensor; on a
        workspace, that keeps the step's peak live set, which sizes the
        arena, small.

        A tensor's gradients are summed by one rule with two cases: the
        first is kept as its op returned it, and each later one is added to
        the sum so far into a new array. So the tape writes into no array,
        and each sum adds in the order the gradients arrive.
        """
        if self._leaves is not None:
            raise TapeError("backward already ran on this tape")
        if loss.data.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
        node = loss._node
        if node is None or node.mark is not self._mark:
            raise TapeError("loss tensor was not produced on this tape")
        node.grad = np.ones_like(loss.data)
        leaves = self._leaves = {}
        records = self._records
        while records:
            out, inputs, backward_fn = records.pop()
            if type(out) is tuple:
                g = tuple(o.grad for o in out)
                if all(gi is None for gi in g):
                    continue
            else:
                g = out.grad
                if g is None:
                    continue
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None or not t.requires_grad:
                    continue
                mine = type(t) is _Node
                acc = t.grad if mine else leaves.get(t)
                if acc is None:
                    acc = gi
                else:
                    acc = np.add(acc, gi, _out(acc.shape, acc, gi))
                if mine:
                    t.grad = acc
                else:
                    leaves[t] = acc

    def grad(self, t):
        """Gradient of the loss w.r.t. ``t``; exact zeros if unused.

        A tensor an op on this tape produced carries its gradient on its
        node, so it is there while the caller holds the tensor; a leaf's is
        held by the tape. The array may be shared with another gradient or
        be read-only (a broadcast view), so copy it before writing into it.
        On a tape opened on a workspace it is a view into the workspace's
        arena, valid until the thread's next step on that workspace.
        """
        if self._leaves is None:
            raise TapeError("backward has not been run on this tape")
        node = t._node
        g = node.grad if node is not None and node.mark is self._mark else self._leaves.get(t)
        return np.zeros_like(t.data) if g is None else g


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

    ``out_data`` must be a fresh, row-major float32 or float64 array, which
    the output tensor holds as it is, or a tuple of them for an op with
    several outputs, which then returns a tuple of tensors. ``backward_fn``
    gets the output's gradient, or for several outputs a tuple with one
    gradient per output and None where none arrived, and must return, per
    input and in order, a gradient array of that input's shape or None.
    Every output is checked: any NaN or +/-Inf element raises
    ``NumericError`` naming the op. Finite values whose squares or sum
    overflow are allowed.

    The tape keeps ``backward_fn`` until its backward runs, and keeps of
    the tensors only their nodes (see :meth:`Tape._record`). So a
    ``backward_fn`` should hold the arrays it reads, and the inputs'
    ``requires_grad`` flags and shapes it needs, and no tensor: then an
    array no backward reads is freed as soon as the caller drops it.
    """
    tape = _ACTIVE_TAPE.get()
    if tape is not None and tape._workspace is not None:
        tape._workspace.mark(name)
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
        t._node = None
        outs.append(t)
    out = tuple(outs) if several else outs[0]
    if tape is not None and requires:
        tape._record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# memory

_ALIGN = 64   # bytes: every arena view starts on a cache line
_PLANS = 16   # plans a workspace keeps, the least recently used dropped first


class Workspace(threading.local):
    """One arena per thread that repeating steps' arrays are planned into.

    Open a :class:`Tape` on it for each step, with a name for the step's
    kind (``kind``). The first step of a kind records its sequence: each
    array request (shape, dtype) with its birth (its index in the step) and
    its death (the index of the first entry made after the array was
    freed), and the names of its ops between them (:meth:`mark`); it gets
    fresh arrays. The kind's plan places the requests greedily by size in
    one arena (:func:`_plan`), as TVM's static memory planner does (Chen et
    al. 2018, arXiv:1802.04799), and every later step of the kind hands
    request *i* its planned view: it allocates nothing from the heap and
    faults no page in. The arena holds the largest plan, the step's peak
    live set, which stays small because a record keeps only what its
    backward reads and the tape drops each record once its backward has
    run; it grows when a plan needs more and is never freed while its
    thread lives. The workspace keeps the last ``_PLANS`` plans.

    A step that leaves its plan's sequence gets fresh arrays from there on,
    and the next step of its kind records again. A step repeats its
    lifetimes if it runs the same ops with the same requests, which holds
    for a train step: every step of one batch size and regulariser setting
    runs the same ops on the same shapes, wherever its unmasked images
    fall. An array of one step must not outlive the thread's next step; if
    one is still referenced when a step begins, the plans move to a new
    arena and leave the old one to its holders.
    The arena's arrays are row-major, so a step has the floats of the same
    step on a plain tape.

    Two layouts were measured in prototypes and rejected. A workspace per
    training state (``AdamState``) raised the benchmark's ``peak_rss_mb``
    from 57.4 to 74.1 MB, because its golden-loss state trains while its
    loop state is alive, so two arenas were resident at once. A pool
    reusing only same-shape arrays, built from the recording step's own
    arrays, needed 22.1 MB on ``train-large-f32`` against 18.2 MB for an
    offset plan, and read +9.6% ``peak_rss_mb`` there.
    """

    def __init__(self):
        self._plans = {}          # name -> _Plan, least recently used first
        self._name = None         # the current step's kind
        self._plan = None         # the plan the current or last step follows
        self._keys = self._views = ()  # that plan's entries and their views
        self._size = 0            # entries the current step may still match
        self._next = 0            # index of the current step's next entry
        self._log = None          # while recording: [shape, dtype, death, weakref] per entry
        self._arena = None
        self._refs = 0            # the arena's reference count at rest

    @property
    def nbytes(self):
        """Bytes held by the arena (0 before the first plan)."""
        return 0 if self._arena is None else self._arena.nbytes

    def take(self, shape, dtype):
        """An uninitialised C-contiguous array for the step's next request."""
        i = self._next
        self._next = i + 1
        key = (shape, dtype)
        if i < self._size and self._keys[i] == key:
            return self._views[i]
        self._leave()
        arr = np.empty(shape, dtype)
        log = self._log
        if log is not None:
            entry = [shape, dtype, None, None]

            def freed(_, entry=entry, log=log):
                entry[2] = len(log)

            entry[3] = weakref.ref(arr, freed)
            log.append(entry)
        return arr

    def mark(self, name):
        """Note the step's next op, ``name``, between its requests: a plan
        fits a step that runs the same ops with the same requests."""
        i = self._next
        self._next = i + 1
        if i < self._size and self._keys[i] == (name, None):
            return
        self._leave()
        if self._log is not None:
            self._log.append([name, None, None, None])

    def _leave(self):
        """The step leaves its plan (if it follows one): fresh arrays from
        here on, and the next step of its kind records again."""
        if self._plan is not None:
            self._drop(self._name)
            self._plan = None
            self._keys = self._views = ()
            self._size = 0

    def _begin(self, name):
        last = self._plan
        if self._arena is not None and (sys.getrefcount(self._arena) != self._refs or (
                last is not None and sum(map(sys.getrefcount, last.arrays)) != last.rest)):
            self._arena = None  # an array of the last step outlived it
            self._build(list(self._plans.values()))
        self._name, self._next = name, 0
        plan = self._plan = self._plans.pop(name, None)
        if plan is None:
            self._keys = self._views = ()
            self._size = 0
            self._log = []
        else:
            self._plans[name] = plan  # now the most recently used
            self._keys, self._views, self._size = plan.keys, plan.views, len(plan.keys)

    def _end(self, ok):
        log, self._log = self._log, None
        if log is None or not ok:
            return
        n = len(log)
        plan = _Plan([(e[0], e[1]) for e in log])
        plan.offsets = _plan(plan.sizes, [n if e[2] is None else e[2] for e in log])
        while len(self._plans) >= _PLANS:
            self._drop(next(iter(self._plans)))
        self._plans[self._name] = plan
        self._build([plan])

    def _drop(self, name):
        plan = self._plans.pop(name, None)
        if plan is not None and plan.arrays:
            self._refs -= len(plan.arrays)  # each view holds the arena

    def _build(self, plans):
        """``plans``' views, in the arena or, if there is none or it is too
        small, in a new one with every plan's views."""
        end = max((max(map(operator.add, p.offsets, p.sizes), default=0) for p in plans),
                  default=0)
        if self._arena is None or self._arena.nbytes < end + _ALIGN:
            plans = list(self._plans.values())
            for p in plans:
                p.views = p.arrays = ()
            end = max((max(map(operator.add, p.offsets, p.sizes), default=0) for p in plans),
                      default=0)
            self._arena = np.empty(end + _ALIGN, np.uint8)
            self._refs = sys.getrefcount(self._arena)
        base = -self._arena.__array_interface__["data"][0] % _ALIGN
        for p in plans:
            p.views = [_OP if dt is None else
                       self._arena[base + o:base + o + n].view(dt).reshape(shape)
                       for (shape, dt), o, n in zip(p.keys, p.offsets, p.sizes)]
            p.arrays = [v for v in p.views if v is not _OP]
            self._refs += len(p.arrays)
            p.rest = sum(map(sys.getrefcount, p.arrays))


_OP = object()  # a plan's entry for an op's name, which has no view


class _Plan:
    """One kind of step's entries and their arena offsets and views."""

    __slots__ = ("keys", "sizes", "offsets", "views", "arrays", "rest")

    def __init__(self, keys):
        self.keys = keys        # (shape, dtype) per request, (op name, None) per op
        self.sizes = _nbytes(keys)
        self.offsets = None
        self.views = self.arrays = ()  # per entry / per request
        self.rest = 0           # the views' reference counts summed, at rest


def _nbytes(keys):
    """The bytes of each (shape, dtype) request of ``keys``; 0 for an op's
    name, which has no array."""
    return [0 if dt is None else np.dtype(dt).itemsize * math.prod(shape) for shape, dt in keys]


def _plan(sizes, deaths):
    """Byte offsets for requests of ``sizes`` bytes, each alive from its
    index to its entry of ``deaths`` (exclusive), such that no two alive at
    once share a byte, each a multiple of ``_ALIGN``. Greedy by size: the
    largest request first, each at the lowest offset that fits between the
    requests already placed whose lifetimes overlap its own."""
    sizes = [-(-s // _ALIGN) * _ALIGN for s in sizes]
    offsets = [0] * len(sizes)
    placed = []  # (offset, end, birth, death)
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        size, death = sizes[i], deaths[i]
        if not size:  # an op's name: no bytes to place
            break
        off = 0
        for lo, hi in sorted((o, e) for o, e, b, d in placed if b < death and i < d):
            if lo - off >= size:
                break
            off = max(off, hi)
        offsets[i] = off
        placed.append((off, off + size, i, death))
    return offsets


def _new(shape, dtype):
    """An uninitialised C-contiguous ``shape`` array of ``dtype``: from the
    active workspace, or a fresh ``np.empty`` when none is active."""
    ws = _ACTIVE_WORKSPACE.get()
    if ws is None:
        return np.empty(shape, dtype)
    return ws.take(shape, dtype)


def _out(shape, *arrays):
    """The ``out`` argument for a fresh ``shape`` result computed
    elementwise from ``arrays``: None while no workspace is active, so that
    NumPy allocates it; else a row-major array from :func:`_new` in the
    dtype NumPy would give it. Both are row-major, as the operands are."""
    if _ACTIVE_WORKSPACE.get() is None:
        return None
    return _new(shape, _dtype(*arrays))


def _dtype(a, *more):
    """The dtype of an elementwise result of arrays ``a`` and ``more``."""
    dtype = a.dtype
    for x in more:
        if x.dtype is not dtype:
            return np.result_type(a, *more)
    return dtype


def _copy(x):
    """A C-contiguous copy of ``x``, from :func:`_new` while a workspace is
    active."""
    if _ACTIVE_WORKSPACE.get() is None:
        return x.copy()
    out = _new(x.shape, x.dtype)
    np.copyto(out, x)
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
    out = _new(ad.shape[:-1] + bd.shape[-1:], _dtype(ad, bd))
    a_shape, b_shape = ad.shape, bd.shape
    # each gradient reads the other operand
    a_read = ad if b.requires_grad else None
    b_read = bd if a.requires_grad else None
    if bd.ndim > 2:
        def backward_stack(g):
            return (None if b_read is None else
                    np.matmul(g, _swap(b_read), _new(a_shape, _dtype(g, b_read))),
                    None if a_read is None else
                    np.matmul(_swap(a_read), g, _new(b_shape, _dtype(a_read, g))))

        return custom_op(np.matmul(ad, bd, out), (a, b), backward_stack, "matmul")
    np.matmul(_rows(ad), bd, _rows(out))
    rows = None if a_read is None else _rows(a_read)

    def backward(g):
        g2 = _rows(g)
        ga = gb = None
        if b_read is not None:
            ga = _new(a_shape, _dtype(g2, b_read))
            np.matmul(g2, b_read.T, _rows(ga))
        if rows is not None:
            gb = np.matmul(rows.T, g2, _new(b_shape, _dtype(rows, g2)))
        return (ga, gb)

    return custom_op(out, (a, b), backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    def backward(g):
        return (_copy(_swap(g)),)

    return custom_op(_copy(_swap(a.data)), (a,), backward, "transpose")


def _lead_sum(g, shape):
    """Sum ``g`` over the leading axes that a part of ``shape`` lacks;
    ``g`` itself if it has none."""
    lead = tuple(range(g.ndim - len(shape)))
    return g.sum(axis=lead, out=_out(shape, g)) if lead else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may lack ``a``'s leading axes and is then
    added to every matrix of the stack."""
    if a.shape != b.shape and (not 0 < b.data.ndim < a.data.ndim
                               or a.shape[-b.data.ndim:] != b.shape):
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    ad, bd, b_shape, b_grad = a.data, b.data, b.shape, b.requires_grad

    def backward(g):
        return (g, _lead_sum(g, b_shape) if b_grad else None)

    return custom_op(np.add(ad, bd, _out(ad.shape, ad, bd)), (a, b),
                     backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    # each gradient reads the other operand
    a_read = ad if b.requires_grad else None
    b_read = bd if a.requires_grad else None

    def backward(g):
        return (None if b_read is None else np.multiply(g, b_read, _out(g.shape, g, b_read)),
                None if a_read is None else np.multiply(g, a_read, _out(g.shape, g, a_read)))

    return custom_op(np.multiply(ad, bd, _out(ad.shape, ad, bd)),
                     (a, b), backward, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python-float constant."""
    c, ad = float(c), a.data

    def backward(g):
        return (np.multiply(g, c, _out(g.shape, g)),)

    return custom_op(np.multiply(ad, c, _out(ad.shape, ad)), (a,), backward,
                     "scale")


def scale_by(a: Tensor, s: Tensor) -> Tensor:
    """Multiply by a scalar tensor (gradient flows into both operands)."""
    if s.data.size != 1:
        raise DimensionError(f"scale_by expects a scalar tensor, got {s.shape}")
    ad, sd, a_grad = a.data, s.data, a.requires_grad
    sv = sd.reshape(-1)[0]
    a_read = ad if s.requires_grad else None

    def backward(g):
        ga = gs = tmp = None
        if a_read is not None:
            tmp = np.multiply(g, a_read, _out(g.shape, g, a_read))
            gs = np.full_like(sd, tmp.sum())
        if a_grad:
            ga = np.multiply(g, sv, tmp if tmp is not None else _out(g.shape, g, sd))
        return (ga, gs)

    return custom_op(np.multiply(ad, sv, _out(ad.shape, ad, sd)), (a, s),
                     backward, "scale_by")


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
    a_grad = a.requires_grad
    a_read = ad if s.requires_grad else None

    def backward(g):
        ga = gs = None
        if a_grad:
            ga = np.divide(g, sd, _out(g.shape, g, sd))
        if a_read is not None:
            tmp = np.multiply(g, a_read, _out(g.shape, g, a_read))
            gs = (-tmp.sum(axis=axes, keepdims=True) / (sd * sd)).reshape(sd.shape)
        return (ga, gs)

    return custom_op(np.divide(ad, sd, _out(ad.shape, ad, sd)), (a, s),
                     backward, "div_by")


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a 1 x d row vector to every row of an n x d matrix (or stack)."""
    if x.data.ndim < 2 or v.shape != (1, x.shape[-1]):
        raise DimensionError(f"add_rowvec shape mismatch: {x.shape} + {v.shape}")

    xd, vd, v_grad = x.data, v.data, v.requires_grad

    def backward(g):
        return (g, _rows(g).sum(axis=0, keepdims=True) if v_grad else None)

    return custom_op(np.add(xd, vd, _out(xd.shape, xd, vd)), (x, v),
                     backward, "add_rowvec")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def backward(g):
        return (g.reshape(old),)

    return custom_op(_copy(a.data.reshape(shape)), (a,), backward, "reshape")


def _slice(a: Tensor, start: int, stop: int, axis: int, name: str) -> Tensor:
    """Entries ``start:stop`` of trailing axis ``axis`` (-2 rows, -1 columns)."""
    if not 0 <= start < stop <= a.shape[axis]:
        raise DimensionError(f"{name} [{start}:{stop}] out of range for {a.shape}")

    index = (..., slice(start, stop)) + (slice(None),) * (-1 - axis)
    shape, dtype = a.shape, a.dtype

    def backward(g):
        gx = _new(shape, dtype)
        gx.fill(0.0)
        gx[index] = g
        return (gx,)

    return custom_op(_copy(a.data[index]), (a,), backward, name)


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

    out = _out(lead + (sum(sizes), arrays[0].shape[-1]), *arrays)
    return custom_op(np.concatenate(arrays, axis=-2, out=out), parts, backward, "concat_rows")


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

    arrays = [p.data for p in parts]
    out = _out(arrays[0].shape[:-1] + (sum(sizes),), *arrays)
    return custom_op(np.concatenate(arrays, axis=-1, out=out), parts, backward, "concat_cols")


def sum_all(a: Tensor) -> Tensor:
    """Reduce each trailing matrix to a 1x1 sum: one scalar for a matrix,
    a (*stack, 1, 1) tensor for a stack."""
    ad = a.data
    if ad.ndim < 2:
        raise DimensionError(f"sum_all expects at least 2-D, got {a.shape}")
    shape = ad.shape

    def backward(g):
        return (np.broadcast_to(g, shape),)

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


def _softmax_backward(y, g, out):
    """``y * (g - (g * y).sum(-1))``, the softmax input's gradient, written
    into ``out``."""
    gs = np.multiply(g, y, out=out)
    np.subtract(g, gs.sum(axis=-1, keepdims=True), out=gs)
    gs *= y
    return gs


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with row-max subtraction for stability."""
    if x.data.ndim < 2:
        raise DimensionError(f"softmax_rows expects at least 2-D, got {x.shape}")
    y = _softmax(_copy(x.data))

    def backward(g):
        return (_softmax_backward(y, g, _out(g.shape, g, y)),)

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
# trained no faster. Two or more groups run on two cores (see
# :func:`_run`), which trained ``train-large-f32`` about 10% faster; the
# calling thread takes the operands' copies once for all groups, then
# every group's arrays in the groups' order, and the backward's scratch
# once for each of the two threads.
_HEAD_GROUP_BYTES = 2 * 1024 * 1024


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
    C-contiguous copies, as the slices made (BLAS rounds by layout). The
    forward copies each operand once, every head's block with the heads on
    axis 0, and a group reads a slice of each copy. The backward keeps the
    weights, the key and value copies, and ``q`` if the keys' gradient
    needs it; no score and no head result. It copies the queries' block
    again, into the bytes of the output gradient once that is read: ``q``
    is shared by every scale's call, so keeping it costs nothing. A head
    output with no gradient counts as zeros. The outputs, the gradients it
    returns, and the copies and stacked temporaries (a group's scratch)
    come from :func:`_new`, so a train step plans them into its workspace.

    The forward makes its copies and takes every group's arrays on the
    calling thread first, group by group; the backward takes its
    gradients and one scratch set per thread that may run kernels (two
    for two or more groups, else one). Then :func:`_run` runs the groups'
    kernels, on two cores when there are two or more groups. A backward
    kernel writes its whole scratch before it reads it, and every kernel
    writes otherwise only its own heads' arrays and columns, so the floats
    do not depend on which thread ran it or which set it used, and the
    requests not on whether the worker ran.
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

    # every head's block of each operand, copied once: a group's blocks are
    # [g] slices, C-contiguous as each head's own copy would be
    qs = _copy(split_cols(qd, n))
    ks = _copy(split_rows(kd))
    vs = _copy(split_cols(vd, m))
    step = max(1, _HEAD_GROUP_BYTES // max(1, math.prod(lead) * n * m * dtype.itemsize))
    groups, outs, weights = [], [], []  # per group: its heads and their weights
    tasks = []  # per group: its kernel, with its arrays
    for lo in range(0, heads, step):
        g = slice(lo, min(lo + step, heads))
        y = _new(qs[g].shape[:-1] + (m,), _dtype(qs, ks))
        out = _new(y.shape[:-1] + (dk,), _dtype(y, vs))
        tasks.append(functools.partial(_attend, qs[g], ks[g], vs[g], c, y, out))
        outs.extend(out)
        weights.extend(y)
        groups.append((g, y))
    _run(tasks)
    stack = (min(step, heads),) + lead  # a backward scratch set fits the first, largest group

    # what the backward reads besides the weights and the key and value
    # copies: the flags, and the queries if the keys' gradient needs them
    q_grad, kt_grad, v_grad = q.requires_grad, kt.requires_grad, v.requires_grad
    q_read = qd if kt_grad else None

    def backward(grads):
        g_outs, g_weights = grads[:heads], grads[heads:]
        gq = _new(lead + (n, d), dtype) if q_grad else None
        gkt = _new(lead + (d, m), dtype) if kt_grad else None
        gv = _new(lead + (m, d), dtype) if v_grad else None
        sets = []  # per thread that may run kernels: go, gy, gs, qh
        for _ in groups[:2]:
            go = _new(stack + (n, dk), dtype)
            gy = _new(stack + (n, m), dtype)
            gs = _new(stack + (n, m), dtype)
            # a group copies qh once it has read go, so qh may take go's bytes
            qh = None if q_read is None else _reuse(go, stack + (n, dk), q_read.dtype)
            sets.append((go, gy, gs, qh))

        def group(g, y, thread):
            """Group ``g``'s share of ``gq``, ``gkt`` and ``gv``."""
            hs = range(heads)[g]
            go, gy, gs, qh = (None if a is None else a[:len(y)] for a in sets[thread])
            for i, h in enumerate(hs):
                go[i] = 0.0 if g_outs[h] is None else g_outs[h]
            if gv is not None:  # matmul's backward
                np.matmul(_swap(y), go, out=split_cols(gv, m)[g])
            # the weights' gradient: the values' term plus the weights' own
            np.matmul(go, _swap(vs[g]), out=gy)
            for i, h in enumerate(hs):
                if g_weights[h] is not None:
                    np.add(gy[i], g_weights[h], out=gy[i])
            # softmax, then scale, then matmul backward, in the chain's order
            _softmax_backward(y, gy, gs)
            gs *= c
            if gq is not None:
                np.matmul(gs, _swap(ks[g]), out=split_cols(gq, n)[g])
            if gkt is not None:
                np.copyto(qh, split_cols(q_read, n)[g])
                np.matmul(_swap(qh), gs, out=split_rows(gkt)[g])

        _run([functools.partial(group, g, y) for g, y in groups])
        return (gq, gkt, gv)

    return custom_op(tuple(outs + weights), (q, kt, v), backward, "multi_head_attention")


def _reuse(a, shape, dtype):
    """The bytes of ``a``, which has as many elements, as a ``shape`` array
    if ``a`` is one of ``dtype``; else a new array from :func:`_new`."""
    if a is not None and a.dtype == dtype:
        return a.reshape(shape)
    return _new(shape, dtype)


def _attend(qh, kh, vh, c, y, out, thread):
    """One head group's weights ``softmax(c * qh @ kh)`` into ``y``, and
    its results ``y @ vh`` into ``out``, on either thread."""
    np.matmul(qh, kh, y)
    y *= c
    # a -inf score would leave an exact 0 after the softmax; the scaled
    # scores are non-finite wherever the product is, so one check covers both
    if not all_finite(y):
        raise NumericError("non-finite values produced by multi_head_attention")
    _softmax(y)
    np.matmul(y, vh, out)


# ---------------------------------------------------------------------------
# head groups on two cores


class _Job:
    """One op's group kernels, taken by a shared index by the calling
    thread and the worker."""

    __slots__ = ("tasks", "next", "lock", "helped", "done", "error", "errcall", "errstate")

    def __init__(self, tasks):
        self.tasks = tasks
        self.next = 0                   # the index of the next group to take
        self.lock = threading.Lock()
        self.helped = False             # the worker has taken a group
        self.done = threading.Event()   # set once a worker that helped takes no more
        self.error = None               # what a group raised on the worker
        self.errcall, self.errstate = np.geterrcall(), np.geterr()

    def claim(self, worker):
        """The next group's kernel, or None once every group is taken."""
        with self.lock:
            i = self.next
            if i >= len(self.tasks):
                return None
            self.next = i + 1
            self.helped = self.helped or worker
            return self.tasks[i]

    def stop(self):
        """Let no thread take another group, and drop the kernels; True if
        the worker took one."""
        with self.lock:
            self.tasks = ()
            return self.helped


def _help(job):
    """The worker's share of ``job``, under its caller's ``np.errstate``.
    A group that raises stops the job; the caller raises the error. The
    worker drops each kernel, and so its arrays, before it sets ``done``."""
    with np.errstate(call=job.errcall, **job.errstate):
        while (task := job.claim(True)) is not None:
            try:
                task(1)
            except BaseException as e:  # raised again on the caller
                job.error = e
                job.stop()
    if job.helped:
        job.done.set()


def _serve(inbox):
    """The worker thread: every job put on ``inbox``, until the process exits."""
    while True:
        _help(inbox.get())


_inbox = None  # the worker's queue of jobs, once it runs
_inbox_lock = threading.Lock()


def _worker():
    """The worker's queue, starting the worker on first use."""
    global _inbox
    with _inbox_lock:
        if _inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(inbox,), name="head-groups",
                             daemon=True).start()
            _inbox = inbox
        return _inbox


def _forget_worker():
    """A forked child has no worker thread: it starts its own."""
    global _inbox
    _inbox = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _cores():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


# When the scheduler puts the worker on the calling thread's core (a
# busy-loop process on the other core of a 2-core host made it do so for
# 182 of 185 groups), the two take turns on one core and the op runs no
# faster, and up to 15% slower. The calling thread sees this as wall time
# past its CPU time while it runs kernels: past ``_SHARED`` times, every
# call runs on the calling thread alone for ``_ALONE_S`` seconds, and then
# the worker is tried again. That kept the step level with the worker off
# under one busy process, and used the worker for 200 of 200 calls on a
# quiet host.
_SHARED = 1.5
_ALONE_S = 0.25
_alone_until = 0.0  # time.monotonic() until which calls run alone


def _run(tasks):
    """Call every kernel of ``tasks`` with the index of the thread that runs
    it, 0 for the calling thread and 1 for the worker; a kernel writes only
    into arrays it was given, and uses the scratch of its thread's index.
    Two or more run on the calling thread and on one worker thread, when
    the process may use two CPUs and no calling thread has been kept off
    its core of late: both take kernels by a shared index, so if the
    worker's core is busy the caller runs the rest itself, and the caller
    waits only for a kernel the worker has started. An error is raised
    here once that kernel has finished."""
    global _alone_until
    if len(tasks) < 2 or _cores() < 2 or time.monotonic() < _alone_until:
        for task in tasks:
            task(0)
        return
    job = _Job(tasks)
    _worker().put(job)
    try:
        wall, cpu = time.perf_counter(), time.thread_time()
        while (task := job.claim(False)) is not None:
            task(0)
        if time.perf_counter() - wall > _SHARED * (time.thread_time() - cpu):
            _alone_until = time.monotonic() + _ALONE_S
    finally:
        if job.stop():
            job.done.wait()
        error, job.error = job.error, None
    if error is not None:
        raise error


def _row_mean(a):
    """``a.mean(axis=-1, keepdims=True)`` bitwise, without NumPy's Python-level
    ``mean`` wrapper: the same pairwise sum, then one division by the row
    length. ``mean`` divides a float32 sum in float64 and rounds back, which
    gives the same float32 quotient, since a double carries more than
    2 * 24 + 2 bits."""
    out = np.add.reduce(a, axis=-1, keepdims=True)
    out /= a.shape[-1]
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization (eps 1e-5), then per-column gain and bias (1 x d each)."""
    if x.data.ndim < 2:
        raise DimensionError(f"layer_norm expects at least 2-D, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(
            f"layer_norm gain/bias must be (1, {d}), got {gain.shape}/{bias.shape}")
    # two full-size arrays: xhat, and out (which first holds the squares)
    xd = x.data
    mu = _row_mean(xd)
    xhat = np.subtract(xd, mu, _out(xd.shape, xd, mu))
    out = np.multiply(xhat, xhat, _out(xhat.shape, xhat))
    inv = 1.0 / np.sqrt(_row_mean(out) + 1e-5)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    gd = gain.data
    x_grad, gain_grad, bias_grad = x.requires_grad, gain.requires_grad, bias.requires_grad

    def backward(g):
        # standard layer-norm backward, all per-row, in two full-size arrays
        gx = ggain = gbias = tmp = None
        if gain_grad:
            tmp = np.multiply(g, xhat, _out(g.shape, g, xhat))
            ggain = _rows(tmp).sum(axis=0, keepdims=True)
        if x_grad:
            dxhat = np.multiply(g, gd, _out(g.shape, g, gd))
            m1 = _row_mean(dxhat)
            tmp = np.multiply(dxhat, xhat, tmp if tmp is not None else _out(g.shape, dxhat, xhat))
            m2 = _row_mean(tmp)
            dxhat -= m1
            gx = np.subtract(dxhat, np.multiply(xhat, m2, out=tmp), out=tmp)
            gx *= inv
        if bias_grad:
            gbias = _rows(g).sum(axis=0, keepdims=True)
        return (gx, ggain, gbias)

    return custom_op(out, (x, gain, bias), backward, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    xd = x.data

    def like_x():
        return _out(xd.shape, xd)

    # t = tanh(c * (x + 0.044715 * x**3)), out = 0.5 * x * (1 + t), each
    # product and sum in that order, in place where the operand is spent
    t = np.multiply(xd, xd, like_x())
    t *= xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.multiply(0.5, xd, like_x())
    out *= np.add(1.0, t, like_x())

    def backward(g):
        # dinner = c * (1 + 3 * 0.044715 * x**2)
        dinner = np.multiply(xd, xd, like_x())
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        # grad = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner
        right = np.multiply(0.5, xd, like_x())
        grad = np.multiply(t, t, like_x())
        np.subtract(1.0, grad, out=grad)
        right *= grad
        right *= dinner
        np.add(1.0, t, out=grad)
        grad *= 0.5
        grad += right
        return (np.multiply(g, grad, _out(g.shape, g, grad)),)

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
    out = _new(lead + (keep + g2 * g2, d), x.dtype)
    out[..., :keep, :] = x.data[..., :keep, :]
    # splitting only the row axis keeps the reshape a view of out
    np.mean(x.data[..., keep:, :].reshape(blocks_shape), axis=(-4, -2),
            out=out[..., keep:, :].reshape(lead + (g2, g2, d)))

    shape = x.shape

    def backward(g):
        gx = _new(shape, g.dtype)
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
