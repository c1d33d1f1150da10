"""Training objective: frequency-weighted cross-entropy plus attention-map
regularization, combined into one scalar with a configurable weight."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor, custom_op


@dataclass
class LossBreakdown:
    l_ce: float
    l_attn: float
    lambda_attn: float
    total: float


def class_weights(frequencies, epsilon: float) -> np.ndarray:
    """The weight array w, with w_j = 1 / sqrt(f_j + epsilon)."""
    f = np.asarray(frequencies, dtype=np.float64)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if np.any(f < 0):
        raise ValueError(f"negative class frequency in {f.tolist()}")
    if abs(f.sum() - 1.0) > 1e-9:
        raise ValueError(f"frequencies must sum to 1, got {f.sum()!r}")
    return 1.0 / np.sqrt(f + epsilon)


_LOG_CLAMP = 1e-12


def weighted_cross_entropy(probs: Tensor, labels, weights: np.ndarray) -> Tensor:
    """-(1/B) sum_i w_{y_i} log p_{i, y_i}, log clamped at 1e-12; ``weights``
    is the array :func:`class_weights` returns."""
    p = probs.data
    if p.ndim != 2:
        raise DimensionError(f"probs must be B x K, got {p.shape}")
    b, k = p.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {b}")
    if np.any(labels < 0) or np.any(labels >= k):
        raise ValueError(f"label out of range [0, {k}): {labels.tolist()}")
    rowsum = p.sum(axis=1)
    if np.any(np.abs(rowsum - 1.0) > 1e-5):
        raise ValueError("probability rows must sum to 1 within 1e-5")
    wv = np.asarray(weights, dtype=p.dtype)
    picked = p[np.arange(b), labels]
    clamped = np.maximum(picked, _LOG_CLAMP)
    loss = -(wv[labels] * np.log(clamped)).sum() / b

    def backward(g):
        gp = np.zeros_like(p)
        live = picked > _LOG_CLAMP
        gp[np.arange(b), labels] = np.where(live, -wv[labels] / clamped / b, 0.0)
        return (gp * g.reshape(-1)[0],)

    return custom_op(np.full((1, 1), loss, dtype=p.dtype), (probs,), backward,
                     "weighted_cross_entropy")


def attention_regularization(maps, masks, mode: str = "focusing") -> Tensor:
    """Mean Frobenius norm of the focus maps gated by their lesion masks.

    ``literal`` penalizes mass inside the mask (||A .* M||_F); ``focusing``
    penalizes mass outside it (||A .* (1-M)||_F). Each entry is one map or
    a stack of maps, with a mask of the same shape or, for a stack, a list
    with one mask or None per map; the mean is over maps. A map whose mask
    is None is gated by zero, so it contributes nothing, and is excluded
    from the denominator; so is every map of an entry whose mask is None.
    """
    if mode not in ("literal", "focusing"):
        raise ValueError(f"unknown attention regularization mode {mode!r}")
    acc, count, dtype = None, 0, np.float64
    for a, m in zip(maps, masks):
        dtype = a.dtype
        if m is None:
            continue
        if isinstance(m, list):
            if a.data.ndim < 3 or len(m) != a.shape[0]:
                raise DimensionError(f"{len(m)} masks for focus maps {a.shape}")
            masked = [i for i, mi in enumerate(m) if mi is not None]
            gate = np.zeros(a.shape, a.dtype)
            for i in masked:
                gate[i] = _gate(m[i], a.shape[1:], a.dtype, mode)
            n = len(masked)
        else:
            gate, n = _gate(m, a.shape, a.dtype, mode), math.prod(a.shape[:-2])
        if not n:
            continue
        gated = ad.mul(a, Tensor(gate))
        norms = ad.sqrt(ad.sum_all(ad.mul(gated, gated)))
        total = ad.sum_all(ad.reshape(norms, (1, -1)))
        acc = total if acc is None else ad.add(acc, total)
        count += n
    if acc is None:
        return Tensor(np.zeros((1, 1), dtype=dtype))
    return ad.scale(acc, 1.0 / count)


def _gate(mask, shape, dtype, mode):
    """The gate of one mask: the mask (``literal``) or its complement."""
    m = np.asarray(mask, dtype=dtype)
    if m.shape != shape:
        raise DimensionError(f"focus map {shape} vs mask {m.shape}")
    return 1.0 - m if mode == "focusing" else m


def total_loss(l_ce: Tensor, l_attn: Tensor | None, lambda_attn: float):
    """Combine the two components; returns (scalar tensor, LossBreakdown)."""
    if lambda_attn < 0:
        raise ValueError("lambda_attn must be nonnegative")
    if l_attn is None:
        l_attn = Tensor(np.zeros((1, 1), dtype=l_ce.dtype))
    total = ad.add(l_ce, ad.scale(l_attn, lambda_attn))
    return total, LossBreakdown(l_ce=l_ce.item(), l_attn=l_attn.item(),
                                lambda_attn=lambda_attn, total=total.item())
