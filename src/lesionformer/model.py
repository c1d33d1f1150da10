"""Improved vision transformer for lesion classification.

Patch embedding with a class token and learnable positional encodings,
multi-scale fused multi-head self-attention (one multi-head attention per
scale over keys/values average-pooled on the patch grid, the scales
weighted by learned softmaxed weights and summed before the output
projection), a GELU MLP per pre-norm encoder block, attention-map
extraction, and Grad-CAM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .autodiff import (DimensionError, NumericError, Tape, Tensor, _new, add,
                       add_rowvec, all_finite, concat_cols, concat_rows,
                       div_by, gelu, layer_norm, matmul, multi_head_attention,
                       pool_grid, reshape, scale, scale_by, slice_cols,
                       slice_rows, softmax_rows, sum_all, transpose)


@dataclass
class ModelConfig:
    image_h: int = 32
    image_w: int = 32
    channels: int = 3
    patch: int = 4
    embed_dim: int = 32
    heads: int = 4
    scales: int = 2
    layers: int = 2
    mlp_ratio: float = 2.0
    classes: int = 3
    seed: int = 0

    def validate(self):
        for name in ("image_h", "image_w", "channels", "patch", "embed_dim",
                     "heads", "scales", "classes"):
            if getattr(self, name) < 1:
                raise DimensionError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.layers < 0:
            raise DimensionError(f"layers must be >= 0, got {self.layers}")
        if self.seed < 0:
            raise DimensionError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.mlp_ratio * self.embed_dim < math.inf:
            raise DimensionError(
                f"mlp_ratio {self.mlp_ratio} must give a finite MLP width >= 1")
        if self.image_h % self.patch or self.image_w % self.patch:
            raise DimensionError(
                f"image {self.image_h}x{self.image_w} not divisible by patch {self.patch}")
        if self.embed_dim % self.heads:
            raise DimensionError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.scales > (self.grid_side & -self.grid_side).bit_length():
            raise DimensionError(f"scales {self.scales}: the pooling window 2**(scales-1) "
                                 f"must divide the patch grid side {self.grid_side}")
        if self.image_h != self.image_w:
            raise DimensionError("only square images are supported")

    @property
    def grid_side(self) -> int:
        return self.image_h // self.patch

    @property
    def num_patches(self) -> int:
        return (self.image_h // self.patch) * (self.image_w // self.patch)

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def mlp_hidden(self) -> int:
        return int(self.mlp_ratio * self.embed_dim)


@dataclass
class ForwardResult:
    """Shapes are for one image; a stack of B images gives B x K logits and
    probs, and a leading axis of length B on every other tensor."""
    logits: Tensor          # 1 x K
    probs: Tensor           # 1 x K
    attn: list              # attn[layer][head][scale]: the softmaxed score
                            # tensor, (N+1) x n_s with n_s the key rows at
                            # that scale, or 1 x n_s in the last layer, where
                            # the class token alone queries
    focus: Tensor | None    # 1 x N head-mean class-token-to-patch attention
                            # of the last layer at the unpooled scale,
                            # renormalized to sum to 1 (differentiable);
                            # None with no layer
    tokens: Tensor          # (N+1) x D features entering the final block;
                            # the class logit depends on the patch rows only
                            # through this tensor (as the final block's keys
                            # and values; the class token alone queries), so
                            # saliency is taken here. On frozen weights it is
                            # a gradient leaf, so a backward stops at it (see
                            # :func:`grad_cam`)


def check_finite(params: dict[str, Tensor]):
    """Raise ``NumericError`` naming the first parameter with a NaN or +/-Inf."""
    for name, t in params.items():
        if not all_finite(t.data):
            raise NumericError(f"non-finite values in parameter {name}")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every learnable array's name and shape, in parameter order."""
    cfg.validate()
    D, hidden = cfg.embed_dim, cfg.mlp_hidden
    shapes = {"patch_proj.w": (cfg.patch * cfg.patch * cfg.channels, D),
              "patch_proj.b": (1, D), "cls": (1, D), "pos": (cfg.num_patches + 1, D)}
    for i in range(cfg.layers):
        pre = f"layer{i}."
        shapes.update({pre + "ln1.g": (1, D), pre + "ln1.b": (1, D),
                       pre + "wq": (D, D), pre + "wk": (D, D), pre + "wv": (D, D),
                       pre + "wo": (D, D), pre + "scale_logits": (1, cfg.scales),
                       pre + "ln2.g": (1, D), pre + "ln2.b": (1, D),
                       pre + "mlp.w1": (D, hidden), pre + "mlp.b1": (1, hidden),
                       pre + "mlp.w2": (hidden, D), pre + "mlp.b2": (1, D)})
    shapes.update({"final_ln.g": (1, D), "final_ln.b": (1, D),
                   "head.w": (D, cfg.classes), "head.b": (1, cfg.classes)})
    return shapes


def init_params(cfg: ModelConfig, dtype=np.float64) -> dict[str, Tensor]:
    """Seeded init, drawn in parameter order: weights (names ``w*``, stored
    (in, out)) uniform(+-sqrt(1/fan_in)) with fan_in their row count,
    positional encodings and class token uniform(+-0.02), layer-norm gains
    (``g``) one, biases and scale logits zero."""
    rng = np.random.default_rng(cfg.seed)
    t = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rpartition(".")[2]
        if leaf in ("cls", "pos"):
            arr = rng.uniform(-0.02, 0.02, size=shape)
        elif leaf.startswith("w"):
            b = math.sqrt(1.0 / shape[0])
            if leaf in ("wq", "wk", "wv", "wo"):
                arr = rng.uniform(-b, b, size=shape)
            else:  # drawn in its old (out, in) order: every initial float stays the same
                arr = rng.uniform(-b, b, size=shape[::-1]).T
        else:
            arr = np.ones(shape) if leaf == "g" else np.zeros(shape)
        t[name] = Tensor(arr, requires_grad=True, dtype=dtype)
    return t


def patchify(image: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Split H x W x C into N patches of P*P*C values each; a B x H x W x C
    stack gives B x N x P*P*C.

    Patches are in row-major grid order; within a patch, values are
    concatenated in (row, col, channel) order.
    """
    expect = (cfg.image_h, cfg.image_w, cfg.channels)
    if image.ndim not in (3, 4) or image.shape[-3:] != expect:
        raise DimensionError(f"image shape {image.shape} does not match config {expect}")
    P = cfg.patch
    gh, gw = cfg.image_h // P, cfg.image_w // P
    lead = image.shape[:-3]
    blocks = np.swapaxes(image.reshape(lead + (gh, P, gw, P, cfg.channels)), -4, -3)
    out = _new(lead + (gh * gw, P * P * cfg.channels), image.dtype)
    np.copyto(out.reshape(blocks.shape), blocks)
    return out


def unpatchify(patches: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Inverse of :func:`patchify`."""
    P = cfg.patch
    gh, gw = cfg.image_h // P, cfg.image_w // P
    blocks = patches.reshape(gh, gw, P, P, cfg.channels).transpose(0, 2, 1, 3, 4)
    return blocks.reshape(cfg.image_h, cfg.image_w, cfg.channels).copy()


def embed(params: dict[str, Tensor], patches_t: Tensor, cfg: ModelConfig) -> Tensor:
    """Project patches, prepend the class token, add positional encodings."""
    if patches_t.shape[-2] != cfg.num_patches:
        raise DimensionError(
            f"got {patches_t.shape[-2]} patches, config expects {cfg.num_patches}")
    z = add_rowvec(matmul(patches_t, params["patch_proj.w"]), params["patch_proj.b"])
    z = concat_rows([params["cls"], z])
    return add(z, params["pos"])


def multi_scale_attention(params: dict[str, Tensor], layer: int, x: Tensor,
                          cfg: ModelConfig, cls_only=False):
    """Multi-head attention fused over scales:
    ``(sum_s w_s * MultiHead(Q, K_s, V_s)) @ wo``.

    For scale s, key/value patch rows are average-pooled over the patch
    grid with window 2**s and the class-token row is kept; ``w`` is the
    softmax of the learned scale logits, and each ``MultiHead`` joins its
    heads before ``wo``. Each scale's keys and values are built once on
    all D columns; each scale's heads are one :func:`multi_head_attention`
    op, which cuts out each head's dk columns.

    Every row of ``x`` queries, or with ``cls_only`` the class token (row
    0) alone: the output is then its one row, and each attention matrix
    is 1 x n_s instead of n x n_s. Keys and values come from every row
    either way.

    Returns (output, attention tensors indexed ``[head][scale]``).
    """
    pre = f"layer{layer}."
    dk, S, G, H = cfg.head_dim, cfg.scales, cfg.grid_side, cfg.heads

    q = matmul(slice_rows(x, 0, 1) if cls_only else x, params[pre + "wq"])
    k = matmul(x, params[pre + "wk"])
    v = matmul(x, params[pre + "wv"])
    w = softmax_rows(params[pre + "scale_logits"])  # 1 x S
    # per scale: transposed keys (D x n_s) and values (n_s x D); pool_grid
    # passes the class row through and pools the patch rows. A scale's pair
    # leaves the list as it attends and no name holds k or v, so its arrays
    # are freed once its attention has copied them (its backward reads the
    # copies)
    pairs = [(transpose(k), v)]
    for s in range(1, S):
        pairs.append((transpose(pool_grid(k, G, 2 ** s)), pool_grid(v, G, 2 ** s)))
    del k, v

    attns = [[] for _ in range(H)]
    fused = None
    for s in range(S):
        outs = multi_head_attention(q, *pairs.pop(0), H, 1.0 / math.sqrt(dk))
        for head_attns, attn in zip(attns, outs[H:]):
            head_attns.append(attn)
        out_s = scale_by(concat_cols(outs[:H]), slice_cols(w, s, s + 1))
        fused = out_s if fused is None else add(fused, out_s)
    return matmul(fused, params[pre + "wo"]), attns


def encoder_block(params: dict[str, Tensor], layer: int, z: Tensor, cfg: ModelConfig,
                  cls_only=False):
    """Pre-norm block: z + MSAttn(LN(z)), then + MLP(LN(.)).

    With ``cls_only`` only the class token queries (see
    :func:`multi_scale_attention`), and the output is row 0 of the full
    block's output: the residual, LN2 and the MLP run on that row alone.

    Returns (output, the attention tensors of :func:`multi_scale_attention`).
    """
    pre = f"layer{layer}."
    a = layer_norm(z, params[pre + "ln1.g"], params[pre + "ln1.b"])
    attn_out, attns = multi_scale_attention(params, layer, a, cfg, cls_only)
    z = add(slice_rows(z, 0, 1) if cls_only else z, attn_out)
    b = layer_norm(z, params[pre + "ln2.g"], params[pre + "ln2.b"])
    hidden = gelu(add_rowvec(matmul(b, params[pre + "mlp.w1"]), params[pre + "mlp.b1"]))
    mlp_out = add_rowvec(matmul(hidden, params[pre + "mlp.w2"]), params[pre + "mlp.b2"])
    return add(z, mlp_out), attns


def forward(params: dict[str, Tensor], image: np.ndarray, cfg: ModelConfig) -> ForwardResult:
    """Full forward pass for one H x W x C image or a B x H x W x C stack,
    with its attention tensors and focus map."""
    dtype = params["pos"].dtype
    # no name holds the patches: they die with the embedding's tensor unless
    # its matmul's backward reads them
    z = embed(params, Tensor(patchify(np.asarray(image, dtype=dtype), cfg)), cfg)
    attns = []
    blocks = range(cfg.layers)
    for i in blocks[:-1]:
        z, layer_attns = encoder_block(params, i, z, cfg)
        attns.append(layer_attns)
    # the final block's input: a gradient leaf of its own on frozen weights
    tokens = z = z if z.requires_grad else Tensor(z.data, requires_grad=True)
    # the head reads the class token alone, so the final block computes
    # only its row; with no block, that row is sliced from the embedding
    for i in blocks[-1:]:
        z, layer_attns = encoder_block(params, i, z, cfg, cls_only=True)
        attns.append(layer_attns)
    if not cfg.layers:
        z = slice_rows(z, 0, 1)
    z = layer_norm(z, params["final_ln.g"], params["final_ln.b"])
    logits = add_rowvec(matmul(z, params["head.w"]), params["head.b"])
    if logits.data.ndim > 2:  # B x 1 x K class rows of a stack
        logits = reshape(logits, (logits.shape[0], cfg.classes))
    probs = softmax_rows(logits)

    last = attns[-1] if attns else []
    focus = focus_from_attention([head[0] for head in last], cfg)
    return ForwardResult(logits=logits, probs=probs, attn=attns, focus=focus, tokens=tokens)


def focus_from_attention(s1_attns, cfg: ModelConfig) -> Tensor | None:
    """Head-mean class-token-to-patch attention row, renormalized to sum 1
    (per image of a stack). Each of ``s1_attns`` is one head's 1 x (N+1)
    class-token row at the unpooled scale."""
    if not s1_attns:
        return None
    rows = reduce(add, s1_attns)
    acc = scale(slice_cols(rows, 1, cfg.num_patches + 1), 1.0 / len(s1_attns))
    return div_by(acc, sum_all(acc))


def grad_cam(params: dict[str, Tensor], image: np.ndarray, target_class: int,
             cfg: ModelConfig):
    """Gradient-weighted patch-token heatmap for a target class of one
    H x W x C image.

    The forward runs on a frozen view of the weights (the same arrays, no
    gradient required), which makes the final block's input tokens the only
    gradient leaf: the backward covers the final block and the head alone
    and computes no weight gradient. ``params`` is left as it was.

    Returns (grid G x G in [0, 1], nearest-neighbor upsampled H x W map).
    """
    shape = np.shape(image)
    if shape != (cfg.image_h, cfg.image_w, cfg.channels):
        raise DimensionError(f"grad_cam takes one {cfg.image_h}x{cfg.image_w}x"
                             f"{cfg.channels} image, got shape {shape}")
    if not 0 <= target_class < cfg.classes:
        raise ValueError(f"class {target_class} out of range [0, {cfg.classes})")
    check_finite(params)
    frozen = {name: Tensor(t.data) for name, t in params.items()}
    with Tape() as tape:
        res = forward(frozen, image, cfg)
        target = slice_cols(res.logits, target_class, target_class + 1)
        tape.backward(target)
        grads = tape.grad(res.tokens)[1:]
    acts = res.tokens.data[1:]
    weights = (grads * acts).mean(axis=1)
    weights = np.maximum(weights, 0.0)
    top = weights.max()
    if top > 0:
        lo = weights.min()
        weights = (weights - lo) / (top - lo) if top > lo else np.ones_like(weights)
    grid = weights.reshape(cfg.grid_side, cfg.grid_side)
    upsampled = np.kron(grid, np.ones((cfg.patch, cfg.patch), dtype=grid.dtype))
    return grid, upsampled
