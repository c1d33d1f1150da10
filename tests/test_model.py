import importlib.util
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from lesionformer import autodiff as ad
from lesionformer.autodiff import DimensionError, Tape, Tensor, finite_difference_check
from lesionformer import model
from lesionformer.model import (ModelConfig, check_finite, embed, encoder_block,
                                forward, grad_cam, init_params,
                                multi_scale_attention, patchify, unpatchify)


def vanilla_multi_head_attention(x, wq, wk, wv, wo, h):
    """Independent reference implementation, written to mirror the exact
    float-op order of the production path so bitwise comparison is fair."""
    n, d = x.shape
    dk = d // h
    q, k, v = x @ wq, x @ wk, x @ wv
    heads = []
    for i in range(h):
        qh = q[:, i * dk:(i + 1) * dk].copy()
        kh = k[:, i * dk:(i + 1) * dk].copy()
        vh = v[:, i * dk:(i + 1) * dk].copy()
        s = (qh @ kh.T.copy()) * (1.0 / np.sqrt(dk))
        s = s - s.max(axis=1, keepdims=True)
        e = np.exp(s)
        a = e / e.sum(axis=1, keepdims=True)
        heads.append((a @ vh) * 1.0)
    return np.concatenate(heads, axis=1) @ wo


def per_head_multi_scale_attention(x, wq, wk, wv, wo, logits, cfg):
    """Independent reference: every head slices its own key/value columns,
    then splits off the class token and average-pools each scale."""
    n, d = x.shape
    dk, G = d // cfg.heads, cfg.grid_side
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    q, k, v = x @ wq, x @ wk, x @ wv

    def pooled(rows, s):
        win = 2 ** s
        blocks = rows[1:].copy().reshape(G // win, win, G // win, win, dk)
        means = blocks.mean(axis=(1, 3)).reshape(-1, dk)
        return np.concatenate([rows[0:1], means], axis=0)

    heads, attns = [], []
    for i in range(cfg.heads):
        qh = q[:, i * dk:(i + 1) * dk].copy()
        kh = k[:, i * dk:(i + 1) * dk].copy()
        vh = v[:, i * dk:(i + 1) * dk].copy()
        out, head_attns = None, []
        for s in range(cfg.scales):
            ks, vs = (kh, vh) if s == 0 else (pooled(kh, s), pooled(vh, s))
            sc = (qh @ ks.T.copy()) * (1.0 / np.sqrt(dk))
            sc = sc - sc.max(axis=1, keepdims=True)
            ex = np.exp(sc)
            a = ex / ex.sum(axis=1, keepdims=True)
            head_attns.append(a)
            term = (a @ vs) * w[0, s]
            out = term if out is None else out + term
        heads.append(out)
        attns.append(head_attns)
    return np.concatenate(heads, axis=1) @ wo, attns


class TestPatchify:
    def test_standard_vit_dimensions(self):
        cfg = ModelConfig(image_h=224, image_w=224, channels=3, patch=16,
                          embed_dim=16, heads=2, scales=1, layers=1)
        patches = patchify(np.zeros((224, 224, 3)), cfg)
        assert patches.shape == (196, 768)

    def test_unit_patches_are_pixels_in_row_major_order(self):
        cfg = ModelConfig(image_h=2, image_w=2, channels=1, patch=1,
                          embed_dim=2, heads=1, scales=1, layers=1)
        img = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
        patches = patchify(img, cfg)
        np.testing.assert_array_equal(patches, [[1.0], [2.0], [3.0], [4.0]])

    def test_round_trip_is_bit_exact(self, rng):
        cfg = ModelConfig(image_h=4, image_w=4, channels=1, patch=2,
                          embed_dim=4, heads=1, scales=1, layers=1)
        img = rng.random((4, 4, 1))
        assert np.array_equal(unpatchify(patchify(img, cfg), cfg), img)

    def test_dimension_mismatch(self):
        cfg = tiny_config()
        with pytest.raises(DimensionError):
            patchify(np.zeros((4, 4, 1)), cfg)


class TestEmbed:
    def test_zero_patches_give_positional_rows(self):
        cfg = tiny_config()
        p = init_params(cfg)
        p["patch_proj.b"].data[:] = 0.0
        p["cls"].data[:] = 0.0
        z = embed(p, Tensor(np.zeros((cfg.num_patches, 16))), cfg)
        np.testing.assert_array_equal(z.data, p["pos"].data)

    def test_identity_like_projection(self):
        cfg = ModelConfig(image_h=2, image_w=2, channels=1, patch=1,
                          embed_dim=2, heads=1, scales=1, layers=1, classes=2)
        p = init_params(cfg)
        p["patch_proj.w"].data[:] = [[1.0, 0.0]]
        p["patch_proj.b"].data[:] = 0.0
        p["pos"].data[:] = 0.0
        p["cls"].data[:] = 0.0
        vals = np.array([[0.1], [0.2], [0.3], [0.4]])
        z = embed(p, Tensor(vals), cfg)
        np.testing.assert_allclose(z.data[1:, 0:1], vals)

    def test_projection_weight_gradient(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        patches = Tensor(rng.random((cfg.num_patches, 16)))

        def f(w):
            saved = p["patch_proj.w"]
            p["patch_proj.w"] = w
            try:
                return ad.sum_all(embed(p, patches, cfg))
            finally:
                p["patch_proj.w"] = saved

        w = Tensor(p["patch_proj.w"].data.copy(), requires_grad=True)
        assert finite_difference_check(f, w) < 1e-5


class TestMultiScaleAttention:
    def test_single_scale_reduces_to_vanilla_mha_bitwise(self, rng):
        cfg = tiny_config(scales=1)
        p = init_params(cfg)
        x = rng.standard_normal((cfg.num_patches + 1, cfg.embed_dim))
        out, _ = multi_scale_attention(p, 0, Tensor(x), cfg)
        ref = vanilla_multi_head_attention(
            x, p["layer0.wq"].data, p["layer0.wk"].data,
            p["layer0.wv"].data, p["layer0.wo"].data, cfg.heads)
        assert np.array_equal(out.data, ref)

    def test_degenerate_scale_weights_select_first_branch(self, rng):
        cfg = tiny_config(scales=2)
        p = init_params(cfg)
        p["layer0.scale_logits"].data[:] = [[2.0, -1e6]]
        x = rng.standard_normal((cfg.num_patches + 1, cfg.embed_dim))
        out, _ = multi_scale_attention(p, 0, Tensor(x), cfg)
        cfg1 = tiny_config(scales=1)
        p1 = init_params(cfg1)
        for name in ("wq", "wk", "wv", "wo"):
            p1[f"layer0.{name}"].data[:] = p[f"layer0.{name}"].data
        ref, _ = multi_scale_attention(p1, 0, Tensor(x), cfg1)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-6)

    def test_pooled_scale_matches_brute_force(self, rng):
        # 2x2 patch grid (N=4), S=2: the second scale pools all patches to one
        cfg = ModelConfig(image_h=4, image_w=4, channels=1, patch=2,
                          embed_dim=4, heads=1, scales=2, layers=1, seed=3)
        p = init_params(cfg)
        x = rng.standard_normal((5, 4))
        out, _ = multi_scale_attention(p, 0, Tensor(x), cfg)

        wq, wk = p["layer0.wq"].data, p["layer0.wk"].data
        wv, wo = p["layer0.wv"].data, p["layer0.wo"].data
        logits = p["layer0.scale_logits"].data[0]
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        q, k, v = x @ wq, x @ wk, x @ wv

        def attn(q_, k_, v_):
            s = q_ @ k_.T / np.sqrt(4)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            return (e / e.sum(axis=1, keepdims=True)) @ v_

        full = attn(q, k, v)
        k2 = np.vstack([k[0:1], k[1:].mean(axis=0, keepdims=True)])
        v2 = np.vstack([v[0:1], v[1:].mean(axis=0, keepdims=True)])
        pooled = attn(q, k2, v2)
        ref = (w[0] * full + w[1] * pooled) @ wo
        np.testing.assert_allclose(out.data, ref, atol=1e-10)

    def test_three_scales_match_per_head_pooling_bitwise(self, rng):
        # 4x4 patch grid, windows 2 and 4; the reference pools each head's
        # columns on their own, so building keys/values once on all D
        # columns must not change a bit
        cfg = tiny_config(patch=2, scales=3)
        p = init_params(cfg)
        p["layer0.scale_logits"].data[:] = [[0.3, -0.2, 0.5]]
        x = rng.standard_normal((cfg.num_patches + 1, cfg.embed_dim))
        out, attns = multi_scale_attention(p, 0, Tensor(x), cfg)
        ref, ref_attns = per_head_multi_scale_attention(
            x, p["layer0.wq"].data, p["layer0.wk"].data, p["layer0.wv"].data,
            p["layer0.wo"].data, p["layer0.scale_logits"].data, cfg)
        assert np.array_equal(out.data, ref)
        assert all(np.array_equal(a.data, r) for head, ref_head in zip(attns, ref_attns)
                   for a, r in zip(head, ref_head))

    def test_pooling_window_exceeding_grid_rejected(self):
        with pytest.raises(DimensionError):
            tiny_config(scales=4).validate()  # window 8 > grid side 2
        with pytest.raises(DimensionError, match="scales"):
            ModelConfig(image_h=24, image_w=24, scales=3).validate()  # window 4, grid side 6


class TestEncoderBlock:
    def test_zero_weights_pass_through(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        for name, t in p.items():
            if name.startswith("layer0."):
                t.data[:] = 0.0
        z = rng.standard_normal((cfg.num_patches + 1, cfg.embed_dim))
        out, _ = encoder_block(p, 0, Tensor(z), cfg)
        np.testing.assert_array_equal(out.data, z)

    # the scale logits' gradient sums over every scale's weighted output
    @pytest.mark.parametrize("name, cfg", [("wq", tiny_config()),
                                           ("scale_logits", tiny_config(patch=2, scales=3))],
                             ids=["wq", "scale_logits-3-scales"])
    def test_gradient_check(self, rng, name, cfg):
        p = init_params(cfg)
        key = "layer0." + name
        z = Tensor(rng.standard_normal((cfg.num_patches + 1, cfg.embed_dim)))
        w = rng.standard_normal((cfg.num_patches + 1, cfg.embed_dim))

        def f(x):
            saved = p[key]
            p[key] = x
            try:
                out, _ = encoder_block(p, 0, z, cfg)
                return ad.sum_all(ad.mul(out, Tensor(w)))
            finally:
                p[key] = saved

        x = Tensor(p[key].data.copy(), requires_grad=True)
        assert finite_difference_check(f, x) < 1e-4

    def test_stacking_two_blocks_equals_sequential_application(self, rng):
        cfg = tiny_config(layers=2)
        p = init_params(cfg)
        img = rng.random((8, 8, 1))
        res = forward(p, img, cfg)

        patches = patchify(img, cfg)
        z = embed(p, Tensor(patches), cfg)
        z, _ = encoder_block(p, 0, z, cfg)
        z, _ = encoder_block(p, 1, z, cfg, cls_only=True)
        z = ad.layer_norm(z, p["final_ln.g"], p["final_ln.b"])
        logits = ad.add_rowvec(ad.matmul(ad.slice_rows(z, 0, 1), p["head.w"]), p["head.b"])
        assert np.array_equal(res.logits.data, logits.data)


def assert_close(got, want, rtol):
    """Equal within ``rtol`` of ``want``'s largest entry."""
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


CLASS_TOKEN_CONFIGS = pytest.mark.parametrize("cfg", [
    ModelConfig(), tiny_config(patch=2, scales=3), tiny_config(layers=1, heads=1, scales=1),
], ids=["default", "patch2-3scales", "1layer-1head-1scale"])


class TestClassTokenBlock:
    """The final block run with the class token as its only query gives row 0
    of the full block, and the gradients a class-row loss sends back."""

    def block_and_grads(self, params, layer, z, cls_only, w_row, w_attn, cfg):
        """(block output's row 0, its scale-0 class-row attention per head,
        gradients of a loss on both w.r.t. ``z`` and the layer's weights)."""
        def weighted(t, w):
            return ad.sum_all(ad.reshape(ad.mul(t, Tensor(w)), (1, -1)))

        with Tape() as tape:
            out, attns = encoder_block(params, layer, z, cfg, cls_only=cls_only)
            rows = [head[0] if cls_only else ad.slice_rows(head[0], 0, 1)
                    for head in attns]
            row = out if cls_only else ad.slice_rows(out, 0, 1)
            loss = weighted(row, w_row)
            for r, w in zip(rows, w_attn):
                loss = ad.add(loss, weighted(r, w))
            tape.backward(loss)
        grads = {k: tape.grad(t) for k, t in params.items()
                 if k.startswith(f"layer{layer}.")}
        grads["z"] = tape.grad(z)
        return row.data, [r.data for r in rows], grads

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack3"])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    @CLASS_TOKEN_CONFIGS
    def test_row_attention_and_gradients_match_full_block(self, cfg, dtype, rtol, lead):
        p = init_params(cfg, dtype=dtype)
        rng = np.random.default_rng(11)
        for _, t in p.items():  # move biases and gains off their init
            t.data += rng.normal(0.0, 0.05, t.shape).astype(dtype)
        n, d = cfg.num_patches + 1, cfg.embed_dim
        z = Tensor(rng.standard_normal(lead + (n, d)).astype(dtype), requires_grad=True)
        w_row = rng.standard_normal(lead + (1, d)).astype(dtype)
        w_attn = [rng.standard_normal(lead + (1, n)).astype(dtype)
                  for _ in range(cfg.heads)]
        layer = cfg.layers - 1
        want = self.block_and_grads(p, layer, z, False, w_row, w_attn, cfg)
        got = self.block_and_grads(p, layer, z, True, w_row, w_attn, cfg)
        assert_close(got[0], want[0], rtol)
        for a, b in zip(got[1], want[1]):
            assert_close(a, b, rtol)
        assert got[2].keys() == want[2].keys()
        for k in want[2]:
            assert_close(got[2][k], want[2][k], rtol)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["one", "stack3"])
    @CLASS_TOKEN_CONFIGS
    def test_record_is_class_row_in_last_layer_only(self, cfg, lead):
        images = np.random.default_rng(2).random(
            lead + (cfg.image_h, cfg.image_w, cfg.channels))
        res = forward(init_params(cfg), images, cfg)
        n, G = cfg.num_patches + 1, cfg.grid_side
        key_rows = [1 + (G // 2 ** s) ** 2 for s in range(cfg.scales)]
        for i, layer in enumerate(res.attn):
            rows = 1 if i == cfg.layers - 1 else n
            assert [[a.shape for a in head] for head in layer] == \
                   [[lead + (rows, m) for m in key_rows]] * cfg.heads


class TestForward:
    def test_probs_sum_to_one(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        for _ in range(5):
            res = forward(p, rng.random((8, 8, 1)), cfg)
            assert abs(res.probs.data.sum() - 1.0) < 1e-6

    def test_determinism(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        img = rng.random((8, 8, 1))
        r1 = forward(p, img.copy(), cfg)
        r2 = forward(p, img.copy(), cfg)
        assert np.array_equal(r1.logits.data, r2.logits.data)

    def test_permutation_equivariance_at_single_scale(self, rng):
        cfg = tiny_config(scales=1, patch=2)  # 4x4 grid of 2x2 patches
        p = init_params(cfg)
        img = rng.random((8, 8, 1))
        base = forward(p, img, cfg).logits.data.copy()
        perm = rng.permutation(cfg.num_patches)
        img2 = unpatchify(patchify(img, cfg)[perm], cfg)
        pos = p["pos"].data.copy()
        p["pos"].data[1:] = pos[1:][perm]
        permuted = forward(p, img2, cfg).logits.data
        p["pos"].data[:] = pos
        np.testing.assert_allclose(permuted, base, atol=1e-9)

    def test_attention_rows_and_focus_map_normalized(self, rng):
        cfg = tiny_config(layers=2)
        p = init_params(cfg)
        res = forward(p, rng.random((8, 8, 1)), cfg)
        for layer in res.attn:
            for head in layer:
                for mat in head:
                    np.testing.assert_allclose(mat.data.sum(axis=1),
                                               np.ones(mat.shape[0]), atol=1e-6)
        assert np.all(res.focus.data >= 0)
        assert abs(res.focus.data.sum() - 1.0) < 1e-6

    @pytest.mark.parametrize("overrides", [dict(scales=2), dict(patch=2, scales=3)])
    def test_each_scale_frees_its_keys_and_values_before_the_next_attends(
            self, overrides, rng, monkeypatch):
        # with no tape no backward keeps them, so nothing may hold the keys
        # and values a scale attended over once its attention has run
        cfg = tiny_config(layers=2, **overrides)
        p = init_params(cfg)
        attend, probes = model.multi_head_attention, []

        def probe(q, kt, v, *args):
            assert all(ref() is None for ref in probes)
            outs = attend(q, kt, v, *args)
            probes.extend((weakref.ref(kt.data), weakref.ref(v.data)))
            return outs

        monkeypatch.setattr(model, "multi_head_attention", probe)
        forward(p, rng.random((8, 8, 1)), cfg)
        assert len(probes) == 2 * cfg.layers * cfg.scales
        assert all(ref() is None for ref in probes)

    @pytest.mark.parametrize("overrides", [
        dict(scales=1), dict(scales=2, layers=2), dict(heads=4, embed_dim=8),
    ])
    def test_output_shape_is_always_k_logits(self, overrides, rng):
        cfg = tiny_config(**overrides)
        p = init_params(cfg)
        res = forward(p, rng.random((8, 8, 1)), cfg)
        assert res.logits.shape == (1, cfg.classes)


class TestGradCam:
    def test_zero_gradients_give_zero_heatmap(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        p["head.w"].data[:] = 0.0  # logit is constant, token grads vanish
        grid, up = grad_cam(p, rng.random((8, 8, 1)), 0, cfg)
        assert np.array_equal(grid, np.zeros_like(grid))
        assert np.array_equal(up, np.zeros_like(up))

    def test_values_in_unit_range_with_max_one(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        for _ in range(5):
            grid, up = grad_cam(p, rng.random((8, 8, 1)), 1, cfg)
            assert np.all(grid >= 0) and np.all(grid <= 1)
            if grid.max() > 0:
                assert grid.max() == 1.0
            assert up.shape == (8, 8)

    def test_class_out_of_range(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        with pytest.raises(ValueError):
            grad_cam(p, rng.random((8, 8, 1)), 5, cfg)

    def test_non_finite_params_rejected(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        p["head.w"].data[0, 0] = np.nan
        with pytest.raises(ad.NumericError):
            grad_cam(p, rng.random((8, 8, 1)), 0, cfg)

    @pytest.mark.parametrize("dtype, big", [(np.float32, 1e20), (np.float64, 1e200)])
    def test_check_finite_passes_values_whose_squares_overflow(self, dtype, big):
        check_finite({"head.w": Tensor(np.array([[big, 1.0]], dtype=dtype))})

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_check_finite_names_the_parameter(self, dtype, bad):
        p = {"cls": Tensor(np.ones((1, 2), dtype=dtype)),
             "head.w": Tensor(np.array([[bad, 1.0]], dtype=dtype))}
        with pytest.raises(ad.NumericError, match=r"parameter head\.w$"):
            check_finite(p)

    @pytest.mark.parametrize("lead", [(1,), (2,)])
    def test_stack_is_dimension_error_before_any_work(self, lead, monkeypatch, rng):
        cfg = tiny_config()
        p = init_params(cfg)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(model, "forward", no_forward)
        with pytest.raises(DimensionError, match=re.escape(str(lead + (8, 8, 1)))):
            grad_cam(p, rng.random(lead + (8, 8, 1)), 0, cfg)


def reference_grad_cam(params, image, target_class, cfg):
    """Grad-CAM's grid from live weights: the whole forward on one tape and
    its full backward, the gradient read at the final block's input."""
    with Tape() as tape:
        res = forward(params, image, cfg)
        tape.backward(ad.slice_cols(res.logits, target_class, target_class + 1))
        grads = tape.grad(res.tokens)[1:]
    weights = np.maximum((grads * res.tokens.data[1:]).mean(axis=1), 0.0)
    top = weights.max()
    if top > 0:
        lo = weights.min()
        weights = (weights - lo) / (top - lo) if top > lo else np.ones_like(weights)
    return weights.reshape(cfg.grid_side, cfg.grid_side)


class TestGradCamFrozenWeights:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("cfg", [
        ModelConfig(), tiny_config(patch=2, scales=3), tiny_config(layers=0),
        tiny_config(layers=1, heads=1, scales=1),
    ], ids=["default", "patch2-3scales", "layers0", "1layer-1head-1scale"])
    def test_grid_is_bitwise_the_live_weight_reference(self, cfg, dtype):
        p = init_params(cfg, dtype=dtype)
        rng = np.random.default_rng(5)
        for _, t in p.items():  # move biases and gains off their init
            t.data += rng.normal(0.0, 0.05, t.shape).astype(dtype)
        image = rng.random((cfg.image_h, cfg.image_w, cfg.channels))
        tops = []
        for k in range(cfg.classes):
            grid, _ = grad_cam(p, image, k, cfg)
            want = reference_grad_cam(p, image, k, cfg)
            assert grid.dtype == want.dtype == dtype
            assert grid.tobytes() == want.tobytes()
            tops.append(grid.max())
        # no block: the class logit never sees a patch row, so the map is zero
        assert max(tops) == (1.0 if cfg.layers else 0.0)

    def forward_backward(self, monkeypatch, params, image, cfg):
        """(ops the forward records, its result, the tape, the tape's dict of
        leaves: the gradients of class 0's logit, keyed by leaf tensor)."""
        count = [0]
        original = Tape._record

        def counting_record(tape, out, inputs, backward_fn):
            count[0] += 1
            original(tape, out, inputs, backward_fn)

        with monkeypatch.context() as m:
            m.setattr(Tape, "_record", counting_record)
            with Tape() as tape:
                res = forward(params, image, cfg)
        with tape:
            target = ad.slice_cols(res.logits, 0, 1)
        tape.backward(target)
        return count[0], res, tape, tape._leaves

    def test_frozen_forward_records_final_block_only(self, monkeypatch, rng):
        cfg = tiny_config(layers=2)
        live = init_params(cfg)
        weights = {name: Tensor(t.data) for name, t in live.items()}
        image = rng.random((8, 8, 1))
        live_ops, _, live_tape, _ = self.forward_backward(monkeypatch, live, image, cfg)
        ops, res, tape, grads = self.forward_backward(monkeypatch, weights, image, cfg)
        assert (live_ops, ops) == (69, 35)
        assert np.any(live_tape.grad(live["patch_proj.w"]) != 0)
        assert res.tokens.requires_grad
        assert np.any(tape.grad(res.tokens) != 0)
        # the final block's input tokens are the tape's only leaf, and no
        # frozen weight is one
        assert len(grads) == 1 and next(iter(grads)) is res.tokens
        assert not any(t in grads for t in weights.values())

    def test_caller_params_unchanged(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        before = {name: t.data.tobytes() for name, t in p.items()}
        grad_cam(p, rng.random((8, 8, 1)), 1, cfg)
        assert {name: t.data.tobytes() for name, t in p.items()} == before
        assert all(t.requires_grad for _, t in p.items())


class TestConfigValidation:
    def test_indivisible_patch(self):
        with pytest.raises(DimensionError):
            ModelConfig(image_h=10, image_w=10, patch=4).validate()

    def test_indivisible_heads(self):
        with pytest.raises(DimensionError):
            tiny_config(embed_dim=8, heads=3).validate()


def bench_module(name):
    """The benchmark's ``bench/<name>.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def bench_forward_ops():
    """``FORWARD_OPS`` of the benchmark's tracer: the op kinds it reports."""
    return bench_module("tracer").FORWARD_OPS


class TestOpCensus:
    # tape ops of one forward on the default config; every kind the traced
    # benchmark reports a count for must stay present
    DEFAULT_FORWARD = {"matmul": 14, "transpose": 4, "add": 10, "scale": 1,
                       "scale_by": 4, "div_by": 1, "add_rowvec": 6,
                       "slice_rows": 2, "slice_cols": 5, "concat_rows": 1,
                       "concat_cols": 4, "sum_all": 1, "softmax_rows": 3,
                       "multi_head_attention": 4, "layer_norm": 5, "gelu": 2,
                       "pool_grid": 4}

    def test_default_forward_op_counts(self, monkeypatch, rng):
        counts = {}
        original = ad.custom_op

        def counting_custom_op(out_data, inputs, backward_fn, name):
            counts[name] = counts.get(name, 0) + 1
            return original(out_data, inputs, backward_fn, name)

        monkeypatch.setattr(ad, "custom_op", counting_custom_op)
        cfg = ModelConfig()
        params = init_params(cfg)
        forward(params, rng.random((cfg.image_h, cfg.image_w, cfg.channels)), cfg)
        assert sum(counts.values()) == 71
        assert counts == self.DEFAULT_FORWARD
        assert set(bench_forward_ops()) <= set(counts)

    def test_default_step_runs_every_backward_the_benchmark_times(self, monkeypatch):
        # a traced benchmark run fails on a listed op whose backward never
        # ran, so an op cut that drops one fails here first
        from lesionformer import losses
        from lesionformer.data import SynthConfig, synth_generate
        from lesionformer.training import TrainConfig, init_adam, train_step
        calls = {}
        original = ad.custom_op

        def counting_custom_op(out_data, inputs, backward_fn, name):
            def counted_backward(g):
                calls[name] = calls.get(name, 0) + 1
                return backward_fn(g)

            return original(out_data, inputs, counted_backward, name)

        monkeypatch.setattr(ad, "custom_op", counting_custom_op)
        monkeypatch.setattr(losses, "custom_op", counting_custom_op)  # bound by name there
        cfg, tcfg = ModelConfig(), TrainConfig()
        batch = synth_generate(tcfg.batch_size, SynthConfig(seed=4))
        assert all(s.mask is not None for s in batch)
        params = init_params(cfg)
        weights = losses.class_weights([0.5, 0.25, 0.25], tcfg.weight_epsilon)
        train_step(params, cfg, tcfg, batch, init_adam(params), weights, tcfg.learning_rate)
        missing = set(bench_module("tracer").BACKWARD_OPS) - set(calls)
        assert not missing

    def test_no_parameter_is_transposed(self, monkeypatch, rng):
        # every dense weight is stored (in, out) and used as x @ w
        inputs = []
        original = ad.custom_op

        def recording_custom_op(out_data, ins, backward_fn, name):
            if name == "transpose":
                inputs.extend(ins)
            return original(out_data, ins, backward_fn, name)

        monkeypatch.setattr(ad, "custom_op", recording_custom_op)
        cfg = ModelConfig()
        params = init_params(cfg)
        forward(params, rng.random((cfg.image_h, cfg.image_w, cfg.channels)), cfg)
        assert len(inputs) == self.DEFAULT_FORWARD["transpose"]
        assert not {id(t) for t in inputs} & {id(t) for t in params.values()}

    @staticmethod
    def forward_ops(monkeypatch, cfg, dtype=np.float64):
        """Tape ops that one forward of one image records."""
        count = [0]
        original = ad.custom_op

        def counting_custom_op(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(ad, "custom_op", counting_custom_op)
        image = np.random.default_rng(0).random((cfg.image_h, cfg.image_w, cfg.channels))
        forward(init_params(cfg, dtype), image, cfg)
        return count[0]

    def test_large_benchmark_config_op_count(self, monkeypatch):
        workload = bench_module("run").WORKLOADS["train-large-f32"]
        cfg = ModelConfig(**workload.model)
        assert self.forward_ops(monkeypatch, cfg, np.dtype(workload.dtype)) == 87

    def test_single_scale_records_no_pooled_key_or_value_slices(self, monkeypatch):
        # 8 x 8, two layers, two heads, one scale
        assert self.forward_ops(monkeypatch, tiny_config(layers=2, scales=1)) == 53


@pytest.mark.parametrize("name", sorted({wl.golden: name for name, wl in
                                          bench_module("run").WORKLOADS.items()}.values()))
def test_benchmark_golden_loss(name):
    """The benchmark's own fixed-seed loss check (its steps, batch and
    tolerance) passes for one workload per recorded golden loss."""
    import lesionformer as lf
    bench_module("run").Bench(lf, np, name, 0).golden()


def test_benchmark_tracer_installs_and_restores_every_attribute():
    """The traced benchmark patches attributes of the package by name, so a
    renamed function fails here, not only under ``bench/run.py --trace``."""
    import lesionformer as lf
    owners = (lf.autodiff, lf.autodiff.Tape, lf.model, lf.losses, lf.training,
              lf.metrics, lf.data)
    before = [dict(vars(owner)) for owner in owners]
    tracer = bench_module("tracer").Tracer(lf)
    try:
        tracer.install()
        during = [dict(vars(owner)) for owner in owners]
        cfg = tiny_config()
        lf.model.forward(init_params(cfg), np.zeros((8, 8, 1)), cfg)
    finally:
        tracer.uninstall()
    patched = {(i, k) for i, (b, d) in enumerate(zip(before, during))
               for k in b if d[k] is not b[k]}
    assert (owners.index(lf.model), "forward") in patched
    assert (owners.index(lf.training), "forward") in patched
    assert tracer.calls["model.forward"] == 1 and sum(tracer.forward_ops.values()) > 0
    after = [dict(vars(owner)) for owner in owners]
    assert [b.keys() for b in before] == [a.keys() for a in after]
    assert all(a[k] is b[k] for b, a in zip(before, after) for k in b)


class TestAttentionMaps:
    def test_focus_map_is_head_mean_of_last_layer_scale0_cls_row(self, rng):
        cfg = tiny_config(layers=2, scales=2)
        res = forward(init_params(cfg), rng.random((8, 8, 1)), cfg)
        assert [[len(head) for head in layer] for layer in res.attn] == \
               [[cfg.scales] * cfg.heads] * cfg.layers
        row = np.mean([head[0].data[0, 1:] for head in res.attn[-1]], axis=0)
        np.testing.assert_allclose(res.focus.data.ravel(), row / row.sum(), rtol=1e-12)
        # each head's patch columns, added up, then the mean and the
        # renormalisation, in the order and with the floats of the ops
        acc = None
        for head in res.attn[-1]:
            row = head[0].data[..., 1:].copy()
            acc = row if acc is None else acc + row
        acc = acc * (1.0 / cfg.heads)
        assert np.array_equal(res.focus.data, acc / acc.sum(axis=(-2, -1), keepdims=True))

    def test_no_layers_means_no_focus(self, rng):
        cfg = tiny_config(layers=0)
        res = forward(init_params(cfg), rng.random((8, 8, 1)), cfg)
        assert res.focus is None and res.attn == []


class TestStackedForward:
    @pytest.mark.parametrize("overrides", [
        dict(layers=2), dict(patch=2, scales=3), dict(layers=0),
    ])
    def test_stack_matches_single_image_forwards(self, overrides, rng):
        cfg = tiny_config(**overrides)
        p = init_params(cfg)
        images = rng.random((3, 8, 8, 1))
        res = forward(p, images, cfg)
        singles = [forward(p, img, cfg) for img in images]
        assert res.probs.shape == res.logits.shape == (3, cfg.classes)
        assert res.tokens.shape == (3, cfg.num_patches + 1, cfg.embed_dim)
        for i, one in enumerate(singles):
            np.testing.assert_allclose(res.logits.data[i], one.logits.data[0], rtol=1e-12)
            np.testing.assert_allclose(res.probs.data[i], one.probs.data[0], rtol=1e-12)
            np.testing.assert_allclose(res.tokens.data[i], one.tokens.data, rtol=1e-12)
            if cfg.layers == 0:
                assert res.focus is None and one.focus is None
                continue
            assert res.focus.shape == (3, 1, cfg.num_patches)
            np.testing.assert_allclose(res.focus.data[i], one.focus.data, rtol=1e-12)
            for layer, one_layer in zip(res.attn, one.attn):
                for head, one_head in zip(layer, one_layer):
                    for a, one_a in zip(head, one_head):
                        np.testing.assert_allclose(a.data[i], one_a.data, rtol=1e-12)

    def test_patchify_stack_is_per_image_patchify(self, rng):
        cfg = tiny_config(patch=2, channels=3)
        images = rng.random((2, 8, 8, 3))
        np.testing.assert_array_equal(patchify(images, cfg),
                                      np.stack([patchify(im, cfg) for im in images]))

    def test_stack_gradient_matches_sum_of_single_image_gradients(self, rng):
        cfg = tiny_config(layers=2)
        p = init_params(cfg)
        images = rng.random((2, 8, 8, 1))

        def grads(imgs):
            with Tape() as tape:
                res = forward(p, imgs, cfg)
                tape.backward(ad.sum_all(ad.reshape(ad.mul(res.probs, res.probs), (1, -1))))
                return {k: tape.grad(v).copy() for k, v in p.items()}

        stacked = grads(images)
        summed = [grads(img) for img in images]
        for k in stacked:
            np.testing.assert_allclose(stacked[k], summed[0][k] + summed[1][k],
                                       rtol=1e-9, atol=1e-15)
