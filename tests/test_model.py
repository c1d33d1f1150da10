import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from lesionformer import autodiff as ad
from lesionformer.autodiff import DimensionError, Tape, Tensor, finite_difference_check
from lesionformer import model
from lesionformer.model import (ModelConfig, ModelParams, embed, encoder_block,
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
        p["patch_proj.w"].data[:] = [[1.0], [0.0]]
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
            saved = p.tensors["patch_proj.w"]
            p.tensors["patch_proj.w"] = w
            try:
                return ad.sum_all(embed(p, patches, cfg))
            finally:
                p.tensors["patch_proj.w"] = saved

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

    def test_gradient_check(self, rng):
        cfg = tiny_config()
        p = init_params(cfg)
        z = Tensor(rng.standard_normal((cfg.num_patches + 1, cfg.embed_dim)))
        w = rng.standard_normal((cfg.num_patches + 1, cfg.embed_dim))

        def f(wq):
            saved = p.tensors["layer0.wq"]
            p.tensors["layer0.wq"] = wq
            try:
                out, _ = encoder_block(p, 0, z, cfg)
                return ad.sum_all(ad.mul(out, Tensor(w)))
            finally:
                p.tensors["layer0.wq"] = saved

        wq = Tensor(p["layer0.wq"].data.copy(), requires_grad=True)
        assert finite_difference_check(f, wq) < 1e-4

    def test_stacking_two_blocks_equals_sequential_application(self, rng):
        cfg = tiny_config(layers=2)
        p = init_params(cfg)
        img = rng.random((8, 8, 1))
        res = forward(p, img, cfg, want_record=False)

        patches = patchify(img, cfg)
        z = embed(p, Tensor(patches), cfg)
        z, _ = encoder_block(p, 0, z, cfg)
        z, _ = encoder_block(p, 1, z, cfg, cls_only=True)
        z = ad.layer_norm(z, p["final_ln.g"], p["final_ln.b"])
        logits = ad.add_rowvec(ad.matmul(ad.slice_rows(z, 0, 1),
                                         ad.transpose(p["head.w"])), p["head.b"])
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
        for i, layer in enumerate(res.record.attn):
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
        base = forward(p, img, cfg, want_record=False).logits.data.copy()
        perm = rng.permutation(cfg.num_patches)
        img2 = unpatchify(patchify(img, cfg)[perm], cfg)
        pos = p["pos"].data.copy()
        p["pos"].data[1:] = pos[1:][perm]
        permuted = forward(p, img2, cfg, want_record=False).logits.data
        p["pos"].data[:] = pos
        np.testing.assert_allclose(permuted, base, atol=1e-9)

    def test_attention_rows_and_focus_map_normalized(self, rng):
        cfg = tiny_config(layers=2)
        p = init_params(cfg)
        res = forward(p, rng.random((8, 8, 1)), cfg)
        for layer in res.record.attn:
            for head in layer:
                for mat in head:
                    np.testing.assert_allclose(mat.sum(axis=1),
                                               np.ones(mat.shape[0]), atol=1e-6)
        assert np.all(res.record.focus_map >= 0)
        assert abs(res.record.focus_map.sum() - 1.0) < 1e-6

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
        ModelParams({"head.w": Tensor(np.array([[big, 1.0]], dtype=dtype))}).check_finite()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_check_finite_names_the_parameter(self, dtype, bad):
        p = ModelParams({"cls": Tensor(np.ones((1, 2), dtype=dtype)),
                         "head.w": Tensor(np.array([[bad, 1.0]], dtype=dtype))})
        with pytest.raises(ad.NumericError, match=r"parameter head\.w$"):
            p.check_finite()

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
        res = forward(params, image, cfg, want_record=False)
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
        """(ops the forward records, its result, the tape, the gradients of
        class 0's logit)."""
        count = [0]
        original = Tape._record

        def counting_record(tape, out, inputs, backward_fn):
            count[0] += 1
            original(tape, out, inputs, backward_fn)

        with monkeypatch.context() as m:
            m.setattr(Tape, "_record", counting_record)
            with Tape() as tape:
                res = forward(params, image, cfg, want_record=False)
        with tape:
            target = ad.slice_cols(res.logits, 0, 1)
        return count[0], res, tape, tape.backward(target)

    def test_frozen_forward_records_final_block_only(self, monkeypatch, rng):
        cfg = tiny_config(layers=2)
        live = init_params(cfg)
        weights = ModelParams({name: Tensor(t.data) for name, t in live.items()})
        image = rng.random((8, 8, 1))
        live_ops, _, live_tape, _ = self.forward_backward(monkeypatch, live, image, cfg)
        ops, res, tape, grads = self.forward_backward(monkeypatch, weights, image, cfg)
        assert (live_ops, ops) == (124, 60)
        assert np.any(live_tape.grad(live["patch_proj.w"]) != 0)
        assert res.tokens.requires_grad
        assert np.any(tape.grad(res.tokens) != 0)
        assert not {id(t) for _, t in weights.items()} & grads.keys()

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


def bench_forward_ops():
    """``FORWARD_OPS`` of the benchmark's tracer: the op kinds it reports."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.FORWARD_OPS


class TestOpCensus:
    # tape ops of one forward on the default config; every kind the traced
    # benchmark reports a count for must stay present
    DEFAULT_FORWARD = {"matmul": 30, "transpose": 10, "add": 16, "scale": 1,
                       "scale_by": 16, "div_by": 1, "add_rowvec": 6,
                       "slice_rows": 26, "slice_cols": 32, "concat_rows": 5,
                       "concat_cols": 2, "sum_all": 1, "softmax_rows": 3,
                       "attention_weights": 16, "layer_norm": 5, "gelu": 2,
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
        forward(params, rng.random((cfg.image_h, cfg.image_w, cfg.channels)),
                cfg, want_record=False)
        assert sum(counts.values()) == 176
        assert counts == self.DEFAULT_FORWARD
        assert set(bench_forward_ops()) <= set(counts)


class TestAttentionRecord:
    def test_focus_map_is_head_mean_of_last_layer_scale0_cls_row(self, rng):
        cfg = tiny_config(layers=2, scales=2)
        res = forward(init_params(cfg), rng.random((8, 8, 1)), cfg)
        assert [[len(head) for head in layer] for layer in res.record.attn] == \
               [[cfg.scales] * cfg.heads] * cfg.layers
        row = np.mean([head[0][0, 1:] for head in res.record.attn[-1]], axis=0)
        np.testing.assert_allclose(res.record.focus_map.ravel(), row / row.sum(),
                                   rtol=1e-12)
        assert np.array_equal(res.focus.data.ravel(), res.record.focus_map.ravel())

    def test_no_layers_means_no_focus(self, rng):
        cfg = tiny_config(layers=0)
        res = forward(init_params(cfg), rng.random((8, 8, 1)), cfg)
        assert res.focus is None
        assert res.record.attn == [] and res.record.focus_map is None


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
            np.testing.assert_allclose(res.record.focus_map[i], one.record.focus_map,
                                       rtol=1e-12)
            for layer, one_layer in zip(res.record.attn, one.record.attn):
                for head, one_head in zip(layer, one_layer):
                    for a, one_a in zip(head, one_head):
                        np.testing.assert_allclose(a[i], one_a, rtol=1e-12)

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
                res = forward(p, imgs, cfg, want_record=False)
                tape.backward(ad.sum_all(ad.reshape(ad.mul(res.probs, res.probs), (1, -1))))
                return {k: tape.grad(v).copy() for k, v in p.items()}

        stacked = grads(images)
        summed = [grads(img) for img in images]
        for k in stacked:
            np.testing.assert_allclose(stacked[k], summed[0][k] + summed[1][k],
                                       rtol=1e-9, atol=1e-15)
