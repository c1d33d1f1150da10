"""Acceptance suite: one test per release criterion.

Each test prints a single ``PASS <criterion>`` line on success (visible with
``pytest -s``); under ``pytest -v`` the test name itself is the pass/fail
line. The heavy training runs are session-scoped fixtures so the
separability and localization criteria share one run.
"""

import math
import time

import numpy as np
import pytest

from lesionformer.autodiff import Tape, Tensor
from lesionformer.data import (Sample, SynthConfig, class_frequencies,
                               mask_to_patch_grid, synth_generate, synth_sample)
from lesionformer.losses import (attention_regularization, class_weights,
                                 total_loss, weighted_cross_entropy)
from lesionformer.metrics import (accuracy, confusion_matrix, f1_macro,
                                  precision_macro, roc_auc_ovr_macro, report)
from lesionformer.model import (ModelConfig, forward, grad_cam, init_params,
                                multi_scale_attention)
from lesionformer.training import (Checkpoint, TrainConfig, evaluate,
                                   init_adam, load_checkpoint, save_checkpoint,
                                   train)

from conftest import tiny_config


def ok(msg):
    print(f"PASS {msg}")


# ---------------------------------------------------------------------------
# shared heavy runs

SEP_MODEL = ModelConfig()          # default 32x32x3, P=4, D=32, h=4, S=2, L=2
SEP_DATA = SynthConfig(seed=11)


def separability_eval_set():
    labels = np.repeat([0, 1, 2], [36, 18, 6])
    return [synth_sample(10000 + i, int(l), SEP_DATA)
            for i, l in enumerate(labels)]


@pytest.fixture(scope="session")
def separability_run():
    train_cfg = TrainConfig(epochs=30, batch_size=16, learning_rate=1e-3,
                            lambda_attn=0.5, seed=0)
    params = init_params(SEP_MODEL, dtype=train_cfg.np_dtype)
    train(params, SEP_MODEL, train_cfg, synth_generate(200, SEP_DATA))
    return params


# ---------------------------------------------------------------------------
# criteria


class TestHeadlineMetricSubstitution:
    def test_absolute_numbers_replaced_by_property_suite(self):
        # Full-scale clinical training is out of scope at desk scale; the
        # reported headline metrics are covered by the property-based
        # criteria below. This check pins the metric surface they rely on.
        probs = np.eye(3)[[0, 1, 2, 0, 1, 2]]
        rep = report(probs, [0, 1, 2, 0, 1, 2], 3)
        assert (rep.acc, rep.auc_macro, rep.f1_macro, rep.precision_macro) == \
            (1.0, 1.0, 1.0, 1.0)
        ok("headline absolute metrics substituted by property-based criteria")


class TestGradientIntegrity:
    def test_full_model_finite_difference(self):
        start = time.monotonic()
        cfg = tiny_config()
        params = init_params(cfg)
        sample = synth_generate(1, SynthConfig(height=8, width=8, channels=1,
                                               seed=2))[0]
        weights = np.array([1.0, 1.3, 0.8])
        mask_grid = mask_to_patch_grid(sample.mask, cfg.patch)

        def loss_value():
            from lesionformer.autodiff import concat_rows, reshape
            res = forward(params, sample.image, cfg)
            g = cfg.grid_side
            l_ce = weighted_cross_entropy(res.probs, [sample.label], weights)
            l_attn = attention_regularization([reshape(res.focus, (g, g))],
                                              [mask_grid], "focusing")
            total, _ = total_loss(l_ce, l_attn, 0.3)
            return total

        with Tape() as tape:
            total = loss_value()
            tape.backward(total)
            grads = {k: tape.grad(t) for k, t in params.items()}

        h = 1e-5
        worst = 0.0
        for name, t in params.items():
            flat = t.data.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                with Tape():
                    hi = loss_value().item()
                flat[i] = orig - h
                with Tape():
                    lo = loss_value().item()
                flat[i] = orig
                num = (hi - lo) / (2 * h)
                rel = abs(gflat[i] - num) / max(abs(gflat[i]), abs(num), 1e-8)
                worst = max(worst, rel)
        elapsed = time.monotonic() - start
        assert worst < 1e-4
        assert elapsed < 60.0
        ok(f"gradient integrity: max rel err {worst:.2e} in {elapsed:.1f}s")


class TestSingleScaleReduction:
    def test_bitwise_equal_to_vanilla_attention(self, rng):
        cfg = tiny_config(scales=1)
        params = init_params(cfg)
        n, d = cfg.num_patches + 1, cfg.embed_dim
        x = rng.standard_normal((n, d))
        with Tape():
            got = multi_scale_attention(params, 0, Tensor(x), cfg)[0].data

        # independent vanilla multi-head attention, same float-op order
        def softmax(m):
            e = np.exp(m - m.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        q = x @ params["layer0.wq"].data
        k = x @ params["layer0.wk"].data
        v = x @ params["layer0.wv"].data
        dk = cfg.head_dim
        heads = []
        for i in range(cfg.heads):
            sl = slice(i * dk, (i + 1) * dk)
            a = softmax((q[:, sl].copy() @ k[:, sl].copy().T) * (1.0 / math.sqrt(dk)))
            heads.append((a @ v[:, sl].copy()) * 1.0)
        ref = np.concatenate(heads, axis=1) @ params["layer0.wo"].data
        assert np.array_equal(got, ref)
        ok("single-scale reduction bitwise equal to vanilla attention")


class TestAttentionNormalization:
    def test_100_random_forwards(self):
        worst_row = worst_focus = worst_w = 0.0
        for trial in range(100):
            r = np.random.default_rng(trial)
            cfg = tiny_config(seed=trial % 10)
            params = init_params(cfg)
            image = r.random((8, 8, 1))
            with Tape():
                res = forward(params, image, cfg)
                w = np.exp(params["layer0.scale_logits"].data)
                w = w / w.sum()
            for layer in res.attn:
                for head in layer:
                    for attn in head:
                        worst_row = max(worst_row,
                                        np.abs(attn.data.sum(axis=1) - 1.0).max())
            worst_focus = max(worst_focus, abs(res.focus.data.sum() - 1.0))
            worst_w = max(worst_w, abs(w.sum() - 1.0))
        assert worst_row < 1e-6 and worst_focus < 1e-6 and worst_w < 1e-6
        ok(f"attention normalization: worst row dev {worst_row:.2e}, "
           f"focus dev {worst_focus:.2e}, scale-weight dev {worst_w:.2e}")


class TestLossAndMetricOracles:
    def test_50_randomized_instances_each(self, rng):
        def bf_wce(probs, labels, w):
            total = 0.0
            for i in range(probs.shape[0]):
                total += w[labels[i]] * math.log(max(probs[i, labels[i]], 1e-12))
            return -total / probs.shape[0]

        def bf_attn(maps, masks, mode):
            vals = []
            for a, m in zip(maps, masks):
                gate = m if mode == "literal" else 1.0 - m
                vals.append(math.sqrt(((a * gate) ** 2).sum()))
            return sum(vals) / len(vals)

        def bf_auc(scores, labels):
            pos, neg = scores[labels == 1], scores[labels == 0]
            tot = sum(1.0 if p > n else 0.5 if p == n else 0.0
                      for p in pos for n in neg)
            return tot / (len(pos) * len(neg))

        worst = 0.0
        for _ in range(50):
            # weighted cross entropy
            p = rng.random((6, 3)) + 0.05
            p /= p.sum(axis=1, keepdims=True)
            labels = rng.integers(0, 3, size=6)
            w = rng.random(3) + 0.1
            got = weighted_cross_entropy(Tensor(p), labels, w).item()
            worst = max(worst, abs(got - bf_wce(p, labels, w)))

            # attention regularization, both modes
            maps = [rng.random((3, 3)) for _ in range(3)]
            masks = [(rng.random((3, 3)) > 0.5).astype(float) for _ in range(3)]
            for mode in ("literal", "focusing"):
                got = attention_regularization([Tensor(a) for a in maps],
                                               masks, mode).item()
                worst = max(worst, abs(got - bf_attn(maps, masks, mode)))

            # the four metrics
            probs = rng.random((30, 3))
            probs /= probs.sum(axis=1, keepdims=True)
            true = rng.integers(0, 3, size=30)
            true[:3] = [0, 1, 2]
            pred = probs.argmax(axis=1)
            cm = confusion_matrix(pred, true, 3)
            worst = max(worst, abs(accuracy(cm) - np.mean(pred == true)))
            precs, f1s = [], []
            for j in range(3):
                tp = cm[j, j]
                fp = cm[:, j].sum() - tp
                fn = cm[j, :].sum() - tp
                pr = tp / (tp + fp) if tp + fp else 0.0
                rc = tp / (tp + fn) if tp + fn else 0.0
                precs.append(pr)
                f1s.append(2 * pr * rc / (pr + rc) if pr + rc else 0.0)
            worst = max(worst, abs(precision_macro(cm) - np.mean(precs)))
            worst = max(worst, abs(f1_macro(cm) - np.mean(f1s)))
            ref_auc = np.mean([bf_auc(probs[:, c], (true == c).astype(int))
                               for c in range(3)])
            worst = max(worst, abs(roc_auc_ovr_macro(probs, true) - ref_auc))
        assert worst < 1e-12
        ok(f"loss/metric oracles: worst abs dev {worst:.2e} over 50 instances")


class TestOverfit:
    def test_16_samples_within_300_steps(self):
        start = time.monotonic()
        cfg = ModelConfig()
        samples = synth_generate(16, SynthConfig(seed=5))
        train_cfg = TrainConfig(epochs=150, batch_size=8, learning_rate=1e-3,
                                seed=1)  # 150 epochs x 2 steps = 300 steps
        params = init_params(cfg, dtype=train_cfg.np_dtype)
        logs, _ = train(params, cfg, train_cfg, samples)
        assert len(logs) <= 300
        rep, _, _ = evaluate(params, cfg, samples, strict_auc=False)
        elapsed = time.monotonic() - start
        assert rep.acc >= 0.95
        assert elapsed < 120.0
        ok(f"overfit: train acc {rep.acc:.3f} after {len(logs)} steps "
           f"in {elapsed:.0f}s")


class TestSeparability:
    def test_eval_auc_and_acc(self, separability_run):
        start = time.monotonic()
        rep, _, _ = evaluate(separability_run, SEP_MODEL, separability_eval_set())
        elapsed = time.monotonic() - start
        assert rep.auc_macro >= 0.95
        assert rep.acc >= 0.85
        assert elapsed < 600.0
        ok(f"separability: eval AUC {rep.auc_macro:.3f}, ACC {rep.acc:.3f}")


class TestAttentionFocusEffect:
    def test_focus_mass_higher_with_regularizer(self):
        def mask_mass(params, cfg, samples):
            vals = []
            for s in samples:
                with Tape():
                    res = forward(params, s.image, cfg)
                    focus = res.focus.data.reshape(cfg.grid_side, cfg.grid_side)
                grid = mask_to_patch_grid(s.mask, cfg.patch)
                vals.append(float((focus * grid).sum()))
            return np.mean(vals)

        cfg = ModelConfig()
        diffs = []
        for seed in range(5):
            data = SynthConfig(seed=100 + seed)
            train_set = synth_generate(64, data)
            held_out = [synth_sample(20000 + i, i % 3, data) for i in range(24)]
            masses = {}
            for lam in (0.1, 0.0):
                tc = TrainConfig(epochs=25, batch_size=8, learning_rate=1e-3,
                                 lambda_attn=lam, attn_mode="focusing",
                                 seed=seed)
                params = init_params(cfg, dtype=tc.np_dtype)
                train(params, cfg, tc, train_set)
                masses[lam] = mask_mass(params, cfg, held_out)
            diffs.append(masses[0.1] - masses[0.0])
        mean_diff = float(np.mean(diffs))
        assert mean_diff >= 0.02
        ok(f"attention-focus effect: mean in-mask mass gain {mean_diff:.3f} "
           f"over 5 seeds")


class TestGradCamLocalization:
    def test_argmax_inside_mask(self, separability_run):
        hits = 0
        eval_set = separability_eval_set()
        for s in eval_set:
            grid, _ = grad_cam(separability_run, s.image, s.label, SEP_MODEL)
            r, c = np.unravel_index(int(grid.argmax()), grid.shape)
            if mask_to_patch_grid(s.mask, SEP_MODEL.patch)[r, c] > 0:
                hits += 1
        rate = hits / len(eval_set)
        assert rate >= 0.70
        ok(f"grad-cam localization: argmax-in-mask rate {rate:.2f}")


class TestClassWeightFormula:
    def test_uniform_and_zero_frequency(self):
        cw = class_weights([0.25, 0.25, 0.25, 0.25], 1e-12)
        assert np.abs(cw - 2.0).max() < 1e-6
        cw0 = class_weights([1.0, 0.0], 1e-6)
        assert np.all(np.isfinite(cw0))
        ok("class-weight formula: uniform f -> w=2 within 1e-6, "
           "zero frequency stays finite")


class TestReproducibility:
    def test_byte_identical_checkpoints_and_bit_exact_resume(self, tmp_path):
        cfg = tiny_config()
        data = synth_generate(12, SynthConfig(height=8, width=8, channels=1,
                                              seed=1))
        tc = TrainConfig(epochs=4, batch_size=4, learning_rate=1e-3, seed=3,
                         dtype="float64")

        def run(epochs, path, start=None):
            if start is None:
                params = init_params(cfg, dtype=tc.np_dtype)
                state, step = None, 0
            else:
                params, state, step = start
            c = TrainConfig(**{**tc.__dict__, "epochs": epochs})
            logs, state = train(params, cfg, c, data, state=state,
                                start_step=step)
            save_checkpoint(path, Checkpoint(cfg, tc, params, state,
                                             step=step + len(logs)))
            return params, state

        run(4, tmp_path / "a.ckpt")
        run(4, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == \
               (tmp_path / "b.ckpt").read_bytes()

        # interrupt after 2 epochs, reload, resume to 4
        run(2, tmp_path / "mid.ckpt")
        ck = load_checkpoint(tmp_path / "mid.ckpt")
        run(4, tmp_path / "resumed.ckpt", start=(ck.params, ck.opt, ck.step))
        assert (tmp_path / "a.ckpt").read_bytes() == \
               (tmp_path / "resumed.ckpt").read_bytes()
        ok("reproducibility: byte-identical checkpoints and bit-exact resume")
