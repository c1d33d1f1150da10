import copy
import dataclasses
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lesionformer.autodiff import DimensionError, NumericError, Tensor
from lesionformer.data import SynthConfig, Sample, synth_generate
from lesionformer.losses import class_weights
from lesionformer.model import ModelConfig, grad_cam, init_params
from lesionformer.training import (AdamState, Checkpoint, CheckpointError,
                                   MAGIC, TrainConfig, adam_step, evaluate,
                                   init_adam, load_checkpoint, save_checkpoint,
                                   train, train_step)
from lesionformer.training import config_lines, set_field


def tiny_samples(n, seed=1, grayscale=True):
    """8x8 grayscale samples matching the tiny model config."""
    raw = synth_generate(n, SynthConfig(height=8, width=8, channels=1, seed=seed))
    return raw


def fresh(tiny_config, seed=1, n=8, **cfg_overrides):
    model_cfg = tiny_config
    train_cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3,
                            seed=3, **cfg_overrides)
    params = init_params(model_cfg, dtype=train_cfg.np_dtype)
    samples = tiny_samples(n, seed=seed)
    return params, model_cfg, train_cfg, samples


def clone_params(params):
    return {k: t.data.copy() for k, t in params.items()}


def params_equal(params, snapshot):
    return all(np.array_equal(t.data, snapshot[k]) for k, t in params.items())


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self, tiny_config):
        params = init_params(tiny_config)
        before = clone_params(params)
        state = init_adam(params)
        grads = {k: np.zeros_like(t.data) for k, t in params.items()}
        adam_step(params, grads, state, TrainConfig())
        assert params_equal(params, before)
        assert state.t == 1

    def test_first_step_size_is_learning_rate(self):
        # with bias correction, |update| == lr * g/(|g|+eps') ~= lr on step 1
        p = {"x": Tensor(np.zeros((1, 1)), requires_grad=True)}
        state = init_adam(p)
        cfg = TrainConfig(learning_rate=0.1)
        adam_step(p, {"x": np.array([[3.0]])}, state, cfg)
        assert abs(abs(p["x"].data[0, 0]) - 0.1) < 1e-6

    def test_converges_on_quadratic(self):
        p = {"x": Tensor(np.array([[5.0]]), requires_grad=True)}
        state = init_adam(p)
        cfg = TrainConfig(learning_rate=0.2)
        for _ in range(200):
            adam_step(p, {"x": 2.0 * p["x"].data}, state, cfg)
        assert abs(p["x"].data[0, 0]) < 1e-3

    def test_nonfinite_gradient_names_parameter(self, tiny_config):
        params = init_params(tiny_config)
        state = init_adam(params)
        grads = {k: np.zeros_like(t.data) for k, t in params.items()}
        grads["head.w"][0, 0] = np.nan
        with pytest.raises(NumericError, match="head.w"):
            adam_step(params, grads, state, TrainConfig())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infinite_gradient_names_parameter(self, tiny_config, dtype, bad):
        params = init_params(tiny_config, dtype)
        grads = {k: np.zeros_like(t.data) for k, t in params.items()}
        grads["head.w"][0, 0] = bad
        with pytest.raises(NumericError, match=r"parameter head\.w$"):
            adam_step(params, grads, init_adam(params), TrainConfig())

    # each square is finite, so Adam's own arithmetic stays finite, but the
    # sum of squares overflows and the guard takes its full scan
    @pytest.mark.parametrize("dtype, big", [(np.float32, 1.5e19), (np.float64, 1e154)])
    def test_gradient_whose_squares_sum_overflows_passes(self, dtype, big):
        p = {"x": Tensor(np.zeros((1, 2), dtype=dtype), requires_grad=True)}
        g = np.array([[big, big]], dtype=dtype)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.sum(g * g))
        adam_step(p, {"x": g}, init_adam(p), TrainConfig(learning_rate=0.5))
        np.testing.assert_allclose(p["x"].data, [[-0.5, -0.5]], rtol=1e-6)

    @staticmethod
    def adam_ref(p, m, v, g, t, cfg, lr):
        """The plain NumPy expressions of one Adam update."""
        b1, b2 = cfg.beta1, cfg.beta2
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(5, 7), (3, 5, 7)], ids=["matrix", "stack"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_matches_the_plain_expressions_bitwise(self, dtype, shape, order):
        rng = np.random.default_rng(4)
        p0, m0, g1, g2 = (rng.standard_normal(shape).astype(dtype) for _ in range(4))
        v0 = np.abs(rng.standard_normal(shape)).astype(dtype)
        if order == "F":  # each matrix column-major: a column-major incoming gradient
            g1, g2 = (np.swapaxes(np.ascontiguousarray(np.swapaxes(g, -1, -2)), -1, -2)
                      for g in (g1, g2))
        cfg = TrainConfig(learning_rate=3e-3)
        p = {"x": Tensor(p0.copy(), requires_grad=True)}
        state = AdamState(m={"x": m0.copy()}, v={"x": v0.copy()}, t=4)
        ref = [a.copy() for a in (p0, m0, v0)]
        for step, (g, lr) in enumerate([(g1, 3e-3), (g2, 1.7e-3)], start=5):
            adam_step(p, {"x": g}, state, cfg, lr)
            self.adam_ref(*ref, g, step, cfg, lr)
        for got, want in zip((p["x"].data, state.m["x"], state.v["x"]), ref):
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    @settings(max_examples=30)
    def test_entry_whose_square_overflows_names_the_parameter(self, dtype, data):
        # 2**(maxexp/2) is the smallest power of two whose square overflows,
        # and the float below it is the largest finite one whose square is
        # finite
        above = dtype(2.0 ** (np.finfo(dtype).maxexp // 2))
        below = np.nextafter(above, dtype(0))
        shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 6)), label="shape")
        g = data.draw(arrays(dtype, shape, elements=st.floats(
            -1e3, 1e3, width=np.finfo(dtype).bits)), label="g")
        over = data.draw(st.booleans(), label="over")
        pos = np.unravel_index(data.draw(st.integers(0, g.size - 1)), shape)
        g[pos] = data.draw(st.sampled_from([1, -1]), label="sign") * (above if over else below)
        params = {"first": Tensor(np.zeros((1, 2), dtype=dtype), requires_grad=True),
                  "big": Tensor(np.ones(shape, dtype=dtype), requires_grad=True)}
        state = init_adam(params)
        grads = {"first": np.ones((1, 2), dtype=dtype), "big": g}
        if over:
            with pytest.raises(NumericError, match=r"parameter big .*square overflows"):
                adam_step(params, grads, state, TrainConfig())
            # the parameter and its moments are as they were
            assert np.array_equal(params["big"].data, np.ones(shape))
            assert not state.m["big"].any() and not state.v["big"].any()
        else:
            # any overflow would raise under the suite's warning filter
            adam_step(params, grads, state, TrainConfig())
            assert np.isfinite(state.v["big"]).all()
            assert np.isfinite(params["big"].data).all()
            assert state.v["big"][pos] > 0

    @pytest.mark.parametrize("bad", [np.nan, 1e200], ids=["nan", "square-overflows"])
    def test_bad_second_gradient_leaves_the_whole_state_unchanged(self, bad):
        rng = np.random.default_rng(8)
        names = ("first", "second")
        params = {k: Tensor(rng.standard_normal((2, 3)), requires_grad=True)
                  for k in names}
        state = AdamState(m={k: rng.standard_normal((2, 3)) for k in names},
                          v={k: rng.random((2, 3)) for k in names}, t=3)
        before = clone_params(params), copy.deepcopy(state)
        grads = {k: rng.standard_normal((2, 3)) for k in names}
        grads["second"][1, 2] = bad
        with pytest.raises(NumericError, match="parameter second"):
            adam_step(params, grads, state, TrainConfig())
        assert params_equal(params, before[0])
        for got, want in ((state.m, before[1].m), (state.v, before[1].v)):
            assert all(np.array_equal(got[k], want[k]) for k in names)
        assert state.t == 3

    def test_explicit_lr_override(self):
        p = {"x": Tensor(np.zeros((1, 1)), requires_grad=True)}
        state = init_adam(p)
        adam_step(p, {"x": np.array([[1.0]])}, state, TrainConfig(learning_rate=0.5),
                  lr=0.0)
        assert p["x"].data[0, 0] == 0.0

    SHAPES = {"a": (5, 7), "b": (3, 5, 7), "c": (1, 4)}

    @classmethod
    def hand_built(cls, dtype, seed=4):
        """Params, a state at ``t=4`` and two steps' gradients for ``SHAPES``."""
        rng = np.random.default_rng(seed)
        draw = lambda: {k: rng.standard_normal(s).astype(dtype) for k, s in cls.SHAPES.items()}
        params = {k: Tensor(a, requires_grad=True) for k, a in draw().items()}
        state = AdamState(m=draw(), v={k: np.abs(a) for k, a in draw().items()}, t=4)
        return params, state, [draw(), draw()]

    @staticmethod
    def state_arrays(params, state):
        return [a for k, p in params.items() for a in (p.data, state.m[k], state.v[k])]

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_multi_parameter_step_matches_the_plain_expressions_bitwise(self, dtype, order):
        params, state, grads = self.hand_built(dtype)
        if order == "F":
            grads = [{k: np.asfortranarray(g) for k, g in gs.items()} for gs in grads]
        ref = [a.copy() for a in self.state_arrays(params, state)]
        cfg = TrainConfig()
        for step, (gs, lr) in enumerate(zip(grads, (3e-3, 1.7e-3)), start=5):
            adam_step(params, gs, state, cfg, lr)
            for i, g in enumerate(gs.values()):
                self.adam_ref(*ref[3 * i:3 * i + 3], g, step, cfg, lr)
        assert state.t == 6
        for got, want in zip(self.state_arrays(params, state), ref):
            assert got.dtype == dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_a_step_leaves_each_kind_in_one_buffer_in_dict_order(self):
        params, state, grads = self.hand_built(np.float64)
        adam_step(params, grads[0], state, TrainConfig())
        kinds = ([p.data for p in params.values()], list(state.m.values()),
                 list(state.v.values()))
        bases = [views[0].base for views in kinds]
        assert len({id(b) for b in bases}) == 3
        for views, base in zip(kinds, bases):
            assert base.size == sum(math.prod(s) for s in self.SHAPES.values())
            start = base.__array_interface__["data"][0]
            for view in views:
                assert view.base is base and view.flags.c_contiguous
                assert view.__array_interface__["data"][0] == start
                start += view.nbytes

    @pytest.mark.parametrize("kind", ["param", "m", "v"])
    def test_an_array_replaced_between_steps_is_taken_back(self, kind):
        params, state, grads = self.hand_built(np.float64)
        twin, twin_state, _ = self.hand_built(np.float64)
        cfg = TrainConfig()
        for p, s in ((params, state), (twin, twin_state)):
            adam_step(p, grads[0], s, cfg)
        new = np.full(self.SHAPES["b"], 0.25)
        if kind == "param":
            params["b"].data = new
        else:
            getattr(state, kind)["b"] = new
        # the twin takes the same values in place, through its views
        {"param": twin["b"].data, "m": twin_state.m["b"], "v": twin_state.v["b"]}[kind][...] = new
        for p, s in ((params, state), (twin, twin_state)):
            adam_step(p, grads[1], s, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(self.state_arrays(params, state),
                                                         self.state_arrays(twin, twin_state)))
        assert params["b"].data.base is params["a"].data.base
        assert state.m["b"].base is state.m["a"].base
        assert state.v["b"].base is state.v["a"].base

    def test_a_deep_copy_of_a_state_steps_to_the_same_bytes(self):
        params, state, grads = self.hand_built(np.float32)
        cfg = TrainConfig()
        adam_step(params, grads[0], state, cfg)
        params2, state2 = copy.deepcopy((params, state))
        for p, s in ((params, state), (params2, state2)):
            adam_step(p, grads[1], s, cfg)
        assert state2.t == state.t == 6
        assert [a.tobytes() for a in self.state_arrays(params2, state2)] == \
            [a.tobytes() for a in self.state_arrays(params, state)]

    @pytest.mark.parametrize("stepped", [False, True], ids=["first-step", "later-step"])
    def test_a_gradient_of_the_wrong_shape_changes_nothing(self, stepped):
        rng = np.random.default_rng(2)
        params = {"a": Tensor(rng.standard_normal((2, 2)), requires_grad=True),
                  "w": Tensor(rng.standard_normal((3, 2)), requires_grad=True)}
        state = init_adam(params)
        grads = {"a": np.ones((2, 2)), "w": np.ones((3, 2))}
        if stepped:
            adam_step(params, grads, state, TrainConfig())
        before = [a.copy() for a in self.state_arrays(params, state)]
        t = state.t
        with pytest.raises(DimensionError, match=r"parameter w has shape \(1, 2\)"):
            adam_step(params, {"a": np.ones((2, 2)), "w": np.ones((1, 2))}, state,
                      TrainConfig())
        assert state.t == t
        assert all(np.array_equal(a, b) for a, b in zip(self.state_arrays(params, state), before))

    def test_a_moment_of_another_dtype_is_refused_before_anything_changes(self):
        params, state, grads = self.hand_built(np.float64)
        state.v["c"] = state.v["c"].astype(np.float32)
        before = [a.copy() for a in self.state_arrays(params, state)]
        with pytest.raises(TypeError, match="v for parameter c is float32"):
            adam_step(params, grads[0], state, TrainConfig())
        assert state.t == 4
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(self.state_arrays(params, state), before))

    def test_a_float64_gradient_is_rounded_to_a_float32_parameter(self):
        params, state, grads = self.hand_built(np.float32)
        ref, ref_state, _ = self.hand_built(np.float32)
        wide = {k: g.astype(np.float64) + 1e-12 for k, g in grads[0].items()}
        adam_step(params, wide, state, TrainConfig())
        adam_step(ref, {k: g.astype(np.float32) for k, g in wide.items()}, ref_state,
                  TrainConfig())
        assert all(np.array_equal(params[k].data, ref[k].data) for k in params)


class TestTrainLoop:
    def test_run_is_deterministic(self, tiny_config):
        outs = []
        for _ in range(2):
            params, mc, tc, samples = fresh(tiny_config)
            logs, _ = train(params, mc, tc, samples)
            outs.append((clone_params(params), [b.total for b in logs]))
        assert outs[0][1] == outs[1][1]
        assert all(np.array_equal(outs[0][0][k], outs[1][0][k]) for k in outs[0][0])

    def test_step_count_and_log_lines(self, tiny_config):
        params, mc, tc, samples = fresh(tiny_config, n=6)  # 2 epochs x ceil(6/4)
        lines = []
        logs, state = train(params, mc, tc, samples, log=lines.append)
        assert len(logs) == len(lines) == 4
        assert state.t == 4
        assert lines[0].startswith("0,0,") and lines[-1].startswith("3,1,")

    def test_lambda_zero_matches_maskless_run_bitwise(self, tiny_config):
        params_a, mc, tc_a, samples = fresh(tiny_config)
        tc_a.lambda_attn = 0.0
        train(params_a, mc, tc_a, samples)

        params_b, _, tc_b, _ = fresh(tiny_config)
        tc_b.lambda_attn = 0.1
        no_masks = [Sample(s.image, s.label, None, s.id) for s in samples]
        train(params_b, mc, tc_b, no_masks)
        assert params_equal(params_b, clone_params(params_a))

    def test_masked_training_differs_from_maskless(self, tiny_config):
        params_a, mc, tc, samples = fresh(tiny_config)
        train(params_a, mc, tc, samples)
        params_b, _, _, _ = fresh(tiny_config)
        no_masks = [Sample(s.image, s.label, None, s.id) for s in samples]
        train(params_b, mc, tc, no_masks)
        assert not params_equal(params_b, clone_params(params_a))

    def test_epoch_mean_ce_decreases(self, tiny_config):
        params, mc, tc, samples = fresh(tiny_config, n=16)
        tc.epochs = 5
        logs, _ = train(params, mc, tc, samples)
        per_epoch = np.array([b.l_ce for b in logs]).reshape(5, -1).mean(axis=1)
        assert per_epoch[-1] < per_epoch[0]

    def test_empty_training_set_rejected(self, tiny_config):
        params, mc, tc, _ = fresh(tiny_config)
        with pytest.raises(ValueError):
            train(params, mc, tc, [])

    def test_gradient_reaches_attention_params_in_masked_step(self, tiny_config):
        # a single masked step must move scale_logits and the qkv projections
        params, mc, tc, samples = fresh(tiny_config)
        before = clone_params(params)
        tc.lambda_attn = 0.5
        state = init_adam(params)
        from lesionformer.losses import class_weights
        from lesionformer.data import class_frequencies
        w = class_weights(class_frequencies(samples, mc.classes), tc.weight_epsilon)
        train_step(params, mc, tc, samples[:4], state, w, tc.learning_rate)
        for name in ("layer0.scale_logits", "layer0.wq", "layer0.wk", "layer0.wv"):
            assert not np.array_equal(params[name].data, before[name])


def on_new_thread(fn, *args):
    """``fn(*args)`` run on a new thread, which starts with an empty step
    workspace."""
    out = []
    th = threading.Thread(target=lambda: out.append(fn(*args)))
    th.start()
    th.join(timeout=300)
    assert not th.is_alive() and len(out) == 1
    return out[0]


class TestStepWorkspace:
    """A thread's train steps plan their arrays into one reused arena."""

    @staticmethod
    def snapshot(params, state):
        return [a.tobytes() for a in [p.data for p in params.values()]
                + list(state.m.values()) + list(state.v.values())]

    @pytest.mark.parametrize("unmasked", [(), (0, 3, 6)])
    def test_a_third_default_step_allocates_under_a_megabyte(self, unmasked):
        # the third step's images lack the masks at ``unmasked``: its
        # regulariser differs from the first two steps', its plan does not
        mc, tc = ModelConfig(), TrainConfig()
        params = init_params(mc)
        batch = synth_generate(tc.batch_size, SynthConfig(seed=4))
        third = [dataclasses.replace(s, mask=None) if i in unmasked else s
                 for i, s in enumerate(batch)]
        w = class_weights([0.5, 0.25, 0.25], tc.weight_epsilon)
        state = init_adam(params)

        def third_step_peak():
            for _ in range(2):
                train_step(params, mc, tc, batch, state, w, tc.learning_rate)
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                start, _ = tracemalloc.get_traced_memory()
                train_step(params, mc, tc, third, state, w, tc.learning_rate)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                if not tracing:
                    tracemalloc.stop()

        # every traced allocation, NumPy's included; fresh arrays took about 10.5 MB
        assert on_new_thread(third_step_peak) < 2**20

    def test_a_default_step_plans_an_arena_of_at_most_its_measured_size(self):
        # 5,216,144 bytes (4.97 MiB): the arena this step planned, measured
        # once attention's backward read the forward's key and value copies
        # and each layer let go of a scale's keys and values once it had
        # attended. An array kept alive past its last reader grows the plan
        # and fails here
        from lesionformer import training
        mc, tc = ModelConfig(), TrainConfig()
        batch = synth_generate(tc.batch_size, SynthConfig(seed=4))
        w = class_weights([0.5, 0.25, 0.25], tc.weight_epsilon)

        def first_step_arena():
            params = init_params(mc)
            train_step(params, mc, tc, batch, init_adam(params), w, tc.learning_rate)
            return training.step_workspace.nbytes

        assert 0 < on_new_thread(first_step_arena) <= 5_216_144

    def test_steps_masked_in_different_places_share_one_plan(self, monkeypatch):
        # every step of one batch size makes the same requests wherever its
        # unmasked images fall: the first records the plan, and from the
        # second on the gradients handed to Adam are views into the arena
        # (but the biases' and gains', which are reductions from the heap);
        # the plan covers the regulariser's ops too
        from lesionformer import training
        mc, tc = ModelConfig(), TrainConfig()
        batch = synth_generate(tc.batch_size, SynthConfig(seed=4))
        w = class_weights([0.5, 0.25, 0.25], tc.weight_epsilon)
        unmasked_sets = [(), (0, 3, 6), (7,), (1, 2), ()]
        ws, adam = training.step_workspace, training.adam_step  # ws: per thread
        views, plans = [], []

        def spy(p, grads, *args):
            views.append({name for name, g in grads.items() if np.shares_memory(g, ws._arena)})
            plans.append(len(ws._plans))
            return adam(p, grads, *args)

        def steps():
            params = init_params(mc)
            state = init_adam(params)
            for unmasked in unmasked_sets:
                train_step(params, mc, tc, [dataclasses.replace(s, mask=None) if i in unmasked
                                            else s for i, s in enumerate(batch)],
                           state, w, tc.learning_rate)
            (plan,) = ws._plans.values()
            return [name for name, dtype in plan.keys if dtype is None]

        monkeypatch.setattr(training, "adam_step", spy)
        assert "sqrt" in on_new_thread(steps)
        weights = {"pos", "cls", "patch_proj.w", "head.w", "layer0.wq", "layer1.mlp.w2"}
        assert views[0] == set() and weights <= views[1]
        assert all(v == views[1] for v in views[2:])
        assert plans == [1] * len(unmasked_sets)

    def test_changed_batches_and_calls_between_steps_keep_the_bits(self, tiny_config):
        _, mc, tc, samples = fresh(tiny_config)
        w = class_weights([0.4, 0.3, 0.3], tc.weight_epsilon)
        # each kind's first step records a plan and later ones reuse it; a
        # batch is the first b samples, without masks at the listed indices
        steps = ((8, ()), (5, ()), (8, (2,)), (8, (0, 4, 7)), (5, ()), (5, (1, 2)), (8, ()),
                 (8, tuple(range(8))), (8, tuple(range(8))))
        batches = [[dataclasses.replace(s, mask=None) if i in unmasked else s
                    for i, s in enumerate(samples[:b])] for b, unmasked in steps]

        def steps_on_one_thread():
            params = init_params(mc)
            state = init_adam(params)
            for batch in batches:
                train_step(params, mc, tc, batch, state, w, tc.learning_rate)
                grad_cam(params, batch[-1].image, 1, mc)
                evaluate(params, mc, samples[:3], strict_auc=False)
            return self.snapshot(params, state)

        params = init_params(mc)
        state = init_adam(params)
        for batch in batches:
            on_new_thread(train_step, params, mc, tc, batch, state, w, tc.learning_rate)
        assert on_new_thread(steps_on_one_thread) == self.snapshot(params, state)


class TestEvaluate:
    def test_composition_and_determinism(self, tiny_config):
        params, mc, _, samples = fresh(tiny_config, n=9)
        rep1, probs1, labels1 = evaluate(params, mc, samples, strict_auc=False)
        rep2, probs2, _ = evaluate(params, mc, samples, strict_auc=False)
        assert np.array_equal(probs1, probs2)
        assert rep1.n == 9
        np.testing.assert_allclose(probs1.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(labels1, [s.label for s in samples])

    def test_empty_rejected(self, tiny_config):
        params = init_params(tiny_config)
        with pytest.raises(ValueError):
            evaluate(params, tiny_config, [])


class TestCheckpoint:
    def _roundtrip(self, tmp_path, tiny_config, dtype):
        params, mc, tc, samples = fresh(tiny_config)
        tc.dtype = dtype
        params = init_params(mc, dtype=tc.np_dtype)
        logs, state = train(params, mc, tc, samples)
        path = tmp_path / "a.ckpt"
        ckpt = Checkpoint(mc, tc, params, state, step=len(logs))
        save_checkpoint(path, ckpt)
        return path, ckpt

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_roundtrip_restores_everything(self, tmp_path, tiny_config, dtype):
        path, ckpt = self._roundtrip(tmp_path, tiny_config, dtype)
        back = load_checkpoint(path)
        assert back.step == ckpt.step
        assert back.model_config == ckpt.model_config
        assert back.train_config == ckpt.train_config
        assert back.opt.t == ckpt.opt.t
        for name, t in ckpt.params.items():
            assert np.array_equal(back.params[name].data, t.data)
            assert back.params[name].data.dtype == t.data.dtype
            assert np.array_equal(back.opt.m[name], ckpt.opt.m[name])
            assert np.array_equal(back.opt.v[name], ckpt.opt.v[name])

    def test_save_load_save_is_byte_identical(self, tmp_path, tiny_config):
        path, _ = self._roundtrip(tmp_path, tiny_config, "float64")
        back = load_checkpoint(path)
        path2 = tmp_path / "b.ckpt"
        save_checkpoint(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_identical_runs_write_identical_bytes(self, tmp_path, tiny_config):
        (tmp_path / "1").mkdir()
        (tmp_path / "2").mkdir()
        p1, _ = self._roundtrip(tmp_path / "1", tiny_config, "float64")
        p2, _ = self._roundtrip(tmp_path / "2", tiny_config, "float64")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_arrays(self, tmp_path, tiny_config):
        path, _ = self._roundtrip(tmp_path, tiny_config, "float64")
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 64])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_no_optimizer_state(self, tmp_path, tiny_config):
        params, mc, tc, _ = fresh(tiny_config)
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, Checkpoint(mc, tc, params, None, step=0))
        back = load_checkpoint(path)
        assert back.opt is None
        assert params_equal(back.params, clone_params(params))

    def test_magic_is_stable(self):
        assert MAGIC == b"LSNFRMT1"

    def test_failed_save_leaves_the_old_file_and_no_temporary(self, tmp_path, tiny_config,
                                                              monkeypatch):
        path, ckpt = self._roundtrip(tmp_path, tiny_config, "float64")
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        ckpt.step += 1
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, ckpt)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class TestResume:
    def test_resume_is_bit_exact(self, tmp_path, tiny_config):
        # straight-through run
        params_a, mc, tc, samples = fresh(tiny_config, n=12)
        tc.epochs = 4
        train(params_a, mc, tc, samples)

        # interrupted run: stop after epoch 2, checkpoint, reload, resume
        params_b, _, _, _ = fresh(tiny_config, n=12)
        logs, state = train(params_b, mc, TrainConfig(**{**tc.__dict__, "epochs": 2}),
                            samples, log=None)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(path, Checkpoint(mc, tc, params_b, state, step=len(logs)))
        ck = load_checkpoint(path)
        train(ck.params, ck.model_config, ck.train_config, samples,
              state=ck.opt, start_step=ck.step)
        assert params_equal(ck.params, clone_params(params_a))


class TestConfigCodec:
    @staticmethod
    def with_removed_field(tmp_path, tiny_config, before, line):
        """A checkpoint whose header has ``line`` inserted before ``before``."""
        params, mc, tc, _ = fresh(tiny_config)
        path = tmp_path / "new.ckpt"
        save_checkpoint(path, Checkpoint(mc, tc, params, init_adam(params), step=0))
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 8)
        header = raw[12:12 + hlen].replace(before, line + before)
        old = tmp_path / "old.ckpt"
        old.write_bytes(raw[:8] + struct.pack("<I", len(header)) + header
                        + raw[12 + hlen:])
        return old

    def test_removed_fields_in_old_header_are_rejected(self, tmp_path, tiny_config):
        # a header holds exactly the lines save_checkpoint writes
        old = self.with_removed_field(
            tmp_path, tiny_config, b"train.eval_fraction=",
            b"train.eval_every=0\ntrain.dynamic_weights=true\n")
        with pytest.raises(CheckpointError, match="train.eval_every"):
            load_checkpoint(old)

    @pytest.mark.parametrize("value", [b"true", b"false"])
    def test_removed_literal_multiscale_is_rejected(self, tmp_path, tiny_config, value):
        old = self.with_removed_field(tmp_path, tiny_config, b"model.seed=",
                                      b"model.literal_multiscale=" + value + b"\n")
        with pytest.raises(CheckpointError, match="model.literal_multiscale"):
            load_checkpoint(old)

    @staticmethod
    def field_values(cls):
        strategy = {
            bool: st.booleans(),
            int: st.integers(-2 ** 63, 2 ** 63),
            float: st.one_of(st.sampled_from([0.1, 1e-300, 5e-324, -0.0]),
                             st.floats(allow_nan=False)),
            # a line break would end the header line
            str: st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))),
        }
        return st.fixed_dictionaries(
            {f.name: strategy[type(f.default)] for f in dataclasses.fields(cls)})

    @given(model=field_values(ModelConfig), train=field_values(TrainConfig))
    @settings(max_examples=100, deadline=None)
    def test_config_lines_set_field_round_trip(self, model, train):
        for prefix, cls, values in (("model", ModelConfig, model),
                                    ("train", TrainConfig, train)):
            cfg, back = cls(**values), cls()
            for line in config_lines(prefix, cfg):
                key, _, raw = line.partition("=")
                set_field(back, key[len(prefix) + 1:], raw)
            for f in dataclasses.fields(cls):
                want, got = getattr(cfg, f.name), getattr(back, f.name)
                assert type(got) is type(want) and repr(got) == repr(want)

    @pytest.mark.parametrize("name, raw", [("epochs", "2.5"), ("epochs", ""),
                                           ("learning_rate", "fast"),
                                           ("cosine_decay", "1"),
                                           ("cosine_decay", "True")])
    def test_set_field_rejects_malformed_text(self, name, raw):
        with pytest.raises(ValueError, match=name):
            set_field(TrainConfig(), name, raw)


def per_image_step_reference(params, mc, tc, batch, weights):
    """The batch loss and gradients from one forward per image."""
    from lesionformer import autodiff as ad
    from lesionformer import losses
    from lesionformer.data import mask_to_patch_grid
    from lesionformer.model import forward
    g = mc.grid_side
    with ad.Tape() as tape:
        rows, grids, masks = [], [], []
        for s in batch:
            res = forward(params, s.image, mc)
            rows.append(res.probs)
            if s.mask is not None:
                grids.append(ad.reshape(res.focus, (g, g)))
                masks.append(mask_to_patch_grid(s.mask, mc.patch))
        l_ce = losses.weighted_cross_entropy(ad.concat_rows(rows),
                                             [s.label for s in batch], weights)
        l_attn = losses.attention_regularization(grids, masks, tc.attn_mode) if grids else None
        total, breakdown = losses.total_loss(l_ce, l_attn, tc.lambda_attn)
        tape.backward(total)
        return breakdown, {k: tape.grad(p).copy() for k, p in params.items()}


class TestBatchedStep:
    @staticmethod
    def weights(samples, mc, tc):
        from lesionformer.data import class_frequencies
        from lesionformer.losses import class_weights
        return class_weights(class_frequencies(samples, mc.classes), tc.weight_epsilon)

    def test_one_forward_matches_per_image_reference_on_mixed_masks(
            self, tiny_config, monkeypatch):
        from lesionformer import training
        params, mc, tc, samples = fresh(tiny_config, n=5)
        tc.lambda_attn = 0.3
        batch = [s if i % 2 else Sample(s.image, s.label, None, s.id)
                 for i, s in enumerate(samples)]
        w = self.weights(batch, mc, tc)
        want, want_grads = per_image_step_reference(params, mc, tc, batch, w)

        shapes, got_grads = [], {}
        forward, adam = training.forward, training.adam_step
        monkeypatch.setattr(training, "forward", lambda p, image, *a, **k:
                            shapes.append(image.shape) or forward(p, image, *a, **k))
        monkeypatch.setattr(training, "adam_step", lambda p, grads, *a, **k:
                            got_grads.update(grads) or adam(p, grads, *a, **k))
        got = train_step(params, mc, tc, batch, init_adam(params), w, tc.learning_rate)
        assert shapes == [(5, 8, 8, 1)]
        assert got.l_attn > 0
        for field in ("l_ce", "l_attn", "total"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)
        for name, g in want_grads.items():
            np.testing.assert_allclose(got_grads[name], g, rtol=1e-9,
                                       atol=1e-12 * np.abs(g).max())

    def test_forward_ops_per_step_do_not_depend_on_batch_size(
            self, tiny_config, monkeypatch):
        from lesionformer import autodiff as ad
        from lesionformer import training
        counts, inside = [], []
        op, forward = ad.custom_op, training.forward

        def counting_op(*args):
            if inside:
                counts[-1] += 1
            return op(*args)

        def counting_forward(*args, **kwargs):
            counts.append(0)
            inside.append(True)
            try:
                return forward(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(ad, "custom_op", counting_op)
        monkeypatch.setattr(training, "forward", counting_forward)
        params, mc, tc, samples = fresh(tiny_config, n=8)
        w = self.weights(samples, mc, tc)
        for b in (1, 2, 8):
            train_step(params, mc, tc, samples[:b], init_adam(params), w, tc.learning_rate)
        assert len(counts) == 3 and counts[0] > 0
        assert counts[0] == counts[1] == counts[2]

    def test_fully_masked_step_records_the_same_ops_at_any_batch_size(self, monkeypatch):
        from lesionformer import autodiff as ad
        from lesionformer import losses
        counts, op = [], ad.custom_op

        def counting_op(*args):
            counts[-1] += 1
            return op(*args)

        monkeypatch.setattr(ad, "custom_op", counting_op)
        monkeypatch.setattr(losses, "custom_op", counting_op)  # bound by name there
        mc, tc = ModelConfig(), TrainConfig()
        params = init_params(mc)
        samples = synth_generate(8, SynthConfig(seed=4))
        assert all(s.mask is not None for s in samples)
        w = self.weights(samples, mc, tc)
        # the last batch lacks the masks of images 1, 4 and 5
        mixed = [dataclasses.replace(s, mask=None) if i in (1, 4, 5) else s
                 for i, s in enumerate(samples)]
        for batch in (samples[:1], samples[:2], samples, mixed):
            counts.append(0)
            train_step(params, mc, tc, batch, init_adam(params), w, tc.learning_rate)
        assert counts == [83, 83, 83, 83]

    def test_model_without_layers_trains_on_masked_samples(self, tiny_config):
        _, _, tc, samples = fresh(tiny_config)
        mc = dataclasses.replace(tiny_config, layers=0)
        params = init_params(mc)
        logs, _ = train(params, mc, tc, samples)
        assert all(b.l_attn == 0.0 for b in logs)
