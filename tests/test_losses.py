import math

import numpy as np
import pytest

from lesionformer import autodiff as ad
from lesionformer.autodiff import DimensionError, Tape, Tensor, finite_difference_check
from lesionformer.losses import (attention_regularization, class_weights,
                                 total_loss, weighted_cross_entropy)


def brute_force_wce(probs, labels, w):
    b, k = probs.shape
    total = 0.0
    for i in range(b):
        for j in range(k):
            y = 1.0 if labels[i] == j else 0.0
            total += w[j] * y * math.log(max(probs[i, j], 1e-12))
    return -total / b


def brute_force_attn_reg(maps, masks, mode):
    vals = []
    for a, m in zip(maps, masks):
        gate = m if mode == "literal" else 1.0 - m
        acc = 0.0
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                acc += (a[i, j] * gate[i, j]) ** 2
        vals.append(math.sqrt(acc))
    return sum(vals) / len(vals)


def random_probs(rng, b, k):
    p = rng.random((b, k)) + 0.05
    return p / p.sum(axis=1, keepdims=True)


class TestClassWeights:
    def test_uniform_frequencies(self):
        cw = class_weights([0.25] * 4, 1e-12)
        np.testing.assert_allclose(cw, [2.0] * 4, atol=1e-6)

    def test_single_class(self):
        cw = class_weights([1.0], 1e-9)
        assert abs(cw[0] - 1.0) < 1e-6

    def test_zero_frequency_is_smoothed(self):
        cw = class_weights([1.0, 0.0], 1e-6)
        assert abs(cw[1] - 1000.0) < 1e-6
        assert np.all(np.isfinite(cw))

    def test_errors(self):
        with pytest.raises(ValueError):
            class_weights([0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            class_weights([-0.1, 1.1], 1e-6)
        with pytest.raises(ValueError):
            class_weights([0.5, 0.4], 1e-6)


class TestWeightedCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        w = class_weights([0.5, 0.5], 1e-9)
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert weighted_cross_entropy(probs, [0, 1], w).item() == 0.0

    def test_uniform_probs_give_log_k(self):
        w = np.ones(3)
        probs = Tensor(np.full((2, 3), 1 / 3))
        assert abs(weighted_cross_entropy(probs, [0, 2], w).item() - math.log(3)) < 1e-12

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            p = random_probs(rng, 4, 3)
            labels = rng.integers(0, 3, size=4)
            w = rng.random(3) + 0.1
            got = weighted_cross_entropy(Tensor(p), labels, w).item()
            assert abs(got - brute_force_wce(p, labels, w)) < 1e-12

    def test_label_out_of_range(self, rng):
        w = class_weights([0.5, 0.5], 1e-9)
        with pytest.raises(ValueError):
            weighted_cross_entropy(Tensor(random_probs(rng, 2, 2)), [0, 2], w)

    def test_unnormalized_rows_rejected(self):
        w = class_weights([0.5, 0.5], 1e-9)
        with pytest.raises(ValueError):
            weighted_cross_entropy(Tensor(np.array([[0.7, 0.7]])), [0], w)

    def test_unit_weights_equal_plain_cross_entropy(self, rng):
        p = random_probs(rng, 6, 4)
        labels = rng.integers(0, 4, size=6)
        w = np.ones(4)
        got = weighted_cross_entropy(Tensor(p), labels, w).item()
        plain = -np.mean(np.log(p[np.arange(6), labels]))
        assert abs(got - plain) < 1e-12

    def test_weight_scaling_linearity(self, rng):
        p = random_probs(rng, 5, 3)
        labels = rng.integers(0, 3, size=5)
        base = rng.random(3) + 0.1
        a = weighted_cross_entropy(Tensor(p), labels, base).item()
        b = weighted_cross_entropy(Tensor(p), labels, 3.0 * base).item()
        assert abs(b - 3.0 * a) < 1e-12

    def test_gradient_flows_to_probs(self, rng):
        labels = [0, 2, 1]
        w = rng.random(3) + 0.5
        p0 = random_probs(rng, 3, 3)

        def f(x):
            return weighted_cross_entropy(x, labels, w)

        assert finite_difference_check(f, Tensor(p0, requires_grad=True), h=1e-7) < 1e-5


class TestAttentionRegularization:
    def test_zero_mask_literal_is_zero(self, rng):
        a = Tensor(rng.random((4, 4)))
        out = attention_regularization([a], [np.zeros((4, 4))], "literal")
        assert out.item() == 0.0

    def test_uniform_map_full_mask(self):
        g = 4
        a = Tensor(np.full((g, g), 1.0 / g ** 2))
        out = attention_regularization([a], [np.ones((g, g))], "literal")
        assert abs(out.item() - 1.0 / g) < 1e-12

    @pytest.mark.parametrize("mode", ["literal", "focusing"])
    def test_matches_brute_force(self, mode, rng):
        for _ in range(10):
            maps = [rng.random((3, 3)) for _ in range(4)]
            masks = [(rng.random((3, 3)) > 0.5).astype(float) for _ in range(4)]
            got = attention_regularization([Tensor(a) for a in maps], masks, mode).item()
            assert abs(got - brute_force_attn_reg(maps, masks, mode)) < 1e-12
            # the same maps as one stack, and as two runs with an unmasked map between
            for runs in ([4], [2, 2], [1, 3]):
                cuts = np.cumsum(runs)[:-1]
                stacks = np.split(np.stack(maps), cuts)
                mask_stacks = np.split(np.stack(masks), cuts)
                if len(runs) == 2:
                    stacks.insert(1, rng.random((3, 3)))
                    mask_stacks.insert(1, None)
                got = attention_regularization([Tensor(a) for a in stacks], mask_stacks,
                                               mode).item()
                assert abs(got - brute_force_attn_reg(maps, masks, mode)) < 1e-12
            # one stack of five maps with one mask or None per map
            stack = np.insert(np.stack(maps), 2, rng.random((3, 3)), axis=0)
            got = attention_regularization([Tensor(stack)], [masks[:2] + [None] + masks[2:]],
                                           mode).item()
            assert abs(got - brute_force_attn_reg(maps, masks, mode)) < 1e-12

    @pytest.mark.parametrize("mode", ["literal", "focusing"])
    def test_gradient_matches_finite_differences(self, mode, rng):
        mask = (rng.random((3, 3)) > 0.5).astype(float)

        def f(a):
            return attention_regularization([a], [mask], mode)

        a0 = Tensor(rng.random((3, 3)) + 0.1, requires_grad=True)
        assert finite_difference_check(f, a0) < 1e-5

        # one stack of four maps
        masks = (rng.random((4, 3, 3)) > 0.5).astype(float)

        def f_stack(a):
            return attention_regularization([a], [masks], mode)

        assert finite_difference_check(
            f_stack, Tensor(rng.random((4, 3, 3)) + 0.1, requires_grad=True)) < 1e-5

        # two runs of a batch's flat focus rows, as the train step slices them,
        # with row 2 unmasked
        def f_runs(x):
            runs = [ad.reshape(ad.slice_rows(x, lo, hi), (hi - lo, 3, 3))
                    for lo, hi in ((0, 2), (3, 5))]
            return attention_regularization(runs, [masks[:2], masks[2:]], mode)

        assert finite_difference_check(
            f_runs, Tensor(rng.random((5, 9)) + 0.1, requires_grad=True)) < 1e-5

        # the same five maps as one stack, with one mask or None per map
        def f_list(x):
            return attention_regularization([ad.reshape(x, (5, 3, 3))],
                                            [[*masks[:2], None, *masks[2:]]], mode)

        assert finite_difference_check(
            f_list, Tensor(rng.random((5, 9)) + 0.1, requires_grad=True)) < 1e-5

    @pytest.mark.parametrize("mode", ["literal", "focusing"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_list_gradient_equals_the_run_split_gradient(self, dtype, mode, rng):
        # flat focus rows 0-1 and 3-4 masked, row 2 not: the stack with a
        # mask list and the two runs sliced around row 2 give the same bits
        x = Tensor(rng.random((5, 9)).astype(dtype), requires_grad=True)
        masks = list(rng.random((4, 3, 3)) > 0.5)

        def grad(build):
            with Tape() as tape:
                tape.backward(build())
                return tape.grad(x)

        got = grad(lambda: attention_regularization(
            [ad.reshape(x, (5, 3, 3))], [[*masks[:2], None, *masks[2:]]], mode))
        want = grad(lambda: attention_regularization(
            [ad.reshape(ad.slice_rows(x, lo, hi), (2, 3, 3)) for lo, hi in ((0, 2), (3, 5))],
            [np.stack(masks[:2]), np.stack(masks[2:])], mode))
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["literal", "focusing"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_an_unmasked_maps_gradient_is_positive_zero(self, dtype, mode, rng):
        # its norm is sqrt(0), whose backward is clamped at 1e-12 and then
        # multiplied by the map's zero gated entries
        a = Tensor(rng.random((3, 4, 4)).astype(dtype), requires_grad=True)
        with Tape() as tape:
            tape.backward(attention_regularization(
                [a], [[rng.random((4, 4)), None, rng.random((4, 4))]], mode))
            g = tape.grad(a)
        assert g[1].tobytes() == np.zeros((4, 4), dtype).tobytes()
        assert np.all(g[[0, 2]] != 0)

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_mask_list_of_another_length_than_the_stack_is_refused(self, n, rng):
        with pytest.raises(DimensionError):
            attention_regularization([Tensor(rng.random((3, 2, 2)))],
                                     [[np.ones((2, 2))] * n])

    @pytest.mark.parametrize("mode", ["literal", "focusing"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_entry_gradient_equals_the_list_gradients(self, dtype, mode, rng):
        maps = rng.random((8, 4, 4)).astype(dtype)
        masks = rng.random((8, 4, 4))

        def grads(entries, entry_masks):
            with Tape() as tape:
                tape.backward(attention_regularization(entries, entry_masks, mode))
                return [tape.grad(a) for a in entries]

        (got,) = grads([Tensor(maps, requires_grad=True)], [masks])
        want = grads([Tensor(a, requires_grad=True) for a in maps], list(masks))
        assert got.dtype == dtype
        assert np.array_equal(got, np.stack(want))

    def test_missing_masks_are_excluded_from_mean(self, rng):
        a1, a2 = rng.random((2, 2)), rng.random((2, 2))
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        with_gap = attention_regularization(
            [Tensor(a1), Tensor(a2)], [m, None], "literal").item()
        alone = attention_regularization([Tensor(a1)], [m], "literal").item()
        assert abs(with_gap - alone) < 1e-15

    def test_all_masks_missing_gives_zero(self, rng):
        out = attention_regularization([Tensor(rng.random((2, 2)))], [None], "focusing")
        assert out.item() == 0.0

    def test_focusing_rewards_mass_inside_mask(self):
        mask = np.zeros((2, 2))
        mask[0, 0] = 1.0
        spread = np.full((2, 2), 0.25)
        inside = np.array([[0.7, 0.1], [0.1, 0.1]])
        l_spread = attention_regularization([Tensor(spread)], [mask], "focusing").item()
        l_inside = attention_regularization([Tensor(inside)], [mask], "focusing").item()
        assert l_inside < l_spread

    def test_literal_penalizes_mass_inside_mask(self):
        # minimizing the verbatim form pushes attention away from the mask
        mask = np.zeros((2, 2))
        mask[0, 0] = 1.0
        spread = np.full((2, 2), 0.25)
        inside = np.array([[0.7, 0.1], [0.1, 0.1]])
        l_spread = attention_regularization([Tensor(spread)], [mask], "literal").item()
        l_inside = attention_regularization([Tensor(inside)], [mask], "literal").item()
        assert l_inside > l_spread

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            attention_regularization([], [], "other")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_mask_gives_a_zero_in_the_maps_dtype(self, dtype):
        maps = [Tensor(np.full((2, 2, 2), 0.25, dtype=dtype), requires_grad=True)]
        l_attn = attention_regularization(maps, [None])
        assert l_attn.dtype == dtype and l_attn.item() == 0.0
        total, _ = total_loss(Tensor(np.ones((1, 1), dtype=dtype)), l_attn, 0.1)
        assert total.dtype == dtype


class TestTotalLoss:
    def test_lambda_zero(self):
        total, br = total_loss(Tensor([[1.5]]), Tensor([[0.7]]), 0.0)
        assert total.item() == 1.5 and br.total == 1.5

    def test_zero_attention_term(self):
        total, br = total_loss(Tensor([[1.5]]), Tensor([[0.0]]), 0.3)
        assert total.item() == 1.5

    def test_arithmetic(self):
        total, br = total_loss(Tensor([[1.0]]), Tensor([[0.5]]), 0.1)
        assert abs(total.item() - 1.05) < 1e-15
        assert br.total == br.l_ce + br.lambda_attn * br.l_attn

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            total_loss(Tensor([[1.0]]), Tensor([[0.5]]), -0.1)
