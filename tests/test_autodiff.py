import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lesionformer import autodiff as ad
from lesionformer import losses, model
from lesionformer.autodiff import (DimensionError, NumericError, Tape,
                                   TapeError, Tensor, finite_difference_check)
from lesionformer.data import SynthConfig, synth_generate
from lesionformer.training import TrainConfig, init_adam, train_step


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(t(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_selector_row(self):
        out = ad.matmul(t([[1.0, 0.0]]), t([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            ad.matmul(t(np.zeros((3, 4))), t(np.zeros((3, 2))))

    def test_gradient_matches_finite_differences(self, rng):
        b = t(rng.standard_normal((4, 2)), grad=False)

        def f(x):
            return ad.sum_all(ad.matmul(x, b))

        err = finite_difference_check(f, t(rng.standard_normal((3, 4))))
        assert err < 1e-6


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = ad.softmax_rows(t([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3])

    def test_stability_under_max_shift(self):
        out = ad.softmax_rows(t([[1000.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-300)

    def test_row_sums_and_jacobian(self, rng):
        x = t(rng.standard_normal((4, 5)))
        out = ad.softmax_rows(x)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-6)
        w = rng.standard_normal((4, 5))

        def f(v):
            return ad.sum_all(ad.mul(ad.softmax_rows(v), Tensor(w)))

        assert finite_difference_check(f, x) < 1e-6

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3),
                    min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_at_large_magnitudes(self, row):
        out = ad.softmax_rows(t([row]))
        assert abs(out.data.sum() - 1.0) < 1e-6
        assert np.all(out.data >= 0)


class TestElementwise:
    def test_hadamard_identity_and_annihilator(self, rng):
        a = t(rng.standard_normal((3, 3)))
        np.testing.assert_array_equal(ad.mul(a, t(np.ones((3, 3)))).data, a.data)
        np.testing.assert_array_equal(ad.mul(a, t(np.zeros((3, 3)))).data,
                                      np.zeros((3, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(t(np.zeros((2, 2))), t(np.zeros((2, 3))))

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_gradients(self, op, rng):
        b = t(rng.standard_normal((3, 4)), grad=False)

        def f(x):
            return ad.sum_all(ad.mul(op(x, b), x))

        assert finite_difference_check(f, t(rng.standard_normal((3, 4)))) < 1e-6

    def test_scale_by_constant_gradient(self, rng):
        def f(x):
            return ad.sum_all(ad.scale(x, 2.5))

        assert finite_difference_check(f, t(rng.standard_normal((2, 3)))) < 1e-6


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        out = ad.layer_norm(t([[3.0, 3.0, 3.0]]), t(np.ones((1, 3))),
                            t(np.zeros((1, 3))))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-12)

    def test_already_normalized_row(self):
        out = ad.layer_norm(t([[1.0, -1.0]]), t(np.ones((1, 2))),
                            t(np.zeros((1, 2))))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)

    def test_row_statistics(self, rng):
        x = rng.standard_normal((5, 8))
        out = ad.layer_norm(t(x), t(np.ones((1, 8))), t(np.zeros((1, 8))))
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(5), atol=1e-5)
        np.testing.assert_allclose(out.data.var(axis=1), np.ones(5), atol=1e-4)

    def test_gradient(self, rng):
        gain = t(rng.standard_normal((1, 6)), grad=False)
        bias = t(rng.standard_normal((1, 6)), grad=False)
        w = rng.standard_normal((4, 6))

        def f(x):
            return ad.sum_all(ad.mul(ad.layer_norm(x, gain, bias), Tensor(w)))

        assert finite_difference_check(f, t(rng.standard_normal((4, 6)))) < 1e-5

    def test_gain_bias_gradients(self, rng):
        x = t(rng.standard_normal((4, 6)), grad=False)
        w = rng.standard_normal((4, 6))
        bias = t(np.zeros((1, 6)), grad=False)

        def f(g):
            return ad.sum_all(ad.mul(ad.layer_norm(x, g, bias), Tensor(w)))

        assert finite_difference_check(f, t(rng.standard_normal((1, 6)))) < 1e-5


class TestGelu:
    def test_zero(self):
        assert ad.gelu(t([[0.0]])).item() == 0.0

    def test_asymptotes(self):
        assert abs(ad.gelu(t([[20.0]])).item() - 20.0) < 1e-8
        assert abs(ad.gelu(t([[-20.0]])).item()) < 1e-8

    def test_gradient_on_grid(self):
        grid = np.linspace(-3, 3, 13).reshape(1, 13)

        def f(x):
            return ad.sum_all(ad.gelu(x))

        assert finite_difference_check(f, t(grid)) < 1e-5


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = t(rng.standard_normal((3, 4)))
        with Tape() as tape:
            tape.backward(ad.sum_all(x))
            np.testing.assert_array_equal(tape.grad(x), np.ones((3, 4)))

    def test_quadratic_gradient_is_x(self, rng):
        x = t(rng.standard_normal((4, 1)))
        with Tape() as tape:
            loss = ad.scale(ad.sum_all(ad.mul(x, x)), 0.5)
            tape.backward(loss)
            np.testing.assert_allclose(tape.grad(x), x.data, atol=1e-12)

    def test_unused_parameter_gets_exact_zeros(self, rng):
        x = t(rng.standard_normal((2, 2)))
        unused = t(rng.standard_normal((2, 2)))
        with Tape() as tape:
            tape.backward(ad.sum_all(x))
            assert np.array_equal(tape.grad(unused), np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self, rng):
        x = t(rng.standard_normal((2, 2)))
        with Tape() as tape:
            y = ad.scale(x, 2.0)
            with pytest.raises(TapeError):
                tape.backward(y)

    def test_loss_not_on_tape_rejected(self):
        x = t([[1.0]])
        with Tape() as tape:
            with pytest.raises(TapeError):
                tape.backward(x)

    def test_linearity_of_backward(self, rng):
        x = t(rng.standard_normal((4, 4)))
        w1 = Tensor(rng.standard_normal((4, 4)))
        w2 = Tensor(rng.standard_normal((4, 4)))

        def grad_of(build):
            with Tape() as tape:
                tape.backward(build())
                return tape.grad(x).copy()

        gf = grad_of(lambda: ad.sum_all(ad.mul(x, w1)))
        gg = grad_of(lambda: ad.sum_all(ad.matmul(x, w2)))
        gsum = grad_of(lambda: ad.add(ad.sum_all(ad.mul(x, w1)),
                                      ad.sum_all(ad.matmul(x, w2))))
        np.testing.assert_allclose(gsum, gf + gg, atol=1e-12)

    def test_determinism(self, rng):
        x = t(rng.standard_normal((4, 4)))

        def run():
            with Tape() as tape:
                y = ad.sum_all(ad.gelu(ad.matmul(x, x)))
                tape.backward(y)
                return y.item(), tape.grad(x).copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_nan_forward_is_an_error(self):
        with pytest.raises(NumericError), pytest.warns(RuntimeWarning, match="overflow"):
            ad.scale(t([[1e308]]), 1e308)


class TestTapePerThread:
    def test_nested_tape_in_one_thread_rejected(self):
        with Tape():
            with pytest.raises(TapeError):
                with Tape():
                    pass

    def test_threads_record_on_their_own_tapes(self, rng):
        n = 4  # more threads than a small host has cores, so they preempt
        xs = [t(rng.standard_normal((3, 4))) for _ in range(n)]
        w = t(rng.standard_normal((4, 4)))  # shared, like model parameters

        def grads(x, midway=lambda: None):
            with Tape() as tape:
                h = ad.matmul(x, w)
                midway()  # every thread holds an open tape here
                tape.backward(ad.sum_all(ad.mul(h, h)))
                return tape.grad(x).copy(), tape.grad(w).copy()

        expected = [grads(x) for x in xs]
        barrier = threading.Barrier(n, timeout=30)
        results, errors = [None] * n, []

        def work(i):
            try:
                results[i] = grads(xs[i], barrier.wait)
            except Exception as e:  # reported below, after all joined
                errors.append(e)
                barrier.abort()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        for got, want in zip(results, expected):
            assert all(np.array_equal(g, e) for g, e in zip(got, want))


class TestFiniteDifferenceCheck:
    def test_sum_is_exact(self, rng):
        # integer entries and a power-of-two step keep every difference exact
        x = t(rng.integers(-8, 8, size=(3, 3)).astype(np.float64))
        assert finite_difference_check(ad.sum_all, x, h=0.25) == 0.0

    def test_half_norm_squared(self):
        def f(x):
            return ad.scale(ad.sum_all(ad.mul(x, x)), 0.5)

        x = t([[3.0]])
        assert finite_difference_check(f, x, h=1e-5) < 1e-9

    def test_attention_block_self_oracle(self, rng):
        k = Tensor(rng.standard_normal((4, 3)))
        v = Tensor(rng.standard_normal((4, 3)))
        w = rng.standard_normal((4, 3))

        def f(q):
            scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1 / np.sqrt(3))
            out = ad.matmul(ad.softmax_rows(scores), v)
            return ad.sum_all(ad.mul(out, Tensor(w)))

        assert finite_difference_check(f, t(rng.standard_normal((4, 3))), h=1e-5) < 1e-4


class TestStructuralOps:
    @pytest.mark.parametrize("build", [
        lambda x: ad.transpose(x),
        lambda x: ad.reshape(x, (2, 8)),
        lambda x: ad.slice_rows(x, 1, 3),
        lambda x: ad.slice_cols(x, 0, 2),
        lambda x: ad.concat_rows([x, x]),
        lambda x: ad.concat_cols([x, ad.scale(x, 2.0)]),
        lambda x: ad.sqrt(ad.mul(x, x)),
        lambda x: ad.pool_grid(x, 2, 2),
    ])
    def test_gradients(self, build, rng):
        shape = (4, 4)
        w = rng.standard_normal(2)

        def f(x):
            out = build(x)
            return ad.scale(ad.sum_all(ad.mul(out, out)), w[0])

        assert finite_difference_check(f, t(rng.standard_normal(shape) + 3.0)) < 1e-5

    def test_pool_grid_averages_blocks(self):
        x = t(np.arange(16.0).reshape(16, 1))
        out = ad.pool_grid(x, 4, 2)
        grid = np.arange(16.0).reshape(4, 4)
        expected = grid.reshape(2, 2, 2, 2).mean(axis=(1, 3)).reshape(4, 1)
        np.testing.assert_array_equal(out.data, expected)

    def test_scale_by_and_div_by_gradients(self, rng):
        s = t(np.array([[2.0]]))
        a = rng.standard_normal((3, 3))

        def f(x):
            return ad.sum_all(ad.div_by(ad.scale_by(Tensor(a), x), ad.sum_all(x)))

        assert finite_difference_check(f, s) < 1e-6

    def test_per_op_random_shapes(self, rng):
        # every differentiable op individually, randomized shapes up to 8x8
        for _ in range(5):
            m, n = (int(v) for v in rng.integers(2, 9, size=2))
            w = rng.standard_normal((m, n))
            b = Tensor(rng.standard_normal((n, n)))
            c = Tensor(rng.standard_normal((m, n)))
            gain, bias = Tensor(np.ones((1, n))), Tensor(np.zeros((1, n)))
            builders = [
                lambda v: ad.matmul(v, b),
                ad.softmax_rows,
                lambda v: ad.layer_norm(v, gain, bias),
                ad.gelu,
                lambda v: ad.mul(v, c),
            ]
            for build in builders:
                def f(v):
                    return ad.sum_all(ad.mul(build(v), Tensor(w)))

                x = t(rng.standard_normal((m, n)))
                assert finite_difference_check(f, x) < 1e-5


def no_grad(g):
    return ()


class TestFiniteGuard:
    @pytest.mark.parametrize("values", [[[np.nan, 1.0]], [[np.inf, 1.0]],
                                        [[-np.inf, 1.0]], [[np.inf, -np.inf]]])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_raises_naming_the_op(self, values, dtype):
        with pytest.raises(NumericError, match="probe_op"):
            ad.custom_op(np.array(values, dtype=dtype), (), no_grad, "probe_op")

    @pytest.mark.parametrize("values, dtype", [([[1e308, 1e308]], np.float64),
                                               ([[3e38, 3e38]], np.float32)])
    def test_finite_values_whose_sum_overflows_pass(self, values, dtype):
        arr = np.array(values, dtype=dtype)
        with np.errstate(over="ignore"):
            assert not np.isfinite(arr.sum())
        assert not math.isfinite(np.vdot(arr, arr))
        out = ad.custom_op(arr, (), no_grad, "probe_op")
        np.testing.assert_array_equal(out.data, arr)
        assert out.dtype == dtype

    # finite values whose squares overflow the guard's dot product
    SQUARE_OVERFLOW = {np.float32: 1e20, np.float64: 1e200}

    @classmethod
    def finite_arrays(cls, dtype):
        """1 to 600 elements, C-contiguous or a transposed view, including
        +/-dtype max and values whose squares overflow."""
        top, big = float(np.finfo(dtype).max), cls.SQUARE_OVERFLOW[dtype]
        elements = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False,
                      width=np.finfo(dtype).bits),
            st.sampled_from([top, -top, big, -big]))
        shapes = st.tuples(st.integers(1, 24), st.integers(1, 25))
        return st.tuples(arrays(dtype, shapes, elements=elements), st.booleans()).map(
            lambda drawn: drawn[0].T if drawn[1] else drawn[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_finite_draws_pass_unchanged(self, dtype, data):
        arr = data.draw(self.finite_arrays(dtype))
        before = arr.tobytes()
        out = ad.custom_op(arr, (), no_grad, "probe_op")
        assert out.dtype == dtype
        assert out.data.tobytes() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_one_non_finite_element_raises_naming_the_op(self, dtype, data):
        arr = data.draw(self.finite_arrays(dtype))
        pos = data.draw(st.integers(0, arr.size - 1))
        arr[np.unravel_index(pos, arr.shape)] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(NumericError, match="probe_op"):
            ad.custom_op(arr, (), no_grad, "probe_op")


class TestOpDtype:
    """Every public op returns a fresh array of its inputs' dtype; the
    output tensor holds it as the op made it."""

    # each case builds its op from make(*shape), a tensor of positive values
    CASES = {
        "matmul": lambda make: ad.matmul(make(2, 3, 4), make(4, 5)),
        "matmul_stack": lambda make: ad.matmul(make(2, 3, 4), make(2, 4, 5)),
        "transpose": lambda make: ad.transpose(make(3, 4)),
        "add": lambda make: ad.add(make(2, 3, 4), make(3, 4)),
        "mul": lambda make: ad.mul(make(3, 4), make(3, 4)),
        "scale": lambda make: ad.scale(make(3, 4), 0.5),
        "scale_by": lambda make: ad.scale_by(make(3, 4), make(1, 1)),
        "div_by": lambda make: ad.div_by(make(3, 4), make(1, 1)),
        "div_by_stack": lambda make: ad.div_by(make(2, 3, 4), make(2, 1, 1)),
        "add_rowvec": lambda make: ad.add_rowvec(make(3, 4), make(1, 4)),
        "reshape": lambda make: ad.reshape(make(3, 4), (4, 3)),
        "slice_rows": lambda make: ad.slice_rows(make(3, 4), 1, 3),
        "slice_cols": lambda make: ad.slice_cols(make(3, 4), 1, 3),
        "concat_rows": lambda make: ad.concat_rows([make(1, 4), make(2, 3, 4)]),
        "concat_cols": lambda make: ad.concat_cols([make(3, 4), make(3, 2)]),
        "sum_all": lambda make: ad.sum_all(make(3, 4)),
        "sqrt": lambda make: ad.sqrt(make(3, 4)),
        "softmax_rows": lambda make: ad.softmax_rows(make(3, 4)),
        "attention_weights": lambda make: ad.attention_weights(make(3, 4), make(4, 5), 0.5),
        "layer_norm": lambda make: ad.layer_norm(make(3, 4), make(1, 4), make(1, 4)),
        "gelu": lambda make: ad.gelu(make(3, 4)),
        "pool_grid": lambda make: ad.pool_grid(make(4, 3), 2, 2),
        "pool_grid_identity": lambda make: ad.pool_grid(make(4, 3), 2, 1),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_keeps_the_input_dtype(self, case, dtype, rng):
        inputs = []

        def make(*shape):
            inputs.append(Tensor((rng.random(shape) + 0.5).astype(dtype),
                                 requires_grad=True))
            return inputs[-1]

        out = self.CASES[case](make)
        assert type(out.data) is np.ndarray
        assert out.dtype == dtype
        assert not any(np.shares_memory(out.data, x.data) for x in inputs)


class TestGeluReference:
    GRID = np.concatenate([np.linspace(-12.0, 12.0, 481),
                           [-100.0, -30.0, -10.0, 10.0, 30.0, 100.0]]).reshape(1, -1)

    @staticmethod
    def reference(x):
        c = math.sqrt(2.0 / math.pi)
        return 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x ** 3)))

    def test_float64_matches_reference(self):
        x = self.GRID.astype(np.float64)
        out = ad.gelu(t(x)).data
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, self.reference(x), rtol=1e-14, atol=0)

    def test_float32_matches_reference_and_keeps_dtype(self):
        x = self.GRID.astype(np.float32)
        out = ad.gelu(Tensor(x, requires_grad=True)).data
        ref = self.reference(x)
        assert out.dtype == np.float32 and ref.dtype == np.float32
        # for x < 0 the factor (1 + tanh) cancels, so one float32 ulp of
        # difference in the cube shows up as an absolute error near eps
        np.testing.assert_allclose(out, ref, rtol=1e-6,
                                   atol=np.finfo(np.float32).eps)


def weighted_sum(out):
    """A scalar of ``out`` with fixed random weights, for any shape."""
    w = np.random.default_rng(11).standard_normal(out.shape)
    return ad.sum_all(ad.reshape(ad.mul(out, Tensor(w)), (1, -1)))


class TestStackedOps:
    """Every op on a (2, n, d) stack equals the op on each matrix alone, and
    its gradients pass the finite-difference oracle."""

    R = np.random.default_rng(5)
    W = R.standard_normal((3, 5))           # a 2-D weight
    Y = R.standard_normal((2, 3, 4))        # a stack with equal leading axes
    ROW = R.standard_normal((1, 3))         # a row vector / a shared row
    GAIN = R.standard_normal((1, 3))
    MAT = R.standard_normal((4, 3))         # a shared matrix

    # build(x, y): x is the stack or one of its matrices, y is Y or its
    # matching matrix
    CASES = {
        "matmul_weight": lambda x, y: ad.matmul(x, t(TestStackedOps.W)),
        "matmul_stack": lambda x, y: ad.matmul(x, t(y)),
        "transpose": lambda x, y: ad.transpose(x),
        "slice_rows": lambda x, y: ad.slice_rows(x, 1, 3),
        "slice_cols": lambda x, y: ad.slice_cols(x, 1, 3),
        "concat_rows_shared": lambda x, y: ad.concat_rows([t(TestStackedOps.ROW), x]),
        "concat_cols": lambda x, y: ad.concat_cols([x, ad.scale(x, 2.0)]),
        "pool_grid": lambda x, y: ad.pool_grid(x, 2, 2),
        "softmax_rows": lambda x, y: ad.softmax_rows(x),
        "layer_norm": lambda x, y: ad.layer_norm(x, t(TestStackedOps.GAIN),
                                                 t(TestStackedOps.ROW)),
        "add_rowvec": lambda x, y: ad.add_rowvec(x, t(TestStackedOps.ROW)),
        "add_shared": lambda x, y: ad.add(x, t(TestStackedOps.MAT)),
        "sum_all": lambda x, y: ad.sum_all(x),
        "div_by_own_sum": lambda x, y: ad.div_by(x, ad.sum_all(x)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equals_per_matrix_with_gradient(self, name, rng):
        x = rng.standard_normal((2, 4, 3)) + 3.0
        out = self.CASES[name](t(x), self.Y)
        ref = np.stack([self.CASES[name](t(x[i]), self.Y[i]).data for i in range(2)])
        assert out.shape == ref.shape
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-15)
        assert finite_difference_check(
            lambda v: weighted_sum(self.CASES[name](v, self.Y)), t(x)) < 1e-5

    def test_flattened_matmul_weight_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 3)))
        assert finite_difference_check(
            lambda w: weighted_sum(ad.matmul(x, w)), t(self.W)) < 1e-5

    def test_stack_times_stack_gradient_wrt_right_operand(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 3)))
        assert finite_difference_check(
            lambda y: weighted_sum(ad.matmul(x, y)), t(self.Y)) < 1e-5

    @pytest.mark.parametrize("build", [
        lambda x, p: ad.add(x, p),
        lambda x, p: ad.concat_rows([p, x, p]),
        lambda x, p: ad.layer_norm(x, ad.slice_rows(p, 0, 1), ad.slice_rows(p, 1, 2)),
        lambda x, p: ad.add_rowvec(x, ad.slice_rows(p, 2, 3)),
    ], ids=["add", "concat_rows", "layer_norm_gain_bias", "add_rowvec"])
    def test_shared_operand_gradient_sums_over_the_stack(self, build, rng):
        x = Tensor(rng.standard_normal((2, 4, 3)))
        p = t(rng.standard_normal((4, 3)))
        assert finite_difference_check(lambda v: weighted_sum(build(x, v)), p) < 1e-5

    def test_div_by_each_matrix_by_its_own_entry(self, rng):
        a = rng.standard_normal((2, 1, 4))
        s = t(np.array([[[2.0]], [[-3.0]]]))
        out = ad.div_by(Tensor(a), s)
        np.testing.assert_array_equal(out.data, np.stack([a[0] / 2.0, a[1] / -3.0]))
        assert finite_difference_check(
            lambda v: weighted_sum(ad.div_by(Tensor(a), v)), s) < 1e-6

    def test_sum_all_gives_one_entry_per_matrix(self, rng):
        x = rng.standard_normal((2, 4, 3))
        out = ad.sum_all(t(x))
        assert out.shape == (2, 1, 1)
        np.testing.assert_allclose(out.data.ravel(), x.sum(axis=(1, 2)), rtol=1e-12)

    @pytest.mark.parametrize("op, good, bad", [
        (ad.matmul, ((2, 4, 3), (2, 3, 4)), ((2, 4, 3), (3, 3, 4))),
        (ad.matmul, ((2, 4, 3), (3, 4)), ((4, 3), (2, 3, 4))),
        (ad.add, ((2, 4, 3), (4, 3)), ((2, 4, 3), (1, 3))),
        (ad.add, ((2, 4, 3), (4, 3)), ((4, 3), (2, 4, 3))),
        (ad.div_by, ((2, 1, 4), (2, 1, 1)), ((2, 1, 4), (3, 1, 1))),
        (ad.add_rowvec, ((2, 4, 3), (1, 3)), ((2, 4, 3), (2, 1, 3))),
    ])
    def test_stack_shapes_accepted_and_mismatches_rejected(self, op, good, bad):
        assert op(*(Tensor(np.ones(s)) for s in good)).shape[0] == 2
        with pytest.raises(DimensionError):
            op(*(Tensor(np.ones(s)) for s in bad))


class TestFirstGradient:
    """The first gradient a tensor receives is stored as its op returned it
    and later ones are added out of place, so a stored gradient that is the
    incoming one, a view or another input's array must stay as it was."""

    W = np.random.default_rng(3).standard_normal((4, 2))

    def test_add_of_a_tensor_to_itself(self, rng):
        x = t(rng.standard_normal((3, 2)))
        with Tape() as tape:
            y = ad.add(x, x)
            tape.backward(ad.sum_all(y))
            np.testing.assert_array_equal(tape.grad(x), np.full((3, 2), 2.0))
            np.testing.assert_array_equal(tape.grad(y), np.ones((3, 2)))

    def test_op_that_returns_the_incoming_gradient(self, rng):
        # pool_grid with window 1 hands back its incoming gradient; x's later
        # gradient must not leak into the intermediate p
        x = t(rng.standard_normal((4, 2)))
        w2 = rng.standard_normal((4, 2))
        with Tape() as tape:
            a = ad.sum_all(ad.mul(x, Tensor(w2)))
            p = ad.pool_grid(x, 2, 1)
            tape.backward(ad.add(a, ad.sum_all(ad.mul(p, Tensor(self.W)))))
            np.testing.assert_array_equal(tape.grad(p), self.W)
            np.testing.assert_array_equal(tape.grad(x), self.W + w2)

    def test_broadcast_sum_all_gradient(self, rng):
        # a stack's sum_all hands back a read-only broadcast view
        x = t(rng.standard_normal((2, 3, 4)))
        w = rng.standard_normal((2, 3, 4))
        with Tape() as tape:
            a = ad.sum_all(ad.reshape(ad.mul(x, Tensor(w)), (1, -1)))
            s = ad.sum_all(ad.reshape(ad.sum_all(x), (1, 2)))
            tape.backward(ad.add(a, s))
            np.testing.assert_array_equal(tape.grad(x), w + 1.0)

    def test_one_array_handed_to_two_inputs(self, rng):
        a, b = t(rng.standard_normal((4, 2))), t(rng.standard_normal((4, 2)))

        def backward(g):
            both = g * 1.0
            return (both, both)

        with Tape() as tape:
            first = ad.sum_all(ad.mul(a, Tensor(self.W)))
            both = ad.custom_op(a.data + b.data, (a, b), backward, "both")
            tape.backward(ad.add(first, ad.sum_all(both)))
            np.testing.assert_array_equal(tape.grad(b), np.ones((4, 2)))
            np.testing.assert_array_equal(tape.grad(a), self.W + 1.0)


def frozen_gradient(x, g):
    """``x`` again, with ``g`` made read-only as the gradient handed back."""
    def backward(_):
        frozen = g.copy()
        frozen.setflags(write=False)
        return (frozen,)

    return ad.custom_op(x.data.copy(), (x,), backward, "frozen_gradient")


class TestReadOnlyIncomingGradient:
    """A stored gradient may be read-only (sum_all hands back a broadcast
    view), so no backward may write into its incoming gradient: each op
    gives the same gradients whether that array is writable or not."""

    R = np.random.default_rng(8)
    X = R.standard_normal((2, 4, 4)) + 3.0  # positive, for sqrt
    M = R.standard_normal((4, 4))

    OPS = {
        "matmul_rows": lambda x: ad.matmul(x, t(TestReadOnlyIncomingGradient.M)),
        "matmul_stack": lambda x: ad.matmul(x, t(TestReadOnlyIncomingGradient.X)),
        "transpose": ad.transpose,
        "add": lambda x: ad.add(x, t(TestReadOnlyIncomingGradient.X)),
        "add_shared": lambda x: ad.add(x, t(TestReadOnlyIncomingGradient.M)),
        "mul": lambda x: ad.mul(x, t(TestReadOnlyIncomingGradient.X)),
        "scale": lambda x: ad.scale(x, 2.5),
        "scale_by": lambda x: ad.scale_by(x, t([[1.5]])),
        "div_by_scalar": lambda x: ad.div_by(x, t([[1.5]])),
        "div_by_stack": lambda x: ad.div_by(x, t([[[1.5]], [[-2.0]]])),
        "add_rowvec": lambda x: ad.add_rowvec(x, t(TestReadOnlyIncomingGradient.M[:1])),
        "reshape": lambda x: ad.reshape(x, (4, 8)),
        "slice_rows": lambda x: ad.slice_rows(x, 1, 3),
        "slice_cols": lambda x: ad.slice_cols(x, 1, 3),
        "concat_rows": lambda x: ad.concat_rows([t(TestReadOnlyIncomingGradient.M), x]),
        "concat_cols": lambda x: ad.concat_cols([x, x]),
        "sum_all_matrix": lambda x: ad.sum_all(ad.reshape(x, (4, 8))),
        "sum_all_stack": ad.sum_all,
        "sqrt": ad.sqrt,
        "softmax_rows": ad.softmax_rows,
        "attention_weights": lambda x: ad.attention_weights(
            x, t(TestReadOnlyIncomingGradient.X), 0.5),
        "layer_norm": lambda x: ad.layer_norm(x, t(TestReadOnlyIncomingGradient.M[:1]),
                                              t(TestReadOnlyIncomingGradient.M[1:2])),
        "gelu": ad.gelu,
        "pool_grid": lambda x: ad.pool_grid(ad.reshape(x, (2, 16, 1)), 4, 2),
        "weighted_cross_entropy": lambda x: losses.weighted_cross_entropy(
            ad.softmax_rows(ad.reshape(x, (4, 8))), [0, 2, 1, 7],
            losses.class_weights(np.full(8, 1 / 8), 1e-6)),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_same_gradients_as_with_a_writable_gradient(self, name):
        grads = []
        for read_only in (False, True):
            x = t(self.X)
            with Tape() as tape:
                out = self.OPS[name](x)
                g = np.random.default_rng(9).standard_normal(out.shape)
                if read_only:
                    out = frozen_gradient(out, g)
                else:
                    out = ad.mul(out, Tensor(g))
                tape.backward(ad.sum_all(ad.reshape(out, (1, -1))))
                grads.append(tape.grad(x).tobytes())
        assert grads[0] == grads[1]


def attention_chain(q, kt, c):
    return ad.softmax_rows(ad.scale(ad.matmul(q, kt), c))


class TestAttentionWeights:
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_the_chain(self, dtype, lead, rng):
        q0 = rng.standard_normal(lead + (65, 8)).astype(dtype)
        k0 = rng.standard_normal(lead + (8, 17)).astype(dtype)
        w = Tensor(rng.standard_normal(lead + (65, 17)).astype(dtype))
        results = []
        for op in (ad.attention_weights, attention_chain):
            q = Tensor(q0.copy(), requires_grad=True)
            kt = Tensor(k0.copy(), requires_grad=True)
            with Tape() as tape:
                y = op(q, kt, 1.0 / math.sqrt(8))
                tape.backward(ad.sum_all(ad.reshape(ad.mul(y, w), (1, -1))))
                results.append((y.data, tape.grad(q), tape.grad(kt)))
        for fused, chain in zip(*results):
            assert fused.dtype == chain.dtype == dtype
            assert fused.shape == chain.shape
            assert fused.tobytes() == chain.tobytes()

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    def test_gradients_match_finite_differences(self, lead, rng):
        q0 = rng.standard_normal(lead + (5, 3))
        k0 = rng.standard_normal(lead + (3, 4))
        assert finite_difference_check(
            lambda q: weighted_sum(ad.attention_weights(q, t(k0, grad=False), 0.5)),
            t(q0)) < 1e-6
        assert finite_difference_check(
            lambda kt: weighted_sum(ad.attention_weights(t(q0, grad=False), kt, 0.5)),
            t(k0)) < 1e-6

    # row 1 of q times column 0 of kt is the only non-finite score, so for
    # -inf the row max stays finite and the softmax would give an exact 0
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("v", [1e308, -1e308, np.nan], ids=["+inf", "-inf", "nan"])
    def test_non_finite_product_names_the_op(self, v):
        q = t([[1.0, 1.0], [v, 1.0], [1.0, 1.0]])
        kt = t([[10.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(NumericError, match="attention_weights"):
            ad.attention_weights(q, kt, 0.5)

    @pytest.mark.parametrize("qs, ks", [((3, 4), (5, 2)), ((2, 3, 4), (4, 5)),
                                        ((2, 3, 4), (3, 4, 5)), ((4,), (4, 2))])
    def test_shape_mismatch_rejected(self, qs, ks):
        with pytest.raises(DimensionError, match="attention_weights"):
            ad.attention_weights(t(np.ones(qs)), t(np.ones(ks)), 1.0)

    def test_default_train_step_matches_the_chain_bitwise(self, monkeypatch):
        cfg, tcfg = model.ModelConfig(), TrainConfig()
        batch = synth_generate(tcfg.batch_size, SynthConfig(seed=4))
        assert all(s.mask is not None for s in batch)
        weights = losses.class_weights([0.5, 0.25, 0.25], tcfg.weight_epsilon)

        def step():
            params = model.init_params(cfg)
            state = init_adam(params)
            train_step(params, cfg, tcfg, batch, state, weights, tcfg.learning_rate)
            return [a.tobytes() for name, p in params.items()
                    for a in (p.data, state.m[name], state.v[name])]

        fused = step()
        monkeypatch.setattr(model, "attention_weights", attention_chain)
        assert step() == fused
