import dataclasses
import math
import sys
import threading
import warnings
import weakref
from functools import reduce

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


# a tape with no workspace, and one opened on a new workspace
ON_BOTH_TAPES = pytest.mark.parametrize("workspace", [lambda: None, ad.Workspace],
                                        ids=["plain", "workspace"])


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

    # (x's shape, w's shape, y's columns, dtype): shapes at which OpenBLAS
    # rounded the products of a column-slice gradient differently from those
    # of the same gradient row-major
    @pytest.mark.parametrize("x_shape, w_shape, q, dtype", [
        ((27, 32), (32, 1), 32, np.float64),
        ((3, 1), (1, 5), 35, np.float32),
        ((27, 22, 1), (27, 1, 1), 21, np.float32),
    ], ids=["matrix", "matrix_one_column", "stack_times_stack"])
    def test_a_column_slice_gradient_gives_the_row_major_bits(self, x_shape, w_shape, q,
                                                             dtype, rng):
        x, w = (Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                for s in (x_shape, w_shape))
        p = w_shape[-1]
        y = Tensor(rng.standard_normal(x_shape[:-1] + (q,)).astype(dtype))
        c = rng.standard_normal(x_shape[:-1] + (p + q,)).astype(dtype)

        def grads(sliced):
            with Tape() as tape:
                h = ad.matmul(x, w)
                if sliced:  # h's gradient is a column slice of the concat's
                    out, weights = ad.concat_cols([h, y]), c
                else:
                    out, weights = h, np.ascontiguousarray(c[..., :p])
                tape.backward(ad.sum_all(ad.reshape(ad.mul(out, Tensor(weights)), (1, -1))))
                return [tape.grad(v).tobytes() for v in (x, w)]

        assert grads(True) == grads(False)


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

    def test_a_second_backward_on_one_tape_is_refused(self, rng):
        x = t(rng.standard_normal((2, 2)))
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
            tape.backward(loss)
            with pytest.raises(TapeError, match="^backward already ran on this tape$"):
                tape.backward(loss)

    @ON_BOTH_TAPES
    def test_a_tensor_made_after_the_backward_has_no_gradient(self, workspace, rng):
        # no gradient is looked up by id, so a new tensor that takes the
        # place of a freed leaf or of a freed op output gets none of theirs
        x = t(rng.standard_normal((3, 2)))
        with Tape(workspace()) as tape:
            tape.backward(ad.sum_all(ad.scale(ad.scale(x, 2.0), 3.0)))
        del x
        held = [Tensor(np.ones((3, 2)), requires_grad=True) for _ in range(200)]
        assert all(np.array_equal(tape.grad(z), np.zeros((3, 2))) for z in held)

    @ON_BOTH_TAPES
    def test_intermediate_gradients_outlive_the_backward(self, workspace, rng):
        # backward drops each record once it has run, but an op output's
        # gradient lives on the output and a leaf's on the tape
        x = t(rng.standard_normal((3, 2)))
        unused = t(rng.standard_normal((3, 2)))
        with Tape(workspace()) as tape:
            y = ad.scale(x, 3.0)
            s = ad.sum_all(ad.mul(y, y))
            tape.backward(s)
            assert np.array_equal(tape.grad(s), [[1.0]])
            assert np.array_equal(tape.grad(y), y.data + y.data)
            assert np.array_equal(tape.grad(x), (y.data + y.data) * 3.0)
            assert np.array_equal(tape.grad(unused), np.zeros((3, 2)))

    @ON_BOTH_TAPES
    def test_a_tape_frees_an_intermediate_the_caller_dropped(self, workspace, rng):
        x = t(rng.standard_normal((3, 2)))
        with Tape(workspace()) as tape:
            y = ad.scale(x, 3.0)
            freed = weakref.ref(y.data)
            loss = ad.sum_all(ad.mul(y, y))
            del y
            tape.backward(loss)
            assert freed() is None
            y3 = x.data * 3.0
            assert np.array_equal(tape.grad(x), (y3 + y3) * 3.0)


class TestRecordsHoldNodes:
    """A record holds its tensors' nodes and each backward only the arrays it
    reads, so an output no backward reads dies once the caller drops it,
    while its record is still on the tape."""

    # op(x, y, z, w, row) on (2, 4, 4) stacks x, y, z, a 4 x 3 weight w and
    # a 1 x 4 row; the first output is the one no backward reads
    UNREAD = {
        "add": lambda x, y, z, w, row: ad.add(x, y),
        "add_rowvec": lambda x, y, z, w, row: ad.add_rowvec(x, row),
        "scale": lambda x, y, z, w, row: ad.scale(x, 3.0),
        "reshape": lambda x, y, z, w, row: ad.reshape(x, (4, 8)),
        "slice_rows": lambda x, y, z, w, row: ad.slice_rows(x, 1, 3),
        "slice_cols": lambda x, y, z, w, row: ad.slice_cols(x, 1, 3),
        "concat_rows": lambda x, y, z, w, row: ad.concat_rows([x, row]),
        "concat_cols": lambda x, y, z, w, row: ad.concat_cols([x, y]),
        "transpose": lambda x, y, z, w, row: ad.transpose(x),
        "sum_all": lambda x, y, z, w, row: ad.sum_all(x),
        "pool_grid": lambda x, y, z, w, row: ad.pool_grid(x, 2, 2),
        "matmul": lambda x, y, z, w, row: ad.matmul(x, w),
        # the heads' results, then their weights, which the backward reads
        "multi_head_attention": lambda x, y, z, w, row: ad.multi_head_attention(
            x, y, z, 2, 0.5),
    }

    @pytest.mark.parametrize("name", sorted(UNREAD))
    def test_an_output_no_backward_reads_dies_with_its_tensor(self, name):
        def run(drop):
            rng = np.random.default_rng(3)
            inputs = [t(rng.standard_normal(s)) for s in ((2, 4, 4),) * 3 + ((4, 3), (1, 4))]
            with Tape() as tape:
                outs = self.UNREAD[name](*inputs)
                outs = outs if type(outs) is tuple else (outs,)
                arr = outs[0].data
                freed = weakref.ref(arr if arr.base is None else arr.base)
                loss = reduce(ad.add, map(weighted_sum, outs))
                del arr
                if drop:
                    del outs
                dead = freed() is None
                tape.backward(loss)
                return dead, [tape.grad(x).tobytes() for x in inputs]

        (dropped_dead, dropped), (kept_dead, kept) = run(True), run(False)
        assert dropped_dead and not kept_dead
        assert dropped == kept


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


class TestWorkspace:
    """A tape opened on a workspace takes its arrays from one planned arena
    once a kind of step has been recorded."""

    @staticmethod
    def step(x, w, workspace=None, kind=None):
        with Tape(workspace, kind) as tape:
            h = ad.gelu(ad.matmul(x, ad.transpose(w)))
            tape.backward(ad.sum_all(ad.mul(h, ad.add(h, x))))
            return tape.grad(w)

    @staticmethod
    def inputs(rng, rows):
        return t(rng.standard_normal((rows, 16)), grad=False), t(rng.standard_normal((16, 16)))

    def test_a_repeated_step_runs_in_the_arena_with_the_plain_bits(self, rng):
        ws = ad.Workspace()
        x, w = self.inputs(rng, 8)
        want = self.step(x, w).tobytes()
        assert self.step(x, w, ws).tobytes() == want  # the kind's first step records
        assert ws.nbytes > 0
        for _ in range(2):
            g = self.step(x, w, ws)
            assert np.shares_memory(g, ws._arena)
            assert g.tobytes() == want
            del g

    def test_each_kind_of_step_keeps_its_plan(self, rng):
        ws = ad.Workspace()
        fresh = 0
        for rows in (8, 8, 5, 5, 8, 5, 3, 3, 5, 8, 3, 8):
            x, w = self.inputs(rng, rows)
            g = self.step(x, w, ws, rows)
            assert g.tobytes() == self.step(x, w).tobytes()
            fresh += not np.shares_memory(g, ws._arena)
            del g
        assert fresh == 3  # each kind's first step, which records

    def test_a_kind_keeps_its_plan_while_twenty_kinds_step(self, rng):
        ws = ad.Workspace()
        for rows in range(1, 21):
            self.step(*self.inputs(rng, rows), ws, rows)
        x, w = self.inputs(rng, 1)
        g = self.step(x, w, ws, 1)
        assert np.shares_memory(g, ws._arena)
        assert g.tobytes() == self.step(x, w).tobytes()

    def test_a_step_that_leaves_its_plan_gets_fresh_arrays_and_the_next_records(self, rng):
        ws = ad.Workspace()
        fresh = 0
        for rows in (8, 8, 5, 5, 5, 8, 8, 8):  # all of one kind
            x, w = self.inputs(rng, rows)
            g = self.step(x, w, ws)
            assert g.tobytes() == self.step(x, w).tobytes()
            fresh += not np.shares_memory(g, ws._arena)
            del g
        # the recording, a step that leaves, a recording, a step that
        # leaves, a recording
        assert fresh == 5

    def test_other_ops_on_arrays_of_the_same_shapes_leave_the_plan(self, rng):
        ws = ad.Workspace()
        x, w = self.inputs(rng, 8)
        a = t(rng.standard_normal((8, 16)), grad=False)

        def step(extra, workspace=None):
            with Tape(workspace) as tape:
                h = ad.gelu(ad.matmul(x, ad.transpose(w)))
                if extra:  # every request of these ops has the shape of the next ones
                    h = ad.mul(h, ad.gelu(ad.add(h, a)))
                tape.backward(ad.sum_all(ad.mul(h, ad.add(h, x))))
                return tape.grad(w)

        want = {e: step(e).tobytes() for e in (False, True)}
        for extra in (False, False, True, True, False, True):
            assert step(extra, ws).tobytes() == want[extra]

    def test_repeated_steps_build_their_views_once(self, rng, monkeypatch):
        builds, build = [], ad.Workspace._build
        monkeypatch.setattr(ad.Workspace, "_build",
                            lambda ws, plans: builds.append(plans) or build(ws, plans))
        ws = ad.Workspace()
        x, w = self.inputs(rng, 8)
        for _ in range(6):
            self.step(x, w, ws)
            self.step(x, w)  # a plain tape between them
        assert len(builds) == 1

    def test_an_array_kept_past_its_step_is_left_alone(self, rng):
        ws = ad.Workspace()
        x, w = self.inputs(rng, 8)
        self.step(x, w, ws)
        kept = self.step(x, w, ws)
        arena, before = ws._arena, kept.tobytes()
        y, v = self.inputs(rng, 8)
        assert self.step(y, v, ws).tobytes() == self.step(y, v).tobytes()
        assert kept.tobytes() == before
        assert ws._arena is not arena

    def test_a_reused_array_has_the_fresh_arrays_layout(self, rng):
        # transpose hands back a row-major copy of its swapped gradient, so
        # the sum of two, and scale's gradient of it, are row-major when
        # fresh too, as every array the workspace hands out is
        x = t(rng.standard_normal((3, 6, 5)))

        def grad(workspace=None):
            with Tape(workspace) as tape:
                y = ad.scale(x, 2.0)
                a, b = ad.transpose(y), ad.transpose(y)
                tape.backward(ad.sum_all(ad.reshape(ad.mul(ad.gelu(a), b), (1, -1))))
                return tape.grad(x)

        want = grad()
        assert want.flags.c_contiguous
        ws = ad.Workspace()
        for _ in range(3):
            got = grad(ws)
            assert got.strides == want.strides and np.array_equal(got, want)
        assert np.shares_memory(got, ws._arena)

    @pytest.mark.parametrize("seed", range(3))
    def test_column_major_leaves_give_a_replayed_step_the_plain_bits(self, seed):
        # the leaves are stored row-major, so no op's fresh result takes a
        # column-major layout that the workspace's row-major arrays lack
        rng = np.random.default_rng(seed)
        x = t(np.asfortranarray(rng.standard_normal((6, 8))))
        gain, bias = t(rng.standard_normal((1, 8))), t(rng.standard_normal((1, 8)))

        def grads(workspace=None):
            with Tape(workspace) as tape:
                tape.backward(ad.sum_all(ad.layer_norm(ad.gelu(x), gain, bias)))
                return [tape.grad(v) for v in (x, gain, bias)]

        want = [g.tobytes() for g in grads()]
        ws = ad.Workspace()
        grads(ws)  # the kind's first step records
        got = grads(ws)
        assert np.shares_memory(got[0], ws._arena)
        assert [g.tobytes() for g in got] == want

    def test_threads_have_their_own_arenas(self, rng):
        ws, arenas = ad.Workspace(), []
        x, w = self.inputs(rng, 8)

        def work():
            for _ in range(3):
                self.step(x, w, ws)
            arenas.append(ws._arena)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert len(arenas) == 2 and arenas[0] is not arenas[1]
        assert ws.nbytes == 0  # this thread never stepped

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 6)), min_size=1,
                    max_size=40))
    def test_a_plan_never_gives_two_live_requests_one_byte(self, requests):
        n = len(requests)
        sizes = [size for size, _ in requests]
        deaths = [min(n, i + span) for i, (_, span) in enumerate(requests)]
        offsets = ad._plan(sizes, deaths)
        assert all(o % ad._ALIGN == 0 for o in offsets)
        for i in range(len(sizes)):
            for j in range(i + 1, min(deaths[i], len(sizes))):
                assert (offsets[i] + sizes[i] <= offsets[j]
                        or offsets[j] + sizes[j] <= offsets[i])


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


class TestPoolGridLeadingRows:
    """A row before the side*side grid rows (the class token) passes through
    ``pool_grid``; the grid rows pool as they would alone."""

    @staticmethod
    def pooled(x, weights):
        """pool_grid(x, 4, 2), and the gradient of sum(out * weights) w.r.t. x."""
        with Tape() as tape:
            out = ad.pool_grid(x, 4, 2)
            tape.backward(ad.sum_all(ad.reshape(ad.mul(out, Tensor(weights)), (1, -1))))
            return out.data, tape.grad(x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    def test_row_passes_through_and_grid_rows_pool_alone(self, lead, dtype, rng):
        x = rng.standard_normal(lead + (17, 3)).astype(dtype)
        g = rng.standard_normal(lead + (5, 3)).astype(dtype)
        out, gx = self.pooled(Tensor(x, requires_grad=True), g)
        grid_out, grid_gx = self.pooled(Tensor(x[..., 1:, :].copy(), requires_grad=True),
                                        g[..., 1:, :].copy())
        assert out.dtype == gx.dtype == dtype
        assert out.shape == lead + (5, 3) and gx.shape == x.shape
        assert out[..., :1, :].tobytes() == x[..., :1, :].tobytes()
        assert out[..., 1:, :].tobytes() == grid_out.tobytes()
        # the incoming gradient is g itself (1 * g), so row 0 hands it back
        assert gx[..., :1, :].tobytes() == g[..., :1, :].tobytes()
        assert gx[..., 1:, :].tobytes() == grid_gx.tobytes()

    @pytest.mark.parametrize("dtype, h, tol", [(np.float32, 1e-2, 1e-2),
                                               (np.float64, 1e-5, 1e-6)])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    def test_gradient_matches_finite_differences(self, lead, dtype, h, tol, rng):
        w = Tensor(rng.standard_normal(lead + (5, 3)).astype(dtype))

        def f(x):
            out = ad.pool_grid(x, 4, 2)
            return ad.sum_all(ad.reshape(ad.mul(out, ad.mul(out, w)), (1, -1)))

        x = Tensor(rng.standard_normal(lead + (17, 3)).astype(dtype), requires_grad=True)
        assert finite_difference_check(f, x, h=h) < tol

    @pytest.mark.parametrize("shape", [(15, 3), (2, 15, 3), (0, 3)])
    def test_fewer_rows_than_the_grid_is_an_error(self, shape):
        with pytest.raises(DimensionError, match="cannot hold a 4x4 grid"):
            ad.pool_grid(t(np.ones(shape)), 4, 2)


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
        "multi_head_attention_out": lambda make: ad.multi_head_attention(
            make(3, 4), make(4, 5), make(5, 4), 2, 0.5)[1],
        "multi_head_attention_weights": lambda make: ad.multi_head_attention(
            make(3, 4), make(4, 5), make(5, 4), 2, 0.5)[3],
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


class TestTensorStorage:
    """A tensor stores its array row-major, copying only an array that is
    not already a row-major float32 or float64 one."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_row_major_array_is_kept_without_a_copy(self, dtype, rng):
        a = rng.standard_normal((3, 4, 5)).astype(dtype)
        assert Tensor(a).data is a
        assert Tensor(a, requires_grad=True, dtype=dtype).data is a
        a.setflags(write=False)  # as a checkpoint's arrays are
        assert Tensor(a).data is a

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_other_layout_is_copied_row_major(self, dtype, rng):
        a = rng.standard_normal((4, 6)).astype(dtype)
        for view in (np.asfortranarray(a), a[:, ::2], np.swapaxes(a, 0, 1)):
            x = Tensor(view)
            assert x.data.flags.c_contiguous and x.dtype == dtype
            assert np.array_equal(x.data, view)


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
        "concat_cols_shared": lambda x, y: ad.concat_cols([t(TestStackedOps.MAT), x]),
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
        lambda x, p: ad.concat_cols([x, p]),
    ], ids=["add", "concat_rows", "layer_norm_gain_bias", "add_rowvec", "concat_cols"])
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
    """The first gradient a tensor receives is stored as its op returned it,
    and the tape writes into no array, so a stored gradient that is the
    incoming one, a view or another input's array must stay as it was,
    whatever gradient, a slice's included, lands on it."""

    W = np.random.default_rng(3).standard_normal((4, 2))

    def test_add_of_a_tensor_to_itself(self, rng):
        x = t(rng.standard_normal((3, 2)))
        with Tape() as tape:
            y = ad.add(x, x)
            tape.backward(ad.sum_all(y))
            np.testing.assert_array_equal(tape.grad(x), np.full((3, 2), 2.0))
            np.testing.assert_array_equal(tape.grad(y), np.ones((3, 2)))

    def test_op_that_returns_the_incoming_gradient(self, rng):
        # add hands its first input the incoming gradient itself; x's later
        # gradient must not leak into the intermediate p
        x = t(rng.standard_normal((4, 2)))
        w2 = rng.standard_normal((4, 2))
        with Tape() as tape:
            a = ad.sum_all(ad.mul(x, Tensor(w2)))
            p = ad.add(x, Tensor(np.zeros_like(x.data)))
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

    def test_slice_on_a_broadcast_sum_all_gradient(self, rng):
        # the slice's gradient lands on a read-only view and must go to a new sum
        x = t(rng.standard_normal((2, 3, 4)))
        w = rng.standard_normal((2, 3, 2))
        with Tape() as tape:
            a = ad.sum_all(ad.reshape(ad.mul(ad.slice_cols(x, 1, 3), Tensor(w)), (1, -1)))
            s = ad.sum_all(x)
            tape.backward(ad.add(a, ad.sum_all(ad.reshape(s, (1, 2)))))
            expected = np.ones((2, 3, 4))
            expected[..., 1:3] += w
            np.testing.assert_array_equal(tape.grad(x), expected)
            np.testing.assert_array_equal(tape.grad(s), np.ones((2, 1, 1)))

    def test_slice_on_one_array_handed_to_two_inputs(self, rng):
        a, b = t(rng.standard_normal((4, 2))), t(rng.standard_normal((4, 2)))

        def backward(g):
            both = g * 1.0
            return (both, both)

        with Tape() as tape:
            first = ad.sum_all(ad.mul(ad.slice_rows(a, 1, 3), Tensor(self.W[1:3])))
            both = ad.custom_op(a.data + b.data, (a, b), backward, "both")
            tape.backward(ad.add(first, ad.sum_all(both)))
            np.testing.assert_array_equal(tape.grad(b), np.ones((4, 2)))
            expected = np.ones((4, 2))
            expected[1:3] += self.W[1:3]
            np.testing.assert_array_equal(tape.grad(a), expected)

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    def test_slice_on_a_column_major_gradient_sums_exactly(self, lead, rng):
        # an op may return a column-major gradient, which the tape keeps as
        # x's first; the slice's gradient added to it gives exactly the sum
        x = t(rng.standard_normal(lead + (4, 6)))
        wt = rng.standard_normal(lead + (4, 6))
        wr = rng.standard_normal(lead + (2, 6))

        def backward(g):
            gx = np.ascontiguousarray(np.swapaxes(g * wt, -1, -2)).swapaxes(-1, -2)
            assert not gx.flags.c_contiguous
            return (gx,)

        with Tape() as tape:
            rows = ad.mul(ad.slice_rows(x, 1, 3), Tensor(wr))
            cols = ad.custom_op(x.data * wt, (x,), backward, "weighted")
            tape.backward(ad.add(weighted_sum(rows), weighted_sum(cols)))
            g = tape.grad(x)
        full = np.zeros_like(x.data)
        full[..., 1:3, :] = np.random.default_rng(11).standard_normal(wr.shape) * wr
        alone = np.random.default_rng(11).standard_normal(wt.shape) * wt  # weighted_sum's
        np.testing.assert_array_equal(g, alone + full)

    @pytest.mark.parametrize("later", ["dense", "slice"])
    def test_passed_through_sum_stays_when_its_input_accumulates(self, later, rng):
        # y's gradient is a sum the tape owns; add hands it to x unchanged,
        # and x's later gradient must go to a new sum, not into y's
        x = t(rng.standard_normal((4, 2)))
        w1, w2 = rng.standard_normal((2, 4, 2))
        with Tape() as tape:
            if later == "dense":
                early = ad.sum_all(ad.mul(x, Tensor(self.W)))
            else:
                early = ad.sum_all(ad.mul(ad.slice_rows(x, 0, 2), Tensor(self.W[:2])))
            y = ad.add(x, Tensor(self.W))
            loss = ad.add(ad.sum_all(ad.mul(y, Tensor(w1))), ad.sum_all(ad.mul(y, Tensor(w2))))
            tape.backward(ad.add(early, loss))
            gy = w1 + w2
            np.testing.assert_array_equal(tape.grad(y), gy)
            expected = gy.copy()
            if later == "dense":
                expected += self.W
            else:
                expected[:2] += self.W[:2]
            np.testing.assert_array_equal(tape.grad(x), expected)


class TestBlockGradients:
    """A slice's backward follows the dense rule: one zero-filled array of
    the input's shape per slice, with its gradient at the slice, summed
    out of place in the order the gradients arrive."""

    # per-head column or row slices, then two that overlap them
    SLICES = [(0, 2), (2, 4), (4, 6), (6, 8), (1, 5), (0, 8)]

    @pytest.mark.parametrize("axis", ["cols", "rows"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["matrix", "stack"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slices_sum_to_the_dense_reference(self, axis, lead, dtype, rng):
        x = Tensor(rng.standard_normal(lead + (8, 8)).astype(dtype), requires_grad=True)
        op = ad.slice_cols if axis == "cols" else ad.slice_rows
        index = ((lambda lo, hi: (..., slice(lo, hi))) if axis == "cols"
                 else (lambda lo, hi: (..., slice(lo, hi), slice(None))))
        weights = [rng.standard_normal(x.data[index(lo, hi)].shape).astype(dtype)
                   for lo, hi in self.SLICES]
        with Tape() as tape:
            loss = None
            for (lo, hi), w in zip(self.SLICES, weights):
                part = ad.sum_all(ad.reshape(ad.mul(op(x, lo, hi), Tensor(w)), (1, -1)))
                loss = part if loss is None else ad.add(loss, part)
            tape.backward(loss)
            got = tape.grad(x)
        # the gradient reaching each slice is its weight; the last slice's
        # arrives first
        ref = None
        for (lo, hi), w in reversed(list(zip(self.SLICES, weights))):
            full = np.zeros_like(x.data)
            full[index(lo, hi)] = w
            ref = full if ref is None else ref + full
        assert got.dtype == dtype
        assert got.tobytes() == ref.tobytes()

    def test_a_first_block_keeps_signed_zeros(self):
        # it is copied into zeros, as the dense rule's slice gradient is,
        # not added to them
        x = t(np.ones((2, 3)))
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.mul(ad.slice_cols(x, 1, 2), t([[-0.0], [2.0]]))))
            g = tape.grad(x)
        assert g[0, 1] == 0.0 and np.signbit(g[0, 1])
        assert g[1, 1] == 2.0 and not g[:, [0, 2]].any()

    @pytest.mark.parametrize("axis", ["cols", "rows"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_column_major_input_is_stored_and_sliced_row_major(self, axis, dtype, rng):
        # a tensor stores its array row-major, so a column-major input's
        # slice gradient has the bytes of the same slice on a row-major one
        a = rng.standard_normal((6, 8)).astype(dtype)
        op, index = ((ad.slice_cols, (slice(None), slice(2, 5))) if axis == "cols"
                     else (ad.slice_rows, (slice(2, 5), slice(None))))
        w = rng.standard_normal(a[index].shape).astype(dtype)

        def grad(arr):
            x = Tensor(arr, requires_grad=True)
            with Tape() as tape:
                tape.backward(ad.sum_all(ad.reshape(ad.mul(op(x, 2, 5), Tensor(w)), (1, -1))))
                return x.data, tape.grad(x)

        stored, got = grad(np.asfortranarray(a))
        assert stored.flags.c_contiguous and stored.tobytes() == a.tobytes()
        _, want = grad(a)
        ref = np.zeros_like(a)
        ref[index] = w
        assert got.flags.c_contiguous and got.dtype == dtype
        assert got.tobytes() == want.tobytes() == ref.tobytes()


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
        "multi_head_attention": lambda x: ad.concat_cols(ad.multi_head_attention(
            x, t(TestReadOnlyIncomingGradient.X), t(TestReadOnlyIncomingGradient.X), 2, 0.5)),
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


def square_and_cube(x, seen=None):
    """A toy op with two outputs, ``x * x`` and ``x * x * x``; ``seen``
    collects the gradients its backward receives."""
    xd = x.data

    def backward(grads):
        if seen is not None:
            seen.append(grads)
        g_square, g_cube = grads
        gx = np.zeros_like(xd)
        if g_square is not None:
            gx += 2.0 * xd * g_square
        if g_cube is not None:
            gx += 3.0 * xd * xd * g_cube
        return (gx,)

    return ad.custom_op((xd * xd, xd * xd * xd), (x,), backward, "square_and_cube")


class TestSeveralOutputs:
    """An op may record a tuple of outputs; its backward gets one gradient
    per output, None where none arrived."""

    @pytest.mark.parametrize("read", [(True, False), (False, True), (True, True)],
                             ids=["first", "second", "both"])
    def test_gradients_match_finite_differences(self, read, rng):
        def f(x):
            parts = [weighted_sum(o) for o, keep in zip(square_and_cube(x), read) if keep]
            return parts[0] if len(parts) == 1 else ad.add(*parts)

        assert finite_difference_check(f, t(rng.standard_normal((3, 4)))) < 1e-6

    @pytest.mark.parametrize("read", [0, 1])
    def test_an_output_nothing_reads_gets_none(self, read, rng):
        seen = []
        x = t(rng.standard_normal((3, 4)))
        with Tape() as tape:
            outs = square_and_cube(x, seen)
            tape.backward(weighted_sum(outs[read]))
        (grads,) = seen
        assert type(grads) is tuple and len(grads) == 2
        assert grads[1 - read] is None
        assert grads[read].shape == (3, 4)

    def test_an_op_no_output_of_which_is_read_is_skipped(self, rng):
        seen = []
        x = t(rng.standard_normal((3, 4)))
        with Tape() as tape:
            square_and_cube(x, seen)
            tape.backward(weighted_sum(ad.scale(x, 2.0)))
        assert seen == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_second_output_names_the_op(self, bad):
        with pytest.raises(NumericError, match="two_outputs"):
            ad.custom_op((np.ones((2, 2)), np.array([[1.0, bad]])), (), no_grad, "two_outputs")

    @pytest.mark.parametrize("which, want", [(0, 6.0), (1, 27.0)])
    def test_either_output_is_a_loss(self, which, want):
        x = t([[3.0]])
        with Tape() as tape:
            out = square_and_cube(x)[which]
            tape.backward(out)
            assert tape.grad(x)[0, 0] == want
            assert tape.grad(out)[0, 0] == 1.0

    def test_outputs_are_tensors_of_the_op_arrays(self):
        a, b = np.ones((2, 2), dtype=np.float32), np.zeros((1, 3))
        outs = ad.custom_op((a, b), (t([[1.0]]),), no_grad, "two_outputs")
        assert type(outs) is tuple and len(outs) == 2
        assert outs[0].data is a and outs[1].data is b
        assert all(o.requires_grad for o in outs)


def head_chain(q, kt, v, lo, hi, c):
    """One head of :func:`ad.multi_head_attention` as a chain of primitive ops."""
    weights = ad.softmax_rows(ad.scale(ad.matmul(ad.slice_cols(q, lo, hi),
                                                 ad.slice_rows(kt, lo, hi)), c))
    return ad.matmul(weights, ad.slice_cols(v, lo, hi)), weights


def heads_chain(q, kt, v, heads, c):
    """:func:`ad.multi_head_attention` as the chain of primitive ops it
    replaces, head by head: the heads' outputs, then their weights."""
    dk = q.shape[-1] // heads
    pairs = [head_chain(q, kt, v, lo, lo + dk, c) for lo in range(0, q.shape[-1], dk)]
    return tuple(out for out, _ in pairs) + tuple(w for _, w in pairs)


@pytest.fixture(params=["grouped", "one_head_per_group"])
def head_groups(request, monkeypatch):
    """Every case runs with the default head groups, and again with a group
    bound so small that each head is a group of its own."""
    if request.param != "grouped":
        monkeypatch.setattr(ad, "_HEAD_GROUP_BYTES", 1)
    return request.param


class TestMultiHeadAttention:
    HEADS = 4

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("read", ["out", "weights", "both", "one_out_unread"])
    def test_bitwise_equal_to_the_chain_head_by_head(self, head_groups, dtype, lead,
                                                      read, rng):
        H = self.HEADS
        q0 = rng.standard_normal(lead + (65, 32)).astype(dtype)
        k0 = rng.standard_normal(lead + (32, 17)).astype(dtype)
        v0 = rng.standard_normal(lead + (17, 32)).astype(dtype)
        wo = [Tensor(rng.standard_normal(lead + (65, 8)).astype(dtype)) for _ in range(H)]
        ww = [Tensor(rng.standard_normal(lead + (65, 17)).astype(dtype)) for _ in range(H)]
        results = []
        for op in (ad.multi_head_attention, heads_chain):
            q, kt, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
            with Tape() as tape:
                outs = op(q, kt, v, H, 1.0 / math.sqrt(8))
                # the weights' own gradients arrive first, as the focus map's do
                parts = []
                if read != "out":
                    parts += [ad.mul(y, w) for y, w in zip(outs[H:], ww)]
                if read != "weights":
                    parts += [ad.mul(o, w) for h, (o, w) in enumerate(zip(outs[:H], wo))
                              if not (read == "one_out_unread" and h == 1)]
                loss = None
                for p in parts:
                    s = ad.sum_all(ad.reshape(p, (1, -1)))
                    loss = s if loss is None else ad.add(s, loss)
                tape.backward(loss)
                results.append([o.data for o in outs] + [tape.grad(x) for x in (q, kt, v)])
        assert len(results[0]) == 2 * H + 3
        for fused, chain in zip(*results):
            assert fused.dtype == chain.dtype == dtype
            assert fused.shape == chain.shape
            assert fused.tobytes() == chain.tobytes()

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    def test_gradients_match_finite_differences(self, head_groups, lead, rng):
        q0 = rng.standard_normal(lead + (5, 4))
        k0 = rng.standard_normal(lead + (4, 3))
        v0 = rng.standard_normal(lead + (3, 4))

        def loss(q, kt, v):
            return reduce(ad.add, map(weighted_sum, ad.multi_head_attention(q, kt, v, 2, 0.5)))

        assert finite_difference_check(
            lambda q: loss(q, t(k0, grad=False), t(v0, grad=False)), t(q0)) < 1e-6
        assert finite_difference_check(
            lambda kt: loss(t(q0, grad=False), kt, t(v0, grad=False)), t(k0)) < 1e-6
        assert finite_difference_check(
            lambda v: loss(t(q0, grad=False), t(k0, grad=False), v), t(v0)) < 1e-6

    # row 1 of q times column 0 of kt is the only non-finite score, so for
    # -inf the row max stays finite and the softmax would give an exact 0
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("v", [1e308, -1e308, np.nan], ids=["+inf", "-inf", "nan"])
    def test_non_finite_product_names_the_op(self, head_groups, v):
        q = t([[1.0, 1.0, 0.5, 0.5], [v, 1.0, 0.5, 0.5], [1.0, 1.0, 0.5, 0.5]])
        kt = t([[10.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        with pytest.raises(NumericError, match="multi_head_attention"):
            ad.multi_head_attention(q, kt, t(np.ones((3, 4))), 2, 0.5)

    @pytest.mark.parametrize("qs, ks, vs", [
        ((3, 4), (5, 2), (2, 4)), ((3, 4), (4, 2), (3, 4)), ((3, 4), (4, 2), (2, 5)),
        ((2, 3, 4), (4, 5), (5, 4)), ((2, 3, 4), (3, 4, 5), (3, 5, 4)),
        ((2, 3, 4), (2, 4, 5), (5, 4)), ((4,), (4, 2), (2, 4))])
    def test_shape_mismatch_rejected(self, qs, ks, vs):
        with pytest.raises(DimensionError, match="multi_head_attention"):
            ad.multi_head_attention(t(np.ones(qs)), t(np.ones(ks)), t(np.ones(vs)), 2, 1.0)

    @pytest.mark.parametrize("heads", [0, -1, 3, 5])
    def test_heads_that_do_not_split_the_columns_rejected(self, heads):
        with pytest.raises(DimensionError, match="multi_head_attention"):
            ad.multi_head_attention(t(np.ones((3, 4))), t(np.ones((4, 5))),
                                    t(np.ones((5, 4))), heads, 1.0)

    def test_default_train_step_matches_the_chain_bitwise(self, monkeypatch):
        cfg, tcfg = model.ModelConfig(), TrainConfig()
        batch = synth_generate(tcfg.batch_size, SynthConfig(seed=4))
        assert all(s.mask is not None for s in batch)
        weights = losses.class_weights([0.5, 0.25, 0.25], tcfg.weight_epsilon)
        calls = []

        def step():
            params = model.init_params(cfg)
            state = init_adam(params)
            train_step(params, cfg, tcfg, batch, state, weights, tcfg.learning_rate)
            return [a.tobytes() for name, p in params.items()
                    for a in (p.data, state.m[name], state.v[name])]

        def counted_chain(*args):
            calls.append(args[3])
            return heads_chain(*args)

        fused = step()
        monkeypatch.setattr(model, "multi_head_attention", counted_chain)
        assert step() == fused
        # one call per layer and scale, each for every head
        assert calls == [cfg.heads] * (cfg.layers * cfg.scales)


class TestBackwardScratch:
    """The op's backward takes its stacked temporaries from ``_new``, as it
    takes the gradients it returns, so a train step plans them into its
    workspace; what it hands back must not share bytes with them."""

    @staticmethod
    def gradients(rng, lead=(2,), dtype=np.float64, workspace=None):
        """The op's gradients of q, kt and v on fresh random inputs."""
        q, kt, v = (Tensor(rng.standard_normal(lead + s).astype(dtype), requires_grad=True)
                    for s in ((9, 8), (8, 5), (5, 8)))
        with Tape(workspace) as tape:
            outs = ad.multi_head_attention(q, kt, v, 2, 0.5)
            tape.backward(reduce(ad.add, map(weighted_sum, outs)))
            return [tape.grad(x) for x in (q, kt, v)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_gradient_shares_memory_with_the_scratch(self, head_groups, dtype, rng,
                                                        monkeypatch):
        ws = ad.Workspace()
        self.gradients(rng, dtype=dtype, workspace=ws)  # the kind's first step records
        taken, new = [], ad._new
        monkeypatch.setattr(ad, "_new", lambda shape, dt: taken.append(new(shape, dt))
                            or taken[-1])
        grads = self.gradients(rng, dtype=dtype, workspace=ws)
        # the op's backward runs last; its gradients are its first requests
        first = min(i for i, a in enumerate(taken) if any(a is g for g in grads))
        temps = [a for a in taken[first:] if not any(a is g for g in grads)]
        assert len(temps) >= 3
        for g in grads:
            assert g.dtype == dtype and np.shares_memory(g, ws._arena)
            assert not any(np.shares_memory(g, a) for a in temps)

    def test_the_backward_reads_the_forwards_copy_of_the_values(
            self, head_groups, rng, monkeypatch):
        # n = 9 query rows and m = 5 key rows, so no other array of the step
        # is m x dk = 5 x 4, as a values head block is
        take, requests = ad.Workspace.take, []
        monkeypatch.setattr(ad.Workspace, "take",
                            lambda ws, shape, dt: requests.append(shape) or take(ws, shape, dt))
        self.gradients(rng, workspace=ad.Workspace())
        # the forward's one copy of both heads' blocks, and no copy from the backward
        assert [s for s in requests if s[-2:] == (5, 4)] == [(2, 2, 5, 4)]

    def test_a_second_backward_leaves_the_first_gradients_as_they_were(
            self, head_groups, rng):
        first = self.gradients(rng)
        before = [g.tobytes() for g in first]
        second = self.gradients(rng)
        assert [g.tobytes() for g in second] != before
        assert [g.tobytes() for g in first] == before

    @pytest.mark.parametrize("groups", ["grouped", "one_head_per_group"])
    def test_threads_running_grad_cam_and_train_steps_give_the_serial_bytes(
            self, groups, monkeypatch):
        # more threads than cores, switching often, each on its own parameters;
        # one thread's batch size differs, so its steps' arrays differ too
        if groups == "one_head_per_group":
            monkeypatch.setattr(ad, "_HEAD_GROUP_BYTES", 1)
        cfg, tcfg = model.ModelConfig(), TrainConfig()
        weights = losses.class_weights([0.5, 0.25, 0.25], tcfg.weight_epsilon)
        runs = ((1, tcfg.batch_size), (2, tcfg.batch_size), (3, tcfg.batch_size), (4, 5))

        def work(seed, size, barrier=None):
            params = model.init_params(dataclasses.replace(cfg, seed=seed))
            batch = synth_generate(size, SynthConfig(seed=seed))
            state = init_adam(params)
            if barrier is not None:
                barrier.wait(timeout=60)
            got = []
            for i in range(4):
                got.append(model.grad_cam(params, batch[i].image, i % cfg.classes, cfg)[0])
                train_step(params, cfg, tcfg, batch, state, weights, tcfg.learning_rate)
            return [a.tobytes() for a in got + [p.data for p in params.values()]]

        serial = [work(*run) for run in runs]
        barrier, results = threading.Barrier(len(runs)), [None] * len(runs)

        def run(i):
            results[i] = work(*runs[i], barrier)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == serial


class TestHeadGroupsInTurn:
    """The heads run in groups of as many heads as the bound allows, one
    after another on the calling thread; the last group may be smaller, and
    the backward's one scratch set fits the first."""

    N, M, D = 9, 5, 16  # no other array of a call is (..., N, M) with a heads axis

    @classmethod
    def bound(cls, step, lead, dtype):
        """A ``_HEAD_GROUP_BYTES`` that fits the scores of ``step`` heads."""
        return step * math.prod(lead) * cls.N * cls.M * np.dtype(dtype).itemsize

    @classmethod
    def inputs(cls, lead, dtype):
        rng = np.random.default_rng(5)
        return [Tensor(rng.standard_normal(lead + s).astype(dtype), requires_grad=True)
                for s in ((cls.N, cls.D), (cls.D, cls.M), (cls.M, cls.D))]

    @staticmethod
    def loss(outs):
        """A scalar of ``outs`` with fixed random weights of their dtype, so
        every gradient the op gets is of its own dtype, as in a step."""
        rng = np.random.default_rng(11)
        return reduce(ad.add, (ad.sum_all(ad.reshape(ad.mul(
            o, Tensor(rng.standard_normal(o.shape).astype(o.data.dtype))), (1, -1)))
            for o in outs))

    @staticmethod
    def group_sizes(monkeypatch):
        """A list that gets the heads of each group the forward attends."""
        attend, sizes = ad._attend, []

        def counted(qh, *rest):
            sizes.append(len(qh))
            return attend(qh, *rest)

        monkeypatch.setattr(ad, "_attend", counted)
        return sizes

    @pytest.mark.parametrize("heads, step", [(4, 1), (4, 2), (4, 3), (4, 4),
                                             (8, 1), (8, 3), (8, 5), (8, 7), (8, 8)])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_group_size_gives_the_bytes_of_the_chain(self, dtype, lead, heads, step,
                                                           monkeypatch):
        monkeypatch.setattr(ad, "_HEAD_GROUP_BYTES", self.bound(step, lead, dtype))
        sizes = self.group_sizes(monkeypatch)
        results = []
        for op in (ad.multi_head_attention, heads_chain):
            inputs = self.inputs(lead, dtype)
            with Tape() as tape:
                outs = op(*inputs, heads, 0.5)
                tape.backward(self.loss(outs))
                results.append([o.data for o in outs] + [tape.grad(x) for x in inputs])
        assert sizes == [step] * (heads // step) + [heads % step] * (heads % step > 0)
        assert len(results[0]) == 2 * heads + 3
        for fused, chain in zip(*results):
            assert fused.dtype == chain.dtype == dtype
            assert fused.tobytes() == chain.tobytes()

    @pytest.mark.parametrize("step", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_backward_takes_one_scratch_set_for_the_first_group(self, dtype, step,
                                                                     monkeypatch):
        lead = (2,)
        monkeypatch.setattr(ad, "_HEAD_GROUP_BYTES", self.bound(step, lead, dtype))
        take, scores = ad.Workspace.take, []

        def spy(ws, shape, dt):
            if len(shape) == len(lead) + 3 and shape[-2:] == (self.N, self.M):
                scores.append((shape[0], np.dtype(dt)))
            return take(ws, shape, dt)

        monkeypatch.setattr(ad.Workspace, "take", spy)
        inputs = self.inputs(lead, dtype)
        with Tape(ad.Workspace()) as tape:
            outs = ad.multi_head_attention(*inputs, 4, 0.5)
            tape.backward(self.loss(outs))
        # each group's weights, then the one scratch set's gy and gs
        groups = [min(step, 4 - lo) for lo in range(0, 4, step)]
        assert scores == [(k, np.dtype(dtype)) for k in groups + [step, step]]

    @pytest.mark.parametrize("head", range(4))
    def test_an_overflow_in_any_group_stops_the_call_with_the_numeric_error(
            self, head, monkeypatch):
        # one head per group; only head ``head``'s scores overflow
        monkeypatch.setattr(ad, "_HEAD_GROUP_BYTES", 1)
        sizes = self.group_sizes(monkeypatch)
        q, kt = t(np.ones((2, 4))), t(np.full((4, 3), 0.5))
        q.data[0, head] = kt.data[head, 0] = 1e300
        v = t(np.ones((3, 4)))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="multi_head_attention"):
                ad.multi_head_attention(q, kt, v, 4, 0.5)
            assert sizes == [1] * (head + 1)  # no group after it ran
            q.data[0, head] = kt.data[head, 0] = 1.0
            outs = ad.multi_head_attention(q, kt, v, 4, 0.5)
        assert all(ad.all_finite(o.data) for o in outs)

    def test_train_steps_with_one_head_per_group_follow_the_first_steps_plan(
            self, monkeypatch):
        from lesionformer import training
        monkeypatch.setattr(ad, "_HEAD_GROUP_BYTES", 1)
        sizes = self.group_sizes(monkeypatch)
        cfg, tcfg = model.ModelConfig(), TrainConfig()
        batch = synth_generate(tcfg.batch_size, SynthConfig(seed=4))
        weights = losses.class_weights([0.5, 0.25, 0.25], tcfg.weight_epsilon)
        take, taken = ad.Workspace.take, []

        def spy(ws, shape, dtype):
            arr = take(ws, shape, dtype)
            taken[-1].append(ws._arena is not None and np.shares_memory(arr, ws._arena))
            return arr

        monkeypatch.setattr(ad.Workspace, "take", spy)

        def steps():  # on a new thread, whose step workspace starts empty
            params = model.init_params(cfg)
            state = init_adam(params)
            arenas = set()  # ids: an array held past its step moves the plans
            for _ in range(3):
                taken.append([])
                train_step(params, cfg, tcfg, batch, state, weights, tcfg.learning_rate)
                arenas.add(id(training.step_workspace._arena))
            return len(training.step_workspace._plans), len(arenas)

        out = []
        th = threading.Thread(target=lambda: out.append(steps()))
        th.start()
        th.join(timeout=120)
        assert not th.is_alive() and out == [(1, 1)]
        assert len(taken[0]) == len(taken[1]) == len(taken[2]) > 0
        assert all(in_arena for step in taken[1:] for in_arena in step)
        # every attention call of every step attended its heads one at a time
        assert sizes == [1] * (3 * cfg.layers * cfg.scales * cfg.heads)


def test_attention_starts_no_thread(monkeypatch):
    before = threading.active_count()
    with monkeypatch.context() as one_head_per_group:
        one_head_per_group.setattr(ad, "_HEAD_GROUP_BYTES", 1)
        TestBackwardScratch.gradients(np.random.default_rng(5), workspace=ad.Workspace())
    # a train-large-f32 step: its 4 x 257 x 257 float32 scores run one head per group
    cfg = model.ModelConfig(image_h=64, image_w=64, embed_dim=64, heads=4, scales=3, layers=2)
    tcfg = TrainConfig(dtype="float32", batch_size=4)
    batch = synth_generate(tcfg.batch_size, SynthConfig(height=64, width=64))
    params = model.init_params(cfg, tcfg.np_dtype)
    weights = losses.class_weights([0.5, 0.25, 0.25], tcfg.weight_epsilon)
    train_step(params, cfg, tcfg, batch, init_adam(params), weights, tcfg.learning_rate)
    assert threading.active_count() == before


def handing_back(x, g):
    """``x`` again, handing back exactly ``g`` (in its own layout) as the
    gradient of ``x``."""
    return ad.custom_op(x.data.copy(), (x,), lambda _: (g,), "handing_back")


def kernel_backward(op, inputs, g):
    """``op(*inputs)`` and the gradients its backward returns for ``g``."""
    with Tape() as tape:
        out = op(*inputs)
        tape.backward(ad.sum_all(ad.reshape(handing_back(out, g), (1, -1))))
        return out.data, [tape.grad(x) if x.requires_grad else None for x in inputs]


class TestKernelPins:
    """The in-place kernels give the floats of the plain NumPy expressions
    written here, for row- and column-major incoming gradients."""

    @staticmethod
    def layer_norm_ref(x, gain, bias, g, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
        out = xhat * gain + bias
        dxhat = g * gain
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
        d = x.shape[-1]
        ggain = (g * xhat).reshape(-1, d).sum(axis=0, keepdims=True)
        gbias = g.reshape(-1, d).sum(axis=0, keepdims=True)
        return out, [gx, ggain, gbias]

    @staticmethod
    def gelu_ref(x, g):
        c = math.sqrt(2.0 / math.pi)
        inner = c * (x + 0.044715 * (x * x * x))
        t_ = np.tanh(inner)
        out = 0.5 * x * (1.0 + t_)
        dinner = c * (1.0 + 3 * 0.044715 * (x * x))
        grad = 0.5 * (1.0 + t_) + 0.5 * x * (1.0 - t_ * t_) * dinner
        return out, [g * grad]

    @staticmethod
    def multi_head_attention_backward_ref(ys, q, kt, v, c, g_outs, g_weights):
        dk = q.shape[-1] // len(ys)
        grads = [np.zeros_like(q), np.zeros_like(kt), np.zeros_like(v)]
        for lo, y, g_out, g_w in zip(range(0, q.shape[-1], dk), ys, g_outs, g_weights):
            hi = lo + dk
            qh, kh, vh = q[..., lo:hi], kt[..., lo:hi, :], v[..., lo:hi]
            gy = g_w + g_out @ np.swapaxes(vh, -1, -2)
            gs = gy - (gy * y).sum(axis=-1, keepdims=True)
            gs *= y
            gs *= c
            # the kernel keeps its score gradient in the layout of gy * y, which
            # is row-major here even for column-major incoming gradients
            gs = np.ascontiguousarray(gs)
            grads[0][..., lo:hi] = gs @ np.swapaxes(kh, -1, -2)
            grads[1][..., lo:hi, :] = np.swapaxes(qh, -1, -2) @ gs
            grads[2][..., lo:hi] = np.swapaxes(y, -1, -2) @ g_out
        return grads

    @staticmethod
    def scale_by_backward_ref(a, s, g):
        return [g * s.reshape(-1)[0], np.full_like(s, (g * a).sum())]

    @staticmethod
    def incoming(rng, shape, dtype, order):
        g = rng.standard_normal(shape).astype(dtype)
        if order == "F":  # each matrix column-major: a column-major incoming gradient
            g = np.swapaxes(np.ascontiguousarray(np.swapaxes(g, -1, -2)), -1, -2)
        return g

    @staticmethod
    def assert_same(got, ref):
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)

    cases = pytest.mark.parametrize("dtype, lead, order", [
        pytest.param(dt, lead, order, id=f"{dt.__name__}-{name}-{order}")
        for dt in (np.float32, np.float64)
        for lead, name in (((), "matrix"), ((3,), "stack"))
        for order in ("C", "F")])

    @cases
    @pytest.mark.parametrize("affine_grad", [True, False])
    def test_layer_norm(self, dtype, lead, order, affine_grad, rng):
        x = rng.standard_normal(lead + (65, 32)).astype(dtype) * 3.0 + 1.0
        gain, bias = rng.standard_normal((2, 1, 32)).astype(dtype)
        g = self.incoming(rng, x.shape, dtype, order)
        out, got = kernel_backward(
            ad.layer_norm, [Tensor(x, requires_grad=True),
                            Tensor(gain, requires_grad=affine_grad),
                            Tensor(bias, requires_grad=affine_grad)], g)
        ref_out, ref = self.layer_norm_ref(x, gain, bias, g)
        self.assert_same([out], [ref_out])
        if not affine_grad:
            got, ref = got[:1], ref[:1]
        self.assert_same(got, ref)
        # the input gradient keeps the layout the expression gave it
        assert got[0].strides == ref[0].strides

    @cases
    def test_gelu(self, dtype, lead, order, rng):
        x = (rng.standard_normal(lead + (65, 64)) * 4.0).astype(dtype)
        g = self.incoming(rng, x.shape, dtype, order)
        out, got = kernel_backward(ad.gelu, [Tensor(x, requires_grad=True)], g)
        ref_out, ref = self.gelu_ref(x, g)
        self.assert_same([out] + got, [ref_out] + ref)
        assert got[0].strides == ref[0].strides

    @cases
    def test_multi_head_attention_backward(self, head_groups, dtype, lead, order, rng):
        q = rng.standard_normal(lead + (65, 32)).astype(dtype)
        kt = rng.standard_normal(lead + (32, 65)).astype(dtype)
        v = rng.standard_normal(lead + (65, 32)).astype(dtype)
        g_outs = [self.incoming(rng, lead + (65, 8), dtype, order) for _ in range(4)]
        g_weights = [self.incoming(rng, lead + (65, 65), dtype, order) for _ in range(4)]
        c = 1.0 / math.sqrt(8)
        inputs = [Tensor(a, requires_grad=True) for a in (q, kt, v)]
        with Tape() as tape:
            outs = ad.multi_head_attention(*inputs, 4, c)
            parts = [ad.sum_all(ad.reshape(handing_back(o, g), (1, -1)))
                     for o, g in zip(outs[4:] + outs[:4], g_weights + g_outs)]
            tape.backward(reduce(ad.add, parts))
            got = [tape.grad(x) for x in inputs]
        ys = [y.data for y in outs[4:]]
        self.assert_same([o.data for o in outs[:4]],
                         [y @ np.ascontiguousarray(v[..., lo:lo + 8])
                          for lo, y in zip(range(0, 32, 8), ys)])
        self.assert_same(got, self.multi_head_attention_backward_ref(
            ys, q, kt, v, c, g_outs, g_weights))

    @cases
    def test_softmax_rows_backward(self, dtype, lead, order, rng):
        x = (rng.standard_normal(lead + (65, 17)) * 3.0).astype(dtype)
        g = self.incoming(rng, x.shape, dtype, order)
        y, got = kernel_backward(ad.softmax_rows, [Tensor(x, requires_grad=True)], g)
        self.assert_same(got, [y * (g - (g * y).sum(-1, keepdims=True))])

    @cases
    def test_scale_by_backward(self, dtype, lead, order, rng):
        a = rng.standard_normal(lead + (65, 8)).astype(dtype)
        s = np.array([[1.75]], dtype=dtype)
        g = self.incoming(rng, a.shape, dtype, order)
        _, got = kernel_backward(
            ad.scale_by, [Tensor(a, requires_grad=True), Tensor(s, requires_grad=True)], g)
        self.assert_same(got, self.scale_by_backward_ref(a, s, g))
