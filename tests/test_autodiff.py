"""Tape, primitives, gradients, and the finite-difference oracle."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from hypermix.autodiff import (SAFE_EPS, Tape, Var, absval, add, as_matrix,
                               block_sum, concat_cols, elu, finite_diff,
                               gradient, gru_sequence, hgcn_conv, linear, mul,
                               reshape, select_rows)
from hypermix.errors import DimensionError, TapeError
from hypermix.rng import Rng

from _helpers import (assert_grad_close, check_gradients, leaf_grads,
                      shift_from_kinks, total)
from _oracles import (gru_sequence_reference, gru_step_reference,
                      hgcn_layer_dense, linear_reference)


def _spy_on_backward(tape):
    """Wrap the last record's backward; returns the list its results go to."""
    record = tape.records[-1]
    computed = []
    bwd = record.bwd

    def spy(g, need):
        grads = bwd(g, need)
        computed.append(grads)
        return grads

    record.bwd = spy
    return computed


def _hgcn_grads(x, H, w, n):
    """Gradients of a weighted sum of hgcn_conv's output in x, H and w."""
    weight = np.linspace(-1.0, 2.0, x.shape[0]).reshape(-1, 1)
    return leaf_grads(lambda *vs: total(mul(hgcn_conv(*vs, n), weight)),
                      x, H, w)[1]


class TestForwardValues:
    def test_linear_row_blocks_equal_products_of_each_block(self):
        # rows are independent: each equal block of rows gets the product of
        # that block alone, within rounding, as the stacked product may round
        # a row by the rows around it
        rng = Rng(3)
        a, b = rng.normal((18, 64)), rng.normal((64, 3))
        out = linear(Var(a), Var(b), np.zeros((1, 3)))
        np.testing.assert_allclose(
            out.value, np.concatenate([a[k:k + 6] @ b for k in (0, 6, 12)]),
            rtol=0, atol=1e-12)

    def test_linear_shapes_validated(self):
        x, w = np.ones((4, 3)), np.ones((3, 2))
        for b in (np.ones((4, 2)), np.ones((1, 3)), np.ones((2, 1))):
            with pytest.raises(DimensionError, match="linear"):
                linear(x, w, b)
        with pytest.raises(DimensionError, match="linear"):
            linear(x, np.ones((2, 2)), np.ones((1, 2)))

    def test_linear_rectify_definition(self):
        out = linear(Var(np.array([[-1.0, 0.0, 2.0]])), np.eye(3),
                     np.zeros((1, 3)), rectify=True)
        np.testing.assert_array_equal(out.value, [[0.0, 0.0, 2.0]])

    def test_elu_definition(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        out = elu(Var(x))
        np.testing.assert_allclose(out.value.ravel(),
                                   [np.expm1(-1.0), 0.0, 2.0])

    def test_safe_reciprocals_zero_below_threshold(self):
        # hgcn_conv's degree pseudo-inverses. One vertex on one hyperedge per
        # sample: d = b = h, so y = x where h > SAFE_EPS and exactly 0 else
        h = np.array([[4.0], [0.0], [1e-9], [SAFE_EPS], [1e-3]])
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        out = hgcn_conv(x, h, np.ones((1, 1)), 1).value
        np.testing.assert_allclose(out, [[1.0], [0.0], [0.0], [0.0], [5.0]])
        assert out[1, 0] == out[2, 0] == out[3, 0] == 0.0
        # b^{-1} = 1/2 with d^{-1/2} = 1/sqrt(|w|): mean pooling while
        # |w| = d > SAFE_EPS, exactly 0 once the vertex degrees drop below
        x2 = np.array([[1.0], [3.0]])
        for w, want in ((1e-3, 2.0), (-1e-3, 2.0), (1e-9, 0.0), (0.0, 0.0)):
            out = hgcn_conv(x2, np.ones((2, 1)), np.array([[w]]), 2).value
            np.testing.assert_allclose(out, [[want], [want]], rtol=1e-12)
        # b = 2e-9 below the threshold, d = 0.2 above it: exactly 0
        out = hgcn_conv(x2, np.full((2, 1), 1e-9), np.array([[2e8]]), 2).value
        np.testing.assert_array_equal(out, np.zeros((2, 1)))

    def test_concat_and_select(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        cat = concat_cols(Var(a), Var(b))
        np.testing.assert_array_equal(cat.value, [[1, 3, 4], [2, 5, 6]])
        sel = select_rows(cat, [1, 0])
        np.testing.assert_array_equal(sel.value, [[2, 5, 6], [1, 3, 4]])

    def test_reshape_is_row_major(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(reshape(Var(x), 3, 2).value,
                                      [[0, 1], [2, 3], [4, 5]])
        same = Var(x)
        assert reshape(same, 2, 3) is same

    def test_block_sum_and_repeat_rows(self):
        # block_sum's adjoint repeats each row of the seed over its block
        tape = Tape()
        x = Var(np.arange(12.0).reshape(6, 2), tape)
        out = block_sum(x, 3)
        np.testing.assert_array_equal(out.value, [[6, 9], [24, 27]])
        grads = gradient(tape, {out: np.array([[1.0, 2.0], [3.0, 4.0]])})
        np.testing.assert_array_equal(grads[x], [[1, 2]] * 3 + [[3, 4]] * 3)

    def test_block_sum_of_a_column_is_numpy_sum_bit_for_bit(self):
        # train_step sums its S squared TD errors in numpy, where a taped
        # loss would take one block_sum of all S rows; the two give the same
        # bits, at every S and over mixed magnitudes, so the numpy loss keeps
        # the taped loss's value
        rng = Rng(12)
        for rows in range(1, 513):
            x = rng.normal((rows, 1)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
            got = block_sum(x, rows).value
            assert got.shape == (1, 1) and got.tobytes() == x.sum().tobytes(), rows

    def test_values_stay_finite_after_random_chains(self):
        rng = Rng(11)
        for trial in range(50):
            x = rng.normal((3, 3))
            w = rng.normal((3, 3))

            def build(xv, wv):
                h = elu(linear(xv, wv, np.zeros((1, 3))))
                h = add(mul(h, h), absval(xv))
                h = hgcn_conv(linear(h, np.ones((3, 1)), np.zeros((1, 1))), h,
                              linear(wv, np.ones((3, 1)), np.zeros((1, 1))), 3)
                return total(h)

            tape = Tape()
            out = build(Var(x, tape), Var(w, tape))
            for rec in tape.records:
                assert np.isfinite(rec.out.value).all()
            assert np.isfinite(out.value).all()


class TestShapeErrors:
    def test_add_mismatch_names_primitive(self):
        with pytest.raises(DimensionError, match="add"):
            add(Var(np.ones((2, 3))), Var(np.ones((4, 2))))

    def test_concat_mismatch(self):
        with pytest.raises(DimensionError, match="concat_cols"):
            concat_cols(Var(np.ones((2, 1))), Var(np.ones((3, 1))))

    def test_segment_shape_errors(self):
        with pytest.raises(DimensionError, match="reshape"):
            reshape(Var(np.ones((2, 3))), 4, 2)
        with pytest.raises(DimensionError, match="block_sum"):
            block_sum(Var(np.ones((5, 1))), 2)

    @pytest.mark.parametrize("x_shape,h_shape,w_shape,n", [
        ((5, 1), (6, 2), (2, 1), 3),   # x rows differ from H rows
        ((6, 2), (6, 2), (2, 1), 3),   # x is not a column
        ((6, 1), (6, 2), (3, 1), 3),   # one weight per hyperedge
        ((6, 1), (6, 2), (1, 2), 3),   # w is not a column
        ((6, 1), (6, 2), (2, 1), 4),   # rows do not split into blocks of n
        ((6, 1), (6, 2), (2, 1), 0),
    ])
    def test_hgcn_conv_shape_errors(self, x_shape, h_shape, w_shape, n):
        with pytest.raises(DimensionError, match="hgcn_conv"):
            hgcn_conv(np.ones(x_shape), np.ones(h_shape), np.ones(w_shape), n)

    def test_select_rows_out_of_range(self):
        with pytest.raises(DimensionError, match="select_rows"):
            select_rows(Var(np.ones((2, 2))), [0, 2])

    def test_select_rows_refuses_a_repeated_row(self):
        with pytest.raises(DimensionError, match="more than once"):
            select_rows(Var(np.ones((3, 2))), [2, 0, 2])

    def test_values_must_be_two_dimensional(self):
        # a scalar, a 1-D row or a 3-D stack is refused, naming its rank
        for x in (np.float64(1.0), np.ones(3), np.ones((2, 2, 2))):
            ndim = np.ndim(x)
            with pytest.raises(DimensionError, match=f"got {ndim}-D"):
                as_matrix(x)
            with pytest.raises(DimensionError, match=f"got {ndim}-D"):
                Var(x)

    def test_gru_bad_weight_shape(self):
        with pytest.raises(DimensionError, match="gru_sequence"):
            gru_sequence(np.ones((1, 3)), np.ones((1, 4)), np.ones((3, 11)),
                         np.ones((4, 12)), np.ones((1, 12)), np.ones((1, 12)))

    @pytest.mark.parametrize("x_rows,steps", [(5, 2), (6, 2), (4, 0)])
    def test_gru_rows_not_steps_of_h0(self, x_rows, steps):
        w = [np.ones((3, 12)), np.ones((4, 12)), np.ones((1, 12)),
             np.ones((1, 12))]
        with pytest.raises(DimensionError, match="gru_sequence"):
            gru_sequence(np.ones((x_rows, 3)), np.ones((2, 4)), *w, steps)


class TestTape:
    def test_backward_visits_reverse_order(self):
        x = Tape()
        tape = Tape()
        a = Var([[2.0]], tape)
        b = mul(a, a)
        c = mul(b, a)
        # d(a^3)/da = 3a^2; correct only if b's grad was complete before a's
        assert gradient(tape, c)[a][0, 0] == pytest.approx(12.0)

    def test_gradient_drops_records_and_frees_the_graph(self):
        # the graph must die by reference counting alone, without the
        # cyclic collector
        rng = Rng(4)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tape = Tape()
            x = Var(rng.normal((3, 2)), tape)
            hidden = linear(x, rng.normal((2, 4)), np.zeros((1, 4)),
                            rectify=True)
            out = total(mul(hidden, hidden))
            alive = weakref.ref(hidden)
            grads = gradient(tape, out)
            assert tape.records == []
            assert x in grads
            del hidden, out
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_sweep_frees_later_records_before_earlier_backwards(self):
        # when the first record's backward runs, the records after it, their
        # closures and the outputs the caller does not hold, the first
        # record's own output included, are gone, by reference counting alone
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tape = Tape()
            x = Var(Rng(5).normal((4, 3)), tape)
            chain = [linear(x, np.ones((3, 3)), np.zeros((1, 3)), rectify=True)]
            for op in (elu, absval, elu):
                chain.append(op(chain[-1]))
            out = total(chain[-1])
            later = [weakref.ref(v) for v in chain]
            later += [weakref.ref(r.bwd) for r in tape.records[1:]]
            del chain
            first, seen = tape.records[0], []
            bwd = first.bwd

            def spy(g, need):
                seen.append([r() is None for r in later])
                return bwd(g, need)

            first.bwd = spy
            del first
            grads = gradient(tape, out)
            assert seen == [[True] * len(later)]
            assert list(grads) == [x]
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("broadcast", [0, 1], ids=["a-column", "b-column"])
    def test_mul_backward_holds_one_full_size_product(self, broadcast):
        # (R x c) * (R x 1): the column's gradient reduces a full-size
        # product, which is freed before the other operand's gradient exists
        rows, cols = 2000, 32
        tape = Tape()
        shapes = [(rows, cols), (rows, cols)]
        shapes[broadcast] = (rows, 1)
        a, b = (Var(Rng(6 + i).normal(shape), tape) for i, shape in enumerate(shapes))
        out = mul(a, b)
        seed = Rng(8).normal((rows, cols))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            grads = gradient(tape, {out: seed})
            rise = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        full = rows * cols * 8
        assert rise < 1.5 * full, rise / full
        np.testing.assert_array_equal(
            grads[(a, b)[broadcast]],
            (seed * (b, a)[broadcast].value).sum(axis=1, keepdims=True))
        np.testing.assert_array_equal(grads[(b, a)[broadcast]],
                                      seed * (a, b)[broadcast].value)

    def test_hgcn_conv_record_keeps_no_sample_by_edge_array(self):
        # between forward and backward the record holds its operands and
        # S x n values only; backward recomputes the S x k ones
        samples, n, k = 2000, 4, 36
        rng = Rng(9)
        tape = Tape()
        x, H, w = (Var(a, tape) for a in (rng.normal((samples * n, 1)),
                                         rng.uniform(0.0, 1.0, (samples * n, k)),
                                         rng.normal((k, 1))))
        tracemalloc.start()
        try:
            hgcn_conv(x, H, w, n)  # its tape record keeps it for backward
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < samples * k * 8, held / (samples * k * 8)

    def test_consumed_tape_raises(self):
        tape = Tape()
        out = total(Var(np.ones((2, 2)), tape))
        gradient(tape, out)
        with pytest.raises(TapeError, match="consumed"):
            gradient(tape, out)

    def test_mixed_tapes_raise(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(TapeError, match="different tapes"):
            add(Var([[1.0]], t1), Var([[1.0]], t2))


class TestGradientExamples:
    def test_sum_rectified_linear_subgradient_at_zero_is_zero(self):
        # relu'(0) = 0, on the rectifier of an identity layer
        _, (grad,) = leaf_grads(
            lambda v: total(linear(v, np.eye(3), np.zeros((1, 3)), rectify=True)),
            np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])

    def test_abs_subgradient_at_zero_is_zero(self):
        _, (grad,) = leaf_grads(lambda v: total(absval(v)),
                                np.array([[-2.0, 0.0, 3.0]]))
        np.testing.assert_array_equal(grad, [[-1.0, 0.0, 1.0]])

    def test_gradient_accumulates_over_reuse(self):
        _, (grad,) = leaf_grads(lambda v: total(mul(v, v)), np.array([[3.0]]))
        assert grad[0, 0] == pytest.approx(6.0)

    def test_map_holds_exactly_the_reached_leaves(self):
        # every leaf the sweep reaches, and no record output, no constant
        # and no leaf of an unseeded branch
        tape = Tape()
        x, y, z, dead = (Var([[v]], tape) for v in (1.0, 2.0, 3.0, 4.0))
        hidden = mul(add(x, y), np.array([[5.0]]))
        out = mul(hidden, z)
        _ = mul(dead, dead)  # dead branch
        grads = gradient(tape, out)
        assert set(grads) == {x, y, z}
        assert [grads[v][0, 0] for v in (x, y, z)] == [15.0, 15.0, 15.0]

    @pytest.mark.parametrize("name", ["linear", "mul", "add"])
    def test_constant_operand_gets_no_gradient_work(self, name):
        op = {"linear": lambda a, b: linear(a, b, np.zeros((1, 3))),
              "mul": mul, "add": add}[name]
        rng = Rng(6)
        for traced_side in (0, 1):
            tape = Tape()
            operands = [rng.normal((3, 3)), rng.normal((3, 3))]
            operands[traced_side] = Var(operands[traced_side], tape)
            out = op(*operands)
            computed = _spy_on_backward(tape)
            gradient(tape, total(out))
            (grads,) = computed
            assert grads[traced_side] is not None
            assert grads[1 - traced_side] is None

    @pytest.mark.parametrize("traced", [(0,), (1,), (2, 3), (4, 5), (0, 1)])
    def test_gru_constant_operands_get_no_gradient_work(self, traced):
        rng = Rng(6)
        tape = Tape()
        operands = [rng.normal((6, 3)), rng.normal((2, 4)),
                    rng.normal((3, 12)), rng.normal((4, 12)),
                    rng.normal((1, 12)), rng.normal((1, 12))]
        operands = [Var(a, tape) if i in traced else a
                    for i, a in enumerate(operands)]
        out = gru_sequence(*operands, steps=3)
        computed = _spy_on_backward(tape)
        gradient(tape, total(out))
        (grads,) = computed
        for i, grad in enumerate(grads):
            assert (grad is not None) == (i in traced)

    @pytest.mark.parametrize("traced", [(0,), (1,), (2,), (0, 2), (1, 2),
                                        (0, 1, 2)])
    def test_hgcn_conv_constant_operands_get_no_gradient_work(self, traced):
        # (0, 2): a constant incidence
        rng = Rng(8)
        tape = Tape()
        operands = [rng.normal((6, 1)), np.abs(rng.normal((6, 4))),
                    rng.normal((4, 1))]
        operands = [Var(a, tape) if i in traced else a
                    for i, a in enumerate(operands)]
        out = hgcn_conv(*operands, 3)
        computed = _spy_on_backward(tape)
        gradient(tape, total(out))
        (grads,) = computed
        for i, grad in enumerate(grads):
            assert (grad is not None) == (i in traced)

    def test_partly_constant_operands_match_fully_traced_gradients(self):
        rng = Rng(7)
        args = [rng.normal((4, 3)), rng.normal((2, 4)), rng.normal((3, 12)),
                rng.normal((4, 12)), rng.normal((1, 12)), rng.normal((1, 12))]

        def build(*vs):
            h = gru_sequence(*vs, steps=2)
            return total(mul(add(linear(h, vs[3], np.zeros((1, 12))),
                                 np.ones((1, 1))),
                             linear(vs[0], vs[2], np.zeros((1, 12)))))

        def grads(traced):
            tape = Tape()
            vs = [Var(a, tape) if i in traced else Var(a)
                  for i, a in enumerate(args)]
            grads = gradient(tape, build(*vs))
            return [grads.get(v) for v in vs]

        full = grads(range(len(args)))
        for traced in ([2, 3, 4, 5], [0, 2], [1, 3], [0, 1]):
            got = grads(traced)
            for i in traced:
                np.testing.assert_array_equal(got[i], full[i])

    def test_seed_shape_validated(self):
        tape = Tape()
        out = total(Var(np.ones((2, 2)), tape))
        with pytest.raises(DimensionError, match="seed"):
            gradient(tape, {out: np.ones((2, 1))})

    def test_one_dimensional_seed_is_refused(self):
        tape = Tape()
        out = Var(np.ones((1, 3)), tape)
        with pytest.raises(DimensionError, match="got 1-D"):
            gradient(tape, {out: np.ones(3)})


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _linear_grads(x, w, b, g, rectify, traced=(0, 1, 2)):
    tape = Tape()
    vs = [Var(a, tape) if i in traced else Var(a) for i, a in enumerate((x, w, b))]
    out = linear(*vs, rectify)
    grads = gradient(tape, {out: g})
    return out.value, [grads.get(v) for v in vs]


class TestLinear:
    """One affine record against the separate product, bias and rectifier
    steps, bit for bit in the value and in all three gradients."""

    @pytest.mark.parametrize("rectify", [False, True])
    @pytest.mark.parametrize("row_step", [1, 3])
    def test_bit_identical_to_separate_steps(self, row_step, rectify):
        # integer-valued operands give exact zeros at the rectifier, ties,
        # and zero output gradients of either sign; row counts run over the
        # multiples of row_step, one row (an unsummed bias gradient) to 21
        rng = Rng(120 + row_step)
        for trial in range(40):
            rows = row_step * (1 + trial % 7)
            k, m = 1 + trial % 5, 1 + (trial * 3) % 6
            x, w, b, g = (np.round(rng.uniform(-2.0, 2.0, shape))
                          for shape in ((rows, k), (k, m), (1, m), (rows, m)))
            want_out, want_grads = linear_reference(x, w, b, g, rectify)
            got_out, got_grads = _linear_grads(x, w, b, g, rectify)
            assert _same_bits(got_out, want_out), trial
            for i, (got, want) in enumerate(zip(got_grads, want_grads)):
                assert _same_bits(got, want), (trial, i)

    def test_nan_input_to_the_rectifier_gets_no_gradient(self):
        x, w = np.array([[1.0, 1.0], [-1.0, 2.0]]), np.eye(2)
        b, g = np.array([[np.nan, 0.0]]), np.full((2, 2), 3.0)
        want_out, want_grads = linear_reference(x, w, b, g, True)
        got_out, got_grads = _linear_grads(x, w, b, g, True)
        assert _same_bits(got_out, want_out)
        for got, want in zip(got_grads, want_grads):
            assert np.array_equal(got, want, equal_nan=True)
        np.testing.assert_array_equal(got_grads[0], [[0.0, 3.0], [0.0, 3.0]])

    def test_unrectified_equals_add_of_matmul(self):
        rng = Rng(125)
        x, w, b = rng.normal((5, 4)), rng.normal((4, 3)), rng.normal((1, 3))
        g = rng.normal((5, 3))
        got_out, got_grads = _linear_grads(x, w, b, g, False)
        assert _same_bits(got_out, x @ w + b)
        for got, want in zip(got_grads, (g @ w.T, x.T @ g, g.sum(0, keepdims=True))):
            assert _same_bits(got, want)

    @pytest.mark.parametrize("traced", [(0,), (1,), (2,), (1, 2), (0, 1, 2)])
    def test_constant_operands_get_no_gradient_work(self, traced):
        rng = Rng(126)
        tape = Tape()
        operands = [rng.normal((6, 4)), rng.normal((4, 3)), rng.normal((1, 3))]
        operands = [Var(a, tape) if i in traced else a
                    for i, a in enumerate(operands)]
        out = linear(*operands, rectify=True)
        computed = _spy_on_backward(tape)
        gradient(tape, total(out))
        (grads,) = computed
        for i, grad in enumerate(grads):
            assert (grad is not None) == (i in traced)


class TestFiniteDiff:
    def test_sum_of_squares(self):
        g = finite_diff(lambda x: float((x ** 2).sum()), np.array([3.0]))
        assert abs(g[0] - 6.0) <= 1e-6

    def test_constant_function(self):
        g = finite_diff(lambda x: 1.25, np.ones((2, 3)))
        assert np.abs(g).max() <= 1e-9

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff(lambda x: 0.0, np.ones(2), h=0.0)


class TestGradCheckPrimitives:
    """Analytic gradients match central differences at random points."""

    N_POINTS = 100

    def test_add_mul_with_broadcast(self):
        rng = Rng(101)
        shapes = [((3, 4), (3, 4)), ((3, 4), (1, 4)), ((3, 4), (3, 1)),
                  ((3, 1), (1, 4)), ((3, 4), (1, 1))]
        for sa, sb in shapes:
            for _ in range(self.N_POINTS // 5):
                a, b = rng.normal(sa), rng.normal(sb)
                check_gradients(lambda x, y: total(add(x, y)), [a, b],
                                label=f"add {sa}x{sb}")
                check_gradients(lambda x, y: total(mul(x, y)), [a, b],
                                label=f"mul {sa}x{sb}")

    @pytest.mark.parametrize("rectify", [False, True])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_linear(self, rows, rectify):
        # rectified points are redrawn until no input to the rectifier lies
        # within 1e-3 of the kink; one row leaves the bias gradient unsummed
        rng = Rng(110)
        for _ in range(self.N_POINTS // 4):
            while True:
                x, w, b = rng.normal((rows, 4)), rng.normal((4, 3)), rng.normal((1, 3))
                if not rectify or np.abs(x @ w + b).min() > 1e-3:
                    break
            weight = rng.normal((rows, 3))
            check_gradients(
                lambda *vs: total(mul(linear(*vs, rectify), weight)),
                [x, w, b], label=f"linear rows={rows} rectify={rectify}")

    @pytest.mark.parametrize("op", [elu, absval])
    def test_kinked_activations(self, op):
        rng = Rng(102)
        for _ in range(self.N_POINTS):
            x = shift_from_kinks(rng.normal((3, 4)))
            check_gradients(lambda v: total(op(v)), [x], label=op.__name__)

    # hgcn_conv's two degree pseudo-inverses: "safe_recip" is b^{-1} over
    # the hyperedge degrees, "safe_rsqrt" is d^{-1/2} over the vertex degrees

    @pytest.mark.parametrize("normalizer", ["safe_recip", "safe_rsqrt"])
    def test_safe_reciprocals_positive_branch(self, normalizer):
        # the chosen degrees lie in [0.0125, 3], the others near 1 or above
        rng = Rng(103)
        for _ in range(self.N_POINTS):
            if normalizer == "safe_recip":
                H = rng.uniform(0.05, 3.0, (6, 4)) / 3.0   # b in [0.05, 3]
                w = rng.uniform(0.5, 2.0, (4, 1))
            else:
                H = rng.uniform(0.5, 2.0, (6, 4))
                w = rng.uniform(0.05, 3.0, (4, 1)) / 8.0   # d in [0.0125, 3]
            check_gradients(lambda *vs: total(hgcn_conv(*vs, 3)),
                            [rng.normal((6, 1)), H, w], label=normalizer)

    @pytest.mark.parametrize("normalizer", ["safe_recip", "safe_rsqrt"])
    def test_safe_reciprocals_zero_branch_grad_is_zero(self, normalizer):
        rng = Rng(107)
        x, w = rng.normal((6, 1)), rng.normal((4, 1))
        H = rng.uniform(0.5, 2.0, (6, 4))
        # every degree at zero: the incidence is zero ("safe_recip") or the
        # weights are ("safe_rsqrt"); every gradient is exactly zero
        zeroed = [x, np.zeros_like(H), w] if normalizer == "safe_recip" \
            else [x, H, np.zeros_like(w)]
        _, grads = leaf_grads(lambda *vs: total(hgcn_conv(*vs, 3)), *zeroed)
        for grad, value in zip(grads, zeroed):
            np.testing.assert_array_equal(grad, np.zeros_like(value))
        # one degree at 1e-9, below SAFE_EPS: a hyperedge column or a vertex
        # row. With no gradient through its pseudo-inverse, the gradients
        # differ from those at an exactly zero column or row by O(1e-9);
        # the unmasked derivative would add terms of order 1e9
        tiny, zero = H.copy(), H.copy()
        if normalizer == "safe_recip":
            tiny[3:, 1], zero[3:, 1] = 1e-9 / 3, 0.0
        else:
            tiny[4], zero[4] = 1e-9 / (4 * np.abs(w).max()), 0.0
        for got, want in zip(_hgcn_grads(x, tiny, w, 3),
                             _hgcn_grads(x, zero, w, 3)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_reductions_and_gather(self):
        rng = Rng(104)
        weights = rng.split("weights")
        for _ in range(self.N_POINTS // 4):
            x = rng.normal((4, 3))
            check_gradients(lambda v: total(v), [x], label="sum")
            # weighted so that each row's gradient differs
            weight = weights.normal((3, 3))
            check_gradients(
                lambda v: total(mul(select_rows(v, [2, 0, 3]), weight)),
                [x], label="select_rows")
            y = rng.normal((4, 2))
            check_gradients(
                lambda a, b: total(mul(concat_cols(a, b),
                                            concat_cols(a, b))),
                [x, y], label="concat_cols")

    def test_segment_primitives(self):
        rng = Rng(106)
        for _ in range(self.N_POINTS // 4):
            x = rng.normal((6, 2))
            weight = rng.normal((4, 3))
            check_gradients(
                lambda v: total(mul(reshape(v, 4, 3), weight)), [x],
                label="reshape")
            check_gradients(
                lambda v: total(mul(block_sum(v, 3), weight[:2, :2])),
                [x], label="block_sum")

    def test_hgcn_conv(self):
        rng = Rng(108)
        for S, n, k in ((1, 3, 2), (2, 3, 4), (3, 2, 5), (2, 4, 1)):
            for _ in range(4):
                H = rng.uniform(0.1, 2.0, (S * n, k))
                weight = rng.normal((S * n, 1))
                check_gradients(
                    lambda *vs: total(mul(hgcn_conv(*vs, n), weight)),
                    [rng.normal((S * n, 1)), H, rng.normal((k, 1))],
                    label=f"hgcn_conv S={S} n={n} k={k}")

    def test_hgcn_conv_with_zero_degrees(self):
        # an all-zero hyperedge column and a zero-degree vertex; a +-h step
        # on a zero entry of H crosses SAFE_EPS, where finite differences are
        # undefined, so H is checked over its nonzero entries only
        rng = Rng(109)
        S, n, k = 3, 3, 4
        for trial in range(12):
            H = rng.uniform(0.1, 2.0, (S * n, k))
            H[n * (trial % S):n * (trial % S + 1), trial % k] = 0.0
            H[(trial * 5 + 1) % (S * n)] = 0.0
            x, w = rng.normal((S * n, 1)), rng.normal((k, 1))
            weight = rng.normal((S * n, 1))
            out = hgcn_conv(x, H, w, n).value
            for b in range(S):
                rows = slice(b * n, (b + 1) * n)
                np.testing.assert_allclose(
                    out[rows], hgcn_layer_dense(x[rows], H[rows], w), atol=1e-12)

            def build(xv, hv, wv):
                return total(mul(hgcn_conv(xv, hv, wv, n), weight))

            check_gradients(lambda xv, wv: build(xv, H, wv), [x, w],
                            label=f"hgcn_conv x, w #{trial}")
            nonzero = H > 0.0

            def on_nonzero(vals):
                full = np.zeros_like(H)
                full[nonzero] = vals
                return float(build(x, full, w).value[0, 0])

            tape = Tape()
            hv = Var(H, tape)
            assert_grad_close(gradient(tape, build(x, hv, w))[hv][nonzero],
                              finite_diff(on_nonzero, H[nonzero]),
                              label=f"hgcn_conv H #{trial}")

    def test_gru_sequence(self):
        rng = Rng(105)
        hid, din, rows = 4, 3, 2
        for steps in (1, 3):
            for _ in range(8):
                args = [rng.normal((steps * rows, din)), rng.normal((rows, hid)),
                        rng.normal((din, 3 * hid)), rng.normal((hid, 3 * hid)),
                        rng.normal((1, 3 * hid)), rng.normal((1, 3 * hid))]
                weight = rng.normal((steps * rows, hid))
                label = f"gru_sequence steps={steps}"
                check_gradients(
                    lambda *vs: total(mul(gru_sequence(*vs, steps), weight)),
                    args, label=label)
                x, h0 = args[:2]
                check_gradients(
                    lambda *ws: total(mul(gru_sequence(x, h0, *ws, steps), weight)),
                    args[2:], label=f"{label}, x and h0 constant")


class TestGruForward:
    def test_zero_params_zero_hidden_fixed_point(self):
        hid = 4
        out = gru_sequence(np.ones((1, 3)), np.zeros((1, hid)),
                           np.zeros((3, 3 * hid)), np.zeros((hid, 3 * hid)),
                           np.zeros((1, 3 * hid)), np.zeros((1, 3 * hid)))
        np.testing.assert_array_equal(out.value, np.zeros((1, hid)))

    def test_zero_params_halves_hidden(self):
        hid = 3
        h = np.array([[1.0, -2.0, 4.0]])
        out = gru_sequence(np.zeros((2, 2)), h, np.zeros((2, 3 * hid)),
                           np.zeros((hid, 3 * hid)), np.zeros((1, 3 * hid)),
                           np.zeros((1, 3 * hid)), steps=2)
        np.testing.assert_allclose(out.value, [0.5 * h[0], 0.25 * h[0]])

    @pytest.mark.parametrize("rows, hid, steps, din",
                             [(5, 6, 4, 3), (128, 64, 12, 64)])
    def test_untraced_forward_matches_traced_bits(self, rows, hid, steps, din):
        # with no operand traced, every step reuses one slot of gates
        args, _ = _gru_case(rows + steps, rows, hid, steps, din)
        tape = Tape()
        traced = gru_sequence(*(Var(a, tape) for a in args), steps=steps).value
        assert _same_bits(gru_sequence(*args, steps=steps).value, traced)

    @pytest.mark.parametrize("rows, hid, steps, din, blocks",
                             [(3, 16, 4, 16, 5), (4, 64, 3, 64, 8)])
    def test_row_blocks_equal_one_block_calls(self, rows, hid, steps, din,
                                              blocks):
        # rows are independent: each block of a step's rows gets, within
        # rounding, the output of a call on it alone
        args, _ = _gru_case(blocks, rows * blocks, hid, steps, din)
        x, h0, weights = args[0], args[1], args[2:]
        out = gru_sequence(*args, steps).value
        for b in range(blocks):
            mine = np.concatenate([np.arange(rows) + (t * blocks + b) * rows
                                   for t in range(steps)])
            alone = gru_sequence(x[mine], h0[b * rows:(b + 1) * rows],
                                 *weights, steps).value
            np.testing.assert_allclose(out[mine], alone, rtol=0, atol=1e-12,
                                       err_msg=str(b))

    def test_matches_independent_reference(self):
        rng = Rng(106)
        hid, din, rows = 5, 4, 3
        for steps in (1, 3):
            for _ in range(10):
                x = rng.normal((steps * rows, din))
                h = rng.normal((rows, hid))
                w_ih = rng.normal((din, 3 * hid))
                w_hh = rng.normal((hid, 3 * hid))
                b_ih = rng.normal((1, 3 * hid))
                b_hh = rng.normal((1, 3 * hid))
                got = gru_sequence(x, h, w_ih, w_hh, b_ih, b_hh, steps).value
                for t in range(steps):
                    h = gru_step_reference(x[t * rows:(t + 1) * rows], h,
                                           w_ih, w_hh, b_ih, b_hh)
                    np.testing.assert_allclose(got[t * rows:(t + 1) * rows],
                                               h, atol=1e-12)


def _gru_case(seed, rows, hid, steps, din):
    rng = Rng(seed)
    args = [rng.normal((steps * rows, din)), rng.normal((rows, hid)),
            0.3 * rng.normal((din, 3 * hid)), 0.3 * rng.normal((hid, 3 * hid)),
            rng.normal((1, 3 * hid)), rng.normal((1, 3 * hid))]
    return args, rng.normal((steps * rows, hid))


def _gru_primitive(args, g, steps, need):
    tape = Tape()
    vs = [Var(a, tape) if n else Var(a) for a, n in zip(args, need)]
    out = gru_sequence(*vs, steps=steps)
    grads = gradient(tape, {out: g})
    return out.value, [grads.get(v) for v in vs]


class TestGruSequenceLayout:
    """The gate-major kernel against the row-layout recurrence, bit for bit."""

    CASES = [(3, 16, 1, 16), (12, 16, 4, 16), (96, 16, 8, 16), (128, 64, 12, 64)]

    @pytest.mark.parametrize("rows, hid, steps, din", CASES,
                             ids=["-".join(map(str, c)) for c in CASES])
    @pytest.mark.parametrize("need", [(True,) * 6, (False, False) + (True,) * 4],
                             ids=["all-traced", "x-h0-constant"])
    def test_bit_identical_to_row_layout(self, rows, hid, steps, din, need):
        args, g = _gru_case(rows + steps, rows, hid, steps, din)
        want_out, want_grads = gru_sequence_reference(*args, steps, g, need)
        got_out, got_grads = _gru_primitive(args, g, steps, need)
        assert np.array_equal(got_out, want_out)
        for i, (got, want) in enumerate(zip(got_grads, want_grads)):
            if want is None:
                assert got is None, i
            else:
                assert got.shape == want.shape and np.array_equal(got, want), i

    def test_peak_memory_within_row_layout(self):
        # paper shape: 32 episodes x 4 agents, agent_hidden 64, 12 steps
        rows, hid, steps, din = 128, 64, 12, 64
        args, g = _gru_case(9, rows, hid, steps, din)
        peaks = []
        for run in (lambda: _gru_primitive(args, g, steps, (True,) * 6),
                    lambda: gru_sequence_reference(*args, steps, g)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], peaks

    def test_keeps_only_reset_and_update_gates(self):
        # between forward and backward a traced call holds its output, r and
        # z of every step, and at most one step's scratch: six (R x H) gates
        rows, hid, steps, din = 128, 64, 12, 64
        args, _ = _gru_case(10, rows, hid, steps, din)
        tape = Tape()
        vs = [Var(a, tape) for a in args]
        tracemalloc.start()
        try:
            gru_sequence(*vs, steps=steps)  # its tape record keeps it for backward
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        block = rows * hid * 8
        assert held <= (steps + 2 * steps + 6) * block, held / block

    def test_untraced_forward_peak_does_not_grow_with_steps(self):
        rows, hid, din = 128, 64, 64
        beyond_out = []
        for steps in (2, 12):
            args, _ = _gru_case(11, rows, hid, steps, din)
            tracemalloc.start()
            try:
                gru_sequence(*args, steps=steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            beyond_out.append(peak - steps * rows * hid * 8)
        assert beyond_out[1] <= beyond_out[0] + 4096, beyond_out
