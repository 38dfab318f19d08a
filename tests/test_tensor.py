"""Tape and operation tests, anchored on central finite differences."""

import numpy as np
import pytest
from oracles import fd_grad, rel_err

import cral.tensor as tt
from cral.errors import ContractError, DimensionError


class TestMatmul:
    def test_identity(self):
        v = np.array([[2.0], [3.0]])
        out = tt.matmul(tt.Tensor(np.eye(2)), tt.Tensor(v))
        np.testing.assert_array_equal(out.data, v)

    def test_forced_arithmetic(self):
        a = tt.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tt.Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(tt.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            tt.matmul(tt.Tensor(np.zeros((2, 3))), tt.Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))

        def f(arrays):
            tape = tt.Tape()
            prod = tt.matmul(tape.leaf(arrays[0]), tape.leaf(arrays[1]))
            return tt.sum(prod).item()

        tape = tt.Tape()
        ta, tb = tape.leaf(a), tape.leaf(b)
        grads = tt.backward(tt.sum(tt.matmul(ta, tb)))
        assert rel_err(grads.wrt(ta), fd_grad(f, [a, b], 0)) < 1e-6
        assert rel_err(grads.wrt(tb), fd_grad(f, [a, b], 1)) < 1e-6


class TestElementwise:
    def test_relu_values(self):
        out = tt.relu(tt.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_flat_region_gradient(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([-5.0]))
        grads = tt.backward(tt.sum(tt.relu(x)))
        np.testing.assert_array_equal(grads.wrt(x), [0.0])

    def test_relu_subgradient_zero_at_kink(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([0.0]))
        grads = tt.backward(tt.sum(tt.relu(x)))
        np.testing.assert_array_equal(grads.wrt(x), [0.0])

    def test_clamp_max_gradient_gates(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([0.5, 2.0]))
        grads = tt.backward(tt.sum(tt.clamp_max(x, 1.0)))
        np.testing.assert_array_equal(grads.wrt(x), [1.0, 0.0])

    def test_scalar_broadcast(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        out = x * 3.0 + 1.0
        np.testing.assert_array_equal(out.data, [4.0, 7.0])
        grads = tt.backward(tt.sum(out))
        np.testing.assert_array_equal(grads.wrt(x), [3.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tt.add(tt.Tensor(np.zeros(2)), tt.Tensor(np.zeros(3)))

    # xlogy_rows with a = p, the entropy form, is a unary op of p.
    @pytest.mark.parametrize("op", [lambda t: tt.xlogy_rows(t, t, np.array([0.5, -1.0, 2.0])),
                                    lambda t: tt.clamp_max(t, 0.7)])
    def test_unary_gradients_match_fd(self, op):
        rng = np.random.default_rng(11)
        # Keep away from kinks and the log floor.
        x = rng.uniform(0.4, 1.5, size=(3, 2))
        x[0, 0] = 0.9

        def f(arrays):
            tape = tt.Tape()
            return tt.sum(op(tape.leaf(arrays[0]))).item()

        tape = tt.Tape()
        leaf = tape.leaf(x)
        grads = tt.backward(tt.sum(op(leaf)))
        assert rel_err(grads.wrt(leaf), fd_grad(f, [x], 0)) < 1e-6


class TestXlogyRows:
    """The weighted row sum of a log(max(p, LOG_FLOOR)); the a-is-p case's
    finite differences are in TestElementwise.test_unary_gradients_match_fd."""

    def test_value(self):
        a = np.array([[1.0, 0.0], [0.25, 0.75]])
        p = np.array([[0.5, 0.5], [0.0, 1.0]])
        got = tt.xlogy_rows(tt.Tensor(a), tt.Tensor(p), np.array([2.0, 3.0])).item()
        want = 2.0 * np.log(0.5) + 3.0 * 0.25 * np.log(tt.LOG_FLOOR)
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("floored", [False, True])
    def test_gradients_match_fd(self, floored):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((4, 3))
        p = rng.uniform(0.05, 1.0, size=(4, 3))
        w = rng.uniform(-1.0, 2.0, size=4)
        if floored:
            p[1, :] = [0.0, 1e-15, 0.5]
            p[3, 2] = 0.0
        below = p <= tt.LOG_FLOOR

        def f(arrays):
            tape = tt.Tape()
            return tt.xlogy_rows(tape.leaf(arrays[0]), tape.leaf(arrays[1]), w).item()

        tape = tt.Tape()
        ta, tp = tape.leaf(a), tape.leaf(p)
        grads = tt.backward(tt.xlogy_rows(ta, tp, w))
        assert rel_err(grads.wrt(ta), fd_grad(f, [a, p], 0)) < 1e-6
        gp = grads.wrt(tp)
        # A difference step across a floored entry straddles the floor, so
        # differences are compared off those entries; they get no gradient.
        np.testing.assert_array_equal(gp[below], 0.0)
        assert below.any() == floored
        assert rel_err(gp[~below], fd_grad(f, [a, p], 1)[~below]) < 1e-6

    def test_shape_mismatch(self):
        p = tt.Tensor(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(DimensionError):
            tt.xlogy_rows(tt.Tensor(np.ones((2, 2))), p, np.ones(2))
        with pytest.raises(DimensionError):
            tt.xlogy_rows(p, p, np.ones(3))
        with pytest.raises(DimensionError):
            tt.xlogy_rows(tt.Tensor(np.ones(3)), tt.Tensor(np.ones(3)), np.ones(3))


class TestReductions:
    def test_l1_norm_value(self):
        assert tt.l1_norm(tt.Tensor([0.2, -0.2])).item() == pytest.approx(0.4)

    def test_l2_norm_sq_value(self):
        assert tt.l2_norm_sq(tt.Tensor([3.0, 4.0])).item() == 25.0

    def test_l1_norm_gradient_is_sign(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([0.5, -0.5]))
        grads = tt.backward(tt.l1_norm(x))
        np.testing.assert_array_equal(grads.wrt(x), [1.0, -1.0])

    def test_l1_norm_subgradient_zero_at_kink(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([0.0, -2.0, 3.0]))
        grads = tt.backward(tt.l1_norm(x))
        np.testing.assert_array_equal(grads.wrt(x), [0.0, -1.0, 1.0])

    def test_axis_reductions(self):
        x = tt.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(tt.sum(x, axis=1).data, [3.0, 7.0])
        np.testing.assert_array_equal(tt.sum(x, axis=0).data, [4.0, 6.0])

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            tt.sum(tt.Tensor(np.zeros((2, 2))), axis=2)

    @pytest.mark.parametrize("reduce_op,axis", [
        (tt.sum, None), (tt.sum, 0), (tt.sum, 1),
        (tt.l1_norm, None), (tt.l1_norm, 1),
        (tt.l2_norm_sq, None), (tt.l2_norm_sq, 0),
    ])
    def test_reduction_gradients_match_fd(self, reduce_op, axis):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4)) + 0.1  # nudge off abs kinks
        w = rng.standard_normal()

        def scalarize(t):
            out = reduce_op(t, axis=axis)
            return tt.sum(out * w) if out.shape != () else out * w

        def f(arrays):
            tape = tt.Tape()
            return scalarize(tape.leaf(arrays[0])).item()

        tape = tt.Tape()
        leaf = tape.leaf(x)
        grads = tt.backward(scalarize(leaf))
        assert rel_err(grads.wrt(leaf), fd_grad(f, [x], 0)) < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = tt.softmax_rows(tt.Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_stabilized_against_overflow(self):
        out = tt.softmax_rows(tt.Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)

    def test_rows_sum_to_one_strictly_positive(self):
        rng = np.random.default_rng(3)
        out = tt.softmax_rows(tt.Tensor(rng.standard_normal((50, 6)) * 30.0))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out.data > 0.0)

    def test_directional_derivative_matches_fd(self):
        rng = np.random.default_rng(17)
        logits = rng.standard_normal((3, 4))
        weights = rng.standard_normal((3, 4))
        direction = rng.standard_normal((3, 4))

        def value(arr):
            return float(np.sum(tt.softmax_rows(tt.Tensor(arr)).data * weights))

        h = 1e-6
        fd = (value(logits + h * direction) - value(logits - h * direction)) / (2 * h)
        tape = tt.Tape()
        leaf = tape.leaf(logits)
        grads = tt.backward(tt.sum(tt.softmax_rows(leaf) * tt.Tensor(weights)))
        analytic = float(np.sum(grads.wrt(leaf) * direction))
        assert abs(analytic - fd) / max(abs(fd), 1e-12) < 1e-5


class TestStructuralOps:
    def test_linear_gradients_match_fd(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)

        def f(arrays):
            tape = tt.Tape()
            out = tt.linear(*(tape.leaf(a) for a in arrays))
            return tt.l2_norm_sq(out).item()

        tape = tt.Tape()
        tx, tw, tb = tape.leaf(x), tape.leaf(w), tape.leaf(b)
        out = tt.linear(tx, tw, tb)
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-14)
        grads = tt.backward(tt.l2_norm_sq(out))
        for k, leaf in enumerate((tx, tw, tb)):
            assert rel_err(grads.wrt(leaf), fd_grad(f, [x, w, b], k)) < 1e-6
        # The weight gradient is laid out like the weight, not as a view.
        assert grads.wrt(tw).flags.c_contiguous

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((4, 3), (2, 4), (2,)),   # x width != weight input width
        ((4, 3), (2, 3), (3,)),   # bias width != weight output width
        ((3,), (2, 3), (2,)),     # x is not a matrix
        ((4, 3), (2, 3), (1, 2)),  # bias is not a vector
    ])
    def test_linear_rejects_misaligned_shapes(self, x_shape, w_shape, b_shape):
        with pytest.raises(DimensionError, match="linear"):
            tt.linear(tt.Tensor(np.zeros(x_shape)), tt.Tensor(np.zeros(w_shape)),
                      tt.Tensor(np.zeros(b_shape)))

    def test_concat_cols_splits_gradient(self):
        tape = tt.Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.leaf(np.ones((2, 3)))
        out = tt.concat_cols(a, b)
        assert out.shape == (2, 5)
        weights = np.arange(10.0).reshape(2, 5)
        grads = tt.backward(tt.sum(out * tt.Tensor(weights)))
        np.testing.assert_array_equal(grads.wrt(a), weights[:, :2])
        np.testing.assert_array_equal(grads.wrt(b), weights[:, 2:])

    def test_concat_rows_splits_gradient(self):
        tape = tt.Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((1, 3)))
        out = tt.concat_rows(a, b)
        assert out.shape == (3, 3)
        weights = np.arange(9.0).reshape(3, 3)
        grads = tt.backward(tt.sum(out * tt.Tensor(weights)))
        np.testing.assert_array_equal(grads.wrt(a), weights[:2])
        np.testing.assert_array_equal(grads.wrt(b), weights[2:])

    def test_concat_rows_rejects_width_mismatch(self):
        with pytest.raises(DimensionError):
            tt.concat_rows(tt.Tensor(np.ones((1, 2))), tt.Tensor(np.ones((1, 3))))

    def test_concat_rows_of_three_and_of_one(self):
        tape = tt.Tape()
        parts = [tape.leaf(np.full((n, 2), float(n))) for n in (2, 1, 3)]
        out = tt.concat_rows(*parts)
        weights = np.arange(12.0).reshape(6, 2)
        grads = tt.backward(tt.sum(out * tt.Tensor(weights)))
        for part, rows in zip(parts, (slice(0, 2), slice(2, 3), slice(3, 6))):
            np.testing.assert_array_equal(grads.wrt(part), weights[rows])
        assert tt.concat_rows(parts[0]) is parts[0]
        with pytest.raises(DimensionError):
            tt.concat_rows()

    def test_slice_rows_gradient_matches_fd(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((5, 3))
        weights = rng.standard_normal((2, 3))

        def f(arrays):
            rows = tt.slice_rows(tt.Tape().leaf(arrays[0]), slice(1, 3))
            return tt.l2_norm_sq(rows * tt.Tensor(weights)).item()

        tape = tt.Tape()
        tx = tape.leaf(x)
        rows = tt.slice_rows(tx, slice(1, 3))
        np.testing.assert_array_equal(rows.data, x[1:3])
        grads = tt.backward(tt.l2_norm_sq(rows * tt.Tensor(weights)))
        assert rel_err(grads.wrt(tx), fd_grad(f, [x], 0)) < 1e-6
        np.testing.assert_array_equal(grads.wrt(tx)[[0, 3, 4]], 0.0)

    def test_slice_rows_of_a_constant_is_a_constant(self):
        rows = tt.slice_rows(tt.Tensor(np.ones((3, 2))), slice(0, 3))
        assert rows.is_constant and rows.shape == (3, 2)

    @pytest.mark.parametrize("shape,rows", [
        ((4, 2), slice(2, 5)),      # past the last row
        ((4, 2), slice(-1, 2)),     # negative start
        ((4, 2), slice(3, 1)),      # start after stop
        ((4, 2), slice(0, 4, 2)),   # not every row
        ((4, 2), slice(None, 2)),   # open start
        ((4,), slice(0, 2)),        # not a matrix
    ])
    def test_slice_rows_rejects_out_of_range_or_misaligned(self, shape, rows):
        with pytest.raises(DimensionError, match="slice_rows"):
            tt.slice_rows(tt.Tensor(np.zeros(shape)), rows)


class TestStackedOps:
    """Ops over a leading axis of two stacked copies (the model's branches),
    anchored on finite differences and on each copy run alone."""

    def stacked_linear_setup(self, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((4, 3)), rng.standard_normal((2, 4, 3)),
                rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 5)))

    @pytest.mark.parametrize("shared", [True, False], ids=["shared_input", "stacked_input"])
    def test_linear_gradients_match_fd(self, shared):
        # A shared (n, in) input, read by both copies, gets the sum of their
        # input gradients; a stacked (2, n, in) leaf, the VAT probe's case,
        # gets each copy's own.
        x, xs, w, b = self.stacked_linear_setup(53)
        x = x if shared else xs

        def f(arrays):
            tape = tt.Tape()
            return tt.l2_norm_sq(tt.linear(*(tape.leaf(a) for a in arrays))).item()

        tape = tt.Tape()
        tx, tw, tb = tape.leaf(x), tape.leaf(w), tape.leaf(b)
        out = tt.linear(tx, tw, tb)
        for k in range(2):
            alone = tt.linear(tt.Tensor(x if shared else x[k]), tt.Tensor(w[k]),
                              tt.Tensor(b[k]))
            np.testing.assert_array_equal(out.data[k], alone.data)
        grads = tt.backward(tt.l2_norm_sq(out))
        assert grads.wrt(tx).shape == x.shape
        for k, leaf in enumerate((tx, tw, tb)):
            assert rel_err(grads.wrt(leaf), fd_grad(f, [x, w, b], k)) < 1e-6
        assert grads.wrt(tw).flags.c_contiguous

    def test_weight_read_by_shared_and_stacked_inputs_is_one_product(self, monkeypatch):
        # The clean pass reads the shared rows, the perturbed pass each
        # copy's own: one sweep, one product for the stacked weight.
        x, xs, w, b = self.stacked_linear_setup(59)
        key = object()

        def loss(tape, arrays):
            tw = tape.bind(key, arrays[0])
            tb = tt.Tensor(b)
            return tt.add(tt.l2_norm_sq(tt.linear(tt.Tensor(x), tw, tb)),
                          tt.l2_norm_sq(tt.linear(tt.Tensor(xs), tw, tb)))

        grads = tt.backward(loss(tt.Tape(), [w]))
        dense, g_rows, x_rows = grads.parts(key)
        assert dense is None and g_rows.shape[0] == x_rows.shape[0] == 2
        products, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: products.append(a) or matmul(*a, **k))
        out = np.empty_like(w)
        got = tt.form_gradient(dense, g_rows, x_rows, out=out)
        monkeypatch.setattr(np, "matmul", matmul)
        assert got is out and len(products) == 1
        assert rel_err(got, fd_grad(lambda arrays: loss(tt.Tape(), arrays).item(), [w], 0)) < 1e-6
        for k in range(2):  # one copy at a time gives that copy's bits
            np.testing.assert_array_equal(tt.form_gradient(None, g_rows[k], x_rows[k]),
                                          got[k])

    def test_row_bands_of_a_copy_form_its_rows(self):
        # Bands of rows of each copy's gradient, dense part included, formed
        # one after another as Adam forms its panels.
        x, xs, w, b = self.stacked_linear_setup(60)
        key = object()
        tape = tt.Tape()
        tw, tb = tape.bind(key, w), tt.Tensor(b)
        grads = tt.backward(tt.add(tt.add(tt.l2_norm_sq(tt.linear(tt.Tensor(x), tw, tb)),
                                          tt.l2_norm_sq(tt.linear(tt.Tensor(xs), tw, tb))),
                                   tt.l2_norm_sq(tw)))
        whole = grads.wrt_key(key, w)
        dense, g_rows, x_rows = grads.parts(key)
        for k in range(2):
            for rows in (slice(0, 2), slice(2, 4), slice(4, 6)):
                out = np.empty_like(w[k][rows])
                assert tt.form_gradient(dense[k][rows], g_rows[k][:, rows], x_rows[k],
                                        out=out) is out
                np.testing.assert_allclose(out, whole[k][rows], rtol=1e-14, atol=0)
        assert grads.parts(object()) == (None, None, None)
        out = np.full((2, 3), 3.0)
        assert tt.form_gradient(*grads.parts(object()), out=out) is out
        np.testing.assert_array_equal(out, 0.0)

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((3, 4, 3), (2, 5, 3), (2, 5)),  # three input copies for two weight copies
        ((4, 3), (2, 5, 3), (5,)),       # an unstacked bias
        ((2, 4, 3), (5, 3), (5,)),       # a stacked input for one weight
    ])
    def test_linear_rejects_misaligned_stacks(self, x_shape, w_shape, b_shape):
        with pytest.raises(DimensionError, match="linear"):
            tt.linear(tt.Tensor(np.zeros(x_shape)), tt.Tensor(np.zeros(w_shape)),
                      tt.Tensor(np.zeros(b_shape)))

    MASK = (np.random.default_rng(61).random((2, 3, 4)) >= 0.3) / 0.7
    SHARED = np.random.default_rng(62).uniform(0.0, 1.0, (3, 4))
    ROW_WEIGHTS = np.array([0.5, -1.0, 2.0])
    OPS = {
        "relu": tt.relu,
        "dropout_mask": lambda t: tt.mul(t, tt.Tensor(TestStackedOps.MASK)),
        "concat_cols": lambda t: tt.concat_cols(t, tt.relu(t)),
        "concat_rows": lambda t: tt.concat_rows(tt.slice_rows(t, slice(2, 3)),
                                                tt.slice_rows(t, slice(0, 2))),
        "softmax_rows": tt.softmax_rows,
        "xlogy_shared_a": lambda t: tt.xlogy_rows(
            tt.Tensor(TestStackedOps.SHARED), tt.softmax_rows(t), TestStackedOps.ROW_WEIGHTS),
        "xlogy_entropy": lambda t: (lambda p: tt.xlogy_rows(p, p, TestStackedOps.ROW_WEIGHTS))(
            tt.softmax_rows(t)),
        "l1_norm_rows": lambda t: tt.l1_norm(t, axis=-1),
        "l2_norm_sq_cols": lambda t: tt.l2_norm_sq(t, axis=1),
        "sum_rows": lambda t: tt.sum(t, axis=-2),
        "index": lambda t: tt.index(t, 1),
    }

    @pytest.mark.parametrize("name", list(OPS))
    def test_op_gradients_match_fd(self, name):
        op = self.OPS[name]
        rng = np.random.default_rng(67)
        x = rng.standard_normal((2, 3, 4))
        weights = rng.standard_normal(op(tt.Tensor(x)).shape)

        def loss(leaf):
            return tt.sum(tt.mul(op(leaf), tt.Tensor(weights)))

        def f(arrays):
            return loss(tt.Tape().leaf(arrays[0])).item()

        tape = tt.Tape()
        leaf = tape.leaf(x)
        assert rel_err(tt.backward(loss(leaf)).wrt(leaf), fd_grad(f, [x], 0)) < 1e-6

    @pytest.mark.parametrize("name", ["relu", "concat_cols", "concat_rows", "softmax_rows",
                                      "xlogy_shared_a", "xlogy_entropy", "l1_norm_rows",
                                      "sum_rows"])
    def test_each_copy_matches_the_op_run_alone(self, name):
        x = np.random.default_rng(71).standard_normal((2, 3, 4))
        stacked = self.OPS[name](tt.Tensor(x)).data
        for k in range(2):
            np.testing.assert_array_equal(stacked[k], self.OPS[name](tt.Tensor(x[k])).data)

    def test_combine_matches_its_chain_of_ops_bit_for_bit(self):
        # The main objective's weighted sum, in order, of values read off
        # stacked terms and of a scalar term.
        rng = np.random.default_rng(73)
        a, b, c = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(())
        parts = [(0, 0, 1.0), (1, 0, -0.7), (0, 1, 1.0), (1, 1, -0.7), (2, None, 0.3)]

        def run(chain):
            tape = tt.Tape()
            leaves = [tape.leaf(v) for v in (a, b, c)]
            if chain:
                loss = None
                for t, k, w in parts:
                    term = (leaves[t] if k is None else tt.index(leaves[t], k)) * w
                    loss = term if loss is None else tt.add(loss, term)
            else:
                loss = tt.combine([(leaves[t], k, w) for t, k, w in parts])
            grads = tt.backward(loss)
            return loss.item(), [grads.wrt(leaf) for leaf in leaves]

        (chained, want), (combined, got) = run(True), run(False)
        assert combined == chained
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(got[1], [-0.7, -0.7])
        with pytest.raises(DimensionError, match="combine"):
            tt.combine([(tt.Tensor(a), None, 1.0)])

    def test_index_rejects_a_missing_copy(self):
        with pytest.raises(DimensionError, match="index"):
            tt.index(tt.Tensor(np.zeros((2, 3))), 2)


class TestBackward:
    def test_constant_branch_gets_zero(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        unused = tape.leaf(np.array([5.0]))
        grads = tt.backward(tt.sum(x))
        np.testing.assert_array_equal(grads.wrt(unused), [0.0])

    def test_sum_gives_all_ones(self):
        tape = tt.Tape()
        x = tape.leaf(np.zeros((2, 3)))
        grads = tt.backward(tt.sum(x))
        np.testing.assert_array_equal(grads.wrt(x), np.ones((2, 3)))

    def test_non_scalar_loss_rejected(self):
        tape = tt.Tape()
        x = tape.leaf(np.zeros(3))
        with pytest.raises(ContractError):
            tt.backward(x)

    def test_constant_loss_rejected(self):
        with pytest.raises(ContractError):
            tt.backward(tt.Tensor(1.0))

    def test_backward_twice_identical(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([1.5, -0.5]))
        loss = tt.l2_norm_sq(tt.relu(x * 2.0))
        first = tt.backward(loss).wrt(x)
        second = tt.backward(loss).wrt(x)
        np.testing.assert_array_equal(first, second)

    def test_reused_leaf_accumulates(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([2.0]))
        grads = tt.backward(tt.sum(x * x))
        np.testing.assert_allclose(grads.wrt(x), [4.0])

    def test_bind_memoizes_per_key(self):
        tape = tt.Tape()
        key = object()
        a = tape.bind(key, np.array([1.0]))
        b = tape.bind(key, np.array([7.0]))
        assert a.node_id == b.node_id
        np.testing.assert_array_equal(b.data, [1.0])
        grads = tt.backward(tt.sum(a * 2.0 + b * 3.0))
        np.testing.assert_array_equal(grads.wrt_key(key, a.data), [5.0])

    def test_non_leaf_gradient_is_not_kept(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        hidden = x * 2.0
        grads = tt.backward(tt.sum(hidden))
        with pytest.raises(ContractError, match="not a leaf"):
            grads.wrt(hidden)

    def test_scalar_leaf_used_three_times(self):
        tape = tt.Tape()
        c = tape.leaf(np.array(2.0))
        grads = tt.backward(c * c + c)
        assert grads.wrt(c) == 5.0

    def test_scalar_intermediate_accumulates(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([0.5, 1.0, 2.0]))
        s = tt.sum(x)
        grads = tt.backward(s * s + s)
        np.testing.assert_array_equal(grads.wrt(x), np.full(3, 8.0))

    def test_aliased_first_contribution_is_not_written(self):
        # h gets three contributions; the first is the gradient of `s`
        # itself, handed on by `add`, which y's gradient also holds.
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 3))
        y = rng.standard_normal((2, 3))

        def loss(tx, ty):
            h = tx * 3.0
            u = tt.l2_norm_sq(h)
            v = tt.sum(tt.relu(h))
            s = h + ty
            return u + v + tt.l2_norm_sq(s)

        def f(arrays):
            tape = tt.Tape()
            return loss(tape.leaf(arrays[0]), tape.leaf(arrays[1])).item()

        tape = tt.Tape()
        tx, ty = tape.leaf(x), tape.leaf(y)
        grads = tt.backward(loss(tx, ty))
        np.testing.assert_array_equal(grads.wrt(ty), 2.0 * (3.0 * x + y))
        assert rel_err(grads.wrt(tx), fd_grad(f, [x, y], 0)) < 1e-6
        assert rel_err(grads.wrt(ty), fd_grad(f, [x, y], 1)) < 1e-6

    def test_weight_used_three_times_gets_one_stacked_gradient(self):
        # Three linear uses and one dense use (sum(w*w)) of one bound weight.
        rng = np.random.default_rng(47)
        w = rng.standard_normal((4, 6))
        xs = [rng.standard_normal((n, 6)) for n in (3, 1, 5)]
        cs = [rng.standard_normal((n, 4)) for n in (3, 1, 5)]
        tape = tt.Tape()
        key = object()
        tw = tape.bind(key, w)
        tb = tt.Tensor(np.zeros(4))
        loss = tt.sum(tw * tw)
        for x, c in zip(xs, cs):
            loss = loss + tt.sum(tt.linear(tt.Tensor(x), tw, tb) * tt.Tensor(c))
        grads = tt.backward(loss)
        want = sum(c.T @ x for x, c in zip(xs, cs)) + 2.0 * w
        out = np.empty_like(w)
        got = tt.form_gradient(*grads.parts(key), out=out)
        assert got is out
        for g in (grads.wrt(tw), grads.wrt_key(key, w), out):
            assert rel_err(g, want) < 1e-12
        np.testing.assert_array_equal(grads.wrt_key(object(), w), np.zeros_like(w))

    def test_non_leaf_weight_gets_its_product_at_once(self):
        rng = np.random.default_rng(48)
        w, x, c = (rng.standard_normal(shape) for shape in ((2, 3), (4, 3), (4, 2)))
        tape = tt.Tape()
        tw = tape.leaf(w)
        out = tt.linear(tt.Tensor(x), tw * 2.0, tt.Tensor(np.zeros(2)))
        grads = tt.backward(tt.sum(out * tt.Tensor(c)))
        np.testing.assert_allclose(grads.wrt(tw), 2.0 * (c.T @ x), rtol=1e-14)

    def test_mixed_tapes_rejected(self):
        t1, t2 = tt.Tape(), tt.Tape()
        with pytest.raises(ContractError):
            tt.add(t1.leaf(np.zeros(2)), t2.leaf(np.zeros(2)))


class TestStopGradient:
    def test_value_identical(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(tt.stop_gradient(x).data, x.data)

    def test_gradient_blocked(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([3.0]))
        loss = tt.sum(tt.stop_gradient(x) * x)
        grads = tt.backward(loss)
        # d/dx of const*x is const, not 2x.
        np.testing.assert_array_equal(grads.wrt(x), [3.0])

    def test_kl_gradient_blocked_on_first_argument_only(self):
        rng = np.random.default_rng(29)
        lp = rng.standard_normal((2, 3))
        lq = rng.standard_normal((2, 3))

        def kl(tape, logits_p, logits_q, detach_p):
            p = tt.softmax_rows(logits_p)
            if detach_p:
                p = tt.stop_gradient(p)
            q = tt.softmax_rows(logits_q)
            w = np.full(2, 0.5)
            return tt.xlogy_rows(p, p, w) - tt.xlogy_rows(p, q, w)

        tape = tt.Tape()
        tp, tq = tape.leaf(lp), tape.leaf(lq)
        grads = tt.backward(kl(tape, tp, tq, detach_p=True))
        np.testing.assert_array_equal(grads.wrt(tp), np.zeros_like(lp))
        gq = grads.wrt(tq)
        assert np.any(gq != 0.0)

        def f(arrays):
            tape = tt.Tape()
            return kl(tape, tt.Tensor(arrays[0]), tape.leaf(arrays[1]), True).item()

        assert rel_err(gq, fd_grad(f, [lp, lq], 1)) < 1e-6


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((5, 3))

        def run():
            tape = tt.Tape()
            out = tt.softmax_rows(tt.matmul(tape.leaf(x), tape.leaf(w)))
            return out.data.tobytes()

        assert run() == run()

    def test_randomized_ops_stay_finite(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            x = rng.standard_normal((3, 4)) * rng.uniform(0.1, 10)
            tape = tt.Tape()
            leaf = tape.leaf(x)
            out = tt.sum(tt.l1_norm(tt.softmax_rows(tt.relu(leaf)), axis=1))
            assert np.isfinite(out.data).all()
            grads = tt.backward(out)
            assert np.isfinite(grads.wrt(leaf)).all()
