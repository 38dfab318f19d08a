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

    def test_log_gradient_analytic(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([0.5]))
        grads = tt.backward(tt.sum(tt.log(x)))
        np.testing.assert_allclose(grads.wrt(x), [2.0], rtol=1e-12)

    def test_clamp_min_gradient_gates(self):
        tape = tt.Tape()
        x = tape.leaf(np.array([0.5, 2.0]))
        grads = tt.backward(tt.sum(tt.clamp_min(x, 1.0)))
        np.testing.assert_array_equal(grads.wrt(x), [0.0, 1.0])

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

    @pytest.mark.parametrize("op", [tt.log,
                                    lambda t: tt.clamp_min(t, 0.3),
                                    lambda t: tt.clamp_max(t, 0.7)])
    def test_unary_gradients_match_fd(self, op):
        rng = np.random.default_rng(11)
        # Keep away from kinks and the log domain edge.
        x = rng.uniform(0.4, 1.5, size=(3, 2))
        x[0, 0] = 0.9

        def f(arrays):
            tape = tt.Tape()
            return tt.sum(op(tape.leaf(arrays[0]))).item()

        tape = tt.Tape()
        leaf = tape.leaf(x)
        grads = tt.backward(tt.sum(op(leaf)))
        assert rel_err(grads.wrt(leaf), fd_grad(f, [x], 0)) < 1e-6


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
        np.testing.assert_array_equal(tt.mean(x, axis=0).data, [2.0, 3.0])

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            tt.sum(tt.Tensor(np.zeros((2, 2))), axis=2)

    @pytest.mark.parametrize("reduce_op,axis", [
        (tt.sum, None), (tt.sum, 0), (tt.sum, 1),
        (tt.mean, None), (tt.mean, 1),
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
    def test_add_bias_and_gradient(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)

        def f(arrays):
            tape = tt.Tape()
            out = tt.add_bias(tape.leaf(arrays[0]), tape.leaf(arrays[1]))
            return tt.sum(tt.l2_norm_sq(out)).item()

        tape = tt.Tape()
        tx, tb = tape.leaf(x), tape.leaf(b)
        grads = tt.backward(tt.l2_norm_sq(tt.add_bias(tx, tb)))
        assert rel_err(grads.wrt(tx), fd_grad(f, [x, b], 0)) < 1e-6
        assert rel_err(grads.wrt(tb), fd_grad(f, [x, b], 1)) < 1e-6

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

    def test_transpose_roundtrip_gradient(self):
        tape = tt.Tape()
        w = tape.leaf(np.arange(6.0).reshape(2, 3))
        grads = tt.backward(tt.sum(tt.transpose(w)))
        np.testing.assert_array_equal(grads.wrt(w), np.ones((2, 3)))


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
        b = tape.bind(key, np.array([1.0]))
        assert a is b

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
            ratio = tt.log(tt.clamp_min(p, 1e-12)) - tt.log(tt.clamp_min(q, 1e-12))
            return tt.mean(tt.sum(p * ratio, axis=1))

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
            out = tt.mean(tt.l1_norm(tt.softmax_rows(tt.relu(leaf)), axis=1))
            assert np.isfinite(out.data).all()
            grads = tt.backward(out)
            assert np.isfinite(grads.wrt(leaf)).all()
