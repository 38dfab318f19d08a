"""Layer, dropout, initializer, Adam, and checkpoint tests."""

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from oracles import DenseGradients, adam_trajectory, fd_grad, rel_err

import cral.tensor as tt
from cral.errors import ContractError, DimensionError, SpecError, TrainingError
from cral.nn import (
    ADAM_CHUNK,
    ADAM_PANEL,
    Adam,
    Mlp,
    MlpSpec,
    Parameter,
    draw_dropout_masks,
    init_params,
    load_checkpoint,
    mlp_forward,
    replacing,
    save_checkpoint,
)
from cral.tensor import Tensor


def read_rss_bytes():
    """This process's resident set size, or None where /proc is missing."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return None


def eval_forward(mlp, x):
    tape = tt.Tape()
    return mlp_forward(tape, mlp, tape.leaf(x)).data


class TestInit:
    def test_same_seed_identical(self):
        spec = MlpSpec(5, (7,), 3)
        a = init_params(spec, np.random.default_rng(42))
        b = init_params(spec, np.random.default_rng(42))
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_biases_zero(self):
        mlp = init_params(MlpSpec(4, (6, 5), 2), np.random.default_rng(0))
        for layer in mlp.layers:
            np.testing.assert_array_equal(layer.bias.value, 0.0)

    def test_weight_range_glorot(self):
        # 100x100 layer gives 10k draws against the closed-form bound.
        mlp = init_params(MlpSpec(100, (), 100, dropout_rate=0.0),
                          np.random.default_rng(1))
        w = mlp.layers[0].weight.value
        bound = math.sqrt(6.0 / 200.0)
        assert np.max(np.abs(w)) <= bound
        assert np.max(np.abs(w)) > 0.9 * bound  # uniform actually fills the range

    def test_invalid_dims_rejected(self):
        with pytest.raises(SpecError):
            MlpSpec(0, (4,), 2)
        with pytest.raises(SpecError):
            MlpSpec(4, (4,), 2, dropout_rate=1.0)

    def test_parameter_names_unique(self):
        mlp = init_params(MlpSpec(3, (4, 5), 2), np.random.default_rng(2), name="f")
        names = [p.name for p in mlp.params()]
        assert len(names) == len(set(names)) == 6


class TestForward:
    def test_eval_deterministic(self):
        mlp = init_params(MlpSpec(4, (8,), 2), np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal((5, 4))
        np.testing.assert_array_equal(eval_forward(mlp, x), eval_forward(mlp, x))

    def test_rate_zero_draws_no_masks_and_consumes_no_rng(self):
        mlp = init_params(MlpSpec(4, (8,), 2, dropout_rate=0.0),
                          np.random.default_rng(5))
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        assert draw_dropout_masks(mlp, 5, rng) is None
        assert rng.bit_generator.state == before

    def test_stacked_masks_are_one_draw_per_layer(self):
        spec = MlpSpec(4, (8, 6), 2, dropout_rate=0.25)
        stacked = init_params(spec, [np.random.default_rng(1), np.random.default_rng(2)])
        rng, replay = np.random.default_rng(3), np.random.default_rng(3)
        masks = draw_dropout_masks(stacked, 5, rng)
        for mask, width in zip(masks, (8, 6)):
            want = (replay.random((2, 5, width)) >= 0.25).astype(np.float64) / 0.75
            np.testing.assert_array_equal(mask, want)
        assert rng.bit_generator.state == replay.bit_generator.state
        single = init_params(spec, np.random.default_rng(1))
        assert [m.shape for m in draw_dropout_masks(single, 5, rng)] == [(5, 8), (5, 6)]

    def test_width_mismatch(self):
        mlp = init_params(MlpSpec(4, (8,), 2), np.random.default_rng(8))
        tape = tt.Tape()
        with pytest.raises(DimensionError):
            mlp_forward(tape, mlp, tape.leaf(np.zeros((3, 5))))

    def test_explicit_masks_replayed_verbatim(self):
        mlp = init_params(MlpSpec(4, (8,), 2), np.random.default_rng(9))
        x = np.random.default_rng(10).standard_normal((3, 4))
        masks = draw_dropout_masks(mlp, 3, np.random.default_rng(11))
        runs = []
        for _ in range(2):
            tape = tt.Tape()
            runs.append(mlp_forward(tape, mlp, tape.leaf(x), masks).data)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_inverted_dropout_expectation(self):
        # E[train output] over masks should match eval output within 2%.
        mlp = init_params(MlpSpec(6, (10,), 3), np.random.default_rng(12))
        x = np.random.default_rng(13).standard_normal((1, 6))
        reference = eval_forward(mlp, x)
        rng = np.random.default_rng(14)
        total = np.zeros_like(reference)
        draws = 10_000
        for _ in range(draws):
            tape = tt.Tape()
            total += mlp_forward(tape, mlp, tape.leaf(x),
                                 draw_dropout_masks(mlp, 1, rng)).data
        averaged = total / draws
        assert np.max(np.abs(averaged - reference)) <= 0.02 * max(
            1.0, float(np.max(np.abs(reference)))
        )

    def test_gradients_match_fd_eval_mode(self):
        rng = np.random.default_rng(15)
        mlp = init_params(MlpSpec(3, (4,), 2), rng)
        x = rng.standard_normal((2, 3))
        arrays = [x] + [p.value for p in mlp.params()]

        def f(arrs):
            mlp.layers[0].weight.value = arrs[1]
            mlp.layers[0].bias.value = arrs[2]
            mlp.layers[1].weight.value = arrs[3]
            mlp.layers[1].bias.value = arrs[4]
            tape = tt.Tape()
            return tt.l2_norm_sq(mlp_forward(tape, mlp, tape.leaf(arrs[0]))).item()

        tape = tt.Tape()
        leaf = tape.leaf(x)
        grads = tt.backward(tt.l2_norm_sq(mlp_forward(tape, mlp, leaf)))
        got = [grads.wrt(leaf)] + [grads.wrt_key(p, p.value) for p in mlp.params()]
        for i, analytic in enumerate(got):
            assert rel_err(analytic, fd_grad(f, arrays, i)) < 1e-4


def efficient_step(m, v, t, lr):
    """Kingma & Ba's efficient form of Adam's step, in Adam.step's float ops."""
    root = math.sqrt(1.0 - 0.999 ** t)
    lr_t, eps_t = lr * root / (1.0 - 0.9 ** t), 1e-8 * root
    return lr_t * m / (np.sqrt(v) + eps_t)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = Parameter("w", np.array([1.0, -2.0]))
        opt = Adam([p])
        opt.step(DenseGradients({}.get))
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_first_step_magnitude(self):
        p = Parameter("w", np.array(0.0))
        opt = Adam([p], lr=1e-4)
        opt.step(DenseGradients({p: np.array(1.0)}.get))
        expected = -1e-4 * 1.0 / (1.0 + 1e-8)
        assert p.value == pytest.approx(expected, abs=1e-16)

    def test_three_step_trajectory_matches_oracle(self):
        p = Parameter("w", np.array(1.0))
        opt = Adam([p], lr=1e-4)
        seen = []
        for _ in range(3):
            tape = tt.Tape()
            w = tape.bind(p, p.value)
            loss = w * w
            opt.step(tt.backward(loss))
            seen.append(float(p.value))
        expected = adam_trajectory(lambda w: 2.0 * w, 1.0, 3, lr=1e-4)
        for got, want in zip(seen, expected):
            assert abs(got - want) < 1e-12

    def test_nan_gradient_names_parameter(self):
        for bad_value in (np.nan, np.inf, -np.inf):
            p = Parameter("branch1/shared/layer0/weight", np.zeros(2))
            opt = Adam([p])
            bad = DenseGradients({p: np.array([bad_value, 0.0])}.get)
            with pytest.raises(TrainingError, match="branch1/shared/layer0/weight"):
                opt.step(bad)

    @pytest.mark.parametrize("shape", [(), (3,), (4, 5)])
    def test_in_place_update_matches_reference_bit_for_bit(self, shape):
        rng = np.random.default_rng(43)
        p = Parameter("w", rng.standard_normal(shape))
        opt = Adam([p], lr=1e-3)
        value, m, v = p.value.copy(), np.zeros(shape), np.zeros(shape)
        for t in range(1, 4):
            g = np.asarray(rng.standard_normal(shape))
            old = p.value
            opt.step(DenseGradients({p: g}.get))
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            value = value - efficient_step(m, v, t, lr=1e-3)
            assert p.value is old  # written in place
            np.testing.assert_array_equal(p.value, value)

    # (parameter shape, gradient of step t from a generator); the shapes
    # put a block boundary inside rows and leave a short last block.
    BLOCKED = {
        "two_blocks_plus_3": ((2 * ADAM_CHUNK + 3, 1),
                              lambda rng, shape: rng.standard_normal(shape)),
        "transposed": ((2 * ADAM_CHUNK // 100 + 3, 100),
                       lambda rng, shape: rng.standard_normal(shape[::-1]).T),
        "transposed_one_block": ((4, 5),
                                 lambda rng, shape: rng.standard_normal(shape[::-1]).T),
        "read_only_broadcast": ((2 * ADAM_CHUNK // 100 + 3, 100),
                                lambda rng, shape: np.broadcast_to(
                                    rng.standard_normal(shape[1]), shape)),
        "zero_d": ((), lambda rng, shape: np.asarray(rng.standard_normal(shape))),
    }

    @pytest.mark.parametrize("case", list(BLOCKED))
    def test_blocked_update_matches_reference_bit_for_bit(self, case):
        shape, draw = self.BLOCKED[case]
        rng = np.random.default_rng(44)
        p = Parameter("w", rng.standard_normal(shape))
        opt = Adam([p], lr=1e-3)
        value, m, v = p.value.copy(), np.zeros(shape), np.zeros(shape)
        for t in range(1, 4):
            g = draw(rng, shape)
            old = p.value
            opt.step(DenseGradients({p: g}.get))
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            value = value - efficient_step(m, v, t, lr=1e-3)
            assert p.value is old
            np.testing.assert_array_equal(p.value, value)
        got_m, got_v = opt.moments(p)
        np.testing.assert_array_equal(got_m, m)
        np.testing.assert_array_equal(got_v, v)

    def test_non_finite_last_block_names_parameter_before_writing_it(self):
        p = Parameter("main/layer0/weight", np.ones((2 * ADAM_CHUNK + 3, 1)))
        g = np.full(p.value.shape, 0.5)
        g[-1, 0] = np.nan
        old = p.value
        with pytest.raises(TrainingError, match="main/layer0/weight"):
            Adam([p]).step(DenseGradients({p: g}.get))
        assert p.value is old
        # The earlier blocks have moved; the bad block is untouched.
        assert np.all(old[:2 * ADAM_CHUNK] < 1.0)
        np.testing.assert_array_equal(old[2 * ADAM_CHUNK:], 1.0)

    @pytest.mark.parametrize("make", [lambda a: a.T, lambda a: a[:, ::2],
                                      lambda a: np.frombuffer(a.tobytes()).reshape(a.shape)],
                             ids=["transposed", "strided", "read_only"])
    def test_array_it_cannot_write_in_place_names_parameter(self, make):
        # Above ADAM_CHUNK, even strided, so Adam keeps the parameter's own
        # array instead of packing a copy.
        p = Parameter("branch1/clf/layer0/weight", np.ones((ADAM_CHUNK // 2 + 1, 6)))
        p.value = make(p.value)
        opt = Adam([p])
        before = p.value.copy()
        with pytest.raises(ContractError, match="branch1/clf/layer0/weight"):
            opt.step(DenseGradients({p: np.ones(p.value.shape)}.get))
        np.testing.assert_array_equal(p.value, before)

    # (name, shape, gradient of step t from a generator): a group mixing
    # packed parameters (a 0-d one included) with ones above ADAM_CHUNK.
    MIXED = [
        ("bias", (7,), lambda rng, shape: rng.standard_normal(shape)),
        ("big", (2 * ADAM_CHUNK // 100 + 3, 100),
         lambda rng, shape: rng.standard_normal(shape[::-1]).T),
        ("scale", (), lambda rng, shape: np.asarray(rng.standard_normal(shape))),
        ("weight", (30, 20), lambda rng, shape: rng.standard_normal(shape[::-1]).T),
        ("wide", (ADAM_CHUNK + 1,), lambda rng, shape: np.broadcast_to(
            rng.standard_normal(), shape)),
        ("head", (20, 30), lambda rng, shape: np.broadcast_to(
            rng.standard_normal(shape[1]), shape)),
    ]

    def test_mixed_group_matches_per_parameter_reference_bit_for_bit(self):
        rng = np.random.default_rng(50)
        params = [Parameter(name, rng.standard_normal(shape))
                  for name, shape, _ in self.MIXED]
        opt = Adam(params, lr=1e-3)
        ref = [(p.value.copy(), np.zeros(p.value.shape), np.zeros(p.value.shape))
               for p in params]
        arrays = [p.value for p in params]
        for t in range(1, 4):
            grads = {p: draw(rng, p.value.shape)
                     for p, (_, _, draw) in zip(params, self.MIXED)}
            opt.step(DenseGradients(grads.get))
            for k, p in enumerate(params):
                value, m, v = ref[k]
                g = grads[p]
                m = 0.9 * m + (1.0 - 0.9) * g
                v = 0.999 * v + (1.0 - 0.999) * g * g
                ref[k] = (value - efficient_step(m, v, t, lr=1e-3), m, v)
        for p, array, (value, m, v) in zip(params, arrays, ref):
            assert p.value is array
            got_m, got_v = opt.moments(p)
            np.testing.assert_array_equal(p.value, value, err_msg=p.name)
            np.testing.assert_array_equal(got_m, m, err_msg=p.name)
            np.testing.assert_array_equal(got_v, v, err_msg=p.name)

    def plan_group(self, rng):
        """The MIXED shapes and a stacked weight above ADAM_CHUNK."""
        return [Parameter(name, rng.standard_normal(shape)) for name, shape, _ in self.MIXED] + [
            Parameter("shared/layer0/weight", rng.standard_normal((2, 25, 1000)), stacked=True)]

    def test_moments_of_a_mixed_group_tile_one_flat_pair(self):
        params = self.plan_group(np.random.default_rng(55))
        opt = Adam(params)
        for k, flat in enumerate((opt._m, opt._v)):
            hits = np.zeros(flat.size, dtype=int)
            for p in params:
                view = opt.moments(p)[k]
                assert view.base is flat and view.shape == p.value.shape, p.name
                assert view.flags.c_contiguous, p.name
                lo = (view.ctypes.data - flat.ctypes.data) // flat.itemsize
                hits[lo:lo + view.size] += 1
            np.testing.assert_array_equal(hits, 1)

    def test_step_makes_one_blocked_update_per_run(self, monkeypatch):
        # A panel of 10,000 elements: 100 rows of "big", 10,000 of "wide"
        # and 10 of each branch half of the stacked weight.
        monkeypatch.setattr("cral.nn.ADAM_PANEL", 10_000)
        rng = np.random.default_rng(56)
        params = self.plan_group(rng)
        opt = Adam(params)
        sizes, blocks = [], Adam._blocks
        monkeypatch.setattr(Adam, "_blocks", lambda self, value, *rest: sizes.append(
            value.size) or blocks(self, value, *rest))
        opt.step(DenseGradients({p: rng.standard_normal(p.value.shape) for p in params}.get))
        packed = sum(p.value.size for p in params if p.value.size <= ADAM_CHUNK)
        panels = 0
        for p in params:
            if p.value.size > ADAM_CHUNK:
                for half in (p.value if p.stacked else [p.value]):
                    rows = max(1, 10_000 // (half.size // len(half)))
                    panels += math.ceil(len(half) / rows)
        assert panels == 4 + 2 + 2 * 3
        assert len(sizes) == 1 + panels and sizes[0] == packed
        assert sum(sizes) == sum(p.value.size for p in params)

    def test_non_finite_in_a_middle_packed_parameter_names_it_before_writing_its_block(self):
        # Packed: 10,000 + 10,000 + 10,000 elements, two blocks; the NaN
        # sits in the middle parameter's part of the second block.
        size = 10_000
        params = [Parameter(f"branch1/specific{k}/layer0/bias", np.ones(size))
                  for k in range(3)]
        grads = {p: np.full(size, 0.5) for p in params}
        opt = Adam(params)
        opt.step(DenseGradients(grads.get))

        def state():  # packed values, m and v
            return [np.concatenate(column)
                    for column in zip(*[(p.value, *opt.moments(p)) for p in params])]

        before = state()
        grads[params[1]][ADAM_CHUNK + 100 - size] = np.nan
        with pytest.raises(TrainingError, match="branch1/specific1/layer0/bias"):
            opt.step(DenseGradients(grads.get))
        # The first block has moved; the block holding the NaN has not.
        for got, old in zip(state(), before):
            assert np.all(got[:ADAM_CHUNK] != old[:ADAM_CHUNK])
            np.testing.assert_array_equal(got[ADAM_CHUNK:], old[ADAM_CHUNK:])

    def test_non_finite_in_a_packed_stacked_parameter_names_its_branch(self):
        params = [Parameter("disc/layer0/bias", np.ones((2, 3)), stacked=True),
                  Parameter("clf/layer0/weight", np.ones((2, 4, 3)), stacked=True)]
        grads = {p: np.full(p.value.shape, 0.5) for p in params}
        grads[params[1]][1, 2, 0] = np.nan
        opt = Adam(params)
        with pytest.raises(TrainingError, match="parameter branch2/clf/layer0/weight$"):
            opt.step(DenseGradients(grads.get))
        for p in params:  # one block, not written
            np.testing.assert_array_equal(p.value, 1.0)

    def test_large_stacked_parameter_is_updated_one_branch_at_a_time(self):
        # 3 x ADAM_CHUNK elements: each branch's array is one and a half
        # blocks, formed into a buffer of that size.
        p = Parameter("shared/layer0/weight", np.ones((2, 3, ADAM_CHUNK // 2)), stacked=True)
        g = np.full(p.value.shape, 0.5)
        opt = Adam([p])
        assert opt._grad.size == p.value[0].size
        opt.step(DenseGradients({p: g}.get))
        value, m, v = p.value.copy(), np.full(g.shape, 0.1 * 0.5), np.full(g.shape, 0.001 * 0.25)
        np.testing.assert_array_equal(value, 1.0 - efficient_step(m, v, 1, lr=1e-4))
        g[1, 1, 0] = np.nan  # in branch 2's first block
        with pytest.raises(TrainingError, match="parameter branch2/shared/layer0/weight$"):
            opt.step(DenseGradients({p: g}.get))
        assert np.all(p.value[0] < value[0])  # branch 1 moved
        np.testing.assert_array_equal(p.value[1], value[1])  # its bad block was not written

    def test_non_finite_in_one_block_names_its_parameter_and_writes_nothing(self):
        params = [Parameter(name, np.ones(shape)) for name, shape in
                  [("a", (3,)), ("b", (2, 4)), ("c", ()), ("d", (5,))]]
        grads = {p: np.full(p.value.shape, 0.5) for p in params}
        grads[params[2]] = np.array(np.inf)
        grads[params[3]][0] = np.nan
        opt = Adam(params)
        with pytest.raises(TrainingError, match="parameter c$"):
            opt.step(DenseGradients(grads.get))
        for p in params:
            np.testing.assert_array_equal(p.value, 1.0)

    @pytest.mark.parametrize("repoint", [
        lambda p: setattr(p, "value", p.value.copy()),
        lambda p: Adam([p]),
    ], ids=["replaced", "packed_by_another_optimizer"])
    def test_re_pointed_packed_parameter_raises_before_anything_moves(self, repoint):
        params = [Parameter(f"p{k}", np.ones((2, 3))) for k in range(3)]
        opt = Adam(params)
        repoint(params[1])
        with pytest.raises(ContractError, match="parameter p1 "):
            opt.step(DenseGradients({p: np.ones((2, 3)) for p in params}.get))
        for p in params:
            np.testing.assert_array_equal(p.value, 1.0)
        assert opt.t == 0

    def test_packs_small_parameters_into_one_array_once(self):
        values = [np.arange(6.0).reshape(2, 3), np.array(7.0),
                  np.ones(ADAM_CHUNK + 1), np.arange(4.0)[::-1], np.ones(ADAM_PANEL + 1)]
        params = [Parameter(f"p{k}", v) for k, v in enumerate(values)]
        opt = Adam(params)
        packed = [params[k].value for k in (0, 1, 3)]
        # Views of one array, back to back in the group's order.
        assert all(a.base is packed[0].base is not None for a in packed)
        assert [a.ctypes.data - packed[0].ctypes.data for a in packed] == [0, 48, 56]
        assert all(a.flags.c_contiguous and a.flags.writeable for a in packed)
        assert params[2].value is values[2] and params[4].value is values[4]
        for p, v in zip(params, values):
            np.testing.assert_array_equal(p.value, v)
        # The larger parameters' gradients come one panel at a time.
        assert opt._grad.size == ADAM_PANEL

    def test_update_allocates_no_parameter_sized_array(self):
        p = Parameter("w", np.random.default_rng(45).standard_normal((1000, 1000)))
        g = np.random.default_rng(46).standard_normal(p.value.shape)
        opt = Adam([p], lr=1e-3)
        grads = DenseGradients({p: g}.get)
        tracemalloc.start()
        try:
            opt.step(grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A whole-array temporary would add 8 MB.
        assert peak <= 8 * ADAM_CHUNK

    def test_step_on_a_real_tape_allocates_no_weight_sized_array(self):
        # Two linear uses of one 1000x1000 weight: the gradient is one
        # product per panel, formed into the optimizer's own buffer.
        rng = np.random.default_rng(49)
        p = Parameter("w", rng.standard_normal((1000, 1000)))
        bias = Tensor(np.zeros(1000))
        opt = Adam([p], lr=1e-3)
        tape = tt.Tape()
        w = tape.bind(p, p.value)
        loss = tt.add(*(tt.sum(tt.linear(Tensor(rng.standard_normal((8, 1000))), w, bias))
                        for _ in range(2)))
        tracemalloc.start()
        try:
            opt.step(tt.backward(loss))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.value.nbytes

    def test_init_allocates_moments_and_one_gradient_buffer(self):
        shapes = [(5000, 1000), (1000, 1000), (2, ADAM_CHUNK // 2), (3,)]
        params = [Parameter(f"p{k}", np.ones(shape)) for k, shape in enumerate(shapes)]
        total = sum(p.value.nbytes for p in params)
        largest = params[0].value.nbytes
        panel = 8 * (ADAM_PANEL // 1000) * 1000  # whole rows of 1000
        rss = read_rss_bytes()
        tracemalloc.start()
        try:
            opt = Adam(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * total + panel + 2 * 8 * ADAM_CHUNK + 65536
        assert opt._grad.nbytes == panel
        if rss is not None:
            # np.zeros and np.empty map no page, so neither the moments nor
            # the buffer should add resident memory; moments zero-filled by
            # np.zeros_like or fill would add twice `total`.
            assert read_rss_bytes() - rss < largest // 2

    # A stacked weight of 600 rows of 1000 per branch: three panels each
    # (262 + 262 + 76 rows), the middle one starting at row 262.
    PANELED = (2, 600, 1000)

    def paneled_loss(self, p, rng, nan_at=None):
        """A loss whose gradient in p is G^T X + p: a shared-input use
        (c1, x1), a per-branch one (c2, x2) and a dense part; with nan_at
        (branch, row), that row of that branch's gradient is NaN."""
        rows, width = self.PANELED[1:]
        x1, x2 = rng.standard_normal((8, width)), rng.standard_normal((2, 6, width))
        c1, c2 = rng.standard_normal((2, 8, rows)), rng.standard_normal((2, 6, rows))
        if nan_at is not None:
            c1[nan_at[0], 0, nan_at[1]] = np.nan
        tape = tt.Tape()
        w, b = tape.bind(p, p.value), Tensor(np.zeros((2, rows)))
        loss = tt.add(tt.add(tt.sum(tt.mul(tt.linear(Tensor(x1), w, b), Tensor(c1))),
                             tt.sum(tt.mul(tt.linear(Tensor(x2), w, b), Tensor(c2)))),
                      tt.mul(tt.l2_norm_sq(w), Tensor(0.5)))
        # backward keeps the uses' row factors last use first.
        whole = np.stack([np.matmul(np.concatenate([c2[k], c1[k]]).T,
                                    np.concatenate([x2[k], x1])) for k in range(2)])
        return loss, whole + p.value

    def test_panels_match_the_whole_gradient_bit_for_bit(self):
        # Exact equality with a whole product rests on BLAS tiling a band of
        # rows as it tiles the whole matrix; OpenBLAS 0.3.31 does at input
        # width 1000, not at 500 or 2500 (see README's Determinism paragraph).
        rng = np.random.default_rng(51)
        p = Parameter("shared/layer1/weight", 0.1 * rng.standard_normal(self.PANELED),
                      stacked=True)
        opt = Adam([p], lr=1e-3)
        assert opt._grad.size == 262 * 1000
        value, m, v = p.value.copy(), np.zeros(p.value.shape), np.zeros(p.value.shape)
        for t in range(1, 4):
            loss, g = self.paneled_loss(p, rng)
            opt.step(tt.backward(loss))
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            value = value - efficient_step(m, v, t, lr=1e-3)
            got_m, got_v = opt.moments(p)
            np.testing.assert_array_equal(p.value, value)
            np.testing.assert_array_equal(got_m, m)
            np.testing.assert_array_equal(got_v, v)

        # A NaN in the first row of branch 2's middle panel: branch 1 and
        # branch 2's first panel move, the rest is not written.
        before = [a.copy() for a in (p.value, *opt.moments(p))]
        loss, _ = self.paneled_loss(p, rng, nan_at=(1, 262))
        with pytest.raises(TrainingError, match="parameter branch2/shared/layer1/weight$"):
            opt.step(tt.backward(loss))
        for got, old in zip((p.value, *opt.moments(p)), before):
            assert np.all(got[0] != old[0])
            assert np.all(got[1, :262] != old[1, :262])
            np.testing.assert_array_equal(got[1, 262:], old[1, 262:])

    def test_step_reads_each_parameters_pieces_once(self, monkeypatch):
        # A stacked weight over both branches and four panels each, read by
        # a shared and a stacked input: its pieces are read, and its G and
        # X joined, once per step, not once per branch or panel.
        monkeypatch.setattr("cral.nn.ADAM_PANEL", 10 * 1000)
        rng = np.random.default_rng(54)
        w = Parameter("shared/layer0/weight", rng.standard_normal((2, 40, 1000)),
                      stacked=True)
        b = Parameter("shared/layer0/bias", np.zeros((2, 40)), stacked=True)
        opt = Adam([w, b], lr=1e-3)
        x1, x2 = (Tensor(rng.standard_normal(shape)) for shape in ((3, 1000), (2, 4, 1000)))
        reads, joins, parts, concatenate = [], [], tt.Gradients.parts, np.concatenate
        monkeypatch.setattr(tt.Gradients, "parts",
                            lambda grads, key: reads.append(key) or parts(grads, key))
        monkeypatch.setattr(np, "concatenate",
                            lambda *a, **k: joins.append(a) or concatenate(*a, **k))
        for _ in range(2):
            tape = tt.Tape()
            tw, tb = tape.bind(w, w.value), tape.bind(b, b.value)
            grads = tt.backward(tt.add(tt.l2_norm_sq(tt.linear(x1, tw, tb)),
                                       tt.l2_norm_sq(tt.linear(x2, tw, tb))))
            reads.clear(), joins.clear()
            opt.step(grads)
            assert reads == [b, w] and len(joins) == 2  # G and X

    def test_large_vector_is_updated_one_panel_at_a_time(self):
        rng = np.random.default_rng(52)
        p = Parameter("wide/bias", rng.standard_normal(ADAM_PANEL + 5))
        opt = Adam([p], lr=1e-3)
        assert opt._grad.size == ADAM_PANEL
        value, m, v = p.value.copy(), np.zeros(p.value.shape), np.zeros(p.value.shape)
        for t in range(1, 3):
            g = rng.standard_normal(p.value.shape)
            opt.step(DenseGradients({p: g}.get))
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            value = value - efficient_step(m, v, t, lr=1e-3)
            np.testing.assert_array_equal(p.value, value)

    def test_step_at_paper_width_holds_one_panel_beside_the_moments(self):
        # One branch half of (400, 2500) is 8 MB; a panel is 104 of its rows.
        rng = np.random.default_rng(53)
        p = Parameter("shared/layer0/weight", rng.standard_normal((2, 400, 2500)),
                      stacked=True)
        x = Tensor(rng.standard_normal((16, 2500)))
        tracemalloc.start()
        try:
            opt = Adam([p], lr=1e-3)
            tape = tt.Tape()
            opt.step(tt.backward(tt.sum(tt.linear(x, tape.bind(p, p.value),
                                                  Tensor(np.zeros((2, 400)))))))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert opt._grad.nbytes <= 8 * ADAM_PANEL
        assert peak <= 2 * p.value.nbytes + 8 * ADAM_PANEL + 524288

    def test_descends_quadratic(self):
        p = Parameter("w", np.array(1.0))
        opt = Adam([p], lr=1e-2)
        for _ in range(500):
            tape = tt.Tape()
            w = tape.bind(p, p.value)
            opt.step(tt.backward(w * w))
        assert abs(float(p.value)) < 0.1
        assert np.isfinite(p.value)


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        arrays = {
            "a/weight": rng.standard_normal((3, 4)),
            "a/bias": rng.standard_normal(4),
            "scalarish": np.array(3.25),
        }
        meta = {"num_domains": 4, "input_dim": 6, "note": "round-trip"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays, meta)
        got_meta, got = load_checkpoint(path)
        assert got_meta == meta
        assert set(got) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(got[name], arrays[name])
            assert got[name].shape == arrays[name].shape

    def test_failed_save_leaves_previous_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"a": np.arange(3.0)}, {"k": 1})
        before = path.read_bytes()
        # "b" sorts after "a", so the write fails after "a"'s record.
        with pytest.raises(ValueError):
            save_checkpoint(path, {"a": np.ones(4), "b": "not a number"}, {"k": 2})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_replacing_text_raising_part_way_keeps_previous_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with replacing(path, "w") as fh:
                fh.write("new, half written")
                raise RuntimeError("crash")
        assert path.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.jsonl"]
        with replacing(path, "w") as fh:
            fh.write("new\n")
        assert path.read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.jsonl"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPTxxxx")
        with pytest.raises(ContractError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))}, {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ContractError, match="truncated"):
            load_checkpoint(path)

    # save_checkpoint(path, {"w": ones(2)}, {}) writes an 8-byte magic, the
    # version and the metadata length (4 bytes each), the 2-byte metadata
    # "{}", the record count, then the one record.
    META, COUNT = slice(16, 18), slice(18, 22)

    def rejected(self, tmp_path, edit, reason):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones(2)}, {})
        path.write_bytes(edit(bytearray(path.read_bytes())))
        with pytest.raises(ContractError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
        assert reason in str(info.value)

    @pytest.mark.parametrize("header, reason", [
        (b"\xff{", "metadata is not UTF-8"),
        (b"{x", "metadata is not JSON"),
        (b"[]", "metadata is not a JSON object"),
    ], ids=["utf8", "json", "object"])
    def test_bad_metadata_rejected(self, tmp_path, header, reason):
        def edit(blob):
            blob[self.META] = header
            return blob
        self.rejected(tmp_path, edit, reason)

    # The record starts at COUNT.stop: name length, the name "w", then ndim
    # and the one dim; a size beyond the file's end is not read.
    NDIM_AND_DIMS = slice(27, 35)

    @pytest.mark.parametrize("fields, reason", [
        ((0xFFFFFFF0,), "truncated while reading dims"),
        ((2, 2 ** 30, 64), "truncated while reading data for w"),
        ((3, 0xFFFFFFF0, 0xFFFFFFF0, 0xFFFFFFF0), "truncated while reading data for w"),
    ], ids=["ndim", "dims", "overflowing_dims"])
    def test_oversized_record_rejected(self, tmp_path, fields, reason):
        def edit(blob):
            blob[self.NDIM_AND_DIMS] = struct.pack(f"<{len(fields)}I", *fields)
            return blob
        self.rejected(tmp_path, edit, reason)

    def test_trailing_bytes_rejected(self, tmp_path):
        self.rejected(tmp_path, lambda blob: blob + b"\0", "bytes after its last record")

    def test_duplicate_record_rejected(self, tmp_path):
        def edit(blob):
            record = blob[self.COUNT.stop:]
            blob[self.COUNT] = struct.pack("<I", 2)
            return blob + record
        self.rejected(tmp_path, edit, "two records named 'w'")
